"""Energy- and emission-aware cloud provisioning economics.

The package models the cost trade-off a green cloud provider faces each
time unit: provisioning above mean demand wastes energy (and its CO2e),
provisioning below peak demand risks SLA violation penalties. It offers

* demand profiles with exact statistics and reproducible sampling
  (:mod:`greenprov.demand`),
* the linear cost model and its wastage-penalty equilibrium
  (:mod:`greenprov.balance`),
* seeded Monte Carlo policy simulation (:mod:`greenprov.simulate`),
* emission-credit market accounting (:mod:`greenprov.market`),
* strict YAML configs and a CLI (:mod:`greenprov.config`,
  ``greenprov balance|simulate|etm|sweep``).
"""

from .balance import (
    FAILURES,
    BalanceResult,
    CostRates,
    DemandStats,
    balance_closed_form,
    balance_grid,
    balance_numeric,
    heuristic_band,
    violation_probability_linear,
)
from .config import (
    ParsedConfig,
    build_scenario,
    load_config,
    scenario_from_dict,
    scenario_to_dict,
)
from .demand import (
    DEFAULT_QUANTILE,
    EMPIRICAL,
    LOGNORMAL,
    MEAN_PLUS_VARIANCE,
    QUANTILE,
    TRUE_UPPER_BOUND,
    TRUNCATED_NORMAL,
    UNIFORM,
    DemandProfile,
    make_profile,
)
from .errors import (
    ConfigError,
    DegenerateCosts,
    InvalidDistribution,
    InvalidRates,
    InvalidScenario,
    InvalidStats,
    NonFiniteResult,
    NoRootInRange,
    PolicyUnresolvable,
    UnboundedSupport,
)
from .market import (
    DataCenterAccount,
    MarketSettlement,
    SettlementEntry,
    cer_position,
    derive_co2_rate,
    emissions_from_report,
    settle,
)
from .simulate import (
    GridSearchResult,
    Policy,
    PolicyComparison,
    PolicyRun,
    Scenario,
    SimulationReport,
    StepTrace,
    compare_policies,
    empirical_optimum,
    realized_cost,
    resolve_policy,
    run_simulation,
)

__version__ = "0.1.0"

__all__ = [
    "BalanceResult",
    "ConfigError",
    "CostRates",
    "DataCenterAccount",
    "DEFAULT_QUANTILE",
    "DegenerateCosts",
    "DemandProfile",
    "DemandStats",
    "EMPIRICAL",
    "FAILURES",
    "GridSearchResult",
    "InvalidDistribution",
    "InvalidRates",
    "InvalidScenario",
    "InvalidStats",
    "LOGNORMAL",
    "MarketSettlement",
    "NonFiniteResult",
    "NoRootInRange",
    "MEAN_PLUS_VARIANCE",
    "ParsedConfig",
    "Policy",
    "PolicyComparison",
    "PolicyRun",
    "PolicyUnresolvable",
    "QUANTILE",
    "Scenario",
    "SettlementEntry",
    "SimulationReport",
    "StepTrace",
    "TRUE_UPPER_BOUND",
    "TRUNCATED_NORMAL",
    "UNIFORM",
    "UnboundedSupport",
    "balance_closed_form",
    "balance_grid",
    "balance_numeric",
    "build_scenario",
    "cer_position",
    "compare_policies",
    "derive_co2_rate",
    "emissions_from_report",
    "empirical_optimum",
    "heuristic_band",
    "load_config",
    "make_profile",
    "realized_cost",
    "resolve_policy",
    "run_simulation",
    "scenario_from_dict",
    "scenario_to_dict",
    "settle",
    "violation_probability_linear",
]
