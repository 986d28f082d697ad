"""Seeded Monte Carlo simulation of provisioning policies.

Each run plays a provisioning policy against demand sampled step by step
from a profile, counting SLA violations (demand above the provisioned
level) and accumulating realized wastage cost, energy use, and emissions.
Results are deterministic functions of (scenario, seed): every replication
owns a private generator stream derived from the scenario seed and the
replication index, and policies compared under the same seed see identical
demand paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import numpy.random  # noqa: F401  numpy 2 defers it; load it here, not in the first run

from .balance import (
    BalanceResult,
    CostRates,
    DemandStats,
    heuristic_band,
    solve_balance,
    violation_probability_linear,
)
from .demand import DemandProfile
from .errors import (
    DegenerateCosts,
    InvalidScenario,
    NoRootInRange,
    PolicyUnresolvable,
)

# Auto traces are only collected up to this many demand draws.
TRACE_STEP_LIMIT = 100_000

# Demand is drawn and evaluated this many steps at a time.
_CHUNK = 1 << 16

FIXED_AGREED = "fixed_agreed"
MEAN_FOLLOW = "mean_follow"
BALANCE = "balance"
BALANCE_BAND = "balance_band"
FIXED_LEVEL = "fixed_level"

POLICY_KINDS = (FIXED_AGREED, MEAN_FOLLOW, BALANCE, BALANCE_BAND, FIXED_LEVEL)


@dataclass(frozen=True)
class Policy:
    """Rule mapping scenario statistics to one provisioned level per step.

    Policies are static within a run: the level is fixed from the demand
    statistics before the first step and clamped into [0, r_agreed].
    """

    kind: str
    x_percent: float | None = None
    level: float | None = None

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise InvalidScenario(f"unknown policy kind: {self.kind!r}")
        if self.kind == BALANCE_BAND:
            if self.x_percent is None or not 0.0 <= self.x_percent < 1.0:
                raise InvalidScenario(
                    f"balance_band needs x_percent in [0, 1), got {self.x_percent}"
                )
        elif self.kind == FIXED_LEVEL:
            if self.level is None or not math.isfinite(self.level) or self.level < 0.0:
                raise InvalidScenario(
                    f"fixed_level needs a finite level >= 0, got {self.level}"
                )

    @classmethod
    def fixed_agreed(cls) -> "Policy":
        return cls(FIXED_AGREED)

    @classmethod
    def mean_follow(cls) -> "Policy":
        return cls(MEAN_FOLLOW)

    @classmethod
    def balance(cls) -> "Policy":
        return cls(BALANCE)

    @classmethod
    def balance_band(cls, x_percent: float) -> "Policy":
        return cls(BALANCE_BAND, x_percent=x_percent)

    @classmethod
    def fixed_level(cls, level: float) -> "Policy":
        return cls(FIXED_LEVEL, level=level)

    @property
    def label(self) -> str:
        if self.kind == BALANCE_BAND:
            return f"balance_band({self.x_percent:g})"
        if self.kind == FIXED_LEVEL:
            return f"fixed_level({self.level:g})"
        return self.kind


def _balance(stats: DemandStats, rates: CostRates) -> BalanceResult:
    try:
        return solve_balance(stats, rates)
    except (DegenerateCosts, NoRootInRange) as exc:
        raise PolicyUnresolvable(f"balance policy unresolvable: {exc}") from exc


def resolve_policy(policy: Policy, stats: DemandStats, rates: CostRates) -> float:
    """Concrete provisioning level for a policy, clamped to [0, r_agreed]."""
    if policy.kind == FIXED_AGREED:
        level = stats.r_agreed
    elif policy.kind == MEAN_FOLLOW:
        level = stats.mean_demand
    elif policy.kind == FIXED_LEVEL:
        level = policy.level
    elif policy.kind == BALANCE:
        level = _balance(stats, rates).r_provisioned
    else:  # BALANCE_BAND: the band is symmetric about the balance, so the
        # low (energy-saving) edge unless the high edge is cut at r_agreed,
        # which is then nearer.
        result = _balance(stats, rates)
        lo, hi = heuristic_band(result, policy.x_percent, stats)
        level = hi if hi < result.r_provisioned * (1.0 + policy.x_percent) else lo
    return min(max(level, 0.0), stats.r_agreed)


@dataclass(frozen=True)
class Scenario:
    """Complete simulation configuration.

    ``energy_full`` is the energy drawn per time step when provisioning all
    of r_agreed; actual energy scales linearly with the provisioned level.
    ``clamp_demand_to_agreed`` truncates sampled demand at r_agreed, for
    profiles whose support exceeds the agreement.
    """

    profile: DemandProfile
    stats: DemandStats
    rates: CostRates
    policy: Policy
    steps: int
    replications: int
    seed: int
    energy_full: float
    carbon_intensity: float
    clamp_demand_to_agreed: bool = False

    def __post_init__(self):
        if self.steps < 1:
            raise InvalidScenario(f"steps must be >= 1, got {self.steps}")
        if self.replications < 1:
            raise InvalidScenario(f"replications must be >= 1, got {self.replications}")
        if not 0 <= self.seed < 2**64:
            raise InvalidScenario(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if not math.isfinite(self.energy_full) or self.energy_full < 0.0:
            raise InvalidScenario(f"energy_full must be >= 0, got {self.energy_full}")
        if not math.isfinite(self.carbon_intensity) or self.carbon_intensity < 0.0:
            raise InvalidScenario(
                f"carbon_intensity must be >= 0, got {self.carbon_intensity}"
            )


@dataclass(eq=False)
class StepTrace:
    """Per-step record arrays, one entry per (replication, step)."""

    replication: np.ndarray
    step: np.ndarray
    demand: np.ndarray
    provisioned: np.ndarray
    violation: np.ndarray
    wasted: np.ndarray
    wastage_cost: np.ndarray
    penalty_cost: np.ndarray

    def __len__(self) -> int:
        return len(self.step)


@dataclass(eq=False)
class SimulationReport:
    """Aggregate outcome of one simulation run (plus optional trace).

    The model_* fields are the linear cost model's predictions at the
    resolved level, surfaced next to the realized counterparts; the
    wastage prediction is floored at zero below mean demand, where the
    linear model leaves its domain.  tail_violation_probability is the
    profile's exact exceedance probability at the level, which matches
    realized violation frequency for every family (the linear model is
    exact only for uniform demand anchored at zero).
    """

    seed: int
    scenario: Scenario
    provision_level: float
    violation_count: int
    violation_frequency: float
    total_wastage_cost: float
    total_penalty_cost: float
    total_expected_model_cost: float
    total_energy_kwh: float
    total_emissions_kg: float
    total_energy_use_cost: float
    total_co2_use_cost: float
    energy_saved_kwh: float
    model_violation_probability: float
    tail_violation_probability: float
    trace: StepTrace | None = None

    def aggregate_dict(self) -> dict:
        """Scalar aggregates, the report's serializable core."""
        return {
            "provision_level": self.provision_level,
            "violation_count": self.violation_count,
            "violation_frequency": self.violation_frequency,
            "total_wastage_cost": self.total_wastage_cost,
            "total_penalty_cost": self.total_penalty_cost,
            "total_expected_model_cost": self.total_expected_model_cost,
            "total_energy_kwh": self.total_energy_kwh,
            "total_emissions_kg": self.total_emissions_kg,
            "total_energy_use_cost": self.total_energy_use_cost,
            "total_co2_use_cost": self.total_co2_use_cost,
            "energy_saved_kwh": self.energy_saved_kwh,
            "model_violation_probability": self.model_violation_probability,
            "tail_violation_probability": self.tail_violation_probability,
        }


def _replication_rng(seed: int, index: int) -> np.random.Generator:
    # One private PCG64 stream per replication; SeedSequence keys the pair
    # (seed, index) stably across platforms.
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def _evaluate(
    scenario: Scenario, levels, keep: bool = False
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Violation count and total wasted capacity at each level, in one pass.

    Every level sees the same demand (common random numbers), drawn once
    _CHUNK steps at a time; a sorted chunk and its prefix sum cost each
    level one binary search.  ``keep`` also returns the unsorted chunks.
    """
    g = np.asarray(levels, dtype=float)
    violations = np.zeros(len(g), dtype=np.int64)
    wasted = np.zeros(len(g))
    kept: list[np.ndarray] = []
    for rep in range(scenario.replications):
        rng = _replication_rng(scenario.seed, rep)
        for start in range(0, scenario.steps, _CHUNK):
            # chunked draws give the same stream as one draw of all steps
            demand = scenario.profile.sample_many(rng, min(_CHUNK, scenario.steps - start))
            if scenario.clamp_demand_to_agreed:
                demand = np.minimum(demand, scenario.stats.r_agreed)
            if keep:
                kept.append(demand)
            d = np.sort(demand)
            prefix = np.concatenate(([0.0], np.cumsum(d)))
            below = np.searchsorted(d, g, "right")  # draws with demand <= g
            violations += len(d) - below
            # sum(g - d) over those draws; rounding can leave a tiny negative
            wasted += np.maximum(g * below - prefix[below], 0.0)
    return violations, wasted, kept


def _trace(scenario: Scenario, level: float, chunks: list[np.ndarray]) -> StepTrace:
    """Per-step records at ``level`` for the demand chunks of one pass."""
    rates, steps, reps = scenario.rates, scenario.steps, scenario.replications
    demand = np.concatenate(chunks)
    violated = demand > level
    wasted = np.maximum(level - demand, 0.0)
    return StepTrace(
        replication=np.repeat(np.arange(reps, dtype=np.int64), steps),
        step=np.tile(np.arange(steps, dtype=np.int64), reps),
        demand=demand,
        provisioned=np.full(len(demand), level),
        violation=violated,
        wasted=wasted,
        wastage_cost=(wasted / scenario.stats.r_agreed) * rates.c_provision,
        penalty_cost=np.where(violated, rates.c_viol, 0.0),
    )


def _report(
    scenario: Scenario, level: float, violation_count: int, wasted: float, chunks: list[np.ndarray]
) -> SimulationReport:
    """Report for one level's counts, with a trace when chunks were kept."""
    stats, rates = scenario.stats, scenario.rates
    agreed = stats.r_agreed
    c_prov = rates.c_provision
    total_draws = scenario.steps * scenario.replications
    utilization = level / agreed
    total_energy = utilization * scenario.energy_full * total_draws
    model_w = max(0.0, level - stats.mean_demand) / agreed
    model_p = float(violation_probability_linear(level, stats.max_demand))
    if scenario.clamp_demand_to_agreed and level >= agreed:
        tail_p = 0.0
    else:
        tail_p = scenario.profile.tail_probability(level)

    return SimulationReport(
        seed=scenario.seed,
        scenario=scenario,
        provision_level=level,
        violation_count=violation_count,
        violation_frequency=violation_count / total_draws,
        total_wastage_cost=wasted / agreed * c_prov,
        total_penalty_cost=violation_count * rates.c_viol,
        total_expected_model_cost=(model_w * c_prov + model_p * rates.c_viol) * total_draws,
        total_energy_kwh=total_energy,
        total_emissions_kg=total_energy * scenario.carbon_intensity,
        total_energy_use_cost=utilization * rates.c_en * total_draws,
        total_co2_use_cost=utilization * rates.c_co2 * total_draws,
        energy_saved_kwh=scenario.energy_full * total_draws - total_energy,
        model_violation_probability=model_p,
        tail_violation_probability=tail_p,
        trace=_trace(scenario, level, chunks) if chunks else None,
    )


def _auto_trace(scenario: Scenario) -> bool:
    return scenario.steps * scenario.replications <= TRACE_STEP_LIMIT


def run_simulation(scenario: Scenario, trace: bool | None = None) -> SimulationReport:
    """Play the scenario's policy against sampled demand.

    Demand is evaluated in fixed-size chunks, so an untraced run uses
    memory independent of ``steps``; a trace holds one row per step.
    ``trace=None`` records it only while the run stays within
    TRACE_STEP_LIMIT draws; pass True/False to force.  Deterministic given
    (scenario, seed): repeated runs produce identical aggregates.
    """
    level = resolve_policy(scenario.policy, scenario.stats, scenario.rates)
    keep = trace if trace is not None else _auto_trace(scenario)
    violations, wasted, chunks = _evaluate(scenario, [level], keep)
    return _report(scenario, level, int(violations[0]), float(wasted[0]), chunks)


def realized_cost(report: SimulationReport) -> float:
    """Realized wastage plus penalty cost; the policy-ranking objective."""
    return report.total_wastage_cost + report.total_penalty_cost


@dataclass(frozen=True)
class GridSearchResult:
    """Grid search over fixed provisioning levels under a shared seed.

    ``balance_gap`` is |r_star - balance level| for context only; the model
    makes no claim the two coincide (its total cost is linear in the level,
    so the model optimum sits at an endpoint, while realized costs need not).
    """

    r_star: float
    cost: float
    levels: tuple[float, ...]
    costs: tuple[float, ...]
    balance_gap: float | None


def empirical_optimum(scenario: Scenario, grid: list[float]) -> GridSearchResult:
    """Realized-cost minimizer over fixed levels, common random numbers.

    One pass over the demand evaluates every grid level (see
    run_simulation for the memory bound).  Ties resolve to the earliest
    grid entry.
    """
    if not grid:
        raise ValueError("grid must not be empty")
    for g in grid:
        if not 0.0 <= g <= scenario.stats.r_agreed:
            raise ValueError(f"grid level {g} outside [0, {scenario.stats.r_agreed}]")
    violations, wasted, _ = _evaluate(scenario, grid)
    rates = scenario.rates
    costs = (wasted / scenario.stats.r_agreed * rates.c_provision
             + violations * rates.c_viol).tolist()
    best = min(range(len(grid)), key=lambda i: (costs[i], i))
    try:
        r_balance = _balance(scenario.stats, scenario.rates).r_provisioned
        gap = abs(grid[best] - r_balance)
    except PolicyUnresolvable:
        gap = None
    return GridSearchResult(
        r_star=grid[best],
        cost=costs[best],
        levels=tuple(grid),
        costs=tuple(costs),
        balance_gap=gap,
    )


@dataclass(eq=False)
class PolicyRun:
    """Outcome of one policy inside a comparison; report xor error set."""

    policy: Policy
    report: SimulationReport | None
    error: str | None

    @property
    def cost(self) -> float | None:
        return None if self.report is None else realized_cost(self.report)


@dataclass(eq=False)
class PolicyComparison:
    """Per-policy reports under common random numbers plus a cost ranking."""

    runs: tuple[PolicyRun, ...]
    ranking: tuple[str, ...]


def compare_policies(scenario_base: Scenario, policies: list[Policy]) -> PolicyComparison:
    """Run each policy on identical demand sample paths and rank by cost.

    One pass over the demand evaluates every resolvable policy; traces
    follow run_simulation's ``trace=None`` rule.  Per-policy failures are
    recorded in their run entry; the comparison proceeds for the rest.
    """
    runs = [PolicyRun(policy, None, None) for policy in policies]
    levels: dict[PolicyRun, float] = {}
    for run in runs:
        try:
            levels[run] = resolve_policy(run.policy, scenario_base.stats, scenario_base.rates)
        except PolicyUnresolvable as exc:
            run.error = str(exc)
    if levels:  # nothing to draw demand for otherwise
        violations, wasted, chunks = _evaluate(
            scenario_base, list(levels.values()), _auto_trace(scenario_base))
        for (run, level), v, w in zip(levels.items(), violations, wasted):
            scenario = replace(scenario_base, policy=run.policy)
            run.report = _report(scenario, level, int(v), float(w), chunks)
    ranked = sorted(
        (run for run in runs if run.report is not None),
        key=lambda run: run.cost,
    )
    return PolicyComparison(runs=tuple(runs), ranking=tuple(r.policy.label for r in ranked))
