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

import functools
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np
import numpy.random  # noqa: F401  numpy 2 defers it; load it here, not in the first run

from .balance import (
    BalanceResult,
    CostRates,
    DemandStats,
    balance_closed_form,
    heuristic_band,
    violation_probability_linear,
)
from .demand import EMPIRICAL, DemandProfile
from .errors import (
    DegenerateCosts,
    InvalidScenario,
    NonFiniteResult,
    NoRootInRange,
    PolicyUnresolvable,
)

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
        return balance_closed_form(stats, rates)
    except (DegenerateCosts, NoRootInRange) as exc:
        raise PolicyUnresolvable(f"balance policy unresolvable: {exc}") from exc


def _resolve(policy: Policy, stats: DemandStats, balance: Callable[[], BalanceResult]) -> float:
    """resolve_policy, with the balance solved by ``balance()`` when needed."""
    if policy.kind == FIXED_AGREED:
        level = stats.r_agreed
    elif policy.kind == MEAN_FOLLOW:
        level = stats.mean_demand
    elif policy.kind == FIXED_LEVEL:
        level = policy.level
    elif policy.kind == BALANCE:
        level = balance().r_provisioned
    else:  # BALANCE_BAND: the band is symmetric about the balance, so the
        # low (energy-saving) edge unless the high edge is cut at r_agreed,
        # which is then nearer.
        result = balance()
        lo, hi = heuristic_band(result, policy.x_percent, stats)
        level = hi if hi < result.r_provisioned * (1.0 + policy.x_percent) else lo
    return min(max(level, 0.0), stats.r_agreed)


def resolve_policy(policy: Policy, stats: DemandStats, rates: CostRates) -> float:
    """Concrete provisioning level for a policy, clamped to [0, r_agreed]."""
    return _resolve(policy, stats, lambda: _balance(stats, rates))


@dataclass(frozen=True)
class Scenario:
    """Complete simulation configuration.

    ``energy_full`` is the energy drawn per time step when provisioning all
    of r_agreed; actual energy scales linearly with the provisioned level.
    ``clamp_demand_to_agreed`` truncates sampled demand at r_agreed, for
    profiles whose support exceeds the agreement.

    An empirical scenario draws its demand once per object: the first
    evaluation counts the draws (``_draw_counts``) and later evaluations of
    the same object reuse the counts.  ``dataclasses.replace`` makes a new
    object, which counts afresh.
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

    @functools.cached_property
    def _draw_counts(self) -> np.ndarray:
        """How often each observation of an empirical profile is drawn over
        every step and replication, as a read-only int64 array.

        The uniforms of each chunk are drawn into one reused buffer and
        indexed into another, so no chunk allocates an array of its draws.
        """
        profile = self.profile
        counts = np.zeros(len(profile.values), dtype=np.int64)
        u = np.empty(min(_CHUNK, self.steps))
        index = np.empty(len(u), dtype=np.int64)
        for _, _, n, rng in _chunks(self):
            rng.random(out=u[:n])
            counts += np.bincount(
                profile.observation_index(u[:n], out=index[:n]), minlength=len(counts)
            )
        counts.flags.writeable = False
        return counts


class StepTrace(NamedTuple):
    """One chunk of a run's demand: steps ``first_step`` onward of
    replication ``replication``, one per ``demand`` entry."""

    replication: int
    first_step: int
    demand: np.ndarray


@dataclass(frozen=True)
class _Trace:
    """A run's demand, re-drawn from its seeded streams one StepTrace per
    chunk each time it is iterated, so any trace is read in bounded memory."""

    scenario: Scenario

    def __iter__(self) -> Iterator[StepTrace]:
        return _demand_chunks(self.scenario)


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
    trace: _Trace | None = None

    def aggregate_dict(self) -> dict:
        """Scalar aggregates, the report's serializable core."""
        return {name: getattr(self, name) for name in _AGGREGATE_FIELDS}


# The report's aggregates: every field but its provenance and trace.
_AGGREGATE_FIELDS = tuple(
    f.name for f in fields(SimulationReport) if f.name not in ("seed", "scenario", "trace")
)


def _replication_rng(seed: int, index: int) -> np.random.Generator:
    # One private PCG64 stream per replication; SeedSequence keys the pair
    # (seed, index) stably across platforms.
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def _chunks(scenario: Scenario) -> Iterator[tuple[int, int, int, np.random.Generator]]:
    """The run's seeded chunk loop: (replication, first step, steps, stream)
    for each _CHUNK steps of each replication, in order."""
    for rep in range(scenario.replications):
        rng = _replication_rng(scenario.seed, rep)
        for start in range(0, scenario.steps, _CHUNK):
            yield rep, start, min(_CHUNK, scenario.steps - start), rng


def _demand_chunks(scenario: Scenario) -> Iterator[StepTrace]:
    """The run's demand, _CHUNK steps at a time, clamped as the scenario asks."""
    for rep, start, n, rng in _chunks(scenario):
        # chunked draws give the same stream as one draw of all steps
        demand = scenario.profile.sample_many(rng, n)
        if scenario.clamp_demand_to_agreed:
            demand = np.minimum(demand, scenario.stats.r_agreed)
        yield StepTrace(rep, start, demand)


def _evaluate(
    scenario: Scenario, levels, on_chunk: Callable[[StepTrace], None] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Violation count and total wasted capacity at each level, in one pass.

    Every level sees the same demand (common random numbers), drawn
    _CHUNK steps at a time.  Empirical demand is counted per observation,
    once per scenario object (``Scenario._draw_counts``): the sorted
    observations with prefix sums of the counts and of counts * values
    then cost each level one binary search, and a repeated evaluation of
    the same object draws nothing.  Other demand is scored chunk by chunk
    by :func:`_score_chunks`.  Totals that overflow come out as inf or
    NaN, without a warning; _report rejects them.

    ``on_chunk``, if given, is called with each StepTrace of the run's
    demand, in order, right after that chunk is scored, so the caller
    sees the very draws that were scored.  The empirical tally draws no
    demand, so there the demand is drawn once, for the hook alone.
    """
    g = np.asarray(levels, dtype=float)
    profile = scenario.profile
    if profile.kind != EMPIRICAL:
        return _score_chunks(scenario, g, on_chunk)
    counts = scenario._draw_counts
    values = profile._observed
    if scenario.clamp_demand_to_agreed:
        values = np.minimum(values, scenario.stats.r_agreed)  # still sorted
    with np.errstate(all="ignore"):
        k = np.searchsorted(values, g, "right")  # observations <= g
        below = np.concatenate(([0], np.cumsum(counts)))[k]  # draws with demand <= g
        prefix = np.concatenate(([0.0], np.cumsum(counts * values)))[k]
        # sum(g - d) over those draws; rounding can leave a tiny negative
        wasted = np.maximum(g * below - prefix, 0.0)
    if on_chunk is not None:
        for chunk in _demand_chunks(scenario):
            on_chunk(chunk)
    return counts.sum() - below, wasted


def _score_chunks(
    scenario: Scenario, g: np.ndarray, on_chunk: Callable[[StepTrace], None] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """_evaluate by sorting each demand chunk: a sorted chunk and its prefix
    sum cost each level one binary search."""
    violations = np.zeros(len(g), dtype=np.int64)
    wasted = np.zeros(len(g))
    for chunk in _demand_chunks(scenario):
        with np.errstate(all="ignore"):
            d = np.sort(chunk.demand)
            prefix = np.concatenate(([0.0], np.cumsum(d)))
            below = np.searchsorted(d, g, "right")  # draws with demand <= g
            violations += len(d) - below
            # sum(g - d) over those draws; rounding can leave a tiny negative
            wasted += np.maximum(g * below - prefix[below], 0.0)
        del d, prefix  # free the sorted copy before the next chunk or the hook
        if on_chunk is not None:
            on_chunk(chunk)
    return violations, wasted


def _report(
    scenario: Scenario, level: float, violation_count: int, wasted: float, trace: bool = False
) -> SimulationReport:
    """Report for one level's counts; NonFiniteResult if a total overflows."""
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

    report = SimulationReport(
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
        trace=_Trace(scenario) if trace else None,
    )
    for name, value in report.aggregate_dict().items():
        if not math.isfinite(value):
            raise NonFiniteResult(f"simulated {name} is {value}: the totals overflow a float")
    return report


def run_simulation(
    scenario: Scenario,
    trace: bool = False,
    on_chunk: Callable[[float, StepTrace], None] | None = None,
) -> SimulationReport:
    """Play the scenario's policy against sampled demand.

    Demand is evaluated in fixed-size chunks, so memory does not depend on
    ``steps``.  ``trace=True`` attaches ``report.trace``, which re-draws the
    same demand chunk by chunk when iterated, so it is bounded too.
    ``on_chunk``, if given, is called as ``on_chunk(level, chunk)`` with the
    resolved level and each StepTrace, in order, right after the chunk is
    scored: a caller sees each step of the demand without drawing it again.
    It is called before the totals are checked, so it may see a run whose
    report then raises.  Deterministic given (scenario, seed): repeated runs
    produce identical aggregates.  Raises NonFiniteResult when a total
    overflows a float.
    """
    level = resolve_policy(scenario.policy, scenario.stats, scenario.rates)
    hook = None if on_chunk is None else functools.partial(on_chunk, level)
    violations, wasted = _evaluate(scenario, [level], hook)
    return _report(scenario, level, int(violations[0]), float(wasted[0]), trace)


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
    grid entry.  Raises NonFiniteResult when a level's cost overflows a
    float.
    """
    if not grid:
        raise ValueError("grid must not be empty")
    for g in grid:
        if not 0.0 <= g <= scenario.stats.r_agreed:
            raise ValueError(f"grid level {g} outside [0, {scenario.stats.r_agreed}]")
    violations, wasted = _evaluate(scenario, grid)
    rates = scenario.rates
    with np.errstate(all="ignore"):
        costs = (wasted / scenario.stats.r_agreed * rates.c_provision
                 + violations * rates.c_viol).tolist()
    for level, cost in zip(grid, costs):
        if not math.isfinite(cost):
            raise NonFiniteResult(
                f"simulated cost at level {level} is {cost}: the totals overflow a float"
            )
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

    One pass over the demand evaluates every resolvable policy, and the
    balance is solved at most once.  Reports carry no trace.  Per-policy
    failures are recorded in their run entry; the comparison proceeds for
    the rest.
    """
    stats, rates = scenario_base.stats, scenario_base.rates
    balance = functools.cache(lambda: _balance(stats, rates))
    runs = [PolicyRun(policy, None, None) for policy in policies]
    levels: dict[PolicyRun, float] = {}
    for run in runs:
        try:
            levels[run] = _resolve(run.policy, stats, balance)
        except PolicyUnresolvable as exc:
            run.error = str(exc)
    if levels:  # nothing to draw demand for otherwise
        violations, wasted = _evaluate(scenario_base, list(levels.values()))
        for (run, level), v, w in zip(levels.items(), violations, wasted):
            scenario = replace(scenario_base, policy=run.policy)
            try:
                run.report = _report(scenario, level, int(v), float(w))
            except NonFiniteResult as exc:
                run.error = str(exc)
    ranked = sorted(
        (run for run in runs if run.report is not None),
        key=lambda run: run.cost,
    )
    return PolicyComparison(runs=tuple(runs), ranking=tuple(r.policy.label for r in ranked))
