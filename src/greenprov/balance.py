"""Linear wastage-penalty cost model and its equilibrium provisioning level.

Over-provisioning burns energy (and the emissions priced into it);
under-provisioning triggers SLA violation penalties.  Both effects are
linear in the provisioned amount here: the wastage fraction interpolates
between 0 (provisioning the mean demand) and 1 - mean/agreed (provisioning
the full agreed amount), and the violation probability interpolates between
1 (provisioning nothing) and 0 (provisioning the demand maximum).  The
balance point equalizes the two per-time-unit costs; it is an equalization
point, not a cost minimum.

The balance point, with or without a customer-satisfaction surcharge, is
where a cost gap linear in the level crosses zero, so one closed form
computes it: ``balance_closed_form`` on one cell, ``balance_grid`` on whole
columns.  ``balance_numeric`` bisects the same gap instead, as an
independent cross-check.  Both routes run through one ``_solve``,
elementwise over float64 values: the grid on arrays, the scalar solvers on
one cell's float64 scalars, whose selects are plain conditionals.  The
reasons a cell has no balance, and their error texts, are one ordered
table, ``FAILURES``, from which the dataclasses, the scalar solvers and
``balance_grid`` all check.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import DegenerateCosts, InvalidRates, InvalidStats, NoRootInRange

# Bisection stops once the bracket is this fraction of max_demand wide
# (linear cost curves converge long before the 200-iteration cap, which
# only guards degenerate input).
_BISECT_REL_WIDTH = 1e-12
_BISECT_MAX_ITER = 200


@dataclass(frozen=True)
class CostRates:
    """Market prices entering the cost model.

    ``c_en`` and ``c_co2`` are the energy and CO2e prices per time unit of
    provisioning the full agreed amount; ``c_viol`` is the price of a single
    violation event; ``satisfaction`` is an optional constant per-time-unit
    surcharge that models customer goodwill lost to under-provisioning.
    """

    c_en: float
    c_co2: float
    c_viol: float
    satisfaction: float = 0.0

    def __post_init__(self):
        _check(_RATES_CHECKS, vars(self))

    @property
    def c_provision(self) -> float:
        """Combined per-time-unit price of full provisioning (energy + CO2e)."""
        return self.c_en + self.c_co2


@dataclass(frozen=True)
class DemandStats:
    """Demand summary the cost model runs on: mean, maximum, and the
    SLA-agreed constant amount.  Demand above the agreement is contractually
    out of scope, so max_demand may not exceed r_agreed (clamp sampled
    demand at the scenario level instead, see ``clamp_demand_to_agreed``).
    """

    mean_demand: float
    max_demand: float
    r_agreed: float

    def __post_init__(self):
        _check(_STATS_CHECKS, vars(self))


@dataclass(frozen=True)
class BalanceResult:
    """Equilibrium provisioning level with its cost components."""

    r_provisioned: float
    w: float
    c_wastage: float
    p_viol: float
    expected_penalty: float


# The DemandStats and CostRates fields, in the order balance_grid takes them.
_STATS_FIELDS = tuple(field.name for field in fields(DemandStats))
_RATES_FIELDS = tuple(field.name for field in fields(CostRates))


class Failure(NamedTuple):
    """One reason a cell has no balance.

    ``fails`` tests a mapping of cell values (floats, or float64 arrays of
    cells); the error message is ``template`` filled with the values named
    in ``fields``.
    """

    error: type
    template: str
    fields: tuple
    fails: Callable

    def exception(self, values) -> ValueError:
        """The error of one cell, from a mapping of its values."""
        return self.error(self.template % tuple(values[name] for name in self.fields))


# Every reason, in the order they are checked; a cell reports the first it
# fails.  A ``fails`` test never applies ~ to a plain comparison: on a bool it
# gives -1 or -2, both truthy.
_STATS_CHECKS = (
    *(
        Failure(InvalidStats, f"{name} must be finite, got %s", (name,),
                lambda v, name=name: ~np.isfinite(v[name]))
        for name in _STATS_FIELDS
    ),
    Failure(InvalidStats, "mean_demand must be >= 0, got %s", ("mean_demand",),
            lambda v: v["mean_demand"] < 0.0),
    Failure(InvalidStats, "max_demand (%s) < mean_demand (%s)",
            ("max_demand", "mean_demand"), lambda v: v["max_demand"] < v["mean_demand"]),
    Failure(InvalidStats, "r_agreed must be positive, got %s", ("r_agreed",),
            lambda v: v["r_agreed"] <= 0.0),
    Failure(InvalidStats,
            "max_demand (%s) exceeds r_agreed (%s); "
            "clamp demand at the scenario level if this is intended",
            ("max_demand", "r_agreed"), lambda v: v["max_demand"] > v["r_agreed"]),
)
_RATES_CHECKS = tuple(
    Failure(InvalidRates, f"{name} must be finite and >= 0, got %s", (name,),
            lambda v, name=name: ~np.isfinite(v[name]) | (v[name] < 0.0))
    for name in _RATES_FIELDS
)
# The solver values: the total weight ``total`` of the closed form, the
# gaps ``gap_lo`` and ``gap_hi`` at mean and max demand, and the
# ``residual`` gap at the level found.
_SOLVER_CHECKS = (
    Failure(DegenerateCosts, "both cost channels are zero; no balance exists", (),
            lambda v: v["total"] <= 0.0),
    Failure(DegenerateCosts,
            "cost weights overflow: max_demand * c_provision + r_agreed * c_viol is %s",
            ("total",), lambda v: ~np.isfinite(v["total"])),
    Failure(NoRootInRange,
            "cost difference does not cross zero on [%s, %s] (endpoints %.6g, %.6g)",
            ("mean_demand", "max_demand", "gap_lo", "gap_hi"),
            lambda v: (v["gap_lo"] > 0.0) | (v["gap_hi"] < 0.0)),
    Failure(NoRootInRange, "balance residual %.3g exceeds tolerance %.3g",
            ("residual", "tolerance"), lambda v: np.abs(v["residual"]) > v["tolerance"]),
)
FAILURES = _STATS_CHECKS + _RATES_CHECKS + _SOLVER_CHECKS


def _check(checks, values):
    """Raise the error of the first of ``checks`` that one cell fails."""
    for check in checks:
        if check.fails(values):
            raise check.exception(values)


def _first_failure(checks, values, offset):
    """Per cell, the FAILURES index of the first of ``checks`` it fails
    (``checks`` starts at FAILURES[offset]) or -1, and whether any fails.

    The solvers test the mask rather than compare the indices: numpy's
    integer comparison loops run nowhere else in a simulation, and running
    them maps about 0.1 MB more of numpy's code into the process.
    """
    failure, failed = -1, np.False_
    for i in reversed(range(len(checks))):
        fails = checks[i].fails(values)
        failure = _where(fails, offset + i, failure)
        failed = failed | fails
    return failure, failed


# The solver arithmetic below runs elementwise on float64 arrays or
# scalars, with floating-point errors ignored by its callers: balance_grid
# passes it whole columns, the scalar solvers one cell's float64 values.
# Its selects go through _where, which on one cell's numpy bool is a
# Python conditional, several times faster than np.where on a 0-d value.


def _where(condition, x, y):
    """np.where(condition, x, y); x or y itself where condition is not an array."""
    if isinstance(condition, np.ndarray):
        return np.where(condition, x, y)
    return x if condition else y


def _violation_probability(r, max_demand):
    """:func:`violation_probability_linear` on float64 values (numpy scalars
    or arrays, whose division by zero follows np.errstate)."""
    q = 1.0 - r / max_demand
    return _where((max_demand > 0.0) & (q > 0.0), q, 0.0)


@np.errstate(all="ignore")
def violation_probability_linear(r, max_demand):
    """Linear violation probability: 1 at zero provisioning, falling to 0 at
    max_demand and staying 0 above it.

    Degenerate max_demand <= 0 means demand is a.s. zero, so nothing is
    violated and the probability is 0.  Takes floats or broadcastable
    float64 arrays.
    """
    p = _violation_probability(np.asarray(r, dtype=float), np.asarray(max_demand, dtype=float))
    return np.asarray(p, dtype=float)[()]


def _columns(r, mean, peak, agreed, c_prov, c_viol):
    """The BalanceResult fields at level ``r``, in declaration order."""
    w = (r - mean) / agreed
    p = _violation_probability(r, peak)
    return r, w, w * c_prov, p, p * c_viol


def _gap(r, mean, peak, agreed, c_prov, c_viol, surcharge):
    """Wastage cost minus expected penalty minus surcharge at level ``r``."""
    wastage = (r - mean) / agreed * c_prov
    return wastage - _violation_probability(r, peak) * c_viol - surcharge


def _closed_form(mean, peak, agreed, c_prov, c_viol, surcharge, total):
    """The level where the gap, linear on [mean, peak], is zero; it stands
    only where the total weight is positive and finite and the gap crosses
    zero on [mean, peak]."""
    r = peak * (mean * c_prov + agreed * (c_viol + surcharge)) / total
    # Float rounding may land an ulp outside [mean, max]; the result type
    # promises containment.  Unlike np.maximum and np.minimum, these keep r
    # on ties (of signed zeros) and where a comparison meets NaN.
    r = _where(mean > r, mean, r)
    r = _where(peak < r, peak, r)
    free_violations = (c_viol == 0.0) & (surcharge == 0.0)
    return _where(free_violations, mean, _where(c_prov == 0.0, peak, r))


def _tolerance(c_prov, c_viol, surcharge):
    """Largest cost gap a solved level may leave."""
    return 1e-9 * (c_prov + c_viol + surcharge)


def _bisect(gap, lo, hi, gap_lo, gap_hi):
    """Root of the increasing ``gap`` on one cell's [lo, hi], by bisection.

    An endpoint with a zero gap is the root, exactly.
    """
    if gap_lo >= 0.0 or gap_hi <= 0.0:
        # an exact endpoint root; or no root, which the solver checks reject
        return lo if gap_lo >= 0.0 else hi
    width_target = _BISECT_REL_WIDTH * hi
    for _ in range(_BISECT_MAX_ITER):
        if hi - lo <= width_target:
            break
        mid = 0.5 * (lo + hi)
        if gap(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@np.errstate(all="ignore")
def _solve(values, failure, failed, bisect=False):
    """Balance the cells of ``values`` that have not ``failed`` yet: by the
    closed form, or by bisection on one cell's float64 values.

    ``values`` maps the DemandStats and CostRates fields to float64 arrays
    or scalars; the solver values the checks read are added to it.  Returns
    ``failure`` and ``failed`` as _first_failure does for every check, and
    the BalanceResult columns, which mean nothing where failed.
    """
    mean, peak, agreed, c_en, c_co2, c_viol, surcharge = (
        values[name] for name in _STATS_FIELDS + _RATES_FIELDS
    )
    c_prov = c_en + c_co2
    cell = (mean, peak, agreed, c_prov, c_viol, surcharge)
    total = peak * c_prov + agreed * c_viol
    gap_lo, gap_hi = _gap(mean, *cell), _gap(peak, *cell)
    if bisect:
        r = _bisect(lambda r: _gap(r, *cell), mean, peak, gap_lo, gap_hi)
    else:
        r = _closed_form(*cell, total)
    values.update(c_provision=c_prov, total=total, gap_lo=gap_lo, gap_hi=gap_hi,
                  residual=_gap(r, *cell), tolerance=_tolerance(c_prov, c_viol, surcharge))
    solver, solver_failed = _first_failure(
        _SOLVER_CHECKS, values, len(FAILURES) - len(_SOLVER_CHECKS)
    )
    failure = np.where(failed, failure, solver)
    failed = failed | solver_failed
    return failure, failed, _columns(r, mean, peak, agreed, c_prov, c_viol)


def _solve_cell(stats: DemandStats, rates: CostRates, bisect: bool) -> BalanceResult:
    """One valid cell, raising the error of the first solver check it fails."""
    inputs = {**vars(stats), **vars(rates)}
    # float64 scalars divide by zero and overflow as the array columns do
    values = {name: np.float64(x) for name, x in inputs.items()}
    failure, failed, columns = _solve(values, -1, np.False_, bisect)
    if failed:
        # the fields as given, so the message prints them as the checks do
        raise FAILURES[failure].exception({name: float(x) for name, x in values.items()} | inputs)
    return BalanceResult(*map(float, columns))


def balance_closed_form(stats: DemandStats, rates: CostRates) -> BalanceResult:
    """Balance point: where wastage cost equals expected penalty plus the
    satisfaction surcharge.

    The cost gap is linear on [mean_demand, max_demand], so its zero is

        max * (mean * (c_en + c_co2) + r_agreed * (c_viol + satisfaction))
            / (max * (c_en + c_co2) + r_agreed * c_viol),

    at zero satisfaction the weighted average of mean and max demand.  The
    boundary cases (free violations and no surcharge, or free provisioning)
    return the exact endpoint.  Raises DegenerateCosts when both weights are
    zero or their sum overflows, and NoRootInRange when the surcharge
    exceeds the wastage cost even at max demand or the level's residual cost
    gap exceeds 1e-9 * (c_en + c_co2 + c_viol + satisfaction).
    """
    return _solve_cell(stats, rates, bisect=False)


def balance_numeric(stats: DemandStats, rates: CostRates) -> BalanceResult:
    """:func:`balance_closed_form` by bisection on the cost difference, an
    independent cross-check of the closed form.

    Searches [mean_demand, max_demand]: wastage is zero at the lower end and
    the violation probability is zero at the upper end, so any crossing of

        wastage cost(r) - expected penalty(r) - satisfaction

    lies inside.  Runs the same checks as the closed form, and raises the
    same errors.
    """
    return _solve_cell(stats, rates, bisect=True)


def balance_grid(mean_demand, max_demand, r_agreed, c_en, c_co2, c_viol, satisfaction):
    """:func:`balance_closed_form` over float64 arrays, one cell per element.

    The seven inputs are the DemandStats and CostRates fields; they are
    broadcast against each other.  Returns ``(failure, columns, values)``:

    - ``failure`` holds, per cell, the index into :data:`FAILURES` of the
      error the scalar path raises for it, or -1 where it is solved;
    - ``columns`` holds the BalanceResult fields in declaration order, NaN
      where not solved;
    - ``values`` maps each name the checks read to its array: the seven
      inputs, ``c_provision``, the closed form's weight ``total``, the gaps
      ``gap_lo`` and ``gap_hi`` at mean and max demand, the ``residual``
      gap at the level and its ``tolerance``.

    Cell ``i`` fails with ``FAILURES[failure[i]].exception(cell)``, where
    ``cell`` maps each name in ``values`` to its value at ``i``.  The
    scalar solvers run the same arithmetic and checks on one cell's
    scalars, so a solved cell is bit-identical to balance_closed_form.
    """
    inputs = (mean_demand, max_demand, r_agreed, c_en, c_co2, c_viol, satisfaction)
    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in inputs))
    values = dict(zip(_STATS_FIELDS + _RATES_FIELDS, arrays))
    failure, failed = _first_failure(_STATS_CHECKS + _RATES_CHECKS, values, 0)
    failure, failed, columns = _solve(values, failure, failed)
    return failure, tuple(np.where(failed, np.nan, c) for c in columns), values


def heuristic_band(
    balance: BalanceResult, x_percent: float, stats: DemandStats
) -> tuple[float, float]:
    """Scheduler clamp interval: balance level +/- x, cut to [0, r_agreed]."""
    if not 0.0 <= x_percent < 1.0:
        raise ValueError(f"x_percent must be in [0, 1), got {x_percent}")
    r = balance.r_provisioned
    return (max(0.0, r * (1.0 - x_percent)), min(stats.r_agreed, r * (1.0 + x_percent)))
