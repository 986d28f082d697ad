"""Linear wastage-penalty cost model and its equilibrium provisioning level.

Over-provisioning burns energy (and the emissions priced into it);
under-provisioning triggers SLA violation penalties.  Both effects are
linear in the provisioned amount here: the wastage fraction interpolates
between 0 (provisioning the mean demand) and 1 - mean/agreed (provisioning
the full agreed amount), and the violation probability interpolates between
1 (provisioning nothing) and 0 (provisioning the demand maximum).  The
balance point equalizes the two per-time-unit costs; it is an equalization
point, not a cost minimum.

Two independent routes compute it: an algebraic closed form and a bisection
solver on the cost-difference function, which also covers a nonzero
customer-satisfaction surcharge.  Each is written once, elementwise over
float64 values: ``balance_grid`` runs it on whole columns, and the scalar
solvers run it directly on one cell's float64 scalars, whose selects are
plain conditionals.  The reasons a cell has no balance, and their error
texts, are one ordered table, ``FAILURES``, from which the dataclasses, the
scalar solvers and ``balance_grid`` all check.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateCosts,
    InvalidRates,
    InvalidStats,
    NonzeroSatisfaction,
    NoRootInRange,
)

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
# The solver values: the closed form runs where ``closed``, with total
# weight ``total``; bisection elsewhere, with endpoint gaps ``gap_lo`` and
# ``gap_hi`` and the ``residual`` gap at its root (NaN where not bisected).
_SOLVER_CHECKS = (
    Failure(DegenerateCosts, "both cost channels are zero; no balance exists", (),
            lambda v: _where(v["closed"], v["total"] <= 0.0,
                             (v["c_provision"] == 0.0) & (v["c_viol"] == 0.0))),
    Failure(DegenerateCosts,
            "cost weights overflow: max_demand * c_provision + r_agreed * c_viol is %s",
            ("total",), lambda v: v["closed"] & ~np.isfinite(v["total"])),
    Failure(NoRootInRange,
            "cost difference does not cross zero on [%s, %s] (endpoints %.6g, %.6g)",
            ("mean_demand", "max_demand", "gap_lo", "gap_hi"),
            lambda v: (v["gap_lo"] > 0.0) | (v["gap_hi"] < 0.0)),
    Failure(NoRootInRange, "bisection residual %.3g exceeds tolerance %.3g",
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
        failure = np.where(fails, offset + i, failure)
        failed = failed | fails
    return failure, failed


# The solver arithmetic below runs elementwise on float64 arrays or
# scalars, with floating-point errors ignored by its callers: balance_grid
# passes it whole columns, the scalar solvers one cell's float64 values.
# Its selects and any-tests go through _where and _any, which on one cell's
# numpy bool are a Python conditional and bool(), several times faster
# than np.where and .any() on a 0-d value; for the same reason the
# bisection loop negates with np.logical_not rather than ~.


def _where(condition, x, y):
    """np.where(condition, x, y); x or y itself where condition is not an array."""
    if isinstance(condition, np.ndarray):
        return np.where(condition, x, y)
    return x if condition else y


def _any(condition):
    """Whether any element of ``condition`` holds."""
    if isinstance(condition, np.ndarray):
        return condition.any()
    return bool(condition)


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


def _closed_form(mean, peak, agreed, c_prov, c_viol):
    """Total cost weight and the closed-form level; the level stands only
    where the total is positive and finite."""
    total = peak * c_prov + agreed * c_viol
    r = peak * (mean * c_prov + agreed * c_viol) / total
    # Float rounding may land an ulp outside [mean, max]; the result type
    # promises containment.  Unlike np.maximum and np.minimum, these keep r
    # on ties (of signed zeros) and where a comparison meets NaN.
    r = _where(mean > r, mean, r)
    r = _where(peak < r, peak, r)
    return total, _where(c_viol == 0.0, mean, _where(c_prov == 0.0, peak, r))


def _tolerance(c_prov, c_viol, surcharge):
    """Largest cost gap the bisection may leave at its root."""
    return 1e-9 * (c_prov + c_viol + surcharge)


def _bisect(mean, peak, agreed, c_prov, c_viol, surcharge):
    """Endpoint gaps, residual gap and root of the bisection on [mean, peak].

    The gap is wastage cost minus expected penalty minus surcharge.  A cell
    has no root where gap_lo > 0 or gap_hi < 0, and its residual and root
    mean nothing.  An endpoint with a zero gap is the root, with residual 0;
    the other cells are bisected together, and their residual is the gap
    left at the root.
    """

    def gap(r):
        wastage = (r - mean) / agreed * c_prov
        return wastage - _violation_probability(r, peak) * c_viol - surcharge

    gap_lo, gap_hi = gap(mean), gap(peak)
    rooted = ~(gap_lo > 0.0) & ~(gap_hi < 0.0)
    if not _any(rooted):
        return gap_lo, gap_hi, 0.0, mean
    bisected = active = rooted & (gap_lo != 0.0) & (gap_hi != 0.0)
    lo, hi = mean, peak
    width_target = _BISECT_REL_WIDTH * peak
    for _ in range(_BISECT_MAX_ITER):
        active = active & np.logical_not(hi - lo <= width_target)
        if not _any(active):
            break
        mid = 0.5 * (lo + hi)
        up = gap(mid) >= 0.0
        hi = _where(active & up, mid, hi)
        lo = _where(active & np.logical_not(up), mid, lo)
    root = _where(bisected, 0.5 * (lo + hi), _where(gap_lo == 0.0, mean, peak))
    return gap_lo, gap_hi, gap(root), root


@np.errstate(all="ignore")
def _solve(values, closed, failure, failed):
    """Balance the cells of ``values`` that have not ``failed`` yet: by the
    closed form where ``closed``, by bisection elsewhere.

    ``values`` maps the DemandStats and CostRates fields to float64 arrays;
    the solver values the checks read are added to it.  Returns ``failure``
    and ``failed`` as _first_failure does for every check, and the
    BalanceResult columns, NaN where failed.
    """
    mean, peak, agreed, c_en, c_co2, c_viol, surcharge = (
        values[name] for name in _STATS_FIELDS + _RATES_FIELDS
    )
    c_prov = c_en + c_co2
    total, r = _closed_form(mean, peak, agreed, c_prov, c_viol)
    values.update(closed=closed, c_provision=c_prov, total=total,
                  tolerance=_tolerance(c_prov, c_viol, surcharge))
    gaps = ("gap_lo", "gap_hi", "residual")
    for name in gaps:
        values[name] = np.full(np.shape(mean), np.nan)
    numeric = np.flatnonzero(~(failed | closed))
    if numeric.size:
        cell = [np.ravel(a)[numeric] for a in (mean, peak, agreed, c_prov, c_viol, surcharge)]
        *found, root = _bisect(*cell)
        for name, column in zip(gaps, found):
            values[name].flat[numeric] = column
        # a copy: on 0-d columns the closed form's selects may return an input
        r = np.array(r)
        r.flat[numeric] = root
    solver, solver_failed = _first_failure(
        _SOLVER_CHECKS, values, len(FAILURES) - len(_SOLVER_CHECKS)
    )
    failure = np.where(failed, failure, solver)
    failed = failed | solver_failed
    columns = _columns(r, mean, peak, agreed, c_prov, c_viol)
    return failure, failed, tuple(np.where(failed, np.nan, c) for c in columns)


def _solve_cell(stats: DemandStats, rates: CostRates, closed: bool) -> BalanceResult:
    """One cell by the closed form or by bisection, raising the error of the
    first of the solver checks it fails."""
    inputs = {**vars(stats), **vars(rates)}
    # float64 scalars divide by zero and overflow as the array columns do
    mean, peak, agreed, c_en, c_co2, c_viol, surcharge = (
        np.float64(inputs[name]) for name in _STATS_FIELDS + _RATES_FIELDS
    )
    with np.errstate(all="ignore"):
        c_prov = c_en + c_co2
        total, r = _closed_form(mean, peak, agreed, c_prov, c_viol)
        gap_lo = gap_hi = residual = np.nan
        if not closed:
            gap_lo, gap_hi, residual, r = _bisect(mean, peak, agreed, c_prov, c_viol, surcharge)
        values = dict(
            closed=closed, c_provision=c_prov, c_viol=c_viol, total=total,
            tolerance=_tolerance(c_prov, c_viol, surcharge),
            gap_lo=gap_lo, gap_hi=gap_hi, residual=residual,
        )
        for check in _SOLVER_CHECKS:
            if check.fails(values):
                # the fields as given, so the message prints them as the checks do
                raise check.exception({name: float(x) for name, x in values.items()} | inputs)
        columns = _columns(r, mean, peak, agreed, c_prov, c_viol)
    return BalanceResult(*map(float, columns))


def balance_closed_form(stats: DemandStats, rates: CostRates) -> BalanceResult:
    """Algebraic equilibrium of wastage cost against expected penalty.

    The level is the weighted average of mean and max demand with weights
    max*(c_en + c_co2) and r_agreed*c_viol, so it always lies between the
    two.  Only valid for a zero satisfaction term; the boundary cases
    (one cost channel priced at zero) return the exact endpoint.  Raises
    DegenerateCosts when both weights are zero or their sum overflows.
    """
    if rates.satisfaction != 0.0:
        raise NonzeroSatisfaction(
            "closed form requires satisfaction == 0; use balance_numeric"
        )
    return _solve_cell(stats, rates, closed=True)


def balance_numeric(stats: DemandStats, rates: CostRates) -> BalanceResult:
    """Bisection on the cost difference, generalizing to satisfaction >= 0.

    Searches [mean_demand, max_demand]: wastage is zero at the lower end and
    the violation probability is zero at the upper end, so any crossing of

        wastage cost(r) - expected penalty(r) - satisfaction

    lies inside.  The residual cost gap at the returned level is at most
    1e-9 * (c_en + c_co2 + c_viol + satisfaction).  Raises DegenerateCosts
    when both prices are zero, and NoRootInRange when the surcharge exceeds
    the wastage cost even at max demand or the bisection cannot bring the
    residual within that tolerance.
    """
    return _solve_cell(stats, rates, closed=False)


def solve_balance(stats: DemandStats, rates: CostRates) -> BalanceResult:
    """Balance point: the closed form at zero satisfaction, bisection otherwise."""
    if rates.satisfaction == 0.0:
        return balance_closed_form(stats, rates)
    return balance_numeric(stats, rates)


def balance_grid(mean_demand, max_demand, r_agreed, c_en, c_co2, c_viol, satisfaction):
    """:func:`solve_balance` over float64 arrays, one cell per element.

    The seven inputs are the DemandStats and CostRates fields; they are
    broadcast against each other.  Returns ``(failure, columns, values)``:

    - ``failure`` holds, per cell, the index into :data:`FAILURES` of the
      error the scalar path raises for it, or -1 where it is solved;
    - ``columns`` holds the BalanceResult fields in declaration order, NaN
      where not solved;
    - ``values`` maps each name the checks read to its array: the seven
      inputs, ``c_provision``, ``closed`` (where the closed form runs),
      its weight ``total``, and the bisection's ``gap_lo``, ``gap_hi``,
      ``residual`` and ``tolerance``.

    Cell ``i`` fails with ``FAILURES[failure[i]].exception(cell)``, where
    ``cell`` maps each name in ``values`` to its value at ``i``.  The
    scalar solvers run the same closed form, bisection and checks on one
    cell's scalars, so a solved cell is bit-identical to the scalar result.
    """
    values = dict(zip(
        _STATS_FIELDS + _RATES_FIELDS,
        np.broadcast_arrays(
            *(
                np.asarray(a, dtype=float)
                for a in (mean_demand, max_demand, r_agreed, c_en, c_co2, c_viol, satisfaction)
            )
        ),
    ))
    failure, failed = _first_failure(_STATS_CHECKS + _RATES_CHECKS, values, 0)
    failure, _, columns = _solve(values, values["satisfaction"] == 0.0, failure, failed)
    return failure, columns, values


def heuristic_band(
    balance: BalanceResult, x_percent: float, stats: DemandStats
) -> tuple[float, float]:
    """Scheduler clamp interval: balance level +/- x, cut to [0, r_agreed]."""
    if not 0.0 <= x_percent < 1.0:
        raise ValueError(f"x_percent must be in [0, 1), got {x_percent}")
    r = balance.r_provisioned
    return (max(0.0, r * (1.0 - x_percent)), min(stats.r_agreed, r * (1.0 + x_percent)))
