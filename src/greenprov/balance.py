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
float64 arrays: ``balance_grid`` runs it on whole columns, and the scalar
solvers on the values of one cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        for name in ("c_en", "c_co2", "c_viol", "satisfaction"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise InvalidRates(f"{name} must be finite and >= 0, got {value}")

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
        for name in ("mean_demand", "max_demand", "r_agreed"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidStats(f"{name} must be finite, got {value}")
        if self.mean_demand < 0.0:
            raise InvalidStats(f"mean_demand must be >= 0, got {self.mean_demand}")
        if self.max_demand < self.mean_demand:
            raise InvalidStats(
                f"max_demand ({self.max_demand}) < mean_demand ({self.mean_demand})"
            )
        if self.r_agreed <= 0.0:
            raise InvalidStats(f"r_agreed must be positive, got {self.r_agreed}")
        if self.max_demand > self.r_agreed:
            raise InvalidStats(
                f"max_demand ({self.max_demand}) exceeds r_agreed ({self.r_agreed}); "
                "clamp demand at the scenario level if this is intended"
            )


@dataclass(frozen=True)
class BalanceResult:
    """Equilibrium provisioning level with its cost components."""

    r_provisioned: float
    w: float
    c_wastage: float
    p_viol: float
    expected_penalty: float


@np.errstate(all="ignore")
def violation_probability_linear(r, max_demand):
    """Linear violation probability: 1 at zero provisioning, falling to 0 at
    max_demand and staying 0 above it.

    Degenerate max_demand <= 0 means demand is a.s. zero, so nothing is
    violated and the probability is 0.  Takes floats or broadcastable
    float64 arrays.
    """
    q = 1.0 - np.divide(r, max_demand)
    return np.where((max_demand > 0.0) & (q > 0.0), q, 0.0)[()]


# The solver arithmetic below runs elementwise on float64 arrays or
# scalars, with floating-point errors ignored by the caller: balance_grid
# passes whole columns, the scalar solvers one cell's float64 values.


def _columns(r, mean, peak, agreed, c_prov, c_viol):
    """The BalanceResult fields at level ``r``, in declaration order."""
    w = (r - mean) / agreed
    p = violation_probability_linear(r, peak)
    return r, w, w * c_prov, p, p * c_viol


def _closed_form(mean, peak, agreed, c_prov, c_viol):
    """Total cost weight and the closed-form level; the level stands only
    where the total is positive and finite."""
    total = peak * c_prov + agreed * c_viol
    r = peak * (mean * c_prov + agreed * c_viol) / total
    # Float rounding may land an ulp outside [mean, max]; the result type
    # promises containment.  Unlike np.maximum and np.minimum, these keep r
    # on ties (of signed zeros) and where a comparison meets NaN.
    r = np.where(mean > r, mean, r)
    r = np.where(peak < r, peak, r)
    return total, np.where(c_viol == 0.0, mean, np.where(c_prov == 0.0, peak, r))


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
        return wastage - violation_probability_linear(r, peak) * c_viol - surcharge

    gap_lo, gap_hi = gap(mean), gap(peak)
    rooted = ~(gap_lo > 0.0) & ~(gap_hi < 0.0)
    if not rooted.any():
        return gap_lo, gap_hi, 0.0, mean
    bisected = active = rooted & (gap_lo != 0.0) & (gap_hi != 0.0)
    lo, hi = mean, peak
    width_target = _BISECT_REL_WIDTH * peak
    for _ in range(_BISECT_MAX_ITER):
        active = active & ~(hi - lo <= width_target)
        if not active.any():
            break
        mid = 0.5 * (lo + hi)
        up = gap(mid) >= 0.0
        hi = np.where(active & up, mid, hi)
        lo = np.where(active & ~up, mid, lo)
    root = np.where(bisected, 0.5 * (lo + hi), np.where(gap_lo == 0.0, mean, peak))
    return gap_lo, gap_hi, gap(root), root


def _float64(stats: DemandStats, rates: CostRates):
    # One cell's inputs as float64 scalars, which divide by zero and
    # overflow as the array columns do instead of raising.
    return map(
        np.float64,
        (stats.mean_demand, stats.max_demand, stats.r_agreed,
         rates.c_provision, rates.c_viol, rates.satisfaction),
    )


@np.errstate(all="ignore")
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
    mean, peak, agreed, c_prov, c_viol, _ = _float64(stats, rates)
    total, r = _closed_form(mean, peak, agreed, c_prov, c_viol)
    if total <= 0.0:
        raise DegenerateCosts("both cost channels are zero; no balance exists")
    if not np.isfinite(total):
        raise DegenerateCosts(
            "cost weights overflow: max_demand * c_provision + r_agreed * c_viol "
            f"is {float(total)}"
        )
    return BalanceResult(*map(float, _columns(r, mean, peak, agreed, c_prov, c_viol)))


@np.errstate(all="ignore")
def balance_numeric(stats: DemandStats, rates: CostRates) -> BalanceResult:
    """Bisection on the cost difference, generalizing to satisfaction >= 0.

    Searches [mean_demand, max_demand]: wastage is zero at the lower end and
    the violation probability is zero at the upper end, so any crossing of

        wastage cost(r) - expected penalty(r) - satisfaction

    lies inside.  The residual cost gap at the returned level is at most
    1e-9 * (c_en + c_co2 + c_viol + satisfaction).  Raises NoRootInRange
    when the surcharge exceeds the wastage cost even at max demand.
    """
    if rates.c_provision == 0.0 and rates.c_viol == 0.0:
        raise DegenerateCosts("both cost channels are zero; no balance exists")
    mean, peak, agreed, c_prov, c_viol, surcharge = _float64(stats, rates)
    gap_lo, gap_hi, residual, r = _bisect(mean, peak, agreed, c_prov, c_viol, surcharge)
    if gap_lo > 0.0 or gap_hi < 0.0:
        raise NoRootInRange(
            "cost difference does not cross zero on "
            f"[{stats.mean_demand}, {stats.max_demand}] "
            f"(endpoints {float(gap_lo):.6g}, {float(gap_hi):.6g})"
        )
    tolerance = _tolerance(c_prov, c_viol, surcharge)
    if abs(residual) > tolerance:
        raise ArithmeticError(
            f"bisection residual {float(residual):.3g} exceeds tolerance "
            f"{float(tolerance):.3g}"
        )
    return BalanceResult(*map(float, _columns(r, mean, peak, agreed, c_prov, c_viol)))


def solve_balance(stats: DemandStats, rates: CostRates) -> BalanceResult:
    """Balance point: the closed form at zero satisfaction, bisection otherwise."""
    if rates.satisfaction == 0.0:
        return balance_closed_form(stats, rates)
    return balance_numeric(stats, rates)


@np.errstate(all="ignore")
def balance_grid(mean_demand, max_demand, r_agreed, c_en, c_co2, c_viol, satisfaction):
    """:func:`solve_balance` over float64 arrays, one cell per element.

    The seven inputs are the DemandStats and CostRates fields; they are
    broadcast against each other.  Returns ``(solved, columns)``: ``solved``
    marks the cells the scalar dispatcher solves, and ``columns`` holds the
    BalanceResult fields in declaration order, NaN where not solved.  The
    scalar solvers run this same arithmetic on one cell, so a solved cell
    is bit-identical to the scalar result; the reason a cell is not solved
    is the error the scalar path raises for it.
    """
    mean, peak, agreed, c_en, c_co2, c_viol, surcharge = np.broadcast_arrays(
        *(
            np.asarray(a, dtype=float)
            for a in (mean_demand, max_demand, r_agreed, c_en, c_co2, c_viol, satisfaction)
        )
    )
    c_prov = c_en + c_co2
    # the DemandStats and CostRates validation
    solved = np.ones(mean.shape, dtype=bool)
    for value in (mean, peak, agreed, c_en, c_co2, c_viol, surcharge):
        solved &= np.isfinite(value)
    solved &= (mean >= 0.0) & (peak >= mean) & (agreed > 0.0) & (peak <= agreed)
    for rate in (c_en, c_co2, c_viol, surcharge):
        solved &= rate >= 0.0
    closed = surcharge == 0.0
    total, r = _closed_form(mean, peak, agreed, c_prov, c_viol)
    solved &= ~closed | ((total > 0.0) & np.isfinite(total))
    numeric = np.flatnonzero(solved & ~closed)
    if numeric.size:
        cell = [a.ravel()[numeric] for a in (mean, peak, agreed, c_prov, c_viol, surcharge)]
        gap_lo, gap_hi, residual, root = _bisect(*cell)
        c_prov_n, c_viol_n, surcharge_n = cell[3:]
        solved.flat[numeric] = (
            ~((c_prov_n == 0.0) & (c_viol_n == 0.0))
            & ~((gap_lo > 0.0) | (gap_hi < 0.0))
            & ~(np.abs(residual) > _tolerance(c_prov_n, c_viol_n, surcharge_n))
        )
        r.flat[numeric] = root
    columns = _columns(r, mean, peak, agreed, c_prov, c_viol)
    return solved, tuple(np.where(solved, c, np.nan) for c in columns)


def heuristic_band(
    balance: BalanceResult, x_percent: float, stats: DemandStats
) -> tuple[float, float]:
    """Scheduler clamp interval: balance level +/- x, cut to [0, r_agreed]."""
    if not 0.0 <= x_percent < 1.0:
        raise ValueError(f"x_percent must be in [0, 1), got {x_percent}")
    r = balance.r_provisioned
    return (max(0.0, r * (1.0 - x_percent)), min(stats.r_agreed, r * (1.0 + x_percent)))
