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
customer-satisfaction surcharge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateCosts,
    DomainError,
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


def wastage_fraction(r_provisioned: float, stats: DemandStats) -> float:
    """Fraction of the agreed amount provisioned beyond mean demand.

    Negative when provisioning below the mean; callers decide policy for
    that regime (balance solvers never produce it).
    """
    return (r_provisioned - stats.mean_demand) / stats.r_agreed


def wastage_cost(r_provisioned: float, stats: DemandStats, rates: CostRates) -> float:
    """Per-time-unit cost of the energy and CO2e spent above mean demand."""
    return wastage_fraction(r_provisioned, stats) * rates.c_provision


def violation_probability_linear(r_provisioned: float, stats: DemandStats) -> float:
    """Linear violation probability: 1 at zero provisioning, 0 at max demand."""
    if stats.max_demand <= 0.0:
        raise DomainError("violation probability needs max_demand > 0")
    if r_provisioned < 0.0 or r_provisioned > stats.max_demand:
        raise DomainError(
            f"r_provisioned must lie in [0, {stats.max_demand}], got {r_provisioned}; "
            "clamp before calling"
        )
    return 1.0 - r_provisioned / stats.max_demand


def expected_penalty(p_viol: float, rates: CostRates) -> float:
    """Expected per-time-unit penalty: violation probability times unit price."""
    return p_viol * rates.c_viol


def _proba_at(r: float, stats: DemandStats) -> float:
    # Degenerate max == 0 means demand is a.s. zero: provisioning at the
    # maximum, so no violations.
    if stats.max_demand <= 0.0:
        return 0.0
    return max(0.0, 1.0 - r / stats.max_demand)


def _result_at(r: float, stats: DemandStats, rates: CostRates) -> BalanceResult:
    w = wastage_fraction(r, stats)
    p = _proba_at(r, stats)
    return BalanceResult(
        r_provisioned=r,
        w=w,
        c_wastage=w * rates.c_provision,
        p_viol=p,
        expected_penalty=expected_penalty(p, rates),
    )


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
    weight_wastage = stats.max_demand * rates.c_provision
    weight_penalty = stats.r_agreed * rates.c_viol
    total = weight_wastage + weight_penalty
    if total <= 0.0:
        raise DegenerateCosts("both cost channels are zero; no balance exists")
    if not math.isfinite(total):
        raise DegenerateCosts(
            f"cost weights overflow: max_demand * c_provision + r_agreed * c_viol is {total}"
        )
    if rates.c_viol == 0.0:
        r = stats.mean_demand
    elif rates.c_provision == 0.0:
        r = stats.max_demand
    else:
        r = (
            stats.max_demand
            * (stats.mean_demand * rates.c_provision + stats.r_agreed * rates.c_viol)
            / total
        )
        # Float rounding may land an ulp outside [mean, max]; the result
        # type promises containment.
        r = min(max(r, stats.mean_demand), stats.max_demand)
    return _result_at(r, stats, rates)


def balance_numeric(
    stats: DemandStats, rates: CostRates, tolerance: float | None = None
) -> BalanceResult:
    """Bisection on the cost difference, generalizing to satisfaction >= 0.

    Searches [mean_demand, max_demand]: wastage is zero at the lower end and
    the violation probability is zero at the upper end, so any crossing of

        wastage_cost(r) - expected_penalty(r) - satisfaction

    lies inside.  ``tolerance`` bounds the residual cost gap at the returned
    level; the default scales with the given prices.  Raises NoRootInRange
    when the surcharge exceeds the wastage cost even at max demand.
    """
    if tolerance is not None and tolerance <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    c_prov, c_viol, surcharge = rates.c_provision, rates.c_viol, rates.satisfaction
    if c_prov == 0.0 and c_viol == 0.0:
        raise DegenerateCosts("both cost channels are zero; no balance exists")
    if tolerance is None:
        tolerance = 1e-9 * (c_prov + c_viol + surcharge)

    def gap(r: float) -> float:
        return wastage_cost(r, stats, rates) - _proba_at(r, stats) * c_viol - surcharge

    lo, hi = stats.mean_demand, stats.max_demand
    gap_lo, gap_hi = gap(lo), gap(hi)
    if gap_lo > 0.0 or gap_hi < 0.0:
        raise NoRootInRange(
            f"cost difference does not cross zero on [{lo}, {hi}] "
            f"(endpoints {gap_lo:.6g}, {gap_hi:.6g})"
        )
    if gap_lo == 0.0:
        return _result_at(lo, stats, rates)
    if gap_hi == 0.0:
        return _result_at(hi, stats, rates)

    width_target = _BISECT_REL_WIDTH * stats.max_demand
    for _ in range(_BISECT_MAX_ITER):
        if hi - lo <= width_target:
            break
        mid = 0.5 * (lo + hi)
        if gap(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    if abs(gap(root)) > tolerance:
        raise ArithmeticError(
            f"bisection residual {gap(root):.3g} exceeds tolerance {tolerance:.3g}"
        )
    return _result_at(root, stats, rates)


def solve_balance(stats: DemandStats, rates: CostRates) -> BalanceResult:
    """Balance point: the closed form at zero satisfaction, bisection otherwise."""
    if rates.satisfaction == 0.0:
        return balance_closed_form(stats, rates)
    return balance_numeric(stats, rates)


# Array forms of the scalar solvers for balance_grid.  Each repeats the
# scalar float operations in the same order, and np.where(b > a, b, a)
# stands for Python's max(a, b) (and likewise for min), which keeps
# ``a`` on ties and on NaN, so every solved cell is bit-identical.


def _proba_grid(r, peak):
    q = 1.0 - r / peak
    return np.where((peak > 0.0) & (q > 0.0), q, 0.0)


def _gap_grid(r, mean, peak, agreed, c_prov, c_viol, surcharge):
    return (r - mean) / agreed * c_prov - _proba_grid(r, peak) * c_viol - surcharge


def _closed_form_grid(mean, peak, agreed, c_prov, c_viol):
    """(solvable, level) of balance_closed_form per cell."""
    weight_wastage = peak * c_prov
    weight_penalty = agreed * c_viol
    total = weight_wastage + weight_penalty
    r = peak * (mean * c_prov + agreed * c_viol) / total
    r = np.where(mean > r, mean, r)
    r = np.where(peak < r, peak, r)
    r = np.where(c_viol == 0.0, mean, np.where(c_prov == 0.0, peak, r))
    return ~(total <= 0.0) & np.isfinite(total), r


def _bisect_grid(mean, peak, agreed, c_prov, c_viol, surcharge):
    """(solvable, level) of balance_numeric per cell, all cells stepped together."""

    def gap(r):
        return _gap_grid(r, mean, peak, agreed, c_prov, c_viol, surcharge)

    tolerance = 1e-9 * (c_prov + c_viol + surcharge)
    gap_lo, gap_hi = gap(mean), gap(peak)
    solvable = ~((c_prov == 0.0) & (c_viol == 0.0)) & ~((gap_lo > 0.0) | (gap_hi < 0.0))
    endpoint = (gap_lo == 0.0) | (gap_hi == 0.0)
    bisected = solvable & ~endpoint
    lo, hi = mean, peak
    width_target = _BISECT_REL_WIDTH * peak
    active = bisected
    for _ in range(_BISECT_MAX_ITER):
        active = active & ~(hi - lo <= width_target)
        if not active.any():
            break
        mid = 0.5 * (lo + hi)
        up = gap(mid) >= 0.0
        hi = np.where(active & up, mid, hi)
        lo = np.where(active & ~up, mid, lo)
    root = 0.5 * (lo + hi)
    solvable &= ~(bisected & (np.abs(gap(root)) > tolerance))
    root = np.where(gap_lo == 0.0, mean, np.where(gap_hi == 0.0, peak, root))
    return solvable, root


def balance_grid(mean_demand, max_demand, r_agreed, c_en, c_co2, c_viol, satisfaction):
    """:func:`solve_balance` over float64 arrays, one cell per element.

    The seven inputs are the DemandStats and CostRates fields; they are
    broadcast against each other.  Returns ``(solved, columns)``: ``solved``
    marks the cells the scalar dispatcher solves, and ``columns`` holds the
    BalanceResult fields in declaration order, NaN where not solved.  A
    solved cell is bit-identical to the scalar result; the reason a cell is
    not solved is the error the scalar path raises for it.
    """
    mean, peak, agreed, c_en, c_co2, c_viol, surcharge = np.broadcast_arrays(
        *(
            np.asarray(a, dtype=float)
            for a in (mean_demand, max_demand, r_agreed, c_en, c_co2, c_viol, satisfaction)
        )
    )
    with np.errstate(all="ignore"):
        c_prov = c_en + c_co2
        # the DemandStats and CostRates validation
        solved = np.ones(mean.shape, dtype=bool)
        for value in (mean, peak, agreed, c_en, c_co2, c_viol, surcharge):
            solved &= np.isfinite(value)
        solved &= (mean >= 0.0) & (peak >= mean) & (agreed > 0.0) & (peak <= agreed)
        for rate in (c_en, c_co2, c_viol, surcharge):
            solved &= rate >= 0.0
        closed = surcharge == 0.0
        solvable, r = _closed_form_grid(mean, peak, agreed, c_prov, c_viol)
        solved &= solvable | ~closed
        numeric = np.flatnonzero(solved & ~closed)
        if numeric.size:
            solvable, root = _bisect_grid(
                *(a.ravel()[numeric] for a in (mean, peak, agreed, c_prov, c_viol, surcharge))
            )
            solved.flat[numeric] = solvable
            r.flat[numeric] = root
        w = (r - mean) / agreed
        p = _proba_grid(r, peak)
        columns = (r, w, w * c_prov, p, p * c_viol)
    return solved, tuple(np.where(solved, c, np.nan) for c in columns)


def heuristic_band(
    balance: BalanceResult, x_percent: float, stats: DemandStats
) -> tuple[float, float]:
    """Scheduler clamp interval: balance level +/- x, cut to [0, r_agreed]."""
    if not 0.0 <= x_percent < 1.0:
        raise ValueError(f"x_percent must be in [0, 1), got {x_percent}")
    r = balance.r_provisioned
    return (max(0.0, r * (1.0 - x_percent)), min(stats.r_agreed, r * (1.0 + x_percent)))
