"""Stochastic demand profiles for a single abstract cloud resource.

A :class:`DemandProfile` models per-time-unit user demand as a nonnegative
random variable.  Four families are supported:

``uniform``
    Flat density on ``[lower, upper]``.
``truncated_normal``
    Normal(mu, sigma) restricted to ``[lower, upper]`` (``lower`` defaults
    to 0, keeping demand nonnegative).
``lognormal``
    Log-normal with log-space parameters ``mu_log``/``sigma_log``,
    optionally truncated above at ``upper``; untruncated profiles have
    unbounded support.
``empirical``
    The step CDF of a finite multiset of observed demand values
    (no smoothing).

All random draws use inverse-transform sampling on a caller-owned
``numpy.random.Generator``:  a fixed seed yields the same draw sequence on
every run and platform, and two consumers that share a seed see identical
demand paths (the basis for common-random-number policy comparisons).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import stats as sps

from .errors import InvalidDistribution, UnboundedSupport

UNIFORM = "uniform"
TRUNCATED_NORMAL = "truncated_normal"
LOGNORMAL = "lognormal"
EMPIRICAL = "empirical"

FAMILIES = (UNIFORM, TRUNCATED_NORMAL, LOGNORMAL, EMPIRICAL)

# max_estimate methods
MEAN_PLUS_VARIANCE = "mean_plus_variance"
QUANTILE = "quantile"
TRUE_UPPER_BOUND = "true_upper_bound"
DEFAULT_MAX = "default"

DEFAULT_QUANTILE = 0.99


def _finite(*xs: float) -> bool:
    return all(math.isfinite(x) for x in xs)


@dataclass(frozen=True)
class DemandProfile:
    """Validated, immutable demand distribution.

    Construct through :func:`make_profile`; fields not used by a family keep
    their defaults.  ``upper`` is the support maximum and is ``None`` only
    for an untruncated lognormal.  ``values`` holds the sorted observations
    of an empirical profile.  Instances are safe to share across threads.
    """

    kind: str
    lower: float = 0.0
    upper: float | None = None
    mu: float = 0.0
    sigma: float = 1.0
    mu_log: float = 0.0
    sigma_log: float = 1.0
    values: tuple[float, ...] = ()
    resource_unit: str = ""

    # -- support ---------------------------------------------------------

    @property
    def bounded(self) -> bool:
        return self.upper is not None

    def true_upper_bound(self) -> float:
        """Supremum of the support; raises UnboundedSupport if there is none."""
        if self.upper is None:
            raise UnboundedSupport(
                "untruncated lognormal demand has no finite upper bound"
            )
        return self.upper

    # -- moments ---------------------------------------------------------

    def mean(self) -> float:
        """Expected demand per time unit (analytic; arithmetic for empirical)."""
        if self.kind == UNIFORM:
            return 0.5 * (self.lower + self.upper)
        if self.kind == TRUNCATED_NORMAL:
            a, b = self._tn_shape()
            return float(sps.truncnorm.mean(a, b, loc=self.mu, scale=self.sigma))
        if self.kind == LOGNORMAL:
            return self._lognorm_moment(1)
        return float(np.mean(self.values))

    def variance(self) -> float:
        """Variance of demand (analytic; for empirical, the variance of the
        step CDF itself, i.e. population form)."""
        if self.kind == UNIFORM:
            width = self.upper - self.lower
            return width * width / 12.0
        if self.kind == TRUNCATED_NORMAL:
            a, b = self._tn_shape()
            return float(sps.truncnorm.var(a, b, loc=self.mu, scale=self.sigma))
        if self.kind == LOGNORMAL:
            m1 = self._lognorm_moment(1)
            return max(0.0, self._lognorm_moment(2) - m1 * m1)
        return float(np.var(self.values))

    def max_estimate(self, method: str = DEFAULT_MAX, q: float = DEFAULT_QUANTILE) -> float:
        """Estimate of the demand maximum.

        ``mean_plus_variance`` returns mean + variance; ``quantile`` the q-quantile;
        ``true_upper_bound`` the support supremum.  ``default`` picks the
        true upper bound when the support is bounded and the 0.99-quantile
        otherwise.
        """
        if method == DEFAULT_MAX:
            method = TRUE_UPPER_BOUND if self.bounded else QUANTILE
        if method == MEAN_PLUS_VARIANCE:
            return self.mean() + self.variance()
        if method == QUANTILE:
            return self.quantile(q)
        if method == TRUE_UPPER_BOUND:
            return self.true_upper_bound()
        raise ValueError(f"unknown max estimate method: {method!r}")

    # -- probabilities ----------------------------------------------------

    def tail_probability(self, r: float) -> float:
        """P(demand > r), exact for the family (empirical fraction for data)."""
        if self.kind == UNIFORM:
            if r <= self.lower:
                return 1.0
            if r >= self.upper:
                return 0.0
            return (self.upper - r) / (self.upper - self.lower)
        if self.kind == TRUNCATED_NORMAL:
            if r <= self.lower:
                return 1.0
            if r >= self.upper:
                return 0.0
            a, b = self._tn_shape()
            return float(sps.truncnorm.sf(r, a, b, loc=self.mu, scale=self.sigma))
        if self.kind == LOGNORMAL:
            if r <= 0.0:
                return 1.0
            if self.upper is not None and r >= self.upper:
                return 0.0
            z = (math.log(r) - self.mu_log) / self.sigma_log
            if self.upper is None:
                return float(sps.norm.sf(z))
            cap = float(sps.norm.cdf((math.log(self.upper) - self.mu_log) / self.sigma_log))
            return min(1.0, max(0.0, (cap - float(sps.norm.cdf(z))) / cap))
        n = len(self.values)
        return float(np.count_nonzero(np.asarray(self.values) > r)) / n

    def quantile(self, q: float) -> float:
        """q-quantile of demand, 0 < q < 1 (inverted step CDF for empirical)."""
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile level must be in (0, 1), got {q}")
        if self.kind == UNIFORM:
            return self.lower + q * (self.upper - self.lower)
        if self.kind == TRUNCATED_NORMAL:
            a, b = self._tn_shape()
            return float(sps.truncnorm.ppf(q, a, b, loc=self.mu, scale=self.sigma))
        if self.kind == LOGNORMAL:
            if self.upper is None:
                return math.exp(self.mu_log + self.sigma_log * float(sps.norm.ppf(q)))
            cap = float(sps.norm.cdf((math.log(self.upper) - self.mu_log) / self.sigma_log))
            return math.exp(self.mu_log + self.sigma_log * float(sps.norm.ppf(q * cap)))
        return float(np.quantile(np.asarray(self.values), q, method="inverted_cdf"))

    # -- sampling ----------------------------------------------------------

    def sample(self, rng: np.random.Generator) -> float:
        """One demand draw; consumes exactly one uniform from ``rng``."""
        return float(self._transform(np.asarray([rng.random()]))[0])

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Vector of ``n`` draws; consumes ``n`` uniforms, aligned with
        issuing ``n`` single :meth:`sample` calls on the same generator."""
        return self._transform(rng.random(n))

    # -- internals ---------------------------------------------------------

    def _tn_shape(self) -> tuple[float, float]:
        return (self.lower - self.mu) / self.sigma, (self.upper - self.mu) / self.sigma

    def _lognorm_moment(self, k: int) -> float:
        """k-th raw moment (upper truncation folded in).

        Raises InvalidDistribution when it is not a finite float.
        """
        m, s = self.mu_log, self.sigma_log
        try:
            moment = math.exp(k * m + 0.5 * k * k * s * s)
        except OverflowError:
            raise InvalidDistribution(
                f"lognormal moment {k} overflows (mu_log={m}, sigma_log={s})"
            ) from None
        if self.upper is None:
            return moment
        beta = (math.log(self.upper) - m) / s
        cap = float(sps.norm.cdf(beta))
        return moment * float(sps.norm.cdf(beta - k * s)) / cap

    def _transform(self, u: np.ndarray) -> np.ndarray:
        """Inverse CDF applied to uniforms in [0, 1)."""
        if self.kind == UNIFORM:
            return self.lower + u * (self.upper - self.lower)
        if self.kind == TRUNCATED_NORMAL:
            a, b = self._tn_shape()
            return sps.truncnorm.ppf(u, a, b, loc=self.mu, scale=self.sigma)
        if self.kind == LOGNORMAL:
            if self.upper is None:
                return np.exp(self.mu_log + self.sigma_log * sps.norm.ppf(u))
            cap = float(sps.norm.cdf((math.log(self.upper) - self.mu_log) / self.sigma_log))
            return np.exp(self.mu_log + self.sigma_log * sps.norm.ppf(u * cap))
        vals = np.asarray(self.values)
        idx = np.minimum((u * len(vals)).astype(np.int64), len(vals) - 1)
        return vals[idx]


def make_profile(kind: str, params: Sequence[float], resource_unit: str = "") -> DemandProfile:
    """Build and validate a demand profile.

    Parameter layout per family:

    - ``uniform``: (lower, upper)
    - ``truncated_normal``: (mu, sigma, upper) or (mu, sigma, lower, upper)
    - ``lognormal``: (mu_log, sigma_log) or (mu_log, sigma_log, upper)
    - ``empirical``: the observed demand values (at least two)

    Raises InvalidDistribution when a family constraint is violated.
    """
    params = [float(p) for p in params]

    if kind == UNIFORM:
        if len(params) != 2:
            raise InvalidDistribution("uniform takes (lower, upper)")
        lower, upper = params
        if not _finite(lower, upper):
            raise InvalidDistribution("uniform bounds must be finite")
        if lower < 0.0:
            raise InvalidDistribution("demand cannot be negative: lower >= 0 required")
        if lower >= upper:
            raise InvalidDistribution(f"uniform requires lower < upper, got [{lower}, {upper}]")
        return DemandProfile(UNIFORM, lower=lower, upper=upper, resource_unit=resource_unit)

    if kind == TRUNCATED_NORMAL:
        if len(params) == 3:
            mu, sigma, upper = params
            lower = 0.0
        elif len(params) == 4:
            mu, sigma, lower, upper = params
        else:
            raise InvalidDistribution("truncated_normal takes (mu, sigma, [lower,] upper)")
        if not _finite(mu, sigma, lower, upper):
            raise InvalidDistribution("truncated_normal parameters must be finite")
        if sigma <= 0.0:
            raise InvalidDistribution(f"sigma must be positive, got {sigma}")
        if lower < 0.0:
            raise InvalidDistribution("demand cannot be negative: lower >= 0 required")
        if upper <= lower:
            raise InvalidDistribution(f"truncation requires upper > lower, got [{lower}, {upper}]")
        return DemandProfile(
            TRUNCATED_NORMAL, lower=lower, upper=upper, mu=mu, sigma=sigma,
            resource_unit=resource_unit,
        )

    if kind == LOGNORMAL:
        if len(params) == 2:
            mu_log, sigma_log = params
            upper = None
        elif len(params) == 3:
            mu_log, sigma_log, upper = params
        else:
            raise InvalidDistribution("lognormal takes (mu_log, sigma_log[, upper])")
        if not _finite(mu_log, sigma_log) or (upper is not None and not math.isfinite(upper)):
            raise InvalidDistribution("lognormal parameters must be finite")
        if sigma_log <= 0.0:
            raise InvalidDistribution(f"sigma_log must be positive, got {sigma_log}")
        if upper is not None and upper <= 0.0:
            raise InvalidDistribution("lognormal truncation point must be positive")
        if upper is not None and sps.norm.cdf((math.log(upper) - mu_log) / sigma_log) == 0.0:
            raise InvalidDistribution(
                f"lognormal truncation point {upper} carries no probability mass"
            )
        return DemandProfile(
            LOGNORMAL, mu_log=mu_log, sigma_log=sigma_log, upper=upper,
            resource_unit=resource_unit,
        )

    if kind == EMPIRICAL:
        if len(params) < 2:
            raise InvalidDistribution("empirical needs at least 2 observed values")
        if not all(math.isfinite(v) for v in params):
            raise InvalidDistribution("empirical values must be finite")
        if min(params) < 0.0:
            raise InvalidDistribution("demand cannot be negative: all values >= 0 required")
        ordered = tuple(sorted(params))
        return DemandProfile(
            EMPIRICAL, lower=ordered[0], upper=ordered[-1], values=ordered,
            resource_unit=resource_unit,
        )

    raise InvalidDistribution(f"unknown distribution family: {kind!r}")
