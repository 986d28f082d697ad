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

Truncated-normal and lognormal tail probabilities, quantiles and draws are
exact inverse CDFs computed in log space on ``math.erfc`` and numpy (no
scipy), so a window far out in either tail neither underflows nor rounds
to 1; their moments are integrated about the window end nearest the mode,
so a far-tail or narrow window keeps its variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

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

_SQRT_HALF = math.sqrt(0.5)
_NODES = 64  # Gauss-Legendre nodes per side of a truncated-normal window
_LOG_MIN = math.log(5e-324)  # log of the smallest positive float
_NARROW = 2.2250738585072014e-308  # narrowest window, in sigmas: the smallest normal float
_FAR = 1e154  # farthest window end, in sigmas, whose square is a float


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

    # An empirical mean whose sum overflows is taken again by _mean; an
    # overflowing variance is inf, which the callers' finiteness checks report
    @np.errstate(over="ignore")
    def mean(self) -> float:
        """Expected demand per time unit (analytic; arithmetic for empirical)."""
        if self.kind == UNIFORM:
            return 0.5 * (self.lower + self.upper)
        if self.kind == TRUNCATED_NORMAL:
            return self._tn_moments()[0]
        if self.kind == LOGNORMAL:
            m1 = self._lognorm_moment(1)
            return m1 if self.upper is None else min(m1, self.upper)
        return _mean(self._observed)

    @np.errstate(over="ignore")
    def variance(self) -> float:
        """Variance of demand (analytic; for empirical, the variance of the
        step CDF itself, i.e. population form)."""
        if self.kind == UNIFORM:
            width = self.upper - self.lower
            return width * width / 12.0
        if self.kind == TRUNCATED_NORMAL:
            return self._tn_moments()[1]
        if self.kind == LOGNORMAL:
            return self._lognorm_variance()
        return float(np.var(self._observed))

    @np.errstate(over="ignore")
    def clamped_mean(self, r: float) -> float:
        """E[min(demand, r)]: (1 - p) E[demand | demand <= r] + p r, p = P(demand > r)."""
        if self.kind == EMPIRICAL:
            return _mean(np.minimum(self._observed, r))
        p = self.tail_probability(r)
        if p == 0.0:
            return self.mean()
        if p == 1.0:
            return r
        # demand below r follows the profile truncated at r, which p < 1 keeps nonempty
        return (1.0 - p) * replace(self, upper=r).mean() + p * r

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
            a, b, width = self._tn_window()
            z = (r - self.mu) / self.sigma
            tail = _mass(z, b, (self.upper - r) / self.sigma)
            return min(1.0, math.exp(_log_mass_ratio(tail, _mass(a, b, width))))
        if self.kind == LOGNORMAL:
            if r <= 0.0:
                return 1.0
            if self.upper is not None and r >= self.upper:
                return 0.0
            beta = self._beta()
            z = (math.log(r) - self.mu_log) / self.sigma_log
            tail = _mass(z, beta, beta - z)
            return min(1.0, math.exp(_log_mass_ratio(tail, _mass(-math.inf, beta, math.inf))))
        n = len(self.values)
        return float(np.count_nonzero(self._observed > r)) / n

    def quantile(self, q: float) -> float:
        """q-quantile of demand, 0 < q < 1 (inverted step CDF for empirical)."""
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile level must be in (0, 1), got {q}")
        if self.kind == EMPIRICAL:
            return float(np.quantile(self._observed, q, method="inverted_cdf"))
        return float(self._transform(np.array([q]))[0])

    # -- sampling ----------------------------------------------------------

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Vector of ``n`` draws; consumes ``n`` uniforms, one per draw, so
        draws split into chunks on one generator equal a single draw of all."""
        return self._transform(rng.random(n))

    def observation_index(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Index into ``values`` of the empirical draw at each uniform u in [0, 1).

        ``out``, an int64 array shaped like ``u``, receives the indices
        instead of a new array, and is returned.
        """
        n = len(self.values)
        # floor(u * n) cast straight into the index array: no float temporary
        index = np.empty(np.shape(u), dtype=np.int64) if out is None else out
        np.multiply(u, n, out=index, casting="unsafe")
        return np.minimum(index, n - 1, out=index)

    # -- internals ---------------------------------------------------------

    @cached_property
    def _observed(self) -> np.ndarray:
        """``values`` as a read-only array, converted once, not per draw."""
        observed = np.asarray(self.values, dtype=float)
        observed.flags.writeable = False
        return observed

    def _tn_window(self) -> tuple[float, float, float]:
        """Standardized ends a, b and the width b - a, taken from the raw ends."""
        lo, hi, mu, sigma = self.lower, self.upper, self.mu, self.sigma
        return (lo - mu) / sigma, (hi - mu) / sigma, (hi - lo) / sigma

    def _tn_moments(self) -> tuple[float, float]:
        """Mean and variance of a truncated normal, from :func:`_tn_nodes`."""
        a, b, width = self._tn_window()
        x0, y, w = _tn_nodes(a, b, width)
        # the end _tn_nodes took as x0 (a == b when rounding makes the window a point)
        anchor = self.lower if a >= 0.0 else self.upper if b <= 0.0 else self.mu
        total = w.sum()
        shift = float(np.dot(w, y) / total)
        spread = float(np.dot(w, (y - shift) ** 2) / total)
        mean = anchor + self.sigma * shift
        return min(max(mean, self.lower), self.upper), self.sigma * self.sigma * spread

    def _beta(self) -> float:
        """Standardized log of the lognormal truncation point (inf if none)."""
        if self.upper is None:
            return math.inf
        return (math.log(self.upper) - self.mu_log) / self.sigma_log

    def _lognorm_moment(self, k: int) -> float:
        """k-th raw moment (upper truncation folded in).

        Raises InvalidDistribution when it is not a finite float.
        """
        m, s = self.mu_log, self.sigma_log
        beta = self._beta()
        # E[D^k] = exp(k m + k^2 s^2 / 2) Phi(beta - k s) / Phi(beta)
        log_moment = k * m + 0.5 * k * k * s * s
        if self.upper is not None:
            log_moment += _log_ndtr_ratio(beta - k * s, beta, k * s)
        try:
            return math.exp(log_moment)
        except OverflowError:
            raise InvalidDistribution(
                f"lognormal moment {k} overflows (mu_log={m}, sigma_log={s})"
            ) from None

    def _lognorm_variance(self) -> float:
        """Variance without the cancellation of E[D^2] - E[D]^2.

        A truncated law is integrated with :func:`_tn_nodes` when it is
        nearly degenerate: truncated in the lower half (beta < 0), where its
        spread shrinks like 1/beta**2, or narrow (sigma_log < 0.1).
        Otherwise the variance is E[D]^2 * expm1(E), E = log E[D^2] -
        2 log E[D] = s^2 plus two log-Phi ratios, which stays above s^2 / 3.
        """
        s = self.sigma_log
        beta = self._beta()
        try:
            if beta < 0.0 or (self.upper is not None and s < 0.1):
                x0, y, w = _tn_nodes(-math.inf, beta, math.inf)
                g = np.exp(s * y)  # demand over exp(mu_log + s * x0)
                mean = float(np.dot(w, g) / w.sum())
                sd = math.sqrt(float(np.dot(w, (g - mean) ** 2) / w.sum()))
                sd *= math.exp(self.mu_log + s * x0)
            else:
                excess = s * s
                if self.upper is not None:
                    excess += _log_ndtr_ratio(beta - 2 * s, beta - s, s)
                    excess -= _log_ndtr_ratio(beta - s, beta, s)
                sd = self._lognorm_moment(1) * math.sqrt(math.expm1(excess))
        except OverflowError:
            sd = math.inf
        var = sd * sd
        if not math.isfinite(var):
            raise InvalidDistribution(
                f"lognormal moment 2 overflows (mu_log={self.mu_log}, sigma_log={s})"
            )
        return var

    def _transform(self, u: np.ndarray) -> np.ndarray:
        """Inverse CDF applied to uniforms in [0, 1)."""
        if self.kind == UNIFORM:
            return self.lower + u * (self.upper - self.lower)
        if self.kind == TRUNCATED_NORMAL:
            z = _tn_ppf(*self._tn_window(), u)
            return np.clip(self.mu + self.sigma * z, self.lower, self.upper)
        if self.kind == LOGNORMAL:
            z = _tn_ppf(-math.inf, self._beta(), math.inf, u)
            # demand beyond the float range is inf, which the callers'
            # finiteness checks report
            with np.errstate(over="ignore"):
                d = np.exp(self.mu_log + self.sigma_log * z)
            return d if self.upper is None else np.minimum(d, self.upper)
        return self._observed[self.observation_index(u)]


def _mean(x: np.ndarray) -> float:
    """Mean of finite data whose sum may overflow.

    Only when the plain mean is not finite is it taken again over x scaled
    by 2**-ceil(log2(len(x))), which is exact and keeps the sum finite, so
    every other mean keeps its bytes.
    """
    mean = float(np.mean(x))
    if not math.isfinite(mean) and np.isfinite(x).all():
        k = math.ceil(math.log2(len(x)))
        mean = math.ldexp(float(np.mean(np.ldexp(x, -k))), k)
    return mean


# -- the standard normal on a window [a, b] ------------------------------------
#
# Truncated normal demand is mu + sigma * Z and lognormal demand
# exp(mu_log + sigma_log * Z), with Z ~ N(0, 1) restricted to a window (a
# lognormal's window is (-inf, beta]).  The helpers below work on Z with
# math.erfc and numpy alone: _erfcx and _log_ndtr on scalars, _ndtri_exp on
# arrays.

_SQRT_PI = math.sqrt(math.pi)
_LOG_ERF_SLOPE = 0.5 * math.log(2.0 / math.pi)  # log of erf(x/sqrt 2)' at x = 0
_DEKKER = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10  # sum: log 2

# Wichura, "Algorithm AS 241: The percentage points of the normal
# distribution", Applied Statistics 37 (1988): PPND16's numerator and
# denominator coefficients, lowest order first, for |p - 1/2| <= 0.425,
# for r = sqrt(-log p) <= 5, and for 5 < r <= 27.
_AS241_CENTRAL = (
    (3.3871328727963666080e0, 1.3314166789178437745e+2, 1.9715909503065514427e+3,
     1.3731693765509461125e+4, 4.5921953931549871457e+4, 6.7265770927008700853e+4,
     3.3430575583588128105e+4, 2.5090809287301226727e+3),
    (1.0, 4.2313330701600911252e+1, 6.8718700749205790830e+2, 5.3941960214247511077e+3,
     2.1213794301586595867e+4, 3.9307895800092710610e+4, 2.8729085735721942674e+4,
     5.2264952788528545610e+3),
)
_AS241_NEAR = (
    (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
     3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
     2.27238449892691845833e-2, 7.74545014278341407640e-4),
    (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
     1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
     1.05075007164441684324e-9),
)
_AS241_FAR = (
    (6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
     2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
     2.71155556874348757815e-5, 2.01033439929228813265e-7),
    (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
     7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
     2.04426310338993978564e-15),
)
_LOG_CENTRAL = math.log(0.075)  # p - 1/2 >= -0.425
_LOG_ASYMPTOTIC = -680.0  # about 37 sigma, near the end of AS241's range


def _asymptotic(x):
    """x * sqrt(pi) * erfcx(x), by its asymptotic series through the
    1/x**12 term: within 2e-17 for x >= 26.  Takes floats or arrays."""
    u = 0.5 / (x * x)
    s = 1.0
    for k in (11.0, 9.0, 7.0, 5.0, 3.0, 1.0):
        s = 1.0 - k * u * s
    return s


def _erfcx(x: float) -> float:
    """exp(x*x) * erfc(x) for x >= 0.

    Below 26, x*x is split exactly into hi + lo (Dekker), so exp(x*x) is
    exp(hi) * (1 + lo) and does not carry the rounding of x*x, which near
    26 would cost a few hundred ulps; erfc(26) is still a normal double.
    """
    if x >= 26.0:
        return _asymptotic(x) / (x * _SQRT_PI)
    hi = x * x
    c = _DEKKER * x
    head = c - (c - x)
    tail = x - head
    lo = ((head * head - hi) + 2.0 * head * tail) + tail * tail
    return math.exp(hi) * (1.0 + lo) * math.erfc(x)


def _log_ndtr(x: float) -> float:
    """log Phi(x)."""
    if x > 0.0:
        return math.log1p(-0.5 * math.erfc(x * _SQRT_HALF))
    if x > -5.0:
        return math.log(0.5 * math.erfc(-x * _SQRT_HALF))
    if x == -math.inf:
        return -math.inf
    return -0.5 * x * x + math.log(0.5 * _erfcx(-x * _SQRT_HALF))


def _log_ndtr_ratio(x: float, y: float, width: float) -> float:
    """log(Phi(x) / Phi(y)), as exact at x = -40 as at x = -4.

    ``width`` is y - x, which a caller may know more exactly than the
    difference of the rounded x and y.  Below 0, log Phi(t) = -t*t/2 +
    log(erfcx(-t/sqrt 2) / 2): the quadratic parts are differenced as one
    product and the erfcx parts are of order log|t|, so the ratio keeps its
    precision however deep or close x and y are (a difference of two
    _log_ndtr values loses |t|**2 ulps).
    """
    if width == 0.0:  # not x == y: rounding can make a window of width > 0 a point
        return 0.0
    if x > 0.0 or y > 0.0:  # one log Phi is within log 2 of 0: no cancellation
        return _log_ndtr(x) - _log_ndtr(y)
    if x == -math.inf:
        return -math.inf
    return 0.5 * width * (y + x) + math.log(_erfcx(-x * _SQRT_HALF) / _erfcx(-y * _SQRT_HALF))


def _mass(a: float, b: float, width: float) -> tuple[float, float]:
    """Phi(b) - Phi(a) for a < b, as (t, r) with mass = Phi(t) * exp(r), t <= 0.

    ``width`` is b - a (see :func:`_log_ndtr_ratio`).  A window in the
    upper half is mirrored into the lower one, where Phi neither rounds to
    1 nor needs 1 - Phi; there t is its end nearest 0.  A window that
    straddles 0, or lies within 1 of it, has t = 0 and is a difference of
    erf values, which for a straddling window are of opposite sign, so a
    narrow window keeps its relative precision.  Where the erf values are
    equal, the window is narrow enough that the density is flat on it, and
    the mass is taken from its width.  A mass that underflows has r = -inf.
    """
    if a + b > 0.0:
        a, b = -b, -a
    if b <= 0.0 and a < -1.0:
        return b, _log(-math.expm1(_log_ndtr_ratio(a, b, width)))
    mass = math.erf(b * _SQRT_HALF) - math.erf(a * _SQRT_HALF)
    if mass == 0.0:
        return 0.0, _log(width) + _LOG_ERF_SLOPE - 0.5 * a * a
    return 0.0, math.log(mass)


def _log(x: float) -> float:
    """log x for x >= 0, -inf at 0."""
    return math.log(x) if x > 0.0 else -math.inf


def _log_mass_ratio(m1: tuple[float, float], m2: tuple[float, float]) -> float:
    """log of the mass m1 over the mass m2, both (t, r) pairs from :func:`_mass`."""
    (t1, r1), (t2, r2) = m1, m2
    return _log_ndtr_ratio(t1, t2, t2 - t1) + r1 - r2


def _rational(coefficients, r: np.ndarray) -> np.ndarray:
    """numerator(r) / denominator(r) by Horner's rule, in place."""
    num, den = coefficients
    p, q = np.full_like(r, num[-1]), np.full_like(r, den[-1])
    for a, b in zip(num[-2::-1], den[-2::-1]):
        p *= r
        p += a
        q *= r
        q += b
    p /= q
    return p


def _ndtri_exp(y: np.ndarray) -> np.ndarray:
    """Phi^-1(exp(y)) for y <= log(1/2), elementwise.

    AS241 in log form: the central fit takes p - 1/2 = expm1(y + log 2) / 2
    and the tail fits r = sqrt(-y), so exp(y) is never formed in a tail.
    Below y = -680, beyond the tail fits, x = -z / sqrt 2 solves -x*x +
    log(_asymptotic(x) / (2 x sqrt pi)) = y: three Newton steps from its
    leading-order root, each squaring the relative error of about 1e-5.
    """
    z = np.full_like(y, -np.inf)  # the quantile of y = -inf
    mid = y >= _LOG_CENTRAL
    tail = (y >= _LOG_ASYMPTOTIC) & ~mid
    far = (y < _LOG_ASYMPTOTIC) & (y > -np.inf)
    q = 0.5 * np.expm1((y[mid] + _LN2_HI) + _LN2_LO)
    z[mid] = q * _rational(_AS241_CENTRAL, 0.180625 - q * q)
    r = np.sqrt(-y[tail])
    near = _rational(_AS241_NEAR, r - 1.6)
    z[tail] = -np.where(r <= 5.0, near, _rational(_AS241_FAR, r - 5.0))
    if not far.any():
        return z
    v = -y[far]
    x = np.sqrt(v - 0.5 * (np.log(v) + math.log(4.0 * math.pi)))
    for _ in range(3):
        s = _asymptotic(x)
        x += (v - x * x + np.log(s / (2.0 * _SQRT_PI * x))) * s / (2.0 * x)
    z[far] = -x / _SQRT_HALF
    return z


def _lower_ppf(a: float, mass: tuple[float, float], v: np.ndarray) -> np.ndarray:
    """ndtri(Phi(a) + v * mass), with Phi(a) <= Phi(t) (t, r = mass), in log space."""
    t, r = mass
    with np.errstate(divide="ignore"):  # v == 0 with Phi(a) == 0 gives -inf
        return _ndtri_exp(
            _log_ndtr(t) + np.log(math.exp(_log_ndtr_ratio(a, t, t - a)) + v * math.exp(r))
        )


def _tn_ppf(a: float, b: float, width: float, u: np.ndarray) -> np.ndarray:
    """Inverse CDF of Z on [a, b], of width b - a, at u in [0, 1].

    A draw that lands below 0 inverts the lower-tail probability
    Phi(a) + u * Z_ab; one above 0 inverts the upper-tail probability
    Phi(-b) + (1 - u) * Z_ab of the mirrored window.  Both are evaluated
    in log space (Botev 2017 keeps far-tail sampling stable the same way),
    so neither rounds next to 1 nor underflows deep in a tail.
    """
    mass = _mass(a, b, width)
    if a >= 0.0:
        return -_lower_ppf(-b, mass, 1.0 - u)
    if b <= 0.0:
        return _lower_ppf(a, mass, u)
    low = u <= math.exp(_log_mass_ratio(_mass(a, 0.0, -a), mass))
    z = np.empty_like(u, dtype=np.float64)
    z[low] = _lower_ppf(a, mass, u[low])
    high = ~low
    z[high] = -_lower_ppf(-b, mass, 1.0 - u[high])
    return z


@lru_cache(maxsize=1)
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(_NODES)
    nodes.flags.writeable = weights.flags.writeable = False  # shared by every caller
    return nodes, weights


def _tn_nodes(a: float, b: float, width: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Quadrature rule for Z on [a, b], whose width b - a is passed as well.

    Returns the window point x0 nearest 0, node offsets y from it and
    positive weights w, so that E[f(Z)] = sum(w * f(x0 + y)) / sum(w) for
    smooth f.  About x0 the density exp(-c*y - y*y/2) (c = |x0|) only
    falls, so moments taken about x0 do not cancel: neither a far tail,
    whose spread is about 1/c**2, nor a narrow window, whose spread is
    width**2/12.  Each side is cut where the density has fallen by e**-40;
    64-point Gauss-Legendre integrates what is left to rounding.
    """
    if a >= 0.0:
        x0, sides = a, ((1.0, width),)
    elif b <= 0.0:
        x0, sides = b, ((-1.0, width),)
    else:
        x0, sides = 0.0, ((1.0, b), (-1.0, -a))
    c = abs(x0)
    reach = 80.0 / (c + math.sqrt(c * c + 80.0))  # root of c*y + y*y/2 = 40
    t, g = _gauss_legendre()
    offsets, weights = [], []
    for sign, width in sides:
        half = 0.5 * min(width, reach)
        y = half * (t + 1.0)
        offsets.append(sign * y)
        weights.append(half * g * np.exp(-y * (c + 0.5 * y)))
    return x0, np.concatenate(offsets), np.concatenate(weights)


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
        # the window in units of sigma: wide enough that its quadrature
        # weights do not underflow, and its end nearest mu near enough that
        # its square is a float
        width, near = (upper - lower) / sigma, max((lower - mu) / sigma, (mu - upper) / sigma, 0.0)
        if not (width >= _NARROW and near <= _FAR):
            raise InvalidDistribution(
                f"truncation window [{lower}, {upper}] is too narrow or too far from mu "
                f"for sigma {sigma}"
            )
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
        if upper is not None and _log_ndtr((math.log(upper) - mu_log) / sigma_log) < _LOG_MIN:
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
