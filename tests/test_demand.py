"""Demand profile construction, statistics, and reproducible sampling.

Parametric moments are checked against quadrature oracles built from
math.erf (no shared code with the implementation) and, deep in the tails,
against 60-digit mpmath references; sampled statistics against 3-sigma
CLT/binomial bounds computed inline.
"""

import math

import mpmath
import numpy as np
import pytest

from greenprov import (
    LOGNORMAL,
    DemandProfile,
    InvalidDistribution,
    UnboundedSupport,
    make_profile,
)
from greenprov.cli import main
from greenprov.demand import (
    DEFAULT_QUANTILE,
    MEAN_PLUS_VARIANCE,
    QUANTILE,
    TRUE_UPPER_BOUND,
)


def phi(z):
    # standard normal CDF, independently of the implementation
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def norm_pdf(z):
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


class TestMakeProfile:
    def test_uniform_support(self):
        profile = make_profile("uniform", [0, 80])
        assert profile.lower == 0.0
        assert profile.upper == 80.0
        assert profile.true_upper_bound() == 80.0

    def test_uniform_reversed_bounds_rejected(self):
        with pytest.raises(InvalidDistribution):
            make_profile("uniform", [80, 0])

    def test_negative_support_rejected(self):
        with pytest.raises(InvalidDistribution):
            make_profile("uniform", [-1, 80])
        with pytest.raises(InvalidDistribution):
            make_profile("empirical", [-3, 5])
        with pytest.raises(InvalidDistribution):
            make_profile("truncated_normal", [50, 10, -5, 100])

    def test_empirical_needs_two_values(self):
        with pytest.raises(InvalidDistribution):
            make_profile("empirical", [10])

    def test_sigma_must_be_positive(self):
        with pytest.raises(InvalidDistribution):
            make_profile("truncated_normal", [50, 0, 100])
        with pytest.raises(InvalidDistribution):
            make_profile("lognormal", [0, -0.5])

    @pytest.mark.parametrize(
        "params",
        [
            [50, 10, 0, 5e-324],  # 5e-325 sigma wide: no width in float
            [0, 1, 0, 3e-323],  # a subnormal width: its quadrature weights underflow
            [1e308, 10, 0, 100],  # 1e307 sigma below mu
            [0, 5e-324, 0.5, 200],  # infinitely many sigma above mu
        ],
    )
    def test_truncation_window_must_be_representable_in_sigmas(self, params):
        # such windows had NaN moments and raised from tail probabilities
        with pytest.raises(InvalidDistribution, match="too narrow or too far from mu"):
            make_profile("truncated_normal", params)

    def test_point_like_windows_keep_their_mass_at_the_near_end(self):
        # 1e150 sigma below mu: every quantity sits at the upper end
        profile = make_profile("truncated_normal", [1e150, 1, 0, 100])
        assert (profile.mean(), profile.variance()) == (100.0, 0.0)
        assert profile.tail_probability(50.0) == 1.0
        assert profile.quantile(0.5) == 100.0
        # a window whose ends round to one point in units of sigma
        profile = make_profile("truncated_normal", [31, 1, 1, 1 + 1e-15])
        assert profile.tail_probability(1 + 5e-16) == pytest.approx(0.6, rel=1e-12)
        # (log r - mu_log) / sigma_log overflows for any r but exp(mu_log)
        for params in ([1.0, 1e-309], [1.0, 1e-309, 62.0]):
            profile = make_profile("lognormal", params)
            assert profile.tail_probability(60.0) == 0.0
            assert profile.tail_probability(2.0) == 1.0
            assert profile.mean() == math.e

    def test_lognormal_truncation_must_be_positive(self):
        with pytest.raises(InvalidDistribution):
            make_profile("lognormal", [0, 0.5, 0])

    def test_unknown_family(self):
        with pytest.raises(InvalidDistribution):
            make_profile("pareto", [1, 2])

    def test_resource_unit_is_carried(self):
        profile = make_profile("uniform", [0, 80], resource_unit="GB")
        assert profile.resource_unit == "GB"

    def test_empirical_values_sorted_and_bounds_set(self):
        profile = make_profile("empirical", [30, 10, 20])
        assert profile.values == (10.0, 20.0, 30.0)
        assert profile.lower == 10.0
        assert profile.upper == 30.0


class TestMoments:
    def test_uniform_midpoint(self):
        assert make_profile("uniform", [0, 80]).mean() == pytest.approx(40.0)

    def test_uniform_variance(self):
        assert make_profile("uniform", [0, 80]).variance() == pytest.approx(6400 / 12)

    def test_empirical_mean(self):
        assert make_profile("empirical", [10, 20, 30]).mean() == pytest.approx(20.0)

    def test_empirical_constant_variance_is_zero(self):
        assert make_profile("empirical", [5, 5, 5]).variance() == 0.0

    def test_truncated_normal_symmetric_mean(self):
        # symmetric truncation around mu leaves the mean at mu
        profile = make_profile("truncated_normal", [50, 10, 0, 100])
        assert 49.9 <= profile.mean() <= 50.1
        assert profile.mean() == pytest.approx(50.0, abs=1e-9)

    def test_truncated_normal_against_quadrature(self):
        mu, sigma, lo, hi = 30.0, 20.0, 0.0, 100.0
        profile = make_profile("truncated_normal", [mu, sigma, lo, hi])
        z = phi((hi - mu) / sigma) - phi((lo - mu) / sigma)

        def density(x):
            return norm_pdf((x - mu) / sigma) / (sigma * z)

        m1 = float(mpmath.quad(lambda x: x * density(x), [lo, hi]))
        m2 = float(mpmath.quad(lambda x: x * x * density(x), [lo, hi]))
        assert profile.mean() == pytest.approx(m1, rel=1e-9)
        assert profile.variance() == pytest.approx(m2 - m1 * m1, rel=1e-7)

    def test_lognormal_untruncated_closed_form(self):
        profile = make_profile("lognormal", [0, 0.5])
        assert profile.mean() == pytest.approx(math.exp(0.125), rel=1e-12)
        expected_var = math.exp(0.25) * (math.exp(0.25) - 1.0)
        assert profile.variance() == pytest.approx(expected_var, rel=1e-12)

    def test_lognormal_truncated_against_quadrature(self):
        mu_log, sigma_log, upper = 0.0, 0.5, 2.0
        profile = make_profile("lognormal", [mu_log, sigma_log, upper])
        z = phi((math.log(upper) - mu_log) / sigma_log)

        def density(x):
            return norm_pdf((math.log(x) - mu_log) / sigma_log) / (x * sigma_log * z)

        m1 = float(mpmath.quad(lambda x: x * density(x), [1e-12, upper]))
        m2 = float(mpmath.quad(lambda x: x * x * density(x), [1e-12, upper]))
        assert profile.mean() == pytest.approx(m1, rel=1e-9)
        assert profile.variance() == pytest.approx(m2 - m1 * m1, rel=1e-7)

    @pytest.mark.parametrize(
        "kind,params",
        [
            ("uniform", [0, 80]),
            ("truncated_normal", [50, 10, 0, 100]),
            ("lognormal", [0, 0.5, 4.0]),
            ("empirical", [10, 20, 30, 40]),
        ],
    )
    def test_mean_within_support(self, kind, params):
        profile = make_profile(kind, params)
        assert 0.0 <= profile.mean() <= profile.true_upper_bound()

    def test_values_beyond_the_float_range_are_inf_without_a_warning(self):
        # the callers' finiteness checks report an inf (warnings are errors here)
        profile = make_profile("lognormal", [709, 1])  # exp(709 + 2.33) overflows
        assert profile.quantile(0.99) == math.inf
        assert np.isinf(profile.sample_many(np.random.default_rng(1), 100)).any()
        with pytest.raises(InvalidDistribution, match="moment 2 overflows"):
            make_profile("lognormal", [709, 0.09, 1e308]).variance()
        # the sum of squares of an empirical variance overflows
        assert make_profile("empirical", [0.0, 2.68e154]).variance() == math.inf
        # an empirical mean is taken again over scaled data when its sum overflows
        profile = make_profile("empirical", [1e308, 1.7e308])
        assert profile.mean() == profile.clamped_mean(1.7e308) == 1.35e308


class TestMaxEstimate:
    def test_mean_plus_variance_estimator(self):
        # {30, 50}: mean 40, population variance 100
        profile = make_profile("empirical", [30, 50])
        assert profile.mean() == pytest.approx(40.0)
        assert profile.variance() == pytest.approx(100.0)
        assert profile.max_estimate(MEAN_PLUS_VARIANCE) == pytest.approx(140.0)

    def test_true_upper_bound(self):
        assert make_profile("uniform", [0, 80]).max_estimate(TRUE_UPPER_BOUND) == 80.0

    def test_uniform_quantile(self):
        profile = make_profile("uniform", [0, 80])
        assert profile.max_estimate(QUANTILE, q=0.95) == pytest.approx(76.0)

    def test_default_prefers_true_bound_when_bounded(self):
        profile = make_profile("uniform", [0, 80])
        assert profile.max_estimate() == 80.0

    def test_default_falls_back_to_q99_when_unbounded(self):
        profile = make_profile("lognormal", [0, 0.5])
        assert profile.max_estimate() == profile.quantile(DEFAULT_QUANTILE)

    def test_true_bound_on_unbounded_support_raises(self):
        profile = make_profile("lognormal", [0, 0.5])
        with pytest.raises(UnboundedSupport):
            profile.max_estimate(TRUE_UPPER_BOUND)

    def test_variance_estimator_never_below_mean(self):
        for profile in (
            make_profile("uniform", [0, 80]),
            make_profile("empirical", [5, 5, 5]),
            make_profile("lognormal", [0, 0.5]),
        ):
            assert profile.max_estimate(MEAN_PLUS_VARIANCE) >= profile.mean()

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            make_profile("uniform", [0, 80]).max_estimate("mode")


class TestTailProbability:
    def test_uniform_tail(self):
        assert make_profile("uniform", [0, 100]).tail_probability(75) == pytest.approx(0.25)

    @pytest.mark.parametrize(
        "kind,params",
        [
            ("uniform", [0, 80]),
            ("truncated_normal", [50, 10, 0, 100]),
            ("lognormal", [0, 0.5, 4.0]),
            ("empirical", [10, 20, 30, 40]),
        ],
    )
    def test_tail_beyond_support_is_zero(self, kind, params):
        profile = make_profile(kind, params)
        assert profile.tail_probability(profile.true_upper_bound()) == 0.0
        assert profile.tail_probability(profile.true_upper_bound() + 1) == 0.0

    def test_empirical_fraction(self):
        profile = make_profile("empirical", [10, 20, 30, 40])
        assert profile.tail_probability(25) == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "kind,params",
        [
            ("uniform", [0, 80]),
            ("truncated_normal", [50, 10, 0, 100]),
            ("lognormal", [0, 0.5]),
            ("lognormal", [0, 0.5, 4.0]),
            ("empirical", [10, 20, 30, 40]),
        ],
    )
    def test_tail_nonincreasing_and_bounded(self, kind, params):
        profile = make_profile(kind, params)
        top = profile.upper if profile.upper is not None else profile.quantile(0.999)
        grid = np.linspace(0.0, top, 50)
        tails = [profile.tail_probability(r) for r in grid]
        assert all(0.0 <= t <= 1.0 for t in tails)
        assert all(a >= b for a, b in zip(tails, tails[1:]))

    def test_uniform_linearity_is_exact(self):
        # the one family where 1 - r/max is the true tail
        profile = make_profile("uniform", [0, 80])
        for r in np.linspace(0, 80, 9):
            assert profile.tail_probability(r) == pytest.approx(1 - r / 80, abs=1e-15)


class TestQuantile:
    def test_bounds_rejected(self):
        profile = make_profile("uniform", [0, 80])
        for q in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                profile.quantile(q)

    def test_empirical_inverted_cdf(self):
        profile = make_profile("empirical", [10, 20, 30, 40])
        assert profile.quantile(0.25) == 10.0
        assert profile.quantile(0.5) == 20.0
        assert profile.quantile(0.51) == 30.0
        assert profile.quantile(0.99) == 40.0

    @pytest.mark.parametrize(
        "kind,params",
        [
            ("uniform", [0, 80]),
            ("truncated_normal", [50, 10, 0, 100]),
            ("lognormal", [0, 0.5]),
            ("lognormal", [0, 0.5, 4.0]),
        ],
    )
    def test_inverts_tail_for_continuous_families(self, kind, params):
        profile = make_profile(kind, params)
        for q in (0.1, 0.5, 0.9, 0.99):
            xq = profile.quantile(q)
            assert profile.tail_probability(xq) == pytest.approx(1 - q, abs=1e-9)


class TestSampling:
    def test_same_seed_same_draw(self):
        profile = make_profile("uniform", [0, 80])
        a = profile.sample_many(np.random.default_rng(42), 1)
        b = profile.sample_many(np.random.default_rng(42), 1)
        assert a.shape == (1,) and np.array_equal(a, b)

    def test_one_draw_equals_chunked_draws(self):
        profile = make_profile("truncated_normal", [50, 10, 0, 100])
        whole = profile.sample_many(np.random.default_rng(7), 16)
        rng = np.random.default_rng(7)
        chunks = [profile.sample_many(rng, n) for n in (1, 5, 10)]
        assert np.array_equal(whole, np.concatenate(chunks))

    def test_support_containment(self):
        profile = make_profile("uniform", [0, 80])
        draws = profile.sample_many(np.random.default_rng(3), 10**6)
        assert draws.min() >= 0.0
        assert draws.max() <= 80.0

    def test_uniform_sample_mean(self):
        profile = make_profile("uniform", [0, 80])
        n = 10**6
        draws = profile.sample_many(np.random.default_rng(11), n)
        bound = 3.0 * math.sqrt(profile.variance() / n)  # 3 sigma ~= 0.069
        assert bound < 0.3
        assert abs(draws.mean() - 40.0) < bound

    def test_empirical_sampling_hits_only_observed_values(self):
        profile = make_profile("empirical", [10, 20, 20, 40])
        draws = profile.sample_many(np.random.default_rng(5), 1000)
        assert set(np.unique(draws)) <= {10.0, 20.0, 40.0}

    @pytest.mark.parametrize(
        "kind,params",
        [
            ("uniform", [0, 80]),
            ("truncated_normal", [50, 10, 0, 100]),
            ("lognormal", [0, 0.5, 4.0]),
        ],
    )
    def test_tail_matches_sampled_fraction(self, kind, params):
        """Exceedance fractions of 10^6 draws sit in 3-sigma binomial bands
        around tail_probability at five grid points."""
        profile = make_profile(kind, params)
        n = 10**6
        draws = profile.sample_many(np.random.default_rng(17), n)
        top = profile.true_upper_bound()
        for r in np.linspace(0.1 * top, 0.9 * top, 5):
            p = profile.tail_probability(r)
            fraction = np.count_nonzero(draws > r) / n
            bound = 3.0 * math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(fraction - p) <= bound


# -- accuracy against 60-digit references ---------------------------------------

ACCURACY = 1e-12
UNIFORMS = [1e-3, 0.01, 0.25, 0.5, 0.75, 0.99, 0.999]


class FixedUniforms:
    """Generator stand-in whose random(n) returns the given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, n):
        assert n == len(self.u)
        return self.u.copy()


def close(got, want):
    return abs(mpmath.mpf(got) - want) <= ACCURACY * abs(want)


def mp_mass(lo, hi):
    """Phi(hi) - Phi(lo) in mpmath, mirrored so it never takes 1 - Phi."""
    if lo + hi > 0:
        lo, hi = -hi, -lo
    return mpmath.ncdf(hi) - mpmath.ncdf(lo)


def check_against(profile, mean, var, tail, ppf, points):
    """Compare moments, tails at points, quantiles and sample_many on
    UNIFORMS with mpmath references (ppf(q, start) solves for the exact
    q-quantile starting from the computed one)."""
    assert close(profile.mean(), mean)
    assert close(profile.variance(), var)
    for r in points:
        assert close(profile.tail_probability(r), tail(r)), r
    draws = profile.sample_many(FixedUniforms(UNIFORMS), len(UNIFORMS))
    for q, x in zip(UNIFORMS, draws):
        want = ppf(q, x)
        assert close(profile.quantile(q), want), q
        assert close(x, want), q


@pytest.mark.parametrize(
    "mu,sigma,lower,upper",
    [
        (40, 15, 0, 80),  # the benchmark's fixture
        (0, 1, 8, 9),
        (0, 1, 40, 41),  # Phi(-40) is below the smallest double
        (100, 1, 59, 60),  # the same window in the lower tail
        (-44.06, 2.096, 25.9336, 25.9356),  # 1e-3 sigma wide, 33 sigma out
    ],
)
def test_truncated_normal_matches_mpmath(mu, sigma, lower, upper):
    profile = make_profile("truncated_normal", [mu, sigma, lower, upper])
    with mpmath.workdps(60):
        a = (mpmath.mpf(lower) - mu) / sigma
        b = (mpmath.mpf(upper) - mu) / sigma
        mass = mp_mass(a, b)
        pa, pb = mpmath.npdf(a), mpmath.npdf(b)
        m = (pa - pb) / mass
        var = 1 + (a * pa - b * pb) / mass - m * m

        def tail(r):
            return mp_mass((mpmath.mpf(r) - mu) / sigma, b) / mass

        def ppf(q, start):
            z = mpmath.findroot(lambda t: mp_mass(a, t) / mass - q, (start - mu) / sigma)
            return mu + sigma * z

        points = [lower + (upper - lower) * f for f in (0.01, 0.3, 0.5, 0.7, 0.99)]
        check_against(profile, mu + sigma * m, sigma**2 * var, tail, ppf, points)


@pytest.mark.parametrize(
    "mu_log,sigma_log,beta",
    [
        (3.0, 0.5, None),
        (3.0, 0.5, 8.0),  # upper deep in the upper tail
        (3.0, 0.5, -8.0),
        (3.0, 0.5, -30.0),  # upper deep in the lower tail
        (0.0, 0.05, 0.0),  # narrow: E[D^2] - E[D]^2 cancels to 1e-3
    ],
)
def test_lognormal_matches_mpmath(mu_log, sigma_log, beta):
    upper = None if beta is None else math.exp(mu_log + sigma_log * beta)
    params = [mu_log, sigma_log] + ([] if upper is None else [upper])
    profile = make_profile("lognormal", params)
    with mpmath.workdps(60):
        m, s = mpmath.mpf(mu_log), mpmath.mpf(sigma_log)
        top = mpmath.inf if upper is None else (mpmath.log(upper) - m) / s
        cap = mpmath.ncdf(top)

        def moment(k):
            return mpmath.exp(k * m + k * k * s * s / 2) * mpmath.ncdf(top - k * s) / cap

        def tail(r):
            return mp_mass((mpmath.log(r) - m) / s, top) / cap

        def ppf(q, start):
            z = mpmath.findroot(lambda t: mpmath.ncdf(t) / cap - q, (mpmath.log(start) - m) / s)
            return mpmath.exp(m + s * z)

        m1 = moment(1)
        hi = profile.quantile(0.999) if upper is None else upper
        points = [hi * f for f in (0.2, 0.5, 0.8, 0.95)]
        check_against(profile, m1, moment(2) - m1 * m1, tail, ppf, points)


def mp_sf(x):
    """1 - Phi(x) in mpmath; past 1e6, where mpmath's erfc overflows, by the
    Mills ratio phi(x) / x, within 1e-12 relative."""
    return mpmath.npdf(x) / x if x > 1e6 else mpmath.ncdf(-x)


def mp_tail(profile, r):
    """P(demand > r) of a truncated normal or truncated lognormal profile, in mpmath."""
    if profile.kind == LOGNORMAL:
        m, s = mpmath.mpf(profile.mu_log), mpmath.mpf(profile.sigma_log)
        z, top = ((mpmath.log(x) - m) / s for x in (r, profile.upper))
        return (mp_sf(z) - mp_sf(top)) / (1 - mp_sf(top))
    if r >= profile.upper:
        return mpmath.mpf(0)
    mu, sigma = mpmath.mpf(profile.mu), mpmath.mpf(profile.sigma)
    a, b, z = ((mpmath.mpf(x) - mu) / sigma for x in (profile.lower, profile.upper, r))
    return mp_mass(z, b) / mp_mass(a, b)


@pytest.mark.parametrize("demand,policy", [
    # 1.3e172 sigma from mu, the window's standardized ends round to one
    # value, so their erf values are equal
    ("{kind: truncated_normal, mu: 1.3408154261727037e+172, "
     "sigma: 1.3408154261727037e+172, lower: 41, upper: 60}",
     "{kind: balance_band, x_percent: 0}"),
    ("{kind: truncated_normal, mu: 1.3408154261727037e+172, "
     "sigma: 1.3408154261727037e+172, lower: 41, upper: 60}",
     "{kind: fixed_level, level: 50}"),
    # 1.8e196 sigma below the truncation point, a tail window's ends round
    # to one value
    ("{kind: lognormal, mu_log: -3.889967148019919e+168, "
     "sigma_log: 2.1217272361793966e-28, upper: 81}",
     "{kind: balance}"),
], ids=["truncated-normal-band", "truncated-normal-level", "lognormal"])
def test_tail_windows_whose_ends_round_together(tmp_path, capsys, monkeypatch, demand, policy):
    calls = []
    tail_probability = DemandProfile.tail_probability

    def recorded(profile, r):
        calls.append((profile, r, tail_probability(profile, r)))
        return calls[-1][-1]

    monkeypatch.setattr(DemandProfile, "tail_probability", recorded)
    config = tmp_path / "scenario.yaml"
    config.write_text(
        f"demand: {demand}\nstats: {{r_agreed: 100}}\n"
        "rates: {c_en: 1.5, c_co2: 0.5, c_viol: 1.0}\n"
        f"policy: {policy}\n"
        "simulation: {steps: 100, replications: 2, seed: 7, energy_full: 2.0, "
        "carbon_intensity: 0.5}\n",
        encoding="utf-8",
    )
    code = main(["simulate", str(config), "--output", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert (code, err) == (0, "") or (code in (1, 2) and err.count("\n") == 1), err
    assert calls
    with mpmath.workdps(250):  # the truncated normal's window is 1.4e-171 sigma wide
        for profile, r, got in calls:
            want = mp_tail(profile, r)
            assert got == float(want) or close(got, want), (r, got, want)


def test_far_narrow_window_quantiles():
    # 621 sigma below the mean: mu + sigma * z cancels 87 down to about 6e-4,
    # which costs the quantiles about 6e-11 of their relative precision
    mu, sigma, lower, upper = 87.0, 0.14, 0.0, 0.0012
    profile = make_profile("truncated_normal", [mu, sigma, lower, upper])
    with mpmath.workdps(100):
        a = (mpmath.mpf(lower) - mu) / sigma
        b = (mpmath.mpf(upper) - mu) / sigma
        mass = mp_mass(a, b)
        for q in UNIFORMS:
            got = profile.quantile(q)
            z = mpmath.findroot(lambda t: mp_mass(a, t) / mass - q, (got - mu) / sigma)
            want = mu + sigma * z
            assert abs(got - want) <= 1e-9 * want, q


def test_narrow_window_moments_stay_in_range():
    # a window 1e-9 wide: E[X^2] - E[X]^2 would cancel to rounding noise
    profile = make_profile("truncated_normal", [0, 1, 0, 1e-9])
    assert profile.variance() >= 0.0
    assert profile.lower <= profile.mean() <= profile.upper
    assert profile.variance() == pytest.approx(1e-18 / 12, rel=1e-6)
