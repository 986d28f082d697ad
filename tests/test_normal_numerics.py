"""The standard normal primitives of greenprov.demand against mpmath.

``_erfcx`` and ``_log_ndtr`` (scalars) and ``_ndtri_exp`` (arrays) are
compared with 60-digit mpmath values at fixed far-tail points and, through
hypothesis, across their ranges (derandomized, with no example database:
the profile in conftest.py).
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greenprov.demand import _erfcx, _log_ndtr, _ndtri_exp

EPS = 2.0**-52
PROPERTY = settings(max_examples=200)


def mp_log_ndtr(x):
    """log Phi(x), without the 1 - tiny rounding of log(ncdf(x)) for x > 0."""
    x = mpmath.mpf(x)
    return mpmath.log1p(-mpmath.ncdf(-x)) if x > 0 else mpmath.log(mpmath.ncdf(x))


def mp_ndtri_exp(y, start):
    """The exact z with log Phi(z) = y, searched from start."""
    return mpmath.findroot(lambda t: mp_log_ndtr(t) - y, start)


def relative(got, want):
    return float(abs(mpmath.mpf(got) - want) / abs(want))


@pytest.mark.parametrize("z", [-37.5, -157.6, -1000.0, -1e5])
def test_ndtri_exp_far_tail(z):
    with mpmath.workdps(60):
        y = float(mp_log_ndtr(z))
        want = mp_ndtri_exp(y, z)
        got = _ndtri_exp(np.array([y]))[0]
        assert relative(got, want) <= 1e-15


def test_ndtri_exp_of_minus_infinity():
    assert _ndtri_exp(np.array([-np.inf, math.log(0.25)]))[0] == -np.inf


@PROPERTY
@given(st.floats(0.0, 1e6))
@example(25.99)  # either side of the switch to the asymptotic series
@example(26.0)
def test_erfcx_matches_mpmath(x):
    with mpmath.workdps(60):
        want = mpmath.exp(mpmath.mpf(x) ** 2) * mpmath.erfc(x)
        assert relative(_erfcx(x), want) <= 1e-15


@PROPERTY
@given(st.floats(-1e5, 30.0))
@example(-38.5)  # erfc(-x / sqrt 2) is subnormal here
def test_log_ndtr_matches_mpmath(x):
    # above 0, erfc takes the rounded x / sqrt 2 and magnifies its error
    # x**2 times; at and below 0 the error stays a few ulps
    with mpmath.workdps(60):
        want = mp_log_ndtr(x)
        assert relative(_log_ndtr(x), want) <= 8 * EPS * max(1.0, x * x)


def test_log_ndtr_at_minus_infinity():
    assert _log_ndtr(-math.inf) == -math.inf


@PROPERTY
@given(st.floats(-1e5, 0.0))
def test_ndtri_exp_inverts_log_ndtr(z):
    y = _log_ndtr(z)
    got = _ndtri_exp(np.array([y]))[0]
    with mpmath.workdps(60):
        want = mp_ndtri_exp(y, z if z < 0.0 else -1e-3)
        # relative near the origin would divide by a vanishing z
        assert abs(got - want) <= 8 * EPS * max(abs(want), 1e-3)
    # the round trip: y carries a few ulps of |y|, which move z by about
    # |y| / |z| ulps of z (dz = dy * Phi / phi)
    assert abs(got - z) <= 16 * EPS * max(abs(z), 1.0)
