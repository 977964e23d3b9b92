"""The normal-distribution functions of `wwrfva.normal` against mpmath and
against scipy.special, which the engine used before.

Accuracy is relative error against a 50-digit reference. ndtr(a) and
log_ndtr(a) work on the double x = a / sqrt(2); in the tails that
rounding alone moves the result by up to about 2 x^2 ulps, in scipy as
here, so both are compared at that x. The two implementations round
differently in their last steps: at any one point ours may be up to ULPS
ulps less accurate than scipy's, and no more.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from wwrfva import normal

EPS = 2.0 ** -52
ULPS = 4
mpmath.mp.dps = 50

cdf_args = st.floats(-37.0, 10.0)
probabilities = st.floats(1e-12, 1.0 - 1e-12)


def _ndtr_ref(a: float):
    """ndtr at the double nearest a / sqrt(2), to 50 digits."""
    return mpmath.erfc(-mpmath.mpf(a * normal._SQRT1_2)) / 2


def _rel(value: float, ref) -> float:
    return float(abs((mpmath.mpf(value) - ref) / ref)) if ref else abs(value)


@settings(deadline=None, max_examples=150)
@given(a=st.lists(cdf_args, min_size=1, max_size=40))
def test_ndtr_on_arrays_as_accurate_as_scipy(a):
    # a list mixes the erf, erfc and far-tail branches in one call
    ours, theirs = normal.ndtr(np.array(a)), special.ndtr(np.array(a))
    for ai, o, t in zip(a, ours, theirs):
        ref = _ndtr_ref(ai)
        assert _rel(o, ref) <= _rel(t, ref) + ULPS * EPS
        # a float gives its entry's value in the array
        f = normal.ndtr(ai)
        assert abs(o - f) <= 2e-15 * abs(f)


@settings(deadline=None, max_examples=300)
@given(a=cdf_args)
def test_ndtr_on_floats_as_accurate_as_scipy(a):
    ref = _ndtr_ref(a)
    ours = normal.ndtr(a)
    assert type(ours) is float
    assert _rel(ours, ref) <= _rel(special.ndtr(a), ref) + ULPS * EPS
    # the rounding of a / sqrt(2) bounds the error against ndtr(a) itself
    x = a * normal._SQRT1_2
    assert _rel(ours, mpmath.ncdf(a)) <= (2.0 * x * x + 8.0) * EPS


@settings(deadline=None, max_examples=300)
@given(a=cdf_args)
def test_log_ndtr_as_accurate_as_scipy(a):
    x = mpmath.mpf(a * normal._SQRT1_2)
    ref = mpmath.log(mpmath.erfc(-x) / 2) if a <= 0 else mpmath.log1p(-mpmath.erfc(x) / 2)
    ours = normal.log_ndtr(a)
    assert _rel(ours, ref) <= _rel(special.log_ndtr(a), ref) + ULPS * EPS


@settings(deadline=None, max_examples=150)
@given(a=st.lists(cdf_args, min_size=1, max_size=40))
def test_log_ndtr_on_arrays_as_accurate_as_scipy(a):
    # both signs of a in one call, each through its own branch
    ours, theirs = normal.log_ndtr(np.array(a)), special.log_ndtr(np.array(a))
    for ai, o, t in zip(a, ours, theirs):
        x = mpmath.mpf(ai * normal._SQRT1_2)
        ref = mpmath.log(mpmath.erfc(-x) / 2) if ai <= 0 else mpmath.log1p(-mpmath.erfc(x) / 2)
        assert _rel(o, ref) <= _rel(t, ref) + ULPS * EPS


@settings(deadline=None, max_examples=300)
@given(p=probabilities)
def test_ndtri_as_accurate_as_scipy(p):
    ref = mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1)
    ours = normal.ndtri(p)
    assert _rel(ours, ref) <= _rel(special.ndtri(p), ref) + ULPS * EPS
    assert normal.ndtri(np.array([p, 0.5]))[0] == ours


def test_ndtr_edge_values():
    a = np.array([[-np.inf, -40.0, -38.0, 0.0], [np.nan, 10.0, 40.0, np.inf]])
    out = normal.ndtr(a)
    assert out.shape == a.shape
    # past |x| = 26.64 the Cephes erfc underflows to 0
    np.testing.assert_array_equal(out[0, :3], 0.0)
    assert out[0, 3] == 0.5
    assert math.isnan(out[1, 0])
    np.testing.assert_array_equal(out[1, 2:], 1.0)
    assert normal.ndtr(np.array([])).shape == (0,)
    assert normal.ndtr(np.float64(0.0)) == 0.5 and normal.ndtr(np.array(1.0)) == normal.ndtr(1.0)


def test_factorial_is_exact():
    n = np.arange(171)
    np.testing.assert_array_equal(normal.factorial(n),
                                  [float(math.factorial(k)) for k in range(171)])
    # scipy's, which the engine read before, agrees wherever n! is exact
    np.testing.assert_array_equal(normal.factorial(n[:23]), special.factorial(n[:23]))


# the ends of ndtr's ranges in a = x sqrt(2): |x| = 1, 8 and the erfc
# underflow, each with its neighbouring doubles
_EDGES = [e * math.sqrt(2.0) for e in (1.0, 8.0, normal._ERFC_UNDER)]
_EDGE_POINTS = [v for e in _EDGES for v in (np.nextafter(e, 0.0), e, np.nextafter(e, 99.0))]


@settings(deadline=None, max_examples=60)
@given(scale=st.sampled_from([0.5, 2.0, 12.0, 40.0]), seed=st.integers(0, 2 ** 32 - 1),
       n=st.integers(1, 3000), nans=st.integers(0, 3), in_place=st.booleans())
def test_sorted_row_ndtr_equals_the_masked_one_bit_for_bit(scale, seed, n, nans, in_place):
    rng = np.random.default_rng(seed)
    special_points = [-np.inf, np.inf, -0.0, 0.0, *_EDGE_POINTS,
                      *(-v for v in _EDGE_POINTS), *[np.nan] * nans]
    a = np.sort(np.append(rng.normal(0.0, scale, n), special_points))
    want = normal._ndtr_array(a)
    got = normal.ndtr_sorted(a, a if in_place else np.empty_like(a))
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))
