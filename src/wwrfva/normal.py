"""The standard normal functions that the engine reads, `ndtr` (the
CDF), `log_ndtr` and `ndtri` (the quantile), and `factorial`, from numpy
and the standard library alone: importing the engine imports no scipy.

`ndtr` works on x = a / sqrt(2): it is 0.5 + 0.5 erf(x) for |x| < 1
and erfc(|x|) / 2, or 1 less it, beyond, with erf and erfc the Cephes
rational approximations that scipy's ndtr also evaluates, each only on
the entries in its own range. exp(-x^2) there is the Cephes `expx2`
product exp(-m^2) exp(-(2m + f) f), with m the nearest multiple of 1/128
to x and f = x - m, so that m^2 is exact and the rounding of x^2 is not
amplified in the far tails. `log_ndtr` is log(ndtr(a)) for a <= 0 and
log1p(-ndtr(-a)) beyond. Both take a scalar as a one-entry array and
return it as a float. On a sorted row each range is a contiguous slice:
`ndtr_sorted` runs the same per-range kernels there, bit for bit, with
no mask or gathered copy. `ndtri` is `statistics.NormalDist.inv_cdf`.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

_SQRT1_2 = math.sqrt(0.5)
# Past |x| = _ERFC_UNDER, exp(-x^2) underflows and the Cephes erfc is 0.
_ERFC_UNDER = math.sqrt(709.782712893384)
_STD = NormalDist()

# erf(x) = x T(x^2) / U(x^2) on |x| <= 1
_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
      2.23200534594684319226E3, 7.00332514112805075473E3,
      5.55923013010394962768E4)
_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2,
      4.59432382970980127987E3, 2.26290000613890934246E4,
      4.92673942608635921086E4)
# erfc(x) = exp(-x^2) P(x) / Q(x) on 1 <= x < 8
_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
      7.46321056442269912687E0, 4.86371970985681366614E1,
      1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3,
      5.57535335369399327526E2)
_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1,
      3.54937778887819891062E2, 9.75708501743205489753E2,
      1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2)
# erfc(x) = exp(-x^2) R(x) / S(x) on x >= 8
_R = (5.64189583547755073984E-1, 1.27536670759978104416E0,
      5.01905042251180477414E0, 6.16021097993053585195E0,
      7.40974269950448939160E0, 2.97886665372100240670E0)
_S = (1.0, 2.26052863220117276590E0, 9.39603524938001434673E0,
      1.20489539808096656605E1, 1.70814450747565897222E1,
      9.60896809063285878198E0, 3.36907645100081516050E0)

# n! for every n whose factorial is a finite double
_FACTORIALS = np.array([float(math.factorial(n)) for n in range(171)])


def _horner(coeffs: tuple[float, ...], x: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] x^(len - 1 - k), highest power first."""
    out = x * coeffs[0]
    out += coeffs[1]
    for c in coeffs[2:]:
        out *= x
        out += c
    return out


def _half_erf_inner(x: np.ndarray) -> np.ndarray:
    """0.5 + 0.5 erf(x) for |x| < 1, erf(x) = x T(x^2) / U(x^2)."""
    x2 = x * x
    v = _horner(_T, x2)
    v *= x
    v /= _horner(_U, x2)
    v *= 0.5
    v += 0.5
    return v


def _half_expx2(z: np.ndarray) -> np.ndarray:
    """exp(-z^2) / 2 for z >= 1, as the Cephes expx2 product."""
    m = np.rint(128.0 * z)
    m /= 128.0
    f = z - m
    e = np.exp(-m * m)
    f *= 2.0 * m + f
    np.negative(f, out=f)
    e *= np.exp(f, out=f)
    e *= 0.5
    return e


def _erfc_ratio(z: np.ndarray, mid: bool) -> np.ndarray:
    """erfc(z) exp(z^2): P(z) / Q(z) on 1 <= z < 8 (`mid`), R(z) / S(z)
    on z >= 8."""
    num, den = (_P, _Q) if mid else (_R, _S)
    return _horner(num, z) / _horner(den, z)


def _half_erfc_large(z: np.ndarray) -> np.ndarray:
    """erfc(z) / 2 for 1 <= z < _ERFC_UNDER."""
    e = _half_expx2(z)
    mid = z < 8.0
    e[mid] *= _erfc_ratio(z[mid], True)
    e[~mid] *= _erfc_ratio(z[~mid], False)
    return e


def _ndtr_array(a: np.ndarray) -> np.ndarray:
    x = a * _SQRT1_2
    # 1 where x > 0, else 0: also the value past the erfc underflow
    out = (x > 0.0).astype(float)
    z = np.abs(x)
    inner = z < 1.0
    out[inner] = _half_erf_inner(x[inner])
    outer = ~inner & (z < _ERFC_UNDER)
    s = out[outer]
    # s + (1 - 2s) y is y where x < 0 and 1 - y where x > 0, exactly
    out[outer] = s + (1.0 - 2.0 * s) * _half_erfc_large(z[outer])
    out[np.isnan(x)] = np.nan
    return out


def ndtr_sorted(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`ndtr` of a 1-D row sorted ascending, NaN last (as `np.sort` leaves
    it), into `out`, which may be `a` itself; bit for bit."""
    x = np.multiply(a, _SQRT1_2, out=out)
    # x <= -_ERFC_UNDER | R/S | P/Q | erf | P/Q | R/S | x >= _ERFC_UNDER | NaN
    ends = [0, *np.searchsorted(x, (-_ERFC_UNDER, -8.0, -1.0), side="right").tolist(),
            *np.searchsorted(x, (1.0, 8.0, _ERFC_UNDER), side="left").tolist(),
            int(np.searchsorted(x, np.inf, side="right")), len(x)]
    x[:ends[1]] = 0.0
    for k, mid in ((1, False), (2, True)):
        z = np.negative(x[ends[k]:ends[k + 1]])
        y = _half_expx2(z)
        y *= _erfc_ratio(z, mid)
        x[ends[k]:ends[k + 1]] = y
    x[ends[3]:ends[4]] = _half_erf_inner(x[ends[3]:ends[4]])
    for k, mid in ((4, True), (5, False)):
        z = x[ends[k]:ends[k + 1]]
        y = _half_expx2(z)
        y *= _erfc_ratio(z, mid)
        np.subtract(1.0, y, out=z)
    x[ends[6]:ends[7]] = 1.0
    return x


def _scalar_or_array(f, a):
    """f on the entries of a as a flat array, in the shape of a; a float
    for a scalar."""
    a = np.asarray(a, dtype=float)
    out = f(a.ravel()).reshape(a.shape)
    return float(out) if out.ndim == 0 else out


def _log_ndtr_array(a: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    left = a <= 0.0
    out[left] = np.log(_ndtr_array(a[left]))
    out[~left] = np.log1p(-_ndtr_array(-a[~left]))
    return out


def ndtr(a):
    """Standard normal CDF: a float for a scalar, else an array."""
    return _scalar_or_array(_ndtr_array, a)


def log_ndtr(a):
    """log of the standard normal CDF, a float for a scalar, else an array;
    accurate in both tails while ndtr(a) is a normal double (a > -37.5)."""
    return _scalar_or_array(_log_ndtr_array, a)


def ndtri(p):
    """Standard normal quantile at p in (0, 1): a float for a scalar, else
    an array."""
    if np.ndim(p) == 0:
        return _STD.inv_cdf(float(p))
    p = np.asarray(p, dtype=float)
    return np.fromiter(map(_STD.inv_cdf, p.ravel().tolist()), float,
                       count=p.size).reshape(p.shape)


def factorial(n) -> np.ndarray:
    """n! as floats, for an array of integers in 0..170."""
    return _FACTORIALS[n]
