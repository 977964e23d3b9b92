"""Closed-form affine quantities for the rate, credit and FX processes.

Every process is split as state = x + b with a deterministic shift b that
fits the market curve, and x decomposed into a deterministic mean plus a
zero-mean driver:

    x(u) = mu(t,u) + y(t,u),      int_t^u x dv = M(t,u) + Y(t,u).

The functions below return the means, variances, the shift integrals
int_t^u b dv (via market-curve ratios, never via differentiated forwards)
and the deterministic discount-like factor H = exp(-M - int_b), so that
exp(-int state dv) = H * exp(-Y).
"""

from __future__ import annotations

import dataclasses
import math
import pickle
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import partial
from typing import Iterator, Optional

import numpy as np

from .curves import Curve


# ---------------------------------------------------------------------------
# deterministic terms shared within one call
#
# A call that sets up several runs at once (`fva.run_fva_legs`) opens
# `shared_terms` around their set-up; inside it, `term(fn, *args)` builds
# fn(*args) once per exact argument list and hands every caller that one
# value, with its arrays read-only. The table goes when the block ends, so
# nothing is kept across calls; outside one, `term` is a plain call. It is
# the one rule for what runs share: one object, compared by identity.

_TERMS: ContextVar[Optional[dict]] = ContextVar("wwrfva shared terms", default=None)


def exact_key(*parts) -> bytes:
    """Bytes that are equal for two argument lists only if their strings and
    integers are equal and their floats and arrays bitwise equal (shapes
    included): their pickle, which stores floats and array data raw."""
    return pickle.dumps(parts, protocol=pickle.HIGHEST_PROTOCOL)


@contextmanager
def shared_terms() -> Iterator[None]:
    """Within the block, `term` builds each term once per exact input."""
    token = _TERMS.set({})
    try:
        yield
    finally:
        _TERMS.reset(token)


def term(fn, *args):
    """fn(*args); inside `shared_terms`, the value built for the first
    bitwise-equal argument list (`exact_key`), whose arrays are read-only."""
    table = _TERMS.get()
    if table is None:
        return fn(*args)
    key = exact_key(fn.__module__, fn.__qualname__, *args)
    if key not in table:
        table[key] = _read_only(fn(*args))
    return table[key]


def _read_only(value):
    """`value`, with every array in it, in a tuple or in a dataclass's
    fields made read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        for v in value:
            _read_only(v)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            _read_only(getattr(value, f.name))
    return value


# ---------------------------------------------------------------------------
# numerically stable primitives (the mean reversion can be as small as 1e-5,
# so all (1 - exp(-a*tau))/a style ratios get a series branch)

def _out(x):
    """A float for 0-d input, the array itself otherwise."""
    x = np.asarray(x)
    return float(x) if x.ndim == 0 else x


def bfac(a: float, tau):
    """(1 - exp(-a*tau)) / a, stable for a -> 0 (limit: tau)."""
    tau = np.asarray(tau, dtype=float)
    x = a * tau
    small = np.abs(x) < 1e-4
    x_safe = np.where(small, 1.0, x)
    direct = -np.expm1(-x_safe) / x_safe * tau
    series = tau * (1.0 - x / 2.0 + x * x / 6.0 - x**3 / 24.0 + x**4 / 120.0)
    return _out(np.where(small, series, direct))


def int_bfac(a: float, tau):
    """integral_0^tau B(s) ds = (tau - B(tau))/a, stable for a -> 0 (limit: tau^2/2)."""
    tau = np.asarray(tau, dtype=float)
    x = a * tau
    small = np.abs(x) < 1e-3
    a_safe = a if a != 0.0 else 1.0
    direct = (tau - bfac(a_safe, tau)) / a_safe
    series = tau * tau * (0.5 - x / 6.0 + x * x / 24.0 - x**3 / 120.0 + x**4 / 720.0)
    return _out(np.where(small, series, direct))


def _series(c, n0: int) -> np.ndarray:
    """The 24 Taylor coefficients c(n)/n!, n = n0, ..., n0 + 23: enough for
    double precision up to |x| = 1 in the series below."""
    return np.array([c(n) / math.factorial(n) for n in range(n0, n0 + 24)])


# phi(x)/x^3 with phi(x) = x - 2(1 - e^-x) + (1 - e^-2x)/2, the kernel of the
# integrated OU variance: its closed form cancels O(x) terms down to O(x^3),
# so hw_a sums this series for |x| < 1.
_PHI_SERIES = _series(lambda n: (-1) ** n * (2 - 2 ** (n - 1)), 3)


def _power_series(x, coeffs: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] x^k per element of x; a 2-d `coeffs` sums each
    column as its own series (last axis of the result).

    Each element's terms are summed along one contiguous row, so an array
    call gives every element bit for bit what a scalar call gives. A BLAS
    matrix product would not: its summation order depends on the batch shape.
    """
    x = np.asarray(x, dtype=float)[..., None, None]
    terms = x ** np.arange(len(coeffs)) * np.atleast_2d(coeffs.T)
    sums = terms.sum(axis=-1)
    return sums if coeffs.ndim == 2 else sums[..., 0]


def hw_a(a: float, sigma: float, tau):
    """A(t,u) of the Hull-White ZCB: sigma^2/(2a^3) * phi(a*tau), stable for a -> 0."""
    tau = np.asarray(tau, dtype=float)
    x = a * tau
    small = np.abs(x) < 0.01
    # phi(x)/a^3 = tau^3 * (series in x) keeps precision when a ~ 0
    series = 0.5 * sigma * sigma * (tau**3 * (
        1.0 / 3.0 - x / 4.0 + 7.0 * x * x / 60.0 - x**3 / 24.0
        + 31.0 * x**4 / 2520.0 - x**5 / 320.0))
    if np.all(small):
        return _out(series)
    a_safe = a if a != 0.0 else 1.0
    mid = 0.5 * sigma * sigma * tau**3 * _power_series(x, _PHI_SERIES)
    direct = (0.5 * sigma * sigma * (x + 2.0 * np.expm1(-x) - 0.5 * np.expm1(-2.0 * x))
              / a_safe**3)
    return _out(np.where(small, series, np.where(np.abs(x) < 1.0, mid, direct)))


# ---------------------------------------------------------------------------
# parameter records

@dataclass(frozen=True)
class QuantoAdjust:
    """Correlation/vol pair for a foreign rate simulated under the domestic measure."""

    rho_rf_fx: float
    sigma_fx: float

    def __post_init__(self):
        if not -1.0 <= self.rho_rf_fx <= 1.0:
            raise ValueError("quanto correlation must be in [-1, 1]")
        if self.sigma_fx <= 0.0:
            raise ValueError("quanto sigma_fx must be positive")


@dataclass(frozen=True)
class Hw1fParams:
    """Mean-reverting Gaussian short-rate factor fitted to `curve`."""

    x0: float
    a: float
    sigma: float
    curve: Curve
    quanto: Optional[QuantoAdjust] = None

    def __post_init__(self):
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")


@dataclass(frozen=True)
class CirppParams:
    """Square-root intensity factor plus shift fitted to the survival curve."""

    x0: float
    a: float
    theta: float
    sigma: float
    lgd: float
    curve: Curve

    def __post_init__(self):
        if self.x0 < 0.0:
            raise ValueError("x0 must be nonnegative")
        if self.a <= 0.0 or self.theta <= 0.0 or self.sigma <= 0.0:
            raise ValueError("a, theta, sigma must be positive")
        if not 0.0 < self.lgd <= 1.0:
            raise ValueError("lgd must be in (0, 1]")
        if not feller_check(self):
            raise ValueError(
                f"Feller condition violated: 2*a*theta = {2 * self.a * self.theta:.6g} "
                f"<= sigma^2 = {self.sigma ** 2:.6g}")

    @property
    def h(self) -> float:
        return math.sqrt(self.a * self.a + 2.0 * self.sigma * self.sigma)


def feller_check(p) -> bool:
    """True iff 2*a*theta > sigma^2 (state stays away from zero)."""
    return 2.0 * p.a * p.theta > p.sigma * p.sigma


@dataclass(frozen=True)
class GbmFxParams:
    """Lognormal FX level, domestic units per foreign unit."""

    spot: float
    sigma_fx: float

    def __post_init__(self):
        if self.spot <= 0.0 or self.sigma_fx <= 0.0:
            raise ValueError("spot and sigma_fx must be positive")


@dataclass(frozen=True)
class ModelSet:
    """All calibrated processes of one run, keyed by currency/entity."""

    domestic: str
    rates: dict[str, Hw1fParams]
    fx: dict[str, GbmFxParams]
    credit: dict[str, CirppParams]

    def __post_init__(self):
        if self.domestic not in self.rates:
            raise ValueError("domestic currency has no rate model")
        for ccy in self.fx:
            if ccy not in self.rates:
                raise ValueError(f"fx model for {ccy} without a rate model")

    @property
    def foreign_currencies(self) -> list[str]:
        return [c for c in self.rates if c != self.domestic]


# ---------------------------------------------------------------------------
# term bundles
#
# Every term function below takes scalar or array times (broadcast against
# each other) and returns its bundle with fields of the broadcast shape;
# scalar input gives plain floats.

def _ordered(t, u):
    t = np.asarray(t, dtype=float)
    u = np.asarray(u, dtype=float)
    if np.any(u < t):
        raise ValueError("u must be >= t")
    return t, u


def _bundle(cls, **fields):
    return cls(**{k: _out(v) for k, v in fields.items()})


@dataclass(frozen=True)
class HwTerms:
    B: float
    A: float
    mu: float
    M: float
    var_y: float
    var_Y: float
    int_b: float
    H: float

    @property
    def A_bar(self) -> float:
        """A minus the shift integral; exponent of the fitted ZCB."""
        return self.A - self.int_b


@dataclass(frozen=True)
class CirTerms(HwTerms):
    """The rate factor's terms plus exp_Yy = E[Y y], the covariance of the
    integrated and the pointwise credit driver."""

    exp_Yy: float


def _int_b(p, A, B, t, u):
    """integral_t^u b dv from the market-curve ratio (exact curve fit), for
    a model whose bond exponents over a span tau are A(tau) and B(tau):
    ln P(t) - ln P(u) - A(t) + A(u) - x0 (B(u) - B(t))."""
    return (p.curve.log_discount(t) - p.curve.log_discount(u)
            - A(t) + A(u) - p.x0 * (B(u) - B(t)))


def hw_terms(p: Hw1fParams, t, u) -> HwTerms:
    """All closed-form quantities of the Gaussian rate factor over (t, u).

    The state at t is taken as p.x0, the model's state at t = 0; only `mu`,
    `M` and `H` depend on it.
    """
    t, u = _ordered(t, u)
    x_t = p.x0
    tau = u - t
    B = bfac(p.a, tau)
    A = hw_a(p.a, p.sigma, tau)
    mu = x_t * np.exp(-p.a * tau)
    M = x_t * B
    if p.quanto is not None:
        drift = p.quanto.rho_rf_fx * p.sigma * p.quanto.sigma_fx
        mu = mu - drift * B
        M = M - drift * int_bfac(p.a, tau)
    var_y = p.sigma * p.sigma * bfac(2.0 * p.a, tau)
    var_Y = 2.0 * A
    int_b = _int_b(p, partial(hw_a, p.a, p.sigma), partial(bfac, p.a), t, u)
    H = np.exp(-M - int_b)
    return _bundle(HwTerms, B=B, A=A, mu=mu, M=M, var_y=var_y, var_Y=var_Y,
                   int_b=int_b, H=H)


def _cir_b(p: CirppParams, tau):
    """CIR ZCB exponent slope, written so exp(h*tau) never overflows."""
    h = p.h
    e = np.exp(-h * np.asarray(tau, dtype=float))
    return _out(2.0 * (1.0 - e) / (2.0 * h * e + (p.a + h) * (1.0 - e)))


def _cir_a(p: CirppParams, tau):
    h = p.h
    tau = np.asarray(tau, dtype=float)
    e = np.exp(-h * tau)
    # denominator 2h + (a+h)(e^{h tau} - 1) = e^{h tau} * (2h e^{-h tau} + (a+h)(1 - e^{-h tau}))
    log_den = h * tau + np.log(2.0 * h * e + (p.a + h) * (1.0 - e))
    return _out((2.0 * p.a * p.theta / (p.sigma * p.sigma)) * (
        math.log(2.0 * h) + 0.5 * (p.a + h) * tau - log_den))


# Below a*tau = 1 the closed forms of var_Y and exp_Yy cancel O(1) terms
# (var_Y is O((a tau)^4) of them), so cir_terms sums their Taylor series in
# x = a*tau there. With S = sum_k x^k _CIR_SERIES[k]:
#   var_Y = sigma^2 tau^3 (x_t S[0] + theta S[1]),
#   exp_Yy = sigma^2 tau^2 (x_t S[2] + theta S[3]).
_CIR_SERIES = np.column_stack([
    _series(lambda n: (-1) ** n * (2 * n - 2 ** n), 3),
    _series(lambda n: (-1) ** n * (2 + 2 ** (n - 1) - 2 * n), 3),
    _series(lambda n: (-1) ** n * (2 ** n - n - 1), 2),
    _series(lambda n: (-1) ** n * (n - 2 ** (n - 1)), 2)])


def cir_means(x_t: float, a: float, theta: float, tau) -> tuple:
    """(mu, M): the means of the credit factor after a span tau and of its
    integral over it from the state x_t, the part of `cir_terms` no curve moves."""
    e1 = np.exp(-(a * tau))
    return x_t * e1 + theta * (1.0 - e1), x_t * bfac(a, tau) + theta * a * int_bfac(a, tau)


def cir_terms(p: CirppParams, t, u) -> CirTerms:
    """All closed-form quantities of the square-root credit factor over (t, u),
    with the state at t taken as p.x0."""
    t, u = _ordered(t, u)
    x_t = p.x0
    tau = u - t
    a, th, sg = p.a, p.theta, p.sigma
    x = a * tau
    e1 = np.exp(-x)
    e2 = np.exp(-2.0 * x)
    mu, M = cir_means(x_t, a, th, tau)
    om = -np.expm1(-x)  # 1 - e1 without cancellation
    var_y = (sg * sg / a) * om * (mu - 0.5 * th * om)
    var_Y = ((sg * sg * x_t / a**3) * (1.0 - 2.0 * x * e1 - e2)
             + (sg * sg * th / a**3) * (x - 3.0 * (1.0 - e1)
                                        + 2.0 * x * e1 + 0.5 * (1.0 - e1) ** 2))
    exp_Yy = ((sg * sg * x_t / (a * a)) * e1 * (x - 1.0 + e1)
              + (sg * sg * th / (a * a)) * (0.5 * (1.0 - e2) - x * e1))
    small = x < 1.0
    S = _power_series(x, _CIR_SERIES)
    var_Y = np.where(small, sg * sg * tau**3 * (x_t * S[..., 0] + th * S[..., 1]), var_Y)
    exp_Yy = np.where(small, sg * sg * tau**2 * (x_t * S[..., 2] + th * S[..., 3]), exp_Yy)
    int_b = _int_b(p, partial(_cir_a, p), partial(_cir_b, p), t, u)
    H = np.exp(-M - int_b)
    return _bundle(CirTerms, B=_cir_b(p, tau), A=_cir_a(p, tau), mu=mu, M=M,
                   var_y=np.maximum(var_y, 0.0), var_Y=np.maximum(var_Y, 0.0),
                   int_b=int_b, H=H, exp_Yy=exp_Yy)


def domestic_terms(models: ModelSet, u) -> tuple:
    """(domestic rate terms, I's terms, C's terms, H_r H_I H_C, H_I H_C)
    over (0, u): the discount and survival products that weight the WWR
    terms, from one closed-form call per driver."""
    rt = term(hw_terms, models.rates[models.domestic], 0.0, u)
    ci = term(cir_terms, models.credit["I"], 0.0, u)
    cc = term(cir_terms, models.credit["C"], 0.0, u)
    return rt, ci, cc, rt.H * ci.H * cc.H, ci.H * cc.H


@dataclass(frozen=True)
class FxTerms:
    mu_fx: float
    var_lnfx: float


def _int_bb(a1: float, a2: float, tau):
    """integral_0^tau B_a1(s) B_a2(s) ds, the covariance kernel of two
    integrated rate drivers, stable when either or both reversions vanish.

    With lo, hi the two reversions ordered by size, only hi is divided by:
        int B_lo B_hi = [int B_lo - (B_{lo+hi}(tau) - e^{-hi tau} B_lo(tau)) / hi] / hi,
    which keeps its exact limit as lo -> 0. Where hi*tau < 0.1 the
    division would cancel, and the double series
        tau^3 sum_{j,k} (-lo tau)^j (-hi tau)^k / ((j+1)! (k+1)! (j+k+3))
    is summed to total degree 10 instead.
    """
    tau = np.asarray(tau, dtype=float)
    lo, hi = sorted((a1, a2), key=abs)
    p_lo = [(-lo * tau) ** j for j in range(11)]
    p_hi = [(-hi * tau) ** k for k in range(11)]
    series = sum(p_lo[j] * p_hi[k]
                 / (math.factorial(j + 1) * math.factorial(k + 1) * (j + k + 3))
                 for j in range(11) for k in range(11 - j))
    hi_safe = hi if hi != 0.0 else 1.0
    direct = (int_bfac(lo, tau)
              - (bfac(lo + hi, tau) - np.exp(-hi * tau) * bfac(lo, tau)) / hi_safe) / hi_safe
    return _out(np.where(np.abs(hi * tau) < 0.1, tau**3 * series, direct))


def fx_terms(dom: Hw1fParams, fgn: Hw1fParams, fx: GbmFxParams,
             rho_dom_fgn: float, rho_dom_fx: float, rho_fgn_fx: float,
             t, u) -> FxTerms:
    """Mean and variance of the log FX level at u, conditional on t = 0 data."""
    dom_terms, fgn_terms = term(hw_terms, dom, t, u), term(hw_terms, fgn, t, u)
    t, u = _ordered(t, u)
    tau = u - t
    sx = fx.sigma_fx
    mu_fx = (math.log(fx.spot) + dom_terms.M + dom_terms.int_b
             - fgn_terms.M - fgn_terms.int_b - 0.5 * sx * sx * tau)
    cov_YY = rho_dom_fgn * dom.sigma * fgn.sigma * _int_bb(dom.a, fgn.a, tau)
    var = (dom_terms.var_Y + fgn_terms.var_Y + sx * sx * tau
           - 2.0 * cov_YY
           + 2.0 * rho_dom_fx * dom.sigma * sx * int_bfac(dom.a, tau)
           - 2.0 * rho_fgn_fx * fgn.sigma * sx * int_bfac(fgn.a, tau))
    return _bundle(FxTerms, mu_fx=mu_fx, var_lnfx=np.maximum(var, 0.0))


# ---------------------------------------------------------------------------
# one monitoring interval as one Gaussian vector

# The 10-point Gauss-Legendre rule on [-1, 1]. It integrates polynomials of
# degree 19 exactly, so the smooth kernels below to rounding whenever
# a * length is of order one or less.
GL_NODES = np.array([
    -0.9739065285171717200779640, -0.8650633666889845107320967,
    -0.6794095682990244062343274, -0.4333953941292471907992659,
    -0.1488743389816312108848260, 0.1488743389816312108848260,
    0.4333953941292471907992659, 0.6794095682990244062343274,
    0.8650633666889845107320967, 0.9739065285171717200779640])
GL_WEIGHTS = np.array([
    0.0666713443086881375935688, 0.1494513491505805931457763,
    0.2190863625159820439955349, 0.2692667193099963550912269,
    0.2955242247147528701738930, 0.2955242247147528701738930,
    0.2692667193099963550912269, 0.2190863625159820439955349,
    0.1494513491505805931457763, 0.0666713443086881375935688])


def _kernels(a_r: np.ndarray, n_fx: int, tau: np.ndarray) -> np.ndarray:
    """The market vector's kernels at times `tau` (..., q) before the
    interval's end: e^{-a tau} per currency, B(tau) per currency, 1 per FX
    factor; shape (..., 2 n_ccy + n_fx, q)."""
    a = np.asarray(a_r, dtype=float)[:, None]
    tau = np.asarray(tau, dtype=float)[..., None, :]
    ones = np.ones(tau.shape[:-2] + (n_fx, tau.shape[-1]))
    return np.concatenate([np.exp(-a * tau), bfac(a, tau), ones], axis=-2)


def interval_covariance(a_r, R, n_fx: int, lengths, nsub: int) -> np.ndarray:
    """The joint covariance of one monitoring interval's Gaussian increments
    (V, E), per interval length: shape (n lengths, n_V + n_E, n_V + n_E).

    Over [t, t + D], with the factors' Brownian motions W correlated by R
    (factor order: rates, FX, credit) and h = D / nsub:
      V = (I_c per currency, J_c per currency, dW_f per FX factor), with
          I_c = int e^{-a_c (t + D - s)} dW_c(s), J_c = int B_c(t + D - s) dW_c(s);
      E = (eps_{k,e} per substep k, per credit entity e, substep-major),
          eps_{k,e} = (W_e(t + (k+1) h) - W_e(t + k h)) / sqrt(h).
    Each covariance is R's entry times the integral of the product of the
    two kernels. V's block takes the Gauss-Legendre rule over the whole
    interval, so it does not depend on nsub; V's covariances with E take it
    on each substep; E's block is R's credit block per substep.
    """
    a_r, R = np.asarray(a_r, dtype=float), np.asarray(R, dtype=float)
    lengths = np.asarray(lengths, dtype=float)
    n_ccy = len(a_r)
    n_mkt = n_ccy + n_fx
    # the factor each row of V integrates
    factor = np.r_[np.arange(n_ccy), np.arange(n_ccy), np.arange(n_ccy, n_mkt)]
    n_V, n_E = len(factor), nsub * (len(R) - n_mkt)
    C = np.empty((len(lengths), n_V + n_E, n_V + n_E))
    # the rules' sums are elementwise: the arrays are tiny, and stacked BLAS
    # products here added about 0.2 MB of resident library code to a run
    half = 0.5 * lengths[:, None]
    F = _kernels(a_r, n_fx, half * (1.0 + GL_NODES))
    FF = F[:, :, None, :] * F[:, None, :, :]
    C[:, :n_V, :n_V] = ((FF * (half * GL_WEIGHTS)[:, None, None, :]).sum(axis=-1)
                        * R[np.ix_(factor, factor)])
    # substep k spans (nsub - 1 - k) h <= tau <= (nsub - k) h; the integral
    # of a kernel over it, divided by sqrt(h)
    h = lengths / nsub
    tau = h[:, None, None] * (np.arange(nsub)[::-1, None] + 0.5 * (1.0 + GL_NODES))
    G = ((_kernels(a_r, n_fx, tau) * (0.5 * GL_WEIGHTS)).sum(axis=-1)
         * np.sqrt(h)[:, None, None])
    C[:, n_V:, :n_V] = (G[:, :, None, :] * R[n_mkt:, factor]).reshape(len(lengths), n_E, n_V)
    C[:, :n_V, n_V:] = C[:, n_V:, :n_V].swapaxes(-1, -2)
    C[:, n_V:, n_V:] = np.kron(np.eye(nsub), R[n_mkt:, n_mkt:])
    return C


def sigma_ratio(var_x, var_y_r):
    """Scaling sqrt(Var[x]/Var[y_r]) mapping any driver onto the rate driver."""
    var_x = np.asarray(var_x, dtype=float)
    var_y_r = np.asarray(var_y_r, dtype=float)
    if np.any(var_y_r <= 0.0):
        raise ValueError("reference variance must be positive (u > t required)")
    if np.any(var_x < 0.0):
        raise ValueError("var_x must be nonnegative")
    return _out(np.sqrt(var_x / var_y_r))
