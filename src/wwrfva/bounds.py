"""Error diagnostics for the Gaussian WWR approximation.

Three layers:

* a product-level second-moment bound C_V on E[((V)+)^2] for a single
  swap, assembled in closed form from the swap's book row
  (`instruments.swap_book`);
* truncation bounds on the tail of each Taylor series that the
  approximation drops, per error family, compared against the same
  errors measured directly on the jointly simulated paths;
* distribution diagnostics quantifying how far the integrated credit
  drivers are from the matched normal (the approximation treats them as
  exact normals).

Every path average, including the higher credit-driver moments that
have no closed form (a CreditMomentTable, which holds moments of the
credit sum S = Y_I + Y_C and of y_I only), reads one `mc.DateState` and
its value row: `bound_rows` takes them from a live full-mode stream one
date at a time, and perfbench's cube forms from the dates of a stored cube.
The eps1 bound exists once, `truncation_bound`'s; `explicit_e1_bound` is
it less the exact mean term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .exposure import WwrCoeffs, normal_moments
from .instruments import Swap, swap_book
from .mc import DateState, ScenarioCube, exposure_not_finite, pass_numpy_state
from .models import ModelSet, domestic_terms, hw_terms, log_h_ric
from .normal import ndtr_sorted, ndtri

# Tail probability defining the clipped domain on which the exponential
# envelope of the Taylor tail is evaluated; the clipped mass is reported.
TAIL_CLIP = 1e-4
# The standard normal quantile leaving TAIL_CLIP in the two tails together.
_Z_CLIP = ndtri(1.0 - 0.5 * TAIL_CLIP)

# Fewest paths for stable higher moments and distance estimates.
_MIN_PATHS = 1000

# Order n of the report's eps1 rows; they read credit moments up to 4 (n + 1).
_EPS1_ORDER = 1

# The rows of paths that `bound_rows` holds at a date besides its value row,
# at most: the credit sum S and a date's largest step, the measured errors
# (9.01 rows under tracemalloc at 50k paths, so 10). The normal distances
# take 6.7: both credit drivers' stacked samples, sorted in place, and 4.7
# rows for their one terms buffer and Phi's temporaries on one row.
REPORT_ROWS = 11

FAMILIES = ("eps1", "eps2", "eps3")
X_CHOICES = ("1", "y_I")


# ---------------------------------------------------------------------------
# product-level second-moment bound

def swap_cv_bound(s: Swap, models: ModelSet, u: float) -> float:
    """Closed-form upper bound on E[((V(u))+)^2] for a single swap.

    The square of the value function is expanded; the pure cross terms
    are kept exactly and the squared sum over live payment dates is
    bounded by Cauchy-Schwarz, leaving only lognormal expectations of
    the zero-mean rate driver.
    """
    rp = models.rates[s.currency]
    return _cv_bound(*swap_book(s, rp, [u]).at(0), hw_terms(rp, 0.0, u).var_y)


def _cv_bound(const: float, W: np.ndarray, B: np.ndarray, var: float) -> float:
    """swap_cv_bound from the date's book row and rate-driver variance;
    infinite only where the bound exceeds a double.

    Where an exponential overflows, the direct form meets inf - inf or
    0 * inf. The bound is then formed in log space over the nonzero
    weights: relative to e^top, top the log of its square and sum of
    squares parts added, each part is at most 2 in magnitude."""
    with np.errstate(over="ignore", invalid="ignore"):
        c_v = float(const * const
                    + 2.0 * const * float(np.sum(W * np.exp(0.5 * B ** 2 * var)))
                    + len(W) * float(np.sum(W ** 2 * np.exp(2.0 * B ** 2 * var))))
    if math.isfinite(c_v):
        return c_v
    live = W != 0.0
    log_w, a = np.log(np.abs(W[live])), 0.5 * B[live] ** 2 * var
    log_c2 = 2.0 * math.log(abs(const)) if const else -math.inf
    log_sq = math.log(len(W)) + float(np.logaddexp.reduce(2.0 * log_w + 4.0 * a))
    top = float(np.logaddexp(log_c2, log_sq))
    cross = math.copysign(2.0, const) * float(
        np.sum(np.sign(W[live]) * np.exp(0.5 * log_c2 + log_w + a - top)))
    return _scaled_exp(top, math.exp(log_c2 - top) + cross + math.exp(log_sq - top))


# ---------------------------------------------------------------------------
# empirical credit-driver moments

@dataclass
class CreditMomentTable:
    """Per-date empirical moments of S = Y_I + Y_C, the sum of the two
    integrated intensity drivers, and of the investor's intensity driver
    y_I, all zero-mean stochastic parts. Nothing of Y_I or Y_C apart: both
    load on the domestic rate, so the sum's moments are not the marginals'
    binomial sums. `q_abs_s` is the upper tail quantile of |S| at
    probability TAIL_CLIP used for the exponential envelope constant.
    """

    dates: np.ndarray
    max_order: int
    n_paths: int
    y_I: np.ndarray        # [order up to 8, date] E[y_I^k]
    S: np.ndarray          # [order, date] E[S^k]
    S_yI: np.ndarray       # [order, date] E[S^k y_I]
    S2_x: dict = field(default_factory=dict)   # x -> E[x^2 S^2] per date
    S4_x: dict = field(default_factory=dict)   # x -> E[x^4 S^4]; at x = 1, S[4]
    q_abs_s: np.ndarray = None


def _require_full(sim, what: str) -> None:
    """Refuse a PathStream or ScenarioCube without credit or enough paths."""
    if sim.mode != "full":
        raise ValueError(f"{what} need a full-mode simulation")
    if sim.n_paths < _MIN_PATHS:
        raise ValueError(f"too few paths for {what}: {sim.n_paths} < {_MIN_PATHS}")


def _empty_table(sim, max_order: int) -> CreditMomentTable:
    """A CreditMomentTable of NaN on the dates and paths of `sim`: a moment
    left unfilled makes any bound that reads it NaN, not a bound from 0."""
    n, k = len(sim.dates), max_order + 1

    def nan(*shape):
        return np.full(shape, np.nan)

    return CreditMomentTable(
        dates=np.array(sim.dates), max_order=max_order, n_paths=sim.n_paths,
        y_I=nan(9, n), S=nan(k, n), S_yI=nan(k, n),
        S2_x={"1": nan(n), "y_I": nan(n)}, S4_x={"1": nan(n), "y_I": nan(n)},
        q_abs_s=nan(n))


def _power_means(x: np.ndarray, orders, weight: Optional[np.ndarray] = None
                 ) -> tuple[list[float], list[float], np.ndarray]:
    """The means of x^j for j in `orders` (ascending), each power the
    product x * ... * x from the left; the means of x^j weight on the same
    chain when a weight is given; and x^2 for the cross moments: the
    chain's own where it reaches order 2."""
    out, weighted, p, sq = [], [], x, None
    for j in range(orders[-1] + 1):
        if j in orders:
            out.append(1.0 if j == 0 else p.mean())
            if weight is not None:
                weighted.append((weight if j == 0 else p * weight).mean())
        if j == 2:
            sq = p
        if j and j < orders[-1]:
            p = p * x
    return out, weighted, x * x if sq is None else sq


def _quantile(a: np.ndarray, q: float) -> float:
    """np.quantile(a, q) of a 1-D float array with numpy's default `linear`
    method, bit for bit, partitioning `a` in place at one pivot instead of
    two: the order statistic above the pivot is the least entry past it."""
    n = len(a)
    virtual = (n - 1) * q
    lo = math.floor(virtual)
    if lo >= n - 1:
        return float(a.max())
    a.partition(lo)
    below, above = a[lo], a[lo + 1:].min()
    # numpy's _lerp: from the nearer order statistic
    t = virtual - lo
    diff = above - below
    return float(above - diff * (1.0 - t) if t >= 0.5 else below + diff * t)


# The orders of S and y_I that `_truncation_bound` reads at the report's
# orders: S^{2(n+1)} and S^{4(n+1)} of eps1 at n = _EPS1_ORDER (S^4 is
# also eps2's E[S^4] at x = 1), and y_I^2, y_I^4 (c1_const at m = 2, eps3)
# and y_I^8 (c1_const at m = 4).
_BOUND_ORDERS = ((2 * (_EPS1_ORDER + 1), 4 * (_EPS1_ORDER + 1)), (2, 4, 8))


def _credit_moments_at(tab: CreditMomentTable, st: DateState, s: np.ndarray,
                       orders: Optional[tuple] = None) -> None:
    """Fill, in the column of the state's date, the credit moments of
    S = Y_I + Y_C (`s`) and y_I: with `orders` None every moment of `tab`;
    else only E[S^m] at the orders `orders[0]` and E[y_I^m] at `orders[1]`
    (the report's `_BOUND_ORDERS`), each with the bits the full fill gives
    it, leaving E[S^m y_I] and every other order NaN. The cross moments
    and q_abs_s are filled either way."""
    i, yi = st.index, st.y_I
    full = orders is None
    s_orders, yi_orders = (range(tab.max_order + 1), range(9)) if full else orders
    tab.S[s_orders, i], s_yi, s2 = _power_means(s, s_orders, yi if full else None)
    if full:
        tab.S_yI[:, i] = s_yi
    tab.y_I[yi_orders, i], _, yi2 = _power_means(yi, yi_orders)
    tab.S2_x["1"][i] = s2.mean()
    tab.S4_x["1"][i] = tab.S[4, i]
    tab.S2_x["y_I"][i] = (yi2 * s2).mean()
    tab.S4_x["y_I"][i] = (yi2 * yi2 * s2 * s2).mean()
    tab.q_abs_s[i] = _quantile(np.abs(s), 1.0 - TAIL_CLIP) if i else 0.0


def credit_moment_table(cube: ScenarioCube, max_order: int = 16) -> CreditMomentTable:
    """Estimate all credit moments the bounds need from a full cube."""
    _require_full(cube, "credit moments")
    if max_order < 4:
        raise ValueError(f"credit moments need an order of at least 4 "
                         f"(E[S^4] enters eps2), got {max_order}")
    tab = _empty_table(cube, max_order)
    for i in range(len(cube.dates)):
        st = cube.state(i)
        _credit_moments_at(tab, st, st.Y_I + st.Y_C)
    return tab


# ---------------------------------------------------------------------------
# the explicit constants of the closed-form bound

def _scaled_exp(a: float, c: float) -> float:
    """c e^a, infinite only where it exceeds a double: e^a alone may
    overflow while c e^a does not."""
    if c == 0.0:
        return 0.0
    try:
        return c * math.exp(a)
    except OverflowError:
        pass
    try:
        return math.copysign(math.exp(a + math.log(abs(c))), c)
    except OverflowError:
        return math.copysign(math.inf, c)


def c1_const(m: int, x: str, var_Yr: float, tab: CreditMomentTable,
             i: int) -> float:
    """Upper bound on E[e^{-m Y_r} x^m] (equality at x = 1); infinite only
    where the bound exceeds a double."""
    a = m * m * var_Yr
    e_small = _scaled_exp(0.5 * a, 1.0)
    if x == "1":
        return e_small
    if 2 * m > 8:
        raise ValueError("y_I moments available up to order 8 only")
    ex_m = tab.y_I[m, i]
    ex_2m = tab.y_I[2 * m, i]
    spread = math.sqrt(max(ex_2m - ex_m * ex_m, 0.0))
    # the SD of e^{-m Y_r}, sqrt(e^{2a} - e^a), as e^a sqrt(1 - e^{-a}),
    # which overflows only with e^a
    return _scaled_exp(a, math.sqrt(-math.expm1(-a)) * spread) + _scaled_exp(0.5 * a, ex_m)


def c2_const(m: int, x: str, tab: CreditMomentTable, i: int) -> float:
    """E[S^m x] at date i: the table's moment of the sum S = Y_I + Y_C."""
    if m > tab.max_order:
        raise ValueError(f"credit moments available up to order {tab.max_order}")
    return float((tab.S_yI if x == "y_I" else tab.S)[m, i])


def c4_const(x: str, tab: CreditMomentTable, i: int) -> float:
    """E[(e^{-S} - 1 + S) x] at date i, the mean of the survival
    expansion's tail past order 1: the alternating series of
    (-1)^m E[S^m x] / m! from m = 2 up to the table's order."""
    if tab.max_order < 2:
        raise ValueError(f"credit moments available up to order {tab.max_order}")
    total = 0.0
    scale = 0.0
    for m in range(2, tab.max_order + 1):
        term = ((-1.0) ** m / math.factorial(m)) * c2_const(m, x, tab, i)
        total += term
        scale = max(scale, abs(term))
        # alternating, factorially damped series: the remainder is of the
        # order of the first dropped term
        if m > 2 and abs(term) <= 1e-12 * max(scale, 1e-300):
            return total
    if abs(term) > 1e-8 * max(scale, 1e-300):
        raise ValueError("survival tail series did not converge; "
                         "increase the credit moment order")
    return total


def tail_envelope_constant(q_abs: float) -> float:
    """Constant C with |tail_{n+1}(z)| <= C z^{n+1}/(n+1)! on |z| <= q."""
    return max(1.0, math.exp(q_abs))


def explicit_e1_bound(models: ModelSet, coeffs: WwrCoeffs, c_v: float,
                      disc_epe: float, tab: CreditMomentTable, i: int,
                      x: str) -> float:
    """Closed-form upper bound on the survival-expansion error eps1 at date
    i of the date-array `coeffs`: the covariance H_I H_C Cov(D (V)+,
    (e^{-S} - 1 + S) x) that the approximation drops, D the discount and
    disc_epe = E[D (V)+].

    The eps1 truncation bound at n = 1 bounds H_I H_C E[D (V)+ (e^{-S} - 1
    + S) x]; the mean term H_I H_C disc_epe E[(e^{-S} - 1 + S) x]
    (`c4_const`) is subtracted exactly.
    """
    return (truncation_bound(1, i, models, c_v, "eps1", x, tab)
            - coeffs.H_IC[i] * disc_epe * c4_const(x, tab, i))


# ---------------------------------------------------------------------------
# generic truncation bounds per error family

def truncation_bound(n: int, i: int, models: ModelSet, c_v: float,
                     family: str, x: str, tab: CreditMomentTable) -> float:
    """Bound on one dropped Taylor tail: sqrt(C_V) C_T/(n+1)! sqrt(E[Y^{2(n+1)} xbar^2]).

    The cross moment is relaxed into marginal moments via the
    correlation inequality. Family selects which series was truncated:
    eps1 the survival expansion (credit driver sum, empirical moments),
    eps2/eps3 the discounting expansion (rate driver, normal moments).
    """
    rt, ci, cc, h_ric, _ = domestic_terms(models, float(tab.dates[i]))
    return _truncation_bound(n, i, c_v, family, x, tab, rt.var_Y,
                             (h_ric, log_h_ric(rt, ci, cc)),
                             normal_moments(rt.var_Y, 4 * (n + 1)))


def _log(v: float) -> float:
    """log v of v >= 0 or NaN: -inf at 0, NaN at NaN."""
    return -math.inf if v == 0.0 else math.log(v)


def _log_c1_const(m: int, x: str, var_Yr: float, tab: CreditMomentTable,
                  i: int) -> float:
    """log c1_const, finite where c1_const overflows."""
    a = m * m * var_Yr
    if x == "1":
        return 0.5 * a
    ex_m = tab.y_I[m, i]
    spread = math.sqrt(max(tab.y_I[2 * m, i] - ex_m * ex_m, 0.0))
    return float(np.logaddexp(a + 0.5 * _log(-math.expm1(-a)) + _log(spread),
                              0.5 * a + _log(ex_m)))


def _truncation_bound(n: int, i: int, c_v: float, family: str, x: str,
                      tab: CreditMomentTable, var_Yr: float, h_ric: tuple,
                      gauss: np.ndarray) -> float:
    """truncation_bound from the date's Var Y_r, H_r H_I H_C and its log
    (`models.log_h_ric`) and the moments E[Y_r^k] of N(0, Var Y_r) up to
    an order of at least 4(n + 1); infinite only where the bound exceeds
    a double.

    Where H_r H_I H_C underflows while a factor overflows, the direct form
    meets 0 * inf; the bound is then formed in log space."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if x not in X_CHOICES:
        raise ValueError(f"x must be one of {X_CHOICES}")
    if n < 0 or i < 1:
        raise ValueError("need n >= 0 and an interior date")

    m2, m4 = 2 * (n + 1), 4 * (n + 1)
    if family == "eps1":
        # credit-sum tail against xbar = e^{-Y_r} x
        if m4 > tab.max_order:
            raise ValueError("credit moment order too low for this n")
        ey2 = tab.S[m2, i]
        ey4 = tab.S[m4, i]
        c1_2 = c1_const(2, x, var_Yr, tab, i)
        c1_4 = c1_const(4, x, var_Yr, tab, i)
        xbar_spread = math.sqrt(2.0 * (c1_4 + c1_2 * c1_2))
        cross = (math.sqrt(max(ey4 - ey2 * ey2, 0.0)) * xbar_spread
                 + ey2 * c1_2)
        c_t = tail_envelope_constant(tab.q_abs_s[i])
    else:
        # rate tail; xbar = x (-S) for eps2, x for eps3, with plain moments
        ey2, ey4 = gauss[m2], gauss[m4]
        if family == "eps2":
            ex2 = tab.S2_x[x][i]
            ex4 = tab.S4_x[x][i]
        else:
            if x == "1":
                ex2 = ex4 = 1.0
            else:
                ex2 = tab.y_I[2, i]
                ex4 = tab.y_I[4, i]
        cross = (math.sqrt(max(ey4 - ey2 * ey2, 0.0))
                 * math.sqrt(max(ex4 - ex2 * ex2, 0.0))
                 + ey2 * ex2)
        c_t = tail_envelope_constant(_Z_CLIP * math.sqrt(var_Yr))

    bound = float(h_ric[0] * math.sqrt(max(c_v, 0.0)) * c_t
                  / math.factorial(n + 1) * math.sqrt(max(cross, 0.0)))
    if math.isfinite(bound):
        return bound
    if family == "eps1":
        # a moment the table left unfilled is NaN, and so is the bound
        with np.errstate(invalid="ignore"):
            l2, l4 = (_log_c1_const(m, x, var_Yr, tab, i) for m in (2, 4))
            log_spread = 0.5 * (math.log(2.0) + float(np.logaddexp(l4, 2.0 * l2)))
            log_cross = float(np.logaddexp(_log(math.sqrt(max(ey4 - ey2 * ey2, 0.0)))
                                           + log_spread, _log(ey2) + l2))
    else:
        log_cross = _log(cross)
    if math.isnan(log_cross):
        return math.nan
    if c_v <= 0.0 or log_cross == -math.inf:
        return 0.0
    return _scaled_exp(h_ric[1] + 0.5 * math.log(c_v) + math.log(c_t)
                       - math.lgamma(n + 2) + 0.5 * log_cross, 1.0)


# ---------------------------------------------------------------------------
# directly measured errors

def _tail_terms(z: np.ndarray, start: int) -> np.ndarray:
    """exp(-z) minus its Taylor polynomial of degree start-1: the sum of the
    terms (-z)^j / j!, j >= start, by Horner, up to the first term below
    the double's precision at the largest |z| (subtracting the polynomial
    from exp(-z) would leave only rounding where |z| is small)."""
    big = float(np.max(np.abs(z), initial=0.0))
    # c_j = start!/(start+j)!, while the term c_j big^j still counts
    coeffs, c, term = [1.0], 1.0, 1.0
    for k in range(start + 1, 171):
        c /= k
        term *= big / k
        if term < 2.0 ** -56:
            break
        coeffs.append(c)
    neg = -z
    out = np.full_like(z, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        out *= neg
        out += c
    for _ in range(start):
        out *= neg
    out /= math.factorial(start)
    return out


def _measured_errors(st: DateState, s: np.ndarray, value_row: np.ndarray,
                     n_r: int, xs: tuple[str, ...], h_ric: float,
                     h_ic: float) -> dict[str, dict[str, float]]:
    """Direct estimates of the three dropped tails at the state's date, with
    S = Y_I + Y_C, for each x in xs, sharing the exposure, the discount, -S
    and both tail series; x other than "y_I" weighs 1.

    eps1 is the covariance of the discounted positive exposure with the
    survival-expansion tail; eps2/eps3 are the rate-expansion tails
    against the plain positive exposure.
    """
    pos = np.maximum(value_row, 0.0)
    h = st.discount * pos
    h_mean = h.mean()
    neg_s = -s
    # exp(-S) - 1 + S, the survival expansion's tail past order 1
    tail_s = np.exp(neg_s)
    tail_s -= 1.0
    tail_s += s
    tail_r = _tail_terms(st.Y_r[st.domestic], n_r + 1)
    out = {}
    for x in xs:
        t2, tr = ((tail_s * st.y_I, tail_r * st.y_I) if x == "y_I"
                  else (tail_s, tail_r))
        e1 = h_ic * (np.mean(h * t2) - h_mean * np.mean(t2))
        e2 = h_ric * np.mean(tr * neg_s * pos)
        e3 = h_ric * np.mean(tr * pos)
        out[x] = {"eps1": float(e1), "eps2": float(e2), "eps3": float(e3)}
    return out


# ---------------------------------------------------------------------------
# distribution diagnostics

def _plotting_positions(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(k - 1/2)/n for k = 1..n and the standard normal quantiles there."""
    p = (np.arange(n) + 0.5) / n
    return p, ndtri(p)


def _normal_distances(samples: np.ndarray, sd: np.ndarray,
                      positions: tuple[np.ndarray, np.ndarray]
                      ) -> tuple[np.ndarray, np.ndarray]:
    """(Cramer-von Mises statistic, 1-Wasserstein distance) of each row of
    `samples`, which it sorts in place, against N(0, sd[row]^2), given the
    sample size's plotting positions, in one block: each contiguous row
    sums as a 1-D sample would. Phi on the sorted rows (`ndtr_sorted`),
    the statistic's terms and the distance's are written in turn into one
    buffer of the samples' shape. The statistic is scipy's cramervonmises,
    without its p-value."""
    p, z = positions
    samples.sort(axis=1)
    sd = sd[:, None]
    n = samples.shape[1]
    terms = np.divide(samples, sd)
    for row in terms:
        ndtr_sorted(row, row)
    np.subtract(p, terms, out=terms)
    terms *= terms
    cvm = 1.0 / (12.0 * n) + np.sum(terms, axis=1)
    np.multiply(z, sd, out=terms)
    np.subtract(samples, terms, out=terms)
    np.abs(terms, out=terms)
    return cvm, np.mean(terms, axis=1)


# ---------------------------------------------------------------------------
# report assembly

@dataclass
class BoundRow:
    date: float
    family: str
    x: str
    n: int
    bound: float
    measured: Optional[float] = None
    cvm: Optional[float] = None
    wasserstein: Optional[float] = None


def bound_report(s: Swap, models: ModelSet, cube_full: ScenarioCube,
                 value_mat: np.ndarray, n_r: int,
                 date_indices: Optional[list[int]] = None,
                 orders: tuple[int, ...] = (1, 2, 3),
                 tab: Optional[CreditMomentTable] = None) -> list[BoundRow]:
    """Per-date, per-family truncation bounds with their measured errors,
    plus the normality distances of both credit drivers: `bound_rows` on
    the cube's dates `date_indices` (default: all after date 0)."""
    if date_indices is None:
        date_indices = range(1, len(cube_full.dates))
    if any(i < 1 for i in date_indices):
        raise ValueError("date 0 is degenerate")
    return bound_rows(s, models, cube_full,
                      ((cube_full.state(i), value_mat[i]) for i in date_indices),
                      n_r, orders, tab)


def bound_rows(s: Swap, models: ModelSet, sim, pairs: Iterable,
               n_r: int, orders: tuple[int, ...] = (1, 2, 3),
               tab: Optional[CreditMomentTable] = None) -> list[BoundRow]:
    """The bound report's rows at each date after 0 of `pairs`, which yields
    (DateState, value row) in date order, each one used up before the next
    is read. Of `sim` (a PathStream or ScenarioCube) only the mode, path
    count and dates are read. Without `tab`, each date's credit moments
    come from its own state, and only the ones the rows read are filled.

    The dates run under `mc.pass_numpy_state`, and stop at the first
    whose value row is not finite, with the error a run gives there."""
    _require_full(sim, "bound rows")
    fill = tab is None
    if fill:
        tab = _empty_table(sim, _BOUND_ORDERS[0][-1])
    # every closed form once over the dates after 0
    dates = np.asarray(sim.dates)[1:]
    rp = models.rates[s.currency]
    book = swap_book(s, rp, dates)
    var_y = hw_terms(rp, 0.0, dates).var_y
    rt, ci, cc, h_ric, h_ic = domestic_terms(models, dates)
    log_h = log_h_ric(rt, ci, cc)
    positions = _plotting_positions(sim.n_paths)
    gauss = normal_moments(rt.var_Y, 4 * (max((n_r, *orders)) + 1))
    sd_credit = np.sqrt(np.stack([ci.var_Y, cc.var_Y], axis=1))
    rows: list[BoundRow] = []
    with pass_numpy_state():
        for st, value_row in pairs:
            i = st.index
            if not np.isfinite(value_row).all():
                raise exposure_not_finite(sim.dates, i)
            s = st.Y_I + st.Y_C
            if fill:
                _credit_moments_at(tab, st, s, _BOUND_ORDERS)
            if i == 0:
                continue
            k = i - 1
            u = float(dates[k])
            c_v = _cv_bound(*book.at(k), var_y[k])
            meas = _measured_errors(st, s, value_row, n_r, X_CHOICES, h_ric[k], h_ic[k])
            for x in X_CHOICES:
                for fam in FAMILIES:
                    if fam == "eps3" and x == "1":
                        continue
                    n_eff = _EPS1_ORDER if fam == "eps1" else n_r
                    rows.append(BoundRow(
                        date=u, family=fam, x=x, n=n_eff,
                        bound=_truncation_bound(n_eff, i, c_v, fam, x, tab, rt.var_Y[k],
                                                (h_ric[k], log_h[k]), gauss[k]),
                        measured=meas[x][fam]))
            for fam_extra in orders:
                rows.append(BoundRow(
                    date=u, family="eps3", x="y_I", n=fam_extra,
                    bound=_truncation_bound(fam_extra, i, c_v, "eps3", "y_I", tab,
                                            rt.var_Y[k], (h_ric[k], log_h[k]), gauss[k])))
            cvm, w1 = _normal_distances(np.stack([st.Y_I, st.Y_C]), sd_credit[k],
                                        positions)
            for j, factor in enumerate(("Y_I", "Y_C")):
                rows.append(BoundRow(date=u, family=f"dist_{factor}", x="", n=0,
                                     bound=0.0, cvm=float(cvm[j]),
                                     wasserstein=float(w1[j])))
    return rows


def write_bounds_csv(rows: list[BoundRow], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("date,family,x,n,bound,measured_error,cvm,wasserstein\n")
        for r in rows:
            def f(v):
                return "" if v is None else repr(float(v))
            fh.write(f"{r.date!r},{r.family},{r.x},{r.n},{f(r.bound)},"
                     f"{f(r.measured)},{f(r.cvm)},{f(r.wasserstein)}\n")
