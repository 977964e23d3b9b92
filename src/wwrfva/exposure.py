"""Exposure profiles: independent part, WWR benchmark, WWR approximation.

The discounted positive exposure splits into an independent part and a
wrong-way-risk part. The independent part needs only the market paths,
which are the same in either simulation mode. The benchmark WWR part
averages over jointly simulated credit paths and so needs a full-mode
simulation. The fast approximation replaces the credit paths by a
Gaussian projection of the credit drivers onto the domestic rate driver,
leaving only moments E[y^l (V)+] that are either averaged over the
market paths (generic method) or, for a single swap, computed in closed
form from normal and truncated-normal moments (analytic method).

Every path average reads the simulated drivers and portfolio values of
one date at a time. `BaseMoments.enter` alone fills a date's discounted
exposure and holds the rows its reductions read in a `DateTile`;
`BaseMoments.reduce` then fills the batch SEs and driver moments
(`y_moments_at`) of the tile's dates, and `wwr_mc_at` reduces the
benchmark's covariance over the same tile. Each reduction is one 2-D
call along the path axis for the whole tile, and rounds each date as a
call on that date's row alone would, so a tile of any size gives the
same bits. `run_fva` tiles the live simulation stream: below
TILE_ELEMENTS paths a tile holds several dates (`tile_dates`), which
spreads each reduction's fixed cost over them. The cube forms
`base_moments` and `epe_wwr_mc` enter the dates of a stored cube as
tiles of one for perfbench's traced replica of a run.

The projection coefficients are deterministic. `coeffs_for_dates` gives
one `WwrCoeffs` record of arrays over the monitoring dates, whose row 0
is the date-0 limit, so the independent part, the WWR assembly and the
sign diagnostic are each one array expression over all dates.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import METHODS
from .instruments import CurrencyBook, Portfolio, Swap, book_ystar, swap_book
from .mc import CorrelationMatrix, DateState, ScenarioCube, credit_factor, rate_factor
from .models import ModelSet, domestic_terms, hw_terms, sigma_ratio, term
from .normal import factorial, log_ndtr, ndtr


# ---------------------------------------------------------------------------
# batch standard errors

N_BATCHES = 50  # batch count of every Monte Carlo standard error


def _mean(values: np.ndarray):
    """values.mean(axis=-1) of a float array, bit for bit: numpy's pairwise
    sum along the path axis, then one division by the count, without its
    per-call dispatch."""
    return np.add.reduce(values, axis=-1) / values.shape[-1]


def _batch_se(values: np.ndarray):
    """SE of the mean from batch means, of each row of paths (the last
    axis): one per date of a tile (D, paths), or a scalar of one row.

    The batch means and their SD take numpy's `mean(axis=1)` and
    `std(ddof=1)` steps in numpy's order, so each row rounds as those do
    on that row alone."""
    n = values.shape[-1]
    nb = min(N_BATCHES, n)
    size = n // nb
    means = np.add.reduce(values[..., :nb * size].reshape(values.shape[:-1] + (nb, size)),
                          axis=-1)
    means /= size
    dev = means - _mean(means)[..., None]
    np.square(dev, out=dev)
    return np.sqrt(np.add.reduce(dev, axis=-1) / (nb - 1)) / math.sqrt(nb)


# ---------------------------------------------------------------------------
# tile kernels: the estimators at a tile of consecutive monitoring dates,
# one row of paths per date, fed by a live simulation stream (or, in
# perfbench's cube forms, by one stored date, a tile of one)

# The doubles one row of a date tile holds: a tile takes as many dates of
# paths as fit, at least one, so that at 8,192 paths or fewer each
# reduction's fixed cost is shared by several dates (scripts/tile_probe.py).
# At 10k paths and more a tile is one date.
TILE_ELEMENTS = 16_384


def tile_dates(n_paths: int, n_dates: int) -> int:
    """The dates a tile holds: as many rows of `n_paths` as fit
    TILE_ELEMENTS, at least one and at most the grid's."""
    return max(1, min(TILE_ELEMENTS // n_paths, n_dates))


def y_moments_at(y: np.ndarray, vp: np.ndarray, l_max: int) -> np.ndarray:
    """Means of y^l (V)+ for l = 0 .. l_max at a tile of dates, shaped
    (l_max + 1, dates), from the driver `y` and (V)+ in `vp`, each
    (dates, paths). `vp` then takes the powers y^l (V)+ = y * y^(l-1) (V)+
    in turn, in place, and is left holding y^l_max (V)+. Each power is
    summed as soon as it is formed, while it is still in cache; each
    date's mean rounds as numpy's mean of that date's row."""
    means = np.empty((l_max + 1,) + y.shape[:-1])
    means[0] = np.add.reduce(vp, axis=-1)
    for l in range(1, l_max + 1):
        np.multiply(vp, y, out=vp)
        means[l] = np.add.reduce(vp, axis=-1)
    means /= vp.shape[-1]
    return means


def wwr_mc_at(dates, h: np.ndarray, disc_epe, Y_I: np.ndarray, Y_C: np.ndarray,
              y_I: np.ndarray, c: WwrCoeffs):
    """Covariance of the discounted positive exposure `h` (mean `disc_epe`)
    with the survival-weighted funding spread, with its batch SE, at dates
    after 0: at one date, `dates` its index, with a row of paths in `h`
    and in the credit drivers Y_I, Y_C and y_I; or at a tile, `dates` a
    slice, with a row per date in each and a mean per date. Reads the
    coefficients at those dates; holds at most COV_TEMPORARIES rows of
    paths per date at once."""
    # a column per date of a tile; a scalar at one date, as a broadcast
    # operand of another shape leaves numpy's fast scalar loop
    col = (..., None) if h.ndim > 1 else ()
    surv = c.H_IC[dates][col] * np.exp(-Y_I - Y_C)
    spread = c.mu_S[dates][col] + c.lgd * y_I
    term = (h - disc_epe[col]) * surv * spread
    return _mean(term), _batch_se(term)


# The rows of paths per date that `wwr_mc_at` holds at once: the survival
# weight and the spread, and the centred exposure with its first product.
COV_TEMPORARIES = 4


class DateTile:
    """Work rows of up to `size` consecutive monitoring dates of paths,
    which `BaseMoments.enter` fills one date at a time and
    `BaseMoments.reduce` and `wwr_mc_at` reduce at once.

    Per date: (V)+ (`vp`), which the driver moments overwrite with their
    powers; the discounted positive exposure h, formed in place of (V)+
    when no moments read it; and, as a stream's state is live only until
    its next date, copies of the rows the reductions read: the domestic
    rate noise (`y`, with moments) and the credit drivers Y_I, Y_C and
    y_I (`credit`). The states of one pass share their rate noise, so
    the tiles of a pass (`for_pass`) hold one copy of it, which the first
    tile fills. A tile of one date is reduced before the next date is
    drawn, so it reads those rows of the state in place and holds no
    copies; its reductions read one row of paths (`held`) at one date
    index (`dates`), as a call on a single date does.
    """

    def __init__(self, size: int, n_paths: int, moments: bool, credit: bool,
                 y: Optional[np.ndarray] = None):
        self.size, self.moments, self.with_credit = size, moments, credit
        self.start = self.count = 0
        rows = np.empty((self.n_rows(size, moments, credit), size, n_paths))
        self.vp, self.h = rows[0], rows[int(moments)]
        copies = moments and size > 1
        # the rate noise's copy: the tile's own, or another tile's that it
        # leaves to that tile to fill
        self.fills_y = copies and y is None
        self.y = np.empty((size, n_paths)) if self.fills_y else y if copies else None
        self.credit = rows[1 + moments:] if credit and size > 1 else None

    @staticmethod
    def n_rows(size: int, moments: bool, credit: bool) -> int:
        """The tile's rows of paths per date but the rate noise's copy."""
        return 1 + moments + (size > 1) * 3 * credit

    @classmethod
    def for_pass(cls, n_records: int, size: int, n_paths: int, moments: bool,
                 credit: bool) -> list[DateTile]:
        """The tiles of a pass's `n_records` records: one each, holding one
        copy of the rate noise between them, or at one date a tile that
        they reduce in turn."""
        if size == 1:
            return [cls(1, n_paths, moments, credit)] * n_records
        first = cls(size, n_paths, moments, credit)
        return [first] + [cls(size, n_paths, moments, credit, first.y)
                          for _ in range(n_records - 1)]

    @classmethod
    def pass_rows(cls, n_records: int, size: int, moments: bool, credit: bool) -> int:
        """The rows of paths of `for_pass`'s tiles, and with credit those
        that `wwr_mc_at` holds at a tile."""
        n_tiles = 1 if size == 1 else n_records
        return size * (n_tiles * cls.n_rows(size, moments, credit)
                       + (moments and size > 1) + credit * COV_TEMPORARIES)

    @property
    def full(self) -> bool:
        return self.count == self.size

    @property
    def dates(self):
        """The dates the tile holds: a slice, or a tile of one's index."""
        return self.start if self.size == 1 else slice(self.start, self.start + self.count)

    def held(self, rows: np.ndarray) -> np.ndarray:
        """The rows of the tile's dates in `rows` (one of its row sets):
        (dates, paths), or a tile of one's row of paths."""
        return rows[0] if self.size == 1 else rows[:self.count]

    def take(self, st: DateState) -> int:
        """The slot of the state's date, the one after the tile's last, or
        the first of a new tile once the tile is full; holds the state's
        rows that the reductions read."""
        if self.full:
            self.count = 0
        j = self.count
        if j == 0:
            self.start = st.index
        self.count += 1
        live = (st.Y_I, st.Y_C, st.y_I) if self.with_credit else ()
        if self.size == 1:
            if self.moments:
                self.y = st.y_r[st.domestic][None]
            if self.with_credit:
                self.credit = [row[None] for row in live]
            return j
        if self.fills_y:
            self.y[j] = st.y_r[st.domestic]
        for k, row in enumerate(live):
            self.credit[k, j] = row
        return j


# ---------------------------------------------------------------------------
# base moments (market paths)

@dataclass
class BaseMoments:
    """Per-date discounted exposure and plain driver-weighted moments.

    y_moments[l, i] estimates E[y^l (V(u_i))+] (undiscounted) for
    l = 0 .. l_max; disc_epe[i] estimates E[e^{-int r} (V(u_i))+].
    """

    dates: np.ndarray
    disc_epe: np.ndarray
    disc_epe_se: np.ndarray
    y_moments: np.ndarray
    # the engine leaves it None; perfbench passes it by keyword
    y_moments_se: Optional[np.ndarray] = None
    # time spent on the driver-weighted moments only; the discounted
    # exposure is shared with the coupling-free part of the computation
    y_moment_seconds: float = 0.0

    @classmethod
    def empty(cls, dates: np.ndarray, n_moments: int) -> BaseMoments:
        """A zero record over `dates` with `n_moments` moment rows (0 when
        the method reads no driver moments)."""
        n = len(dates)
        return cls(dates=dates.copy(), disc_epe=np.zeros(n), disc_epe_se=np.zeros(n),
                   y_moments=np.zeros((n_moments, n)))

    def enter(self, st: DateState, value_row: np.ndarray, tile: DateTile) -> np.ndarray:
        """Enter the state's date into the tile's next slot from its value
        row: fill its discounted exposure at once, and hold in the tile the
        rows that `reduce` and `wwr_mc_at` read. Return the date's row of
        per-path discounted positive exposure h, e^{-int r} (V)+."""
        j = tile.take(st)
        vp = np.maximum(value_row, 0.0, out=tile.vp[j])
        h = np.multiply(st.discount, vp, out=tile.h[j])
        self.disc_epe[st.index] = _mean(h)
        return h

    def reduce(self, tile: DateTile) -> None:
        """Fill the batch SEs of the discounted exposure at the tile's
        dates, and their driver moments, with their thread CPU time added
        to `y_moment_seconds`, when the record holds moment rows."""
        dates = tile.dates
        self.disc_epe_se[dates] = _batch_se(tile.held(tile.h))
        if len(self.y_moments):
            t0 = time.thread_time()
            self.y_moments[:, dates] = y_moments_at(tile.held(tile.y), tile.held(tile.vp),
                                                    len(self.y_moments) - 1)
            self.y_moment_seconds += time.thread_time() - t0


def base_moments(cube: ScenarioCube, p: Portfolio, models: ModelSet,
                 n_r: int, value_mat: Optional[np.ndarray] = None) -> BaseMoments:
    """Average e^{-int r}(V)+ and y^l (V)+ over the market paths of a cube."""
    if n_r < 0:
        raise ValueError("n_r must be >= 0")
    from .instruments import value_matrix
    if value_mat is None:
        value_mat = value_matrix(p, models, cube)
    bm = BaseMoments.empty(cube.dates, n_r + 3)
    tile = DateTile(1, cube.n_paths, moments=True, credit=False)
    for i in range(len(cube.dates)):
        bm.enter(cube.state(i), value_mat[i], tile)
        bm.reduce(tile)
    return bm


# ---------------------------------------------------------------------------
# projection coefficients

@dataclass(frozen=True)
class WwrCoeffs:
    """Deterministic coefficients of the Gaussian WWR approximation.

    Every field but `lgd` holds one entry per monitoring date, and `beta`
    has shape (n_dates, n_r + 1).
    """

    gamma: np.ndarray
    alpha: np.ndarray
    nu: np.ndarray
    beta: np.ndarray        # beta[i, j], j = 0..n_r
    H_rIC: np.ndarray
    H_IC: np.ndarray
    mu_S: np.ndarray
    exp_YIyI: np.ndarray
    P_I: np.ndarray         # survival of the institution to u
    P_C: np.ndarray         # survival of the counterparty to u
    lgd: float


def coeffs_for_dates(models: ModelSet, corr: CorrelationMatrix,
                     dates: np.ndarray, n_r: int) -> WwrCoeffs:
    """All deterministic pieces of the approximation at every monitoring
    date, one array entry per date; `dates` start at 0 and strictly increase.

    Row 0 is the date-0 limit, where the variance ratios are undefined:
    no coupling (gamma = alpha = nu = exp_YIyI = 0), unit survival and
    discount factors, beta = [1, 0, ...], and the first interval's spread.

    The expected funding spread LGD_I (mu_I + b_I) needs the shift b_I,
    which has a closed-form integral but no closed pointwise value; at u_i
    it is the average over (u_{i-1}, u_i], consistent with the
    right-endpoint rectangle rule of the FVA integral.
    """
    dom = models.domestic
    # the coefficients read only the domestic rate model, both credit
    # models and the two rate-credit correlations
    cut = ModelSet(dom, {dom: models.rates[dom]}, fx={},
                   credit={z: models.credit[z] for z in ("I", "C")})
    return term(_coeffs, cut, corr.entry(rate_factor(dom), credit_factor("I")),
                corr.entry(rate_factor(dom), credit_factor("C")),
                np.asarray(dates, dtype=float), n_r)


def _coeffs(models: ModelSet, rho_rI: float, rho_rC: float, dates: np.ndarray,
            n_r: int) -> WwrCoeffs:
    """`coeffs_for_dates` from the models and correlations it reads."""
    if len(dates) < 2 or dates[0] != 0.0 or np.any(np.diff(dates) <= 0.0):
        raise ValueError("coefficient dates must start at 0 and strictly increase")
    u = dates[1:]
    rt, ci, cc, h_ric, h_ic = domestic_terms(models, u)
    s_yI = sigma_ratio(ci.var_y, rt.var_y)
    s_YI = sigma_ratio(ci.var_Y, rt.var_y)
    s_YC = sigma_ratio(cc.var_Y, rt.var_y)
    s_Yr = sigma_ratio(rt.var_Y, rt.var_y)
    j = np.arange(n_r + 1)
    p_I = models.credit["I"]
    mu_S = p_I.lgd * (ci.mu + np.diff(np.r_[0.0, ci.int_b]) / np.diff(dates))
    rows = dict(
        gamma=rho_rI * s_yI,
        alpha=-(rho_rI * s_YI + rho_rC * s_YC),
        nu=-(rho_rI ** 2 * s_YI + rho_rI * rho_rC * s_YC) * s_yI,
        beta=(-s_Yr)[:, None] ** j / factorial(j),
        H_rIC=h_ric, H_IC=h_ic, mu_S=mu_S, exp_YIyI=ci.exp_Yy,
        P_I=p_I.curve.discount(u), P_C=models.credit["C"].curve.discount(u))
    row0 = dict(gamma=0.0, alpha=0.0, nu=0.0, beta=np.eye(1, n_r + 1)[0],
                H_rIC=1.0, H_IC=1.0, mu_S=mu_S[0], exp_YIyI=0.0, P_I=1.0, P_C=1.0)
    return WwrCoeffs(lgd=p_I.lgd, **{k: np.concatenate(([row0[k]], v))
                                     for k, v in rows.items()})


# ---------------------------------------------------------------------------
# independent exposure and the MC WWR benchmark

def epe_indep(bm: BaseMoments, coeffs: WwrCoeffs, models: ModelSet) -> np.ndarray:
    """Independent discounted exposure per date (spread x exposure, no coupling).

    `models` is unused; it stays because perfbench's replica of the run
    passes it.
    """
    c = coeffs
    return (c.P_I * c.P_C * c.mu_S * bm.disc_epe
            - c.lgd * c.H_IC * c.exp_YIyI * bm.disc_epe)


def epe_wwr_mc(cube: ScenarioCube, p: Portfolio, models: ModelSet,
               bm: BaseMoments, coeffs: WwrCoeffs,
               value_mat: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """Benchmark WWR exposure from jointly simulated credit paths.

    Covariance of the discounted positive exposure with the survival-
    weighted funding spread; the mean exposure is the base estimate so
    that both methods share the independent part exactly.
    """
    if cube.mode != "full":
        raise ValueError("benchmark needs a full-mode cube")
    if cube.y_I is None or cube.Y_I is None or cube.Y_C is None:
        raise ValueError("full cube is missing credit slabs")
    from .instruments import value_matrix
    if value_mat is None:
        value_mat = value_matrix(p, models, cube)
    n = len(cube.dates)
    vals = np.zeros(n)
    ses = np.zeros(n)
    for i in range(1, n):
        st = cube.state(i)
        h = st.discount * np.maximum(value_mat[i], 0.0)
        vals[i], ses[i] = wwr_mc_at(i, h, bm.disc_epe[i], st.Y_I, st.Y_C, st.y_I, coeffs)
    return vals, ses


# ---------------------------------------------------------------------------
# normal / truncated-normal moments

_LOG_SQRT_2PI = math.log(math.sqrt(2.0 * math.pi))  # log-density offset of N(0, 1)


def normal_moments(variance, l_max: int) -> np.ndarray:
    """Central moments of N(0, variance): (l-1)!! Var^{l/2} for even l, 0
    odd; on the last axis, after the shape of `variance`."""
    variance = np.asarray(variance, dtype=float)
    if np.any(variance < 0.0):
        raise ValueError("variance must be nonnegative")
    out = np.zeros(variance.shape + (l_max + 1,))
    out[..., 0] = 1.0
    for l in range(2, l_max + 1, 2):
        out[..., l] = out[..., l - 2] * (l - 1) * variance
    return out


@dataclass(frozen=True)
class TruncatedMoments:
    """Moments of N(0, Var) on (-inf, ystar]: of one pair (Var, ystar) from
    `truncated_normal_moments`, or one row per pair, on the last axis, from
    `truncated_moments_on_rows`."""

    m_check: np.ndarray     # conditional moments E[y^l | y <= ystar]
    big_f: float            # F(ystar)
    partial: np.ndarray     # E[y^l 1_{y <= ystar}] = m_check * F
    underflow: bool         # F underflowed to exactly 0


def truncated_moments_on_rows(variance: np.ndarray, ystar_value: np.ndarray,
                              l_max: int) -> TruncatedMoments:
    """truncated_normal_moments of each pair (variance[i], ystar_value[i]),
    one row each, in one array computation over the pairs."""
    variance = np.asarray(variance, dtype=float)
    ystar_value = np.asarray(ystar_value, dtype=float)
    if np.any(variance <= 0.0):
        raise ValueError("variance must be positive")
    sd = np.sqrt(variance)
    z = ystar_value / sd
    m_check = np.zeros((len(z), l_max + 1))
    big_f = np.zeros(len(z))
    # ystar = +inf: the whole normal; ystar = -inf or z < -37: F underflows
    # below the smallest double and every partial moment vanishes
    whole = ystar_value == math.inf
    m_check[whole] = normal_moments(variance[whole], l_max)
    big_f[whole] = 1.0
    cut = np.isfinite(z) & (z >= -37.0)
    v, s, y, zc = variance[cut], sd[cut], ystar_value[cut], z[cut]
    big_f[cut] = ndtr(zc)
    log_pdf = -(zc * zc) / 2.0 - _LOG_SQRT_2PI
    mills = np.exp(log_pdf - log_ndtr(zc))  # f(z)/F(z), stable
    rows = np.zeros((len(zc), l_max + 1))
    rows[:, 0] = 1.0
    for l in range(1, l_max + 1):
        prev2 = rows[:, l - 2] if l >= 2 else 0.0
        rows[:, l] = (l - 1) * v * prev2 - s * y ** (l - 1) * mills
    m_check[cut] = rows
    return TruncatedMoments(m_check=m_check, big_f=big_f,
                            partial=m_check * big_f[:, None],
                            underflow=~(whole | cut))


def truncated_normal_moments(variance: float, ystar_value: float,
                             l_max: int) -> TruncatedMoments:
    """E[y^l | y <= ystar], F(ystar) and E[y^l 1_{y <= ystar}] for
    y ~ N(0, variance), l = 0..l_max: `truncated_moments_on_rows` on one
    pair."""
    tm = truncated_moments_on_rows(np.array([variance], dtype=float),
                                   np.array([ystar_value], dtype=float), l_max)
    return TruncatedMoments(m_check=tm.m_check[0], big_f=float(tm.big_f[0]),
                            partial=tm.partial[0], underflow=bool(tm.underflow[0]))


# ---------------------------------------------------------------------------
# the Gaussian WWR approximation

def _beta_sum(c: WwrCoeffs, y_moments: np.ndarray, m: int) -> np.ndarray:
    """sum_j beta_j E[y^(j+m) (V(u_i))+] at every date i, the rate-expansion
    series; a stack of per-date dot products, which rounds as np.dot on each
    date's strided moment column (an einsum would not)."""
    k = c.beta.shape[1]
    return np.matmul(c.beta[:, None, :], y_moments[m:m + k].T[:, :, None])[:, 0, 0]


def _assemble_wwr(c: WwrCoeffs, y_moments: np.ndarray,
                  disc_epe: np.ndarray) -> np.ndarray:
    """WWR exposure per date from the projection coefficients and the
    driver moments y_moments[l, i] = E[y^l (V(u_i))+], whatever produced
    them; the coefficients' date-0 row makes date 0 exactly 0."""
    l_max = y_moments.shape[0] - 1
    n_r = c.beta.shape[1] - 1
    if l_max < n_r + 2:
        raise ValueError(f"base moments cover l <= {l_max}, need {n_r + 2}")
    s1 = _beta_sum(c, y_moments, 1)
    s2 = _beta_sum(c, y_moments, 2)
    return (c.H_rIC * (c.mu_S * c.alpha + c.lgd * c.gamma) * s1
            + c.lgd * c.H_rIC * c.nu * s2
            + c.lgd * c.H_IC * c.exp_YIyI * disc_epe)


def epe_wwr_approx_generic(coeffs: WwrCoeffs,
                           bm: BaseMoments) -> np.ndarray:
    """WWR exposure from the projection coefficients and the base moments."""
    return _assemble_wwr(coeffs, bm.y_moments, bm.disc_epe)


def _analytic_moments_on_dates(s: Swap, models: ModelSet, dates, n_a: int,
                               l_max: int,
                               book: Optional[CurrencyBook] = None) -> np.ndarray:
    """Closed-form E[y^l (V(u))+], l = 0..l_max, of a single swap at every
    date u in `dates`: one row per date, zero past maturity.

    Expands each discount-like factor to order n_a in the rate driver and
    integrates against the normal density restricted to the positivity
    region bounded by the swap's root. The driver variances, the roots,
    the truncated-normal moments and the expansion are each one array
    computation over the dates, on the swap's book on `dates`
    (`swap_book`), built here unless given.
    """
    rp = models.rates[s.currency]
    if s.currency != models.domestic:
        raise ValueError("analytic moments require a domestic-currency swap")
    var = hw_terms(rp, 0.0, np.asarray(dates, dtype=float)).var_y
    if np.any(var <= 0.0):
        raise ValueError("driver variance must be positive (u > 0 required)")
    if book is None:
        book = swap_book(s, rp, dates)
    top = n_a + l_max
    star = book_ystar(book, np.sqrt(var))
    # G_n: moment of y^n over the positivity region of this swap, y <= ystar
    # for a receiver; for a payer, y > ystar, where y^n is (-1)^n (-y)^n and
    # -y is the same normal: the lower moments at -ystar, sign-flipped, so
    # a root tens of SDs up leaves no difference of near-equal numbers
    if s.phi == -1:
        g = truncated_moments_on_rows(var, -star, top).partial
        g[:, 1::2] *= -1.0
    else:
        g = truncated_moments_on_rows(var, star, top).partial
    # sum_k W_k (-B_k)^a / a! over each date's live payments k, then
    # sum_a of that times G_{a+l}, for every l at once: two contractions
    # over the dates, through (dates, payments, a) and (dates, a, l) arrays
    live = np.arange(book.W.shape[1]) >= book.start[:, None]
    W = np.where(live, book.W, 0.0)
    powers = np.empty(book.B.shape + (n_a + 1,))
    powers[..., 0] = 1.0
    for j in range(1, n_a + 1):
        np.multiply(powers[..., j - 1], -book.B, out=powers[..., j])
    a = np.arange(n_a + 1)
    wc = np.matmul(W[:, None, :], powers) / factorial(a)
    shift = a[:, None] + np.arange(l_max + 1)
    return book.const[:, None] * g[:, :l_max + 1] + np.matmul(wc, g[:, shift])[:, 0]


def epe_wwr_approx_swap_analytic(s: Swap, models: ModelSet,
                                 coeffs: WwrCoeffs, bm: BaseMoments, n_r: int,
                                 n_a: int,
                                 book: Optional[CurrencyBook] = None) -> np.ndarray:
    """WWR exposure with the driver moments evaluated in closed form; of the
    base moments only the discounted exposure is read. `book`, the swap's
    book on `bm.dates`, is built here unless given (a run's valuation
    holds it)."""
    moms = np.zeros((len(bm.dates), n_r + 3))
    moms[1:] = _analytic_moments_on_dates(s, models, bm.dates[1:], n_a, n_r + 2,
                                          None if book is None else book.since(1))
    # built date-major: each date's moments stay contiguous in the (order,
    # date) view the assembly reads, and np.dot on a contiguous vector can
    # round differently from the same values read with a stride
    return _assemble_wwr(coeffs, moms.T, bm.disc_epe)


# ---------------------------------------------------------------------------
# sign diagnostics

@dataclass(frozen=True)
class PsiDiagnostic:
    psi: np.ndarray            # psi_m per date (E[y^m (V)+] at date 0)
    net_sign: np.ndarray       # sign of mu_S*alpha + lgd*gamma per date
    gamma_verdict: str         # WWR / RWR / none for the spread-noise term
    alpha_verdict: str         # verdict for the survival-drift term
    net_verdict: str           # overall verdict at the last date


def _verdict(contribution: float) -> str:
    if contribution > 0.0:
        return "WWR"
    if contribution < 0.0:
        return "RWR"
    return "none"


def psi_diagnostic(bm: BaseMoments, coeffs: WwrCoeffs, m: int) -> PsiDiagnostic:
    """Moment-weighted exposure sums determining the WWR/RWR direction."""
    if m not in (1, 2):
        raise ValueError("m must be 1 or 2")
    c = coeffs
    net = c.mu_S * c.alpha + c.lgd * c.gamma
    # verdicts from a representative interior date (mid-profile)
    mid = max(1, len(bm.dates) // 3)
    psi1 = _beta_sum(c, bm.y_moments, 1)
    return PsiDiagnostic(
        psi=_beta_sum(c, bm.y_moments, m), net_sign=np.sign(net),
        gamma_verdict=_verdict(c.lgd * c.gamma[mid] * psi1[mid]),
        alpha_verdict=_verdict(c.mu_S[mid] * c.alpha[mid] * psi1[mid]),
        net_verdict=_verdict(net[mid] * psi1[mid]))


# ---------------------------------------------------------------------------
# profile container

@dataclass
class ExposureProfile:
    """Per-date discounted exposure split, with the method that produced it."""

    dates: np.ndarray
    epe_indep: np.ndarray
    epe_wwr: np.ndarray
    method: str
    se_wwr: Optional[np.ndarray] = None
    # the per-date batch SE of the discounted EPE (`disc_epe_se`), which
    # `epe_indep` scales linearly; not the SE of `epe_indep` itself, and
    # perfbench's `_fva_indep_sum_se` relies on that
    se_indep: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")

    @property
    def epe_total(self) -> np.ndarray:
        return self.epe_indep + self.epe_wwr
