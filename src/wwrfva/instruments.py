"""Instruments and their valuation as functions of the rate drivers.

Every zero-coupon bond of a currency is one exponential in the zero-mean
rate driver y of that currency. Each currency's instruments therefore merge
into one `CurrencyBook` on the union of their payment dates: at a monitoring
date u, V(u; y) = const + sum_k W_k exp(-y B_k), valued pathwise by one
kernel (`book_value`); `book_rows` applies it to a date's books at once,
on column blocks of paths (`mc.value_block`), with one block of bond
exponentials for the books that hold one loadings array B, in one
buffer (`book_buffer`: a block, then a value row per book) that the
owner of a pass allocates once and declares to its memory check:
`fva._run_pass`, `PortfolioValuation.valued_pass` (the `bounds` verb)
or `value_matrix`.
A `PortfolioValuation` holds no path-sized array. A single swap's book
(`swap_book`) is also the value
function its closed forms read; its positivity boundary ystar is the unique
root of a monotone auxiliary function (a Jamshidian-style decomposition),
found by a doubling bracket search and Newton's method from its left end.

FX forwards are valued exactly on paths from the two reconstructed
zero-coupon bonds and the FX level; their positivity region under the
single-driver projection is a half-line in the domestic rate driver
with a closed-form threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Union

import numpy as np

from .curves import check_keys, finite, integer, load_yaml
from .mc import (CorrelationMatrix, DateState, PathStream, ScenarioCube, fx_factor,
                 rate_factor, shared_pass, value_block)
from .models import Hw1fParams, ModelSet, bfac, fx_terms, hw_terms, sigma_ratio, term


# ---------------------------------------------------------------------------
# instrument records

@dataclass(frozen=True)
class Swap:
    """Fixed-for-float swap; phi=+1 receives fixed, phi=-1 pays fixed."""

    currency: str
    notional: float
    fixed_rate: float
    schedule: tuple[float, ...]  # T_0 (expiry) .. T_m (maturity)
    phi: int = 1

    def __post_init__(self):
        if self.phi not in (-1, 1):
            raise ValueError("phi must be +1 (receiver) or -1 (payer)")
        if len(self.schedule) < 2:
            raise ValueError("schedule needs at least expiry and one payment")
        for i in range(1, len(self.schedule)):
            if self.schedule[i] <= self.schedule[i - 1]:
                raise ValueError("schedule must be strictly increasing")
        if self.notional <= 0.0:
            raise ValueError("notional must be positive")
        if self.fixed_rate < 0.0:
            raise ValueError("fixed_rate must be nonnegative")

    @property
    def expiry(self) -> float:
        return self.schedule[0]

    @property
    def maturity(self) -> float:
        return self.schedule[-1]

    @property
    def accruals(self) -> np.ndarray:
        return np.diff(np.asarray(self.schedule))

    @property
    def cashflows(self) -> np.ndarray:
        """Receiver's coefficients of the bonds P(., T_0) .. P(., T_m)."""
        w = np.append(-1.0, self.fixed_rate * self.accruals)
        w[-1] += 1.0
        return w

    @classmethod
    def regular(cls, currency: str, notional: float, fixed_rate: float,
                expiry: float, maturity: float, frequency: int = 1,
                direction: str = "receiver") -> "Swap":
        n = round((maturity - expiry) * frequency)
        if n < 1 or abs(expiry + n / frequency - maturity) > 1e-9:
            raise ValueError("maturity - expiry must be a whole number of periods")
        sched = tuple(expiry + k / frequency for k in range(n + 1))
        phi = {"receiver": 1, "payer": -1}.get(direction)
        if phi is None:
            raise ValueError("direction must be 'receiver' or 'payer'")
        return cls(currency=currency, notional=notional, fixed_rate=fixed_rate,
                   schedule=sched, phi=phi)


@dataclass(frozen=True)
class FxForward:
    """Buys (phi=+1) or sells (phi=-1) one unit of foreign per unit notional at strike."""

    currency: str  # the foreign currency
    notional: float
    strike: float
    maturity: float
    phi: int = 1

    def __post_init__(self):
        if self.maturity <= 0.0:
            raise ValueError("maturity must be positive")
        if self.strike <= 0.0:
            raise ValueError("strike must be positive")
        if self.notional <= 0.0:
            raise ValueError("notional must be positive")
        if self.phi not in (-1, 1):
            raise ValueError("phi must be +1 (buy foreign) or -1 (sell foreign)")


Instrument = Union[Swap, FxForward]


@dataclass(frozen=True)
class Portfolio:
    instruments: tuple[Instrument, ...]

    def __post_init__(self):
        if not self.instruments:
            raise ValueError("portfolio is empty")
        if not all(isinstance(inst, (Swap, FxForward)) for inst in self.instruments):
            raise TypeError("instruments must be swaps or FX forwards")

    @property
    def currencies(self) -> set[str]:
        return {inst.currency for inst in self.instruments}

    @property
    def horizon(self) -> float:
        return max(inst.maturity for inst in self.instruments)

    @property
    def single_swap(self) -> Optional[Swap]:
        """The swap, if the portfolio is exactly one swap; else None."""
        if len(self.instruments) == 1 and isinstance(self.instruments[0], Swap):
            return self.instruments[0]
        return None


_INSTRUMENT_KEYS = {
    "swap": ("type", "currency", "notional", "fixed_rate", "expiry", "maturity",
             "frequency", "direction"),
    "fx_forward": ("type", "currency", "notional", "strike", "maturity", "direction"),
}
_OPTIONAL_KEYS = ("frequency", "direction")
_NUMBER_KEYS = ("notional", "fixed_rate", "expiry", "maturity", "strike")
# each type's directions and their signs phi; the first is the default
_DIRECTIONS = {"swap": {"receiver": 1, "payer": -1},
               "fx_forward": {"buy": 1, "sell": -1}}


def load_portfolio(path) -> Portfolio:
    """Read a portfolio file (YAML list under 'instruments')."""
    doc = load_yaml(path, "portfolio file")
    if not (isinstance(doc, dict) and isinstance(doc.get("instruments"), list)
            and doc["instruments"]):
        raise ValueError(f"portfolio file {path}: expected a non-empty 'instruments' list")
    out: list[Instrument] = []
    for n, entry in enumerate(doc["instruments"]):
        where = f"portfolio file {path}: instrument {n}"
        if not isinstance(entry, dict):
            raise ValueError(f"{where}: expected a mapping, got {entry!r}")
        kind = entry.get("type")
        if kind not in _INSTRUMENT_KEYS:
            raise ValueError(f"{where}: unknown instrument type {kind!r}")
        where += f" ({kind})"
        keys = _INSTRUMENT_KEYS[kind]
        check_keys(where, entry, keys, [k for k in keys if k not in _OPTIONAL_KEYS])
        directions = _DIRECTIONS[kind]
        direction = str(entry.get("direction", next(iter(directions))))
        if direction not in directions:
            raise ValueError(f"{where}: direction must be "
                             f"{' or '.join(map(repr, directions))}, got {direction!r}")
        num = {k: finite(where, k, entry[k]) for k in _NUMBER_KEYS if k in entry}
        if kind == "swap":
            frequency = integer(where, "frequency", entry.get("frequency", 1))
            if frequency < 1:
                raise ValueError(f"{where}: frequency must be at least 1 payment "
                                 f"a year, got {frequency}")
            out.append(Swap.regular(
                currency=str(entry["currency"]), notional=num["notional"],
                fixed_rate=num["fixed_rate"], expiry=num["expiry"],
                maturity=num["maturity"], frequency=frequency, direction=direction))
        else:
            out.append(FxForward(
                currency=str(entry["currency"]), notional=num["notional"],
                strike=num["strike"], maturity=num["maturity"],
                phi=directions[direction]))
    return Portfolio(instruments=tuple(out))


# ---------------------------------------------------------------------------
# swap positivity boundary in terms of the rate driver

def _d_parts(const: np.ndarray, W: np.ndarray, B: np.ndarray, start: np.ndarray):
    """Coefficients c >= 0 and exponents b of the monotone root function of
    each row of a swap's book (`CurrencyBook`: dates x payment dates), with
    c = 0 and b = 0 on every column that is no term of it.

    A row's value is zero iff d(y) := sum_k c_k exp(-y b_k) equals 1; d is
    strictly decreasing, so the root (if the sum is nonempty) is unique.
    Past expiry the live columns are normalised by minus the constant;
    before it, by minus the expiry-date term, the first live column, which
    leaves the sum. Past maturity no column is live: the zero function,
    with d = 0.
    """
    cols = np.arange(W.shape[1])
    first = np.minimum(start, W.shape[1] - 1)[:, None]
    before = (const == 0.0)[:, None]
    term = (cols >= start[:, None]) & ~(before & (cols == start[:, None]))
    norm = np.where(before, -np.take_along_axis(W, first, 1), -const[:, None])
    shift = np.where(before, np.take_along_axis(B, first, 1), 0.0)
    c = np.divide(W, norm, out=np.zeros_like(W), where=term)
    b = np.subtract(B, shift, out=np.zeros_like(B), where=term)
    return c, b


def _ystar_rows(const: np.ndarray, W: np.ndarray, B: np.ndarray,
                start: np.ndarray, sd_y: np.ndarray) -> np.ndarray:
    """The root of every row of a swap's book, each row with its own driver
    SD; `book_ystar` and `ystar` are this on a whole book and on one row.

    Per row, the bracket [-k sd, k sd] doubles from k = 1 to 64 until it
    holds a sign change of log d; a row with none is one-signed, +inf when
    positive everywhere and -inf when never positive. log d is convex and
    decreasing, so Newton from the bracket's left end (log d >= 0) stays at
    or left of the root and rises to it; a row stops when its step is no
    longer positive (rounding has reached the root) or at most
    1e-15 max(1, |root|), after at most 100 steps. The rows still stepping
    move together.
    """
    out = np.full(len(const), -math.inf)
    if W.shape[1] == 0:
        return out
    c, b = _d_parts(const, W, B, start)
    if np.any(c < 0.0):
        raise ValueError("negative weights: root function not monotone")
    # a row with no live cash flow beyond the normaliser: d = 0 < 1 everywhere
    rows = np.flatnonzero((c > 0.0).any(axis=1))
    with np.errstate(divide="ignore"):
        logc = np.log(c[rows])  # -inf off the terms
    b, sd = b[rows], sd_y[rows]

    def log_d(y: np.ndarray, r) -> tuple[np.ndarray, np.ndarray]:
        """log d(y) on rows r, and its terms c_k exp(-y b_k) up to a
        common factor per row."""
        z = logc[r] - y[:, None] * b[r]
        zmax = z.max(axis=1, keepdims=True)
        z -= zmax
        e = np.exp(z, out=z)
        return zmax[:, 0] + np.log(e.sum(axis=1)), e

    every = np.arange(len(rows))
    lo = np.full(len(rows), math.nan)
    k = 1.0
    while k <= 64.0:
        r = np.flatnonzero(np.isnan(lo))
        if not len(r):
            break
        hit = (log_d(-k * sd[r], r)[0] >= 0.0) & (log_d(k * sd[r], r)[0] <= 0.0)
        lo[r[hit]] = -k * sd[r[hit]]
        k *= 2.0
    flat = np.isnan(lo)
    out[rows[flat]] = np.where(log_d(np.zeros(flat.sum()), every[flat])[0] > 0.0,
                               math.inf, -math.inf)

    r = every[~flat]
    root = lo[r]
    live = np.arange(len(r))
    for _ in range(100):
        if not len(live):
            break
        f, e = log_d(root[live], r[live])
        step = f * e.sum(axis=1) / np.einsum("ij,ij->i", b[r[live]], e)
        go = step > 0.0
        root[live[go]] += step[go]
        done = ~go | (step <= 1e-15 * np.maximum(1.0, np.abs(root[live])))
        live = live[~done]
    out[rows[r]] = root
    return out


def book_ystar(book: CurrencyBook, sd_y) -> np.ndarray:
    """Positivity boundary of a swap's book at each of its dates, with the
    rate driver's SD per date: the y with V(u; y) = 0, or +/-inf when
    one-signed (see `ystar`)."""
    return _ystar_rows(book.const, book.W, book.B, book.start,
                       np.asarray(sd_y, dtype=float))


def ystar(row: tuple, sd_y: float) -> float:
    """Positivity boundary of one book row (`CurrencyBook.at`): the y with
    V(u; y) = 0, or +/-inf when one-signed.

    Returns +inf when the value is positive for every y (indicator constant 1
    for a receiver) and -inf when never positive.
    """
    const, W, B = row
    return float(_ystar_rows(np.array([const], dtype=float), np.asarray(W)[None],
                             np.asarray(B)[None], np.zeros(1, dtype=int),
                             np.array([sd_y], dtype=float))[0])


def positive_indicator(s: Swap, y, ystar_value: float):
    """1 where the swap value is nonnegative, from the boundary alone."""
    y = np.asarray(y, dtype=float)
    below = (y <= ystar_value).astype(float)
    out = (1.0 if s.phi == -1 else 0.0) + s.phi * below
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# FX forward: exact pathwise value and single-driver projection

@dataclass(frozen=True)
class FxForwardTerms:
    """Deterministic bundle of one FX forward at one monitoring date."""

    delta: float              # projected forward FX level
    w1: float                 # coefficient of the foreign-bond leg
    w2: float                 # coefficient of the strike leg
    eta: float                # loading of the domestic rate driver
    B_dom: float              # domestic bond loading B_d(u, T)
    ystar: float              # threshold in the domestic driver (+-inf if constant)
    constant_indicator: Optional[int]  # set when |eta| is degenerate


def fx_forward_terms(fwd: FxForward, models: ModelSet, corr: CorrelationMatrix,
                     u: float) -> FxForwardTerms:
    if u > fwd.maturity:
        raise ValueError("monitoring date past forward maturity")
    dom = models.domestic
    f = fwd.currency
    rp_d, rp_f = models.rates[dom], models.rates[f]
    td_u, tf_u = hw_terms(rp_d, 0.0, u), hw_terms(rp_f, 0.0, u)
    td_T, tf_T = hw_terms(rp_d, u, fwd.maturity), hw_terms(rp_f, u, fwd.maturity)
    fx = models.fx[f]
    rho_d_fx = corr.entry(rate_factor(dom), fx_factor(f))
    rho_d_f = corr.entry(rate_factor(dom), rate_factor(f))
    mu_fx = fx_terms(rp_d, rp_f, fx, rho_d_f, rho_d_fx,
                     corr.entry(rate_factor(f), fx_factor(f)), 0.0, u).mu_fx
    w1 = math.exp(mu_fx + tf_T.A_bar - tf_u.mu * tf_T.B)
    p_d = math.exp(td_T.A_bar - td_u.mu * td_T.B)
    w2 = fwd.strike * p_d
    delta = w1 / p_d

    if u <= 0.0:
        # degenerate at the valuation date: value sign is deterministic
        log_m = math.log(fwd.strike / delta)
        return FxForwardTerms(delta=delta, w1=w1, w2=w2, eta=0.0, B_dom=td_T.B,
                              ystar=0.0, constant_indicator=int(log_m <= 0.0))

    sd_yd = math.sqrt(td_u.var_y)
    sig_fx_noise = fx.sigma_fx * math.sqrt(u) / sd_yd
    eta = (rho_d_fx * sig_fx_noise
           - rho_d_f * (sigma_ratio(tf_u.var_Y, td_u.var_y)
                        + tf_T.B * sigma_ratio(tf_u.var_y, td_u.var_y))
           + sigma_ratio(td_u.var_Y, td_u.var_y) + td_T.B)
    log_m = math.log(fwd.strike / delta)
    if abs(eta) < 1e-12:
        return FxForwardTerms(delta=delta, w1=w1, w2=w2, eta=eta, B_dom=td_T.B,
                              ystar=math.inf, constant_indicator=int(log_m <= 0.0))
    return FxForwardTerms(delta=delta, w1=w1, w2=w2, eta=eta, B_dom=td_T.B,
                          ystar=log_m / eta, constant_indicator=None)


def fx_forward_value_projected(terms: FxForwardTerms, y):
    """Value (unit notional, buy direction) under the single-driver projection."""
    y = np.asarray(y, dtype=float)
    out = (terms.w1 * np.exp(-y * (-terms.eta + terms.B_dom))
           - terms.w2 * np.exp(-y * terms.B_dom))
    return float(out) if out.ndim == 0 else out


def fx_forward_positive_indicator(fwd: FxForward, terms: FxForwardTerms, y):
    """1 where the projected forward value (times direction) is nonnegative."""
    y = np.asarray(y, dtype=float)
    if terms.constant_indicator is not None:
        base = np.full(y.shape, float(terms.constant_indicator))
    else:
        ge = (y >= terms.ystar).astype(float)
        sgn = 1.0 if terms.eta > 0.0 else -1.0
        base = sgn * ge + (1.0 if terms.eta < 0.0 else 0.0)
    out = base if fwd.phi == 1 else 1.0 - base
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# pathwise portfolio valuation, one monitoring date at a time
#
# Each currency's instruments merge into one book, whose deterministic terms
# are computed once over all dates.

@dataclass(frozen=True, eq=False)
class CurrencyBook:
    """One currency's instruments as a function of its rate driver: at date
    i, V_i(y) = const[i] + sum_{k >= start[i]} W[i, k] exp(-B[i, k] y) in
    units of `currency`, over the union of their payment dates k. Compared
    by identity."""

    currency: str
    const: np.ndarray      # per date
    W: np.ndarray          # dates x payment dates
    B: np.ndarray          # dates x payment dates
    start: np.ndarray      # per date: the first payment column at or after it

    def at(self, i: int) -> tuple[float, np.ndarray, np.ndarray]:
        """(const, W, B) at date i on its live payment columns; past every
        payment, no column is left."""
        k = self.start[i]
        return self.const[i], self.W[i, k:], self.B[i, k:]

    def since(self, i: int) -> CurrencyBook:
        """The book on its dates from index i on."""
        return CurrencyBook(self.currency, self.const[i:], self.W[i:], self.B[i:],
                            self.start[i:])


def bond_exponentials(B, y, out=None):
    """exp(-B_k y) for each live payment k (rows) and each y (columns),
    written into `out` (live payments x len(y)) when it is given."""
    # the paths on the contiguous axis, so each elementwise pass runs over
    # a whole row of paths
    expo = np.multiply.outer(-B, y, out=out)
    np.exp(expo, out=expo)
    return expo


def book_value(const, W, B, y):
    """The valuation kernel: const + sum_k W_k exp(-B_k y) for each y."""
    return const + W @ bond_exponentials(B, y)


def book_groups(books) -> list[list[CurrencyBook]]:
    """The distinct books of `books`, grouped by their loadings array B, one
    object where `models.term` built the loadings from equal inputs."""
    groups: dict[int, list[CurrencyBook]] = {}
    for book in dict.fromkeys(books):
        groups.setdefault(id(book.B), []).append(book)
    return list(groups.values())


def _block_shape(groups, n_paths: int) -> tuple[int, int]:
    """The most live payments of `groups` and their block width
    (`mc.value_block`)."""
    payments = max(g[0].B.shape[1] - g[0].start[0] for g in groups)
    return payments, value_block(payments, n_paths)


def buffer_rows(groups, n_paths: int) -> int:
    """The rows of paths of `book_buffer` for `groups`: one block of bond
    exponentials of their most live payments, rounded up to whole rows,
    then one value row per book."""
    payments, width = _block_shape(groups, n_paths)
    return -(-payments * width // n_paths) + sum(map(len, groups))


def book_buffer(groups, n_paths: int) -> tuple:
    """`book_rows`' buffer for `groups`: one allocation of `buffer_rows`
    rows of paths, as (its first rows, flat, for a block of bond
    exponentials; its last rows, one value row per book; the pass's
    blocks of paths, each as (columns, width)). A pass allocates it once:
    no freed per-date matrix then moves glibc's mmap threshold (after
    which later matrices come from the heap)."""
    width = _block_shape(groups, n_paths)[1]
    buffer = np.empty((buffer_rows(groups, n_paths), n_paths))
    first = len(buffer) - sum(map(len, groups))
    blocks = [(slice(j, j + width), min(width, n_paths - j)) for j in range(0, n_paths, width)]
    return buffer[:first].reshape(-1), list(buffer[first:]), blocks


def book_rows(groups, st: DateState, buffer: tuple) -> dict[CurrencyBook, np.ndarray]:
    """The local-currency value row at the state's date of each book of
    `groups` (`book_groups`), by book, in `buffer` (`book_buffer`), valid
    until the next call.

    A date is valued on column blocks of paths of one width per pass
    (`mc.value_block` of the groups' most live payments), so that the
    (payments,) @ (payments, width) product stays on one OpenBLAS thread
    and the block in L2; below that width a row is one block. Each row
    equals `book_value` on the book's live columns, bit for bit. The
    books of a group share each block's bond exponentials."""
    expo_block, value_rows, blocks = buffer
    rows, i, out = {}, st.index, iter(value_rows)
    for group in groups:
        y = st.y_r[group[0].currency]
        parts = [(book, *book.at(i), next(out)) for book in group]
        B = parts[0][3]
        for cols, width in blocks:
            block = expo_block[:len(B) * width].reshape(len(B), width)
            expo = bond_exponentials(B, y[cols], block)
            for _, _, W, _, row in parts:
                np.matmul(W, expo, out=row[cols])
        for book, const, _, _, row in parts:
            row += const
            rows[book] = row
    return rows


def _book_terms(ccy: str, p: Portfolio, models: ModelSet,
                dates: np.ndarray) -> Optional[CurrencyBook]:
    """The book of currency `ccy` on `dates`, or None if nothing pays in it:
    its swaps and its FX forwards' foreign legs, and in the domestic book
    every forward's strike leg."""
    insts = tuple(inst for inst in p.instruments
                  if inst.currency == ccy
                  or (isinstance(inst, FxForward) and ccy == models.domestic))
    if not insts:
        return None
    return term(_book, ccy, models.domestic, insts, models.rates[ccy], dates)


def _book(ccy: str, domestic: str, insts: tuple, rp: Hw1fParams,
          dates: np.ndarray) -> CurrencyBook:
    """The book of the instruments `insts`, each paying in `ccy`, under the
    rate model `rp`."""
    times, coefs = [], []
    const = np.zeros(len(dates))
    for inst in insts:
        if isinstance(inst, Swap):
            pays, coef = inst.schedule, inst.phi * inst.notional * inst.cashflows
            # past expiry and up to maturity, the expiry payment is a constant
            const[(dates > inst.expiry) & (dates <= inst.maturity)] += coef[0]
        else:
            leg = 1.0 if ccy == inst.currency else -inst.strike
            pays, coef = (inst.maturity,), [inst.phi * inst.notional * leg]
        times.append(pays)
        coefs.append(coef)
    pay, col = np.unique(np.concatenate(times), return_inverse=True)
    coef = np.bincount(col, weights=np.concatenate(coefs))
    # the bonds P(u, T) on the (date, payment date) grid, whose exponents
    # are B(u, T) and A_bar(u, T) - mu(0, u) B(u, T); payments already made
    # collapse onto u
    mu = term(hw_terms, rp, 0.0, dates).mu
    bond = hw_terms(rp, dates[:, None], np.maximum(pay, dates[:, None]))
    B, start = term(_loadings, ccy, rp.a, pay, dates)
    disc = np.exp(bond.A_bar - mu[:, None] * B)
    return CurrencyBook(ccy, const, coef * disc, B, start)


def _loadings(ccy: str, a: float, pay: np.ndarray, dates: np.ndarray) -> tuple:
    """(B, start) of a book of currency `ccy` paying at `pay` on `dates` under
    mean reversion `a`: `hw_terms`' B(u, T) on the (date, payment) grid,
    and each date's first payment column at or after it."""
    t = dates[:, None]
    return bfac(a, np.maximum(pay, t) - t), np.searchsorted(pay, dates, side="left")


def swap_book(s: Swap, rp: Hw1fParams, dates) -> CurrencyBook:
    """The book of the one swap `s` on `dates`, under its currency's rate
    model `rp`: the value function that every single-swap closed form reads."""
    models = ModelSet(s.currency, {s.currency: rp}, fx={}, credit={})
    return _book_terms(s.currency, Portfolio((s,)), models,
                       np.asarray(dates, dtype=float))


class PortfolioValuation:
    """Pathwise portfolio values in the domestic currency, date by date,
    from one `CurrencyBook` per currency.

    The books are built through `models.term` from a model set cut down to
    the rate models of the portfolio's currencies, with no FX or credit
    models, so no other input can reach them.
    """

    def __init__(self, p: Portfolio, models: ModelSet, dates):
        for ccy in sorted(p.currencies - {models.domestic}):
            if ccy not in models.fx:
                raise KeyError(f"no FX model for {ccy}")
        ccys = sorted(p.currencies | {models.domestic})
        rates = {c: models.rates[c] for c in ccys}
        dates = np.asarray(dates, dtype=float)
        self.models = ModelSet(models.domestic, rates, fx={}, credit={})
        books = (_book_terms(c, p, self.models, dates) for c in ccys)
        self.books = [b for b in books if b is not None]
        self.groups = book_groups(self.books)

    def row(self, st: DateState, local_rows: dict) -> np.ndarray:
        """Portfolio value per path at the state's date: the books in currency
        order, each times its FX level if foreign, summed from zeros.
        `local_rows`, this date's local-currency book rows by book
        (`book_rows`), holds every book of this valuation."""
        out = np.zeros(len(st.Y_r[st.domestic]))
        for book in self.books:
            local = local_rows[book]
            if book.currency != st.domestic:
                local = local * np.exp(st.ln_fx[book.currency])
            out += local
        return out

    def valued_pass(self, stream: PathStream,
                    rows: int = 0) -> Iterator[tuple[DateState, np.ndarray]]:
        """Each date's state of one pass of `stream` (`mc.shared_pass`) and
        its value row, valued in one `book_buffer`, which the pass's memory
        check counts with `row`'s ROW_TEMPORARIES and the `rows` rows of
        paths its caller declares."""
        states = shared_pass([stream], buffer_rows(self.groups, stream.n_paths)
                             + ROW_TEMPORARIES + rows)
        buffer = book_buffer(self.groups, stream.n_paths)
        return ((st, self.row(st, book_rows(self.groups, st, buffer))) for (st,) in states)


# The rows of paths that `PortfolioValuation.row` allocates: its sum, and
# for a foreign book the FX level and its product with the book's row.
ROW_TEMPORARIES = 3


def value_matrix(p: Portfolio, models: ModelSet, cube: ScenarioCube) -> np.ndarray:
    """Portfolio values for every (date, path) pair of a cube."""
    valuation = PortfolioValuation(p, models, cube.dates)
    out = np.empty((len(cube.dates), cube.n_paths))
    buffer = book_buffer(valuation.groups, cube.n_paths)
    for i in range(len(cube.dates)):
        st = cube.state(i)
        out[i] = valuation.row(st, book_rows(valuation.groups, st, buffer))
    return out
