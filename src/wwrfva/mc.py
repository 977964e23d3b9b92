"""Correlated path engine.

The market drivers are jointly Gaussian over any monitoring interval, so
each interval draws them in one step from their exact joint law: per
currency the rate noise's stochastic integral I and that of its integral
J, and per FX factor its Brownian increment, `2 n_ccy + n_fx` normals in
all. The credit intensities take `substeps_per_interval` full-truncation
Euler steps per interval with exact mean reversion in the drift; their
Brownian increments are drawn conditionally on the interval's market
vector, `substeps x n_credit` more normals. The benchmarked portfolio
thus draws 16 normals per interval in full mode and 8 in base mode.

Factor order is market first (rates, then FX), credit last. The market
vector's Cholesky factor is taken from the market block alone and its
normals come from their own generator, so a base-mode and a full-mode
simulation with the same seed, at any substep count, share bit-identical
rate and FX paths. Credit draws come from a dedicated second stream and
are only consumed in full mode. `run_fva` relies on this: it simulates
once and reads the market drivers of a full simulation where a
credit-free run would read a base one.

`PathStream` is the simulation: it yields one monitoring date's drivers
at a time, so a run that consumes them date by date holds no array that
grows with the number of dates. `shared_pass` runs one simulation for
several streams that hold one noise recursion, such as the legs of a
curve sensitivity, and yields each stream's own states. `simulate`
collects the stream into a `ScenarioCube`, which holds every date at once;
it serves the `export-cube` verb, perfbench and the cube forms' own unit
tests. Every run, the `bounds` verb and the acceptance tests read the
stream itself.

`shared_pass` is the front door of every pass and its one memory check:
at the call, before anything path-sized is allocated or any normal is
drawn, it counts the stream state, the derived rows of each further
overlay and the rows of paths its caller declares, which the caller then
allocates once (`fva._run_pass`, `PortfolioValuation.valued_pass`,
`simulate`'s cube).

Each interval runs in place on rows that the pass allocates once, in the
evaluation order of the update formulas, so it gives their values bit
for bit. Every BLAS product of a pass runs on column blocks of paths
small enough for OpenBLAS to keep it on one thread, so it does not
compete with the draw worker for a core: the Cholesky products here
(`_correlate`), and a date's valuation (`instruments.book_rows`) in
blocks of `value_block` paths, VALUE_BLOCK_ELEMENTS doubles of bond
exponentials each. At default BLAS threads the valuation's second
thread made a full-size run 1.5-1.9 times slower.

The standard normals are drawn ahead on a one-thread
`concurrent.futures.ThreadPoolExecutor`: while the stream runs one block
of monitoring intervals, the executor's worker fills the next block's
draws into a second buffer (numpy's generators release the GIL while
they fill). A block holds as many intervals as fit DRAW_SLOT_ELEMENTS
normals, at least one: at small path counts one hand-off serves several
dates. One worker runs the fills in the order they were submitted, and
a fill draws its intervals in turn, so the paths are bit for bit those
of a serial loop that draws each interval's market and then its credit
normals in turn.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

import numpy as np

from .models import (Hw1fParams, ModelSet, bfac, cir_means, fx_terms, hw_terms,
                     interval_covariance, term)


# ---------------------------------------------------------------------------
# correlation

def rate_factor(ccy: str) -> str:
    return f"r_{ccy}"


def fx_factor(ccy: str) -> str:
    return f"fx_{ccy}"


def credit_factor(entity: str) -> str:
    return f"lambda_{entity}"


@dataclass(frozen=True)
class CorrelationMatrix:
    labels: tuple[str, ...]
    matrix: np.ndarray

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown factor {label}") from None

    def entry(self, a: str, b: str) -> float:
        return float(self.matrix[self.index(a), self.index(b)])


def build_correlation(labels, entries: dict[str, float]) -> CorrelationMatrix:
    """Build and validate the factor correlation matrix.

    `entries` maps "factor_a:factor_b" to a correlation; unlisted pairs are 0.
    A pair may be listed once, in either order (`pair_key` finds it).
    """
    labels = tuple(labels)
    n = len(labels)
    idx = {lab: i for i, lab in enumerate(labels)}
    mat = np.eye(n)
    seen: dict[frozenset, str] = {}
    for key, rho in entries.items():
        try:
            a, b = key.split(":")
        except ValueError:
            raise ValueError(f"correlation key {key!r} must be 'factor_a:factor_b'") from None
        if a not in idx or b not in idx:
            raise ValueError(f"correlation key {key!r} names an undeclared factor")
        if a == b:
            raise ValueError(f"correlation key {key!r} pairs a factor with itself")
        pair = frozenset((a, b))
        if pair in seen:
            raise ValueError(f"correlation keys {seen[pair]!r} and {key!r} "
                             "name the same factor pair")
        seen[pair] = key
        if not -1.0 <= rho <= 1.0:
            raise ValueError(f"correlation {key} = {rho} outside [-1, 1]")
        mat[idx[a], idx[b]] = rho
        mat[idx[b], idx[a]] = rho
    li, lc = idx.get(credit_factor("I")), idx.get(credit_factor("C"))
    if li is not None and lc is not None and mat[li, lc] != 0.0:
        raise ValueError("the two credit factors must be uncorrelated")
    _cholesky(mat, "correlation matrix")
    return CorrelationMatrix(labels=labels, matrix=mat)


def pair_key(entries: dict[str, float], key: str) -> str:
    """The key under which `entries` lists the factor pair that `key`
    ("a:b") names: `key` or "b:a"; `key` for a pair that is not listed."""
    a, _, b = key.partition(":")
    flipped = f"{b}:{a}"
    return flipped if key not in entries and flipped in entries else key


def _cholesky(C: np.ndarray, what: str) -> np.ndarray:
    """Cholesky factors of a stack of covariance matrices that are positive
    semi-definite to rounding: where one is singular, of C plus 1e-12 of
    its variances on the diagonal."""
    try:
        return np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        var = np.diagonal(C, axis1=-2, axis2=-1)
        try:
            return np.linalg.cholesky(C + 1e-12 * var[..., None] * np.eye(var.shape[-1]))
        except np.linalg.LinAlgError:
            raise ValueError(f"{what} is not positive semi-definite") from None


def factor_labels(models: ModelSet) -> list[str]:
    """Canonical factor order: domestic rate, foreign rates, FX, credit."""
    labels = [rate_factor(models.domestic)]
    labels += [rate_factor(c) for c in models.foreign_currencies]
    labels += [fx_factor(c) for c in models.fx]
    labels += [credit_factor(z) for z in models.credit]
    return labels


# ---------------------------------------------------------------------------
# grid and cube

@dataclass(frozen=True)
class SimGrid:
    monitoring_dates: np.ndarray
    substeps_per_interval: int = 4

    def __post_init__(self):
        d = np.asarray(self.monitoring_dates, dtype=float)
        if len(d) < 2:
            raise ValueError(f"a grid needs at least two monitoring dates, got {len(d)}")
        if d[0] != 0.0:
            raise ValueError("monitoring dates must start at 0")
        if np.any(np.diff(d) <= 0.0):
            raise ValueError("monitoring dates must be strictly increasing")
        if self.substeps_per_interval < 1:
            raise ValueError("substeps_per_interval must be >= 1")
        object.__setattr__(self, "monitoring_dates", d)

    @classmethod
    def regular(cls, dates_per_year: int, horizon: float,
                substeps_per_interval: int = 4) -> "SimGrid":
        if dates_per_year < 1 or horizon <= 0.0:
            raise ValueError("need dates_per_year >= 1 and horizon > 0")
        n = round(horizon * dates_per_year)
        dates = np.linspace(0.0, horizon, n + 1)
        return cls(monitoring_dates=dates, substeps_per_interval=substeps_per_interval)

    @property
    def n_dates(self) -> int:
        return len(self.monitoring_dates)


@dataclass
class DateState:
    """The simulated drivers at one monitoring date, one entry per path.

    The fields are a ScenarioCube's slabs at date `index`: rate drivers and
    log-FX per currency, and in full mode the investor's intensity driver
    and both integrated credit drivers.
    """

    index: int
    domestic: str
    h_dom: float            # deterministic discount-like factor at this date
    y_r: dict[str, np.ndarray]
    Y_r: dict[str, np.ndarray]
    ln_fx: dict[str, np.ndarray]
    y_I: Optional[np.ndarray] = None
    Y_I: Optional[np.ndarray] = None
    Y_C: Optional[np.ndarray] = None

    @cached_property
    def discount(self) -> np.ndarray:
        """H_r(0,u) * exp(-Y_r(0,u)) for the domestic rate, per path."""
        return self.h_dom * np.exp(-self.Y_r[self.domestic])


@dataclass
class ScenarioCube:
    """Per-factor, per-date, per-path simulated drivers (date index 0 = now)."""

    mode: str
    seed: int
    dates: np.ndarray
    n_paths: int
    domestic: str
    y_r: dict[str, np.ndarray]
    Y_r: dict[str, np.ndarray]
    ln_fx: dict[str, np.ndarray]
    h_dom: np.ndarray  # deterministic discount-like factor per date
    y_I: Optional[np.ndarray] = None
    Y_I: Optional[np.ndarray] = None
    Y_C: Optional[np.ndarray] = None
    truncated_fraction: float = 0.0
    credit_seconds: float = 0.0

    def state(self, date_index: int) -> DateState:
        """The cube's drivers at one date, as views of its slabs."""
        if not 0 <= date_index < len(self.dates):
            raise IndexError("date index out of range")
        i = date_index
        credit = (None if a is None else a[i] for a in (self.y_I, self.Y_I, self.Y_C))
        return DateState(i, self.domestic, self.h_dom[i],
                         {c: a[i] for c, a in self.y_r.items()},
                         {c: a[i] for c, a in self.Y_r.items()},
                         {c: a[i] for c, a in self.ln_fx.items()}, *credit)


def _cube_from_slabs(slabs: dict[str, np.ndarray], **fields) -> ScenarioCube:
    """A cube from its slabs named as `_slabs` names them."""
    def group(field):
        return {k.split(":")[1]: v for k, v in slabs.items() if k.startswith(field + ":")}
    return ScenarioCube(y_r=group("y_r"), Y_r=group("Y_r"), ln_fx=group("ln_fx"),
                        y_I=slabs.get("y_I"), Y_I=slabs.get("Y_I"),
                        Y_C=slabs.get("Y_C"), **fields)


def _slabs(x) -> dict[str, np.ndarray]:
    """The named driver arrays of a cube (date x path slabs) or of a date
    state (path rows), in the order the cube file stores them."""
    out = {}
    for field in ("y_r", "Y_r", "ln_fx"):
        out.update({f"{field}:{c}": a for c, a in getattr(x, field).items()})
    for name in ("y_I", "Y_I", "Y_C"):
        if getattr(x, name) is not None:
            out[name] = getattr(x, name)
    return out


# ---------------------------------------------------------------------------
# simulation

def physical_memory_bytes() -> int:
    """Physical memory of the host, the ceiling of any one array set."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def require_memory(n_bytes: int, what: str) -> None:
    """Refuse, before allocating it, an array set larger than physical memory."""
    have = physical_memory_bytes()
    if n_bytes > have:
        raise ValueError(f"{what} needs {n_bytes / 1e6:.1f} MB, more than the "
                         f"{have / 1e6:.1f} MB of physical memory")


def _generators(seed: int) -> list[np.random.Generator]:
    """The market and the credit normal streams of a seed: SFC64, which
    draws a normal in about a fifth less time than numpy's default PCG64."""
    return [np.random.Generator(np.random.SFC64(s))
            for s in np.random.SeedSequence(seed).spawn(2)]


# OpenBLAS runs a product on one thread while m * n * k is at most this
# (its gemm threading threshold); a second thread would compete with the
# draw worker for a core.
BLAS_ONE_THREAD = 2 ** 18

# The doubles of one valuation block: a date's bond exponentials and their
# (payments,) @ (payments, width) product run on column blocks of paths,
# small enough that OpenBLAS 0.3.31 keeps the product on one thread (it
# took a second one past about 450,000 payments x paths) and the block
# stays in L2 (`scripts/value_block_probe.py` re-checks it).
VALUE_BLOCK_ELEMENTS = 2 ** 17


def value_block(payments: int, n_paths: int) -> int:
    """The paths of one valuation block: the largest power of two w with
    payments x w at most VALUE_BLOCK_ELEMENTS, at least one and at most
    `n_paths`, so that below it a row is one block."""
    w = 1 << max(0, (VALUE_BLOCK_ELEMENTS // max(1, int(payments))).bit_length() - 1)
    return max(1, min(w, n_paths))


# numpy's ufunc buffer, in elements, during a per-date pass. An op with a
# broadcast operand, such as a (rows, 1) coefficient column or the bond
# exponents' outer product, runs through this buffer; on rows of fewer than
# about 4k paths numpy's default of 8,192 makes such an op 2-5 times
# slower, with the same bits (scripts/ufunc_buffer_probe.py). Casting ops
# slow down below about 1,024.
PASS_UFUNC_BUFFER = 1024


@contextmanager
def pass_numpy_state() -> Iterator[None]:
    """numpy's state during a per-date pass: a ufunc buffer of
    PASS_UFUNC_BUFFER elements, and no overflow or invalid-value warnings,
    as the pass's finite checks stand for them (`exposure_not_finite`).

    A generator iterated inside the block runs with it too. The previous
    buffer size is restored explicitly: numpy 1.x's errstate does not.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        old = np.setbufsize(PASS_UFUNC_BUFFER)
        try:
            yield
        finally:
            np.setbufsize(old)


def exposure_not_finite(dates: np.ndarray, i: int) -> ValueError:
    """The error of a run whose exposure is first not finite at
    monitoring date i."""
    return ValueError(f"the exposure profile is not finite at date "
                      f"{float(dates[i])!r} (monitoring date {i}, the first "
                      "such): the model parameters overflow the simulation "
                      "or the valuation")


def _correlate(L: np.ndarray, z: np.ndarray, out: np.ndarray) -> None:
    """out = L @ z, on column blocks of z small enough for one BLAS thread."""
    width = max(1, BLAS_ONE_THREAD // L.size)
    for j in range(0, z.shape[1], width):
        np.matmul(L, z[:, j:j + width], out=out[:, j:j + width])


# The normals one slot of the draw ring holds: a slot takes as many
# consecutive intervals as fit, at least one, so that where an interval
# draws at most half as many, one hand-off to the draw worker serves
# several dates (scripts/tile_probe.py). At 10k paths and more a slot is
# one interval.
DRAW_SLOT_ELEMENTS = 65_536


def draw_block(interval_rows: int, n_paths: int, n_intervals: int) -> int:
    """The intervals one slot of the draw ring holds: as many as fit
    DRAW_SLOT_ELEMENTS normals, at least one and at most the grid's."""
    return max(1, min(DRAW_SLOT_ELEMENTS // (interval_rows * n_paths), n_intervals))


# What a pass allocates besides its rows: the draw worker's thread and
# futures, array headers, date states and the interpreter's free lists;
# 28-42 KB under tracemalloc on CPython 3.11, whatever the path count.
PASS_OBJECT_BYTES = 64 * 1024


class PathStream:
    """All drivers simulated jointly under the domestic risk-neutral measure,
    one monitoring date at a time.

    Each monitoring interval [t, t + D] takes the exact joint Gaussian
    transition of the market drivers. With the interval vector V of
    `models.interval_covariance` drawn as V = L_VV z_V from 2 n_ccy + n_fx
    normals z_V:
        y <- e^{-a D} y + sigma I,   Y <- Y + B(D) y + sigma J   (old y),
        w_fx <- w_fx + dW_fx.
    In full mode the credit states take `substeps_per_interval` Euler steps
    of length h = D / substeps with full truncation, a drift with exact
    mean reversion and a trapezoidal integral:
        x <- x + (theta - x+) (1 - e^{-a h}) + sigma sqrt(x+ h) eps_k.
    The increments eps are drawn conditionally on V from substeps x credit
    entities more normals z_C, as eps = L_EV z_V + L_EE z_C with
    L_EV = C_EV L_VV^{-T} and L_EE = chol(C_EE - L_EV L_EV^T): the credit
    rows of the joint covariance's Cholesky factor. One set of factors is
    built per distinct interval length, with the shock scales sigma (rates)
    and sigma sqrt(h) (credit) folded into its rows. L_VV is the factor of
    the market block alone, so the market paths are the same in base and
    full mode and at every substep count.
    The state of each process is one stacked (n_factors, n_paths) array.

    A stream has two parts, each built through `models.term` from only the
    inputs it reads. The noise recursion (`noise`) draws the rate noise `y`,
    its integral `Y`, the FX Brownian level `w_fx`, and in full mode the
    credit state and its integral. The overlay (`overlay`) turns that state
    into a date's drivers: the domestic discount-like factor, the FX means
    and vols, and in full mode the credit means and mean integrals.

    Iterating runs the simulation once from `seed` and yields one DateState
    per monitoring date, date 0 first; a second iteration repeats it. Its
    rate drivers are the live simulation state: a yielded state is valid
    only until the next one is requested, because the integrated drivers
    `Y_r` are updated in place and the rate noise `y_r` lives in one of two
    buffers that the intervals write in turn. Memory therefore scales with
    paths x factors, not with dates: `state_bytes` counts the rows a pass
    allocates, once, for its updates, and the derived rows of the state it
    builds and the one its consumer holds; `shared_pass` checks it when
    the iteration starts, not when the stream is built. After the last
    date, `truncated_fraction` and `credit_seconds` describe the pass.

    Each pass owns a `ThreadPoolExecutor` with one worker that draws the
    standard normals into a ring of two preallocated slots of `block`
    intervals (`draw_block`), each interval's rows
    (2 n_ccy + n_fx + substeps x credit entities, paths): z_V from the
    market generator, then z_C from the credit generator, interval by
    interval. The first two blocks are submitted before date 0 is yielded;
    once a block's last interval has run, the block two ahead is submitted
    into the slot just read. The worker only fills buffers; the Cholesky
    products, the process updates and the finite checks stay in the
    iterating thread, in the serial order, so the yielded states are bit
    for bit those of drawing each interval in turn. However the iteration
    ends (last date, `close()`, a `break`, an exception in the consumer or
    in the stream), pending fills are cancelled and the worker is joined;
    an exception raised in the worker is re-raised in the consumer when it
    reads that block's result, at the block's first date.

    `credit_seconds` is the CPU time of the iterating thread in the credit
    Euler steps (not of OpenBLAS's own threads) plus that of the worker
    filling the credit draws: a wall clock would also count each thread's
    waits for the GIL or a core while the other runs. The fill overlaps
    the loop, so the sum may exceed the credit stage's share of wall time;
    it stands for what the credit simulation costs when run serially.
    """

    def __init__(self, models: ModelSet, corr: CorrelationMatrix, grid: SimGrid,
                 n_paths: int, seed: int, mode: str = "base"):
        if mode not in ("base", "full"):
            raise ValueError("mode must be 'base' or 'full'")
        if n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        labels = factor_labels(models)
        if list(corr.labels) != labels:
            raise ValueError(f"correlation labels {corr.labels} do not match models {labels}")
        self.models, self.corr, self.grid = models, corr, grid
        self.n_paths, self.seed, self.mode = n_paths, seed, mode
        self.dates = dates = grid.monitoring_dates
        dom = models.domestic
        self.ccys = [dom] + models.foreign_currencies
        self.fx_ccys = list(models.fx)
        self.entities = list(models.credit) if mode == "full" else []
        n_ccy, n_fx, n_cred = len(self.ccys), len(self.fx_ccys), len(self.entities)
        n_mkt, nsub = n_ccy + n_fx, grid.substeps_per_interval
        self.n_V = n_V = 2 * n_ccy + n_fx
        n_E = nsub * n_cred

        rates = [models.rates[c] for c in self.ccys]
        credit = [models.credit[z] for z in self.entities]
        x0_c, a_c, theta_c, sigma_c = (np.array([getattr(p, f) for p in credit])[:, None]
                                       for f in ("x0", "a", "theta", "sigma"))
        self.noise = term(_noise_terms, (tuple(labels), mode, n_paths, seed),
                          np.array([p.a for p in rates]), np.array([p.sigma for p in rates]),
                          corr.matrix[:n_mkt + n_cred, :n_mkt + n_cred], n_fx, dates, nsub,
                          a_c, sigma_c, x0_c, theta_c)
        # the overlay: FX log level = mean + Y_dom - Y_ccy + sigma_fx * Brownian
        # level; credit centred by the closed-form mean and mean integral. The
        # credit curves do not reach it, so a credit-curve bump shares it.
        self.overlay = term(
            _overlay, models.rates[dom],
            tuple((models.rates[c], models.fx[c],
                   corr.entry(rate_factor(dom), rate_factor(c)),
                   corr.entry(rate_factor(dom), fx_factor(c)),
                   corr.entry(rate_factor(c), fx_factor(c))) for c in self.fx_ccys),
            tuple(self.ccys.index(c) for c in self.fx_ccys),
            tuple((z, p.x0, p.a, p.theta) for z, p in zip(self.entities, credit)), dates)
        (self.h_dom, self.fx_rows, self.sigma_fx, self.mu_fx, self.M_cred,
         self.mu_I) = self.overlay

        # rows alive at once, the pass's own allocated once: the process
        # states y (and its successor), Y and the FX level; in full mode the
        # credit state, its floor and its integral; the interval's market
        # shocks V, one substep's credit shocks and one credit scratch row;
        # and the draw ring, two blocks of intervals of standard normals.
        # Then the derived rows (log-FX, credit drivers, investor's driver
        # and the discount its consumer derives) of two dates, the one being
        # built and the one its consumer still holds; a shared pass holds
        # them once per distinct overlay. Plus a boolean mask row per path.
        self.overlay_rows = 2 * (n_fx + n_cred + ("I" in self.entities) + 1)
        self.block = draw_block(n_V + n_E, n_paths, len(dates) - 1)
        rows = (3 * n_ccy + n_fx) + 3 * n_cred + (n_V + 2 * n_cred) \
            + 2 * self.block * (n_V + n_E) + self.overlay_rows
        self.state_bytes = (8 * n_paths * rows + n_paths * max(n_ccy, n_fx, n_cred)
                            + PASS_OBJECT_BYTES)
        # the cube's slabs: y and Y per currency, log-FX, and in full mode
        # the investor's driver plus the integrated I and C drivers
        self.cube_rows = len(dates) * (2 * n_ccy + n_fx + 2 * ("I" in self.entities)
                                       + ("C" in self.entities))
        self.truncated_fraction = 0.0
        self.credit_seconds = 0.0

    def __iter__(self) -> Iterator[DateState]:
        return (st for (st,) in shared_pass([self]))


def _noise_terms(pass_inputs: tuple, a_r, sigma_r, R, n_fx: int, dates, nsub: int,
                 a_c, sigma_c, x0_c, theta_c) -> tuple:
    """What a stream's noise recursion reads on a grid: per interval the index
    of its length, per distinct length the rates' decay and B factors, the
    market and credit Cholesky rows scaled to their shocks, the substep and
    the credit reversion, then x0_c and theta_c. `pass_inputs` (labels,
    mode, paths, seed) is not read; it tells apart streams whose passes differ."""
    n_V = 2 * len(a_r) + n_fx
    # interval i - 1 (ending at date i) has length lengths[which[i - 1]]
    lengths, which = np.unique(np.diff(dates), return_inverse=True)
    C = interval_covariance(a_r, R, n_fx, lengths, nsub)
    decay = np.exp(-a_r[:, None] * lengths[:, None, None])
    B_r = np.asarray(bfac(a_r[:, None], lengths[:, None, None]))
    # L_VV from V's block alone, its rows scaled to the shocks (sigma I,
    # sigma J, dW_fx); E's rows of the joint factor are (L_EV, L_EE)
    L_V = np.r_[sigma_r, sigma_r, np.ones(n_fx)][:, None] \
        * _cholesky(C[:, :n_V, :n_V], "interval covariance")
    h = lengths / nsub
    revert = -np.expm1(-a_c * h[:, None, None])
    # E's rows scaled to the credit shocks sigma_c sqrt(h) eps
    shock = np.tile(sigma_c[:, 0], nsub) * np.sqrt(h)[:, None]
    L_E = _cholesky(C, "interval covariance")[:, n_V:] * shock[..., None]
    return which, decay, B_r, L_V, L_E, h, revert, x0_c, theta_c


def _overlay(dom: Hw1fParams, fx: tuple, fx_rows: tuple, credit: tuple, dates) -> tuple:
    """A stream's overlay on `dates` from the domestic rate model, per FX
    currency its `fx_terms` inputs, the FX currencies' rate rows and per
    credit entity its name, x0, a and theta; only the investor's intensity
    itself reaches the state, so only its mean is kept."""
    means = {z: cir_means(x0, a, theta, dates) for z, x0, a, theta in credit}
    return (term(hw_terms, dom, 0.0, dates).H, fx_rows,
            np.array([fp.sigma_fx for _, fp, *_ in fx])[:, None],
            np.array([term(fx_terms, dom, rp, fp, *rhos, 0.0, dates).mu_fx
                      for rp, fp, *rhos in fx]).reshape(len(fx), len(dates)),
            np.array([M for _, M in means.values()]).reshape(len(credit), len(dates)),
            means["I"][0] if "I" in means else None)


def shared_pass(streams, rows: int = 0,
                what: str = "the simulation state") -> Iterator[tuple[DateState, ...]]:
    """One simulation pass for streams that hold one `noise` object: per
    monitoring date, a tuple with one DateState per stream, in their order.

    The call is the pass's one memory check: before anything is drawn, it
    refuses (as `what`) a pass whose `state_bytes`, derived rows of each
    further overlay and the `rows` rows of paths its caller allocates
    after the call exceed physical memory.

    The noise recursion runs once; each distinct overlay object then
    evaluates its own log-FX expression, finite check and credit drivers
    from the shared state, in the order a stream of its own would, so every
    stream's states are bitwise those it yields alone. Streams that hold
    one overlay object get the same DateState object. Afterwards each
    stream's `truncated_fraction` and `credit_seconds` describe the pass.
    """
    streams = list(streams)
    s0 = streams[0]
    if any(s.noise is not s0.noise for s in streams[1:]):
        raise ValueError("streams with different simulation inputs cannot share a pass")
    further = len({id(s.overlay) for s in streams}) - 1
    require_memory(s0.state_bytes + 8 * s0.n_paths * (s0.overlay_rows * further + rows), what)
    return _pass(streams)


def _pass(streams: list) -> Iterator[tuple[DateState, ...]]:
    """`shared_pass`'s states, once its memory is checked."""
    s0 = streams[0]
    # stream k's states are those of the first stream of its overlay, first[k]
    ids = [id(s.overlay) for s in streams]
    first = [ids.index(k) for k in ids]
    n_paths = s0.n_paths

    dom, ccys, fx_ccys, entities = s0.models.domestic, s0.ccys, s0.fx_ccys, s0.entities
    n_ccy, n_fx, n_cred = len(ccys), len(fx_ccys), len(entities)
    n_V = s0.n_V
    n_dates = len(s0.dates)
    nsub = s0.grid.substeps_per_interval
    which, decay, B_r, L_V, L_E, h, revert, x0_c, theta_c = s0.noise
    k_I = entities.index("I") if "I" in entities else None

    # every row the updates write is allocated here, once per pass; each
    # update runs in place, in the evaluation order of the formula above it
    y, y_new = np.zeros((n_ccy, n_paths)), np.empty((n_ccy, n_paths))  # OU noise
    Y = np.zeros((n_ccy, n_paths))          # integral of y
    w_fx = np.zeros((n_fx, n_paths))        # Brownian level of the FX noise
    V = np.empty((n_V, n_paths))            # the interval's market shocks
    sI, sJ, dW_fx = V[:n_ccy], V[n_ccy:2 * n_ccy], V[2 * n_ccy:]
    x_cred = np.repeat(x0_c, n_paths, axis=1)
    xp_cred = np.maximum(x_cred, 0.0)       # its floor, carried across substeps
    intx_cred = np.zeros((n_cred, n_paths))
    eps_cred = np.empty((n_cred, n_paths))  # a substep's credit shocks, then floor
    tmp = np.empty((n_cred, n_paths))       # credit scratch
    mask = np.empty((max(n_ccy, n_fx, n_cred), n_paths), dtype=bool)

    def state(o, i):
        """Overlay o's DateState at date i."""
        # ln_fx = mu_fx + Y[0] - Y[fx_rows] + sigma_fx * w_fx, its first three
        # terms summed in dW_fx, free between intervals
        np.add(o.mu_fx[:, i:i + 1], Y[0], out=dW_fx)
        for r, k in enumerate(o.fx_rows):
            dW_fx[r] -= Y[k]
        ln_fx = np.multiply(o.sigma_fx, w_fx)
        ln_fx += dW_fx
        _check_finite(i, "lnfx", ln_fx, fx_ccys, mask)
        y_I = xp_cred[k_I] - o.mu_I[i] if k_I is not None else None
        Y_c = dict(zip(entities, intx_cred - o.M_cred[:, i:i + 1]))
        return DateState(i, dom, o.h_dom[i], dict(zip(ccys, y)),
                         dict(zip(ccys, Y)), dict(zip(fx_ccys, ln_fx)),
                         y_I, Y_c.get("I"), Y_c.get("C"))

    # the draw ring: block b, intervals 1 + b * block .. (b + 1) * block, is
    # drawn into slot b % 2, so the worker fills one slot while the loop reads
    # the other; an interval's first n_V rows are z_V, the rest z_C,
    # substep-major
    block = s0.block
    n_blocks = -(-(n_dates - 1) // block)
    ring = [np.empty((block, n_V + nsub * n_cred, n_paths)) for _ in range(2)]
    rng_mkt, rng_credit = _generators(s0.seed)

    def fill(b):
        """Draw block b's intervals into its slot, each interval's market
        and then its credit normals; return the credit fills' CPU seconds."""
        seconds = 0.0
        for z in ring[b % 2][:min(block, n_dates - 1 - b * block)]:
            rng_mkt.standard_normal(out=z[:n_V])
            if entities:
                t0 = time.thread_time()
                rng_credit.standard_normal(out=z[n_V:])
                seconds += time.thread_time() - t0
        return seconds

    pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="PathStream draws")
    n_truncated = 0
    credit_seconds = 0.0
    try:
        ahead = [pool.submit(fill, b) for b in range(min(2, n_blocks))]
        for i in range(n_dates):
            if i > 0:
                b, j = divmod(i - 1, block)
                if j == 0:
                    credit_seconds += ahead[b % 2].result()
                z, u = ring[b % 2][j], which[i - 1]
                _correlate(L_V[u], z[:n_V], V)
                # y_new = decay * y + sigma * I
                np.multiply(y, decay[u], out=y_new)
                y_new += sI
                # Y += B * y + sigma * J; y is free once it is read
                y *= B_r[u]
                Y += y
                Y += sJ
                y, y_new = y_new, y
                # w_fx += dW_fx
                w_fx += dW_fx
                if entities:
                    tc = time.thread_time()
                    revert_u, half_h = revert[u], 0.5 * h[u]
                    for k in range(nsub):
                        # the credit shocks sigma_c * sqrt(h) * eps_k: L_E's
                        # columns past z_C of substep k are zero
                        top = n_V + (k + 1) * n_cred
                        _correlate(L_E[u, k * n_cred:(k + 1) * n_cred, :top], z[:top],
                                   eps_cred)
                        # x_cred = (x_cred + (theta_c - xp_cred) * revert
                        #           + sqrt(xp_cred) * eps_cred)
                        np.subtract(theta_c, xp_cred, out=tmp)
                        tmp *= revert_u
                        x_cred += tmp
                        np.sqrt(xp_cred, out=tmp)
                        eps_cred *= tmp
                        x_cred += eps_cred
                        np.less(x_cred, 0.0, out=mask[:n_cred])
                        n_truncated += int(np.count_nonzero(mask[:n_cred]))
                        # intx_cred += 0.5 * h * (xp_cred + max(x_cred, 0)); the
                        # shocks' row, free once read, takes the new floor
                        np.maximum(x_cred, 0.0, out=eps_cred)
                        np.add(xp_cred, eps_cred, out=tmp)
                        tmp *= half_h
                        intx_cred += tmp
                        xp_cred, eps_cred = eps_cred, xp_cred
                    credit_seconds += time.thread_time() - tc
                if j == block - 1 and b + 2 < n_blocks:
                    ahead[b % 2] = pool.submit(fill, b + 2)

            _check_finite(i, "y", y, ccys, mask)
            _check_finite(i, "Y", Y, ccys, mask)
            made = {k: state(streams[k], i) for k in dict.fromkeys(first)}
            yield tuple(made[k] for k in first)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
        for s in streams:
            s.credit_seconds = credit_seconds

    credit_steps = n_cred * n_paths * nsub * (n_dates - 1)
    for s in streams:
        s.truncated_fraction = n_truncated / credit_steps if credit_steps else 0.0


def _check_finite(i: int, name: str, rows: np.ndarray, keys, mask: np.ndarray) -> None:
    """Raise naming the first non-finite entry of `rows` (one row per key);
    `mask` is boolean scratch with at least as many rows."""
    finite = np.isfinite(rows, out=mask[:len(rows)])
    if not finite.all():
        k, path = np.argwhere(~finite)[0]
        raise FloatingPointError(
            f"non-finite {name}[{keys[k]}] at date index {i}, path {path}")


def simulate(models: ModelSet, corr: CorrelationMatrix, grid: SimGrid,
             n_paths: int, seed: int, mode: str = "base") -> ScenarioCube:
    """Simulate all drivers (see PathStream) and keep every date in a cube.

    The cube holds (n_dates, n_paths) slabs; the pass's one memory check
    counts them with its state, before any of them is allocated.
    """
    stream = PathStream(models, corr, grid, n_paths, seed, mode)
    states = shared_pass([stream], stream.cube_rows,
                         "the scenario cube and its simulation state")
    for (st,) in states:
        if st.index == 0:
            slabs = {name: np.empty((grid.n_dates, n_paths)) for name in _slabs(st)}
        for name, row in _slabs(st).items():
            slabs[name][st.index] = row

    return _cube_from_slabs(
        slabs, mode=mode, seed=seed, dates=stream.dates.copy(), n_paths=n_paths,
        domestic=models.domestic, h_dom=stream.h_dom,
        truncated_fraction=stream.truncated_fraction,
        credit_seconds=stream.credit_seconds)


# ---------------------------------------------------------------------------
# optional cube dump (debugging aid)

_CUBE_MAGIC = b"WWRCUBE1"


def dump_cube(cube: ScenarioCube, path) -> None:
    """Write the cube to a binary file: magic, JSON header, float64 slabs.

    Slabs are stored path-major (C order of shape (n_dates, n_paths)), in the
    order listed in the header's "slabs" field.
    """
    import json

    slabs = _slabs(cube)
    header = {
        "mode": cube.mode, "seed": cube.seed, "n_paths": cube.n_paths,
        "domestic": cube.domestic, "dates": cube.dates.tolist(), "slabs": list(slabs),
        "truncated_fraction": cube.truncated_fraction,
    }
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CUBE_MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        fh.write(cube.h_dom.astype(np.float64).tobytes())
        for arr in slabs.values():
            # the contiguous slab's own buffer, not a copy of it
            fh.write(np.ascontiguousarray(arr, dtype=np.float64).data)


def load_cube(path) -> ScenarioCube:
    import json

    with open(path, "rb") as fh:
        if fh.read(8) != _CUBE_MAGIC:
            raise ValueError("not a cube file")
        hlen = int.from_bytes(fh.read(8), "little")
        header = json.loads(fh.read(hlen).decode("utf-8"))
        dates = np.asarray(header["dates"])
        n_dates, n_paths = len(dates), header["n_paths"]
        h_dom = np.frombuffer(fh.read(8 * n_dates), dtype=np.float64).copy()
        slabs = {}
        for name in header["slabs"]:
            raw = fh.read(8 * n_dates * n_paths)
            slabs[name] = np.frombuffer(raw, dtype=np.float64).reshape(n_dates, n_paths).copy()
    return _cube_from_slabs(
        slabs, mode=header["mode"], seed=header["seed"], dates=dates,
        n_paths=n_paths, domestic=header["domestic"], h_dom=h_dom,
        truncated_fraction=float(header.get("truncated_fraction", 0.0)))
