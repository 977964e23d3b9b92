"""Correlated path engine.

One correlated standard-normal vector per substep drives all factors.
Factor order is market first (rates, then FX), credit last; with a
lower-triangular Cholesky factor the market paths depend only on the
market draws, so a base-mode and a full-mode simulation with the same
seed share bit-identical rate and FX paths. Credit draws come from a
dedicated second stream and are only consumed in full mode. `run_fva`
relies on this: it simulates once and reads the market drivers of a
full simulation where a credit-free run would read a base one.

`PathStream` is the simulation: it yields one monitoring date's drivers
at a time, so a run that consumes them date by date holds no array that
grows with the number of dates. `shared_pass` runs one simulation for
several streams whose random part reads the same inputs, such as the legs
of a curve sensitivity, and yields each stream's own states. `simulate`
collects the stream into a `ScenarioCube` for the callers that need every
date at once: the cube export, tests, and the cube forms of the exposure
and bounds functions. The `bounds` verb reads the stream itself.

The standard normals are drawn ahead on a one-thread
`concurrent.futures.ThreadPoolExecutor`: while the stream runs the
substeps of one monitoring interval, the executor's worker fills the
next interval's draws into a second buffer set (numpy's generators
release the GIL while they fill). One worker runs the fills in the order
they were submitted, and one fill of (substeps, factors, paths) gives
the same numbers as that many successive (factors, paths) draws, so the
paths are bit for bit those of a serial loop.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

import numpy as np

from .models import ModelSet, bfac, cir_terms, fx_terms, hw_terms


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
    cholesky: np.ndarray

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
    A pair may be listed once, in either order.
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
    try:
        chol = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        # allow a PSD matrix that is singular to rounding level
        try:
            chol = np.linalg.cholesky(mat + 1e-12 * np.eye(n))
        except np.linalg.LinAlgError:
            raise ValueError("correlation matrix is not positive semi-definite") from None
    return CorrelationMatrix(labels=labels, matrix=mat, cholesky=chol)


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
    """The market and the credit normal streams of a seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)]


def exact_key(*parts) -> bytes:
    """Bytes that are equal for two argument lists only if their strings and
    integers are equal and their floats and arrays bitwise equal (shapes
    included): their pickle, which stores floats and array data raw."""
    return pickle.dumps(parts, protocol=pickle.HIGHEST_PROTOCOL)


class PathStream:
    """All drivers simulated jointly under the domestic risk-neutral measure,
    one monitoring date at a time.

    Rate noise uses the exact conditional transition per substep; credit uses
    full-truncation Euler; running integrals are trapezoidal on substeps.
    The state of each process is one stacked (n_factors, n_paths) array whose
    rows follow the factor order, so the correlated draws feed it directly.

    A stream has two parts. The noise recursion (the rate noise `y` and its
    integral `Y`, the FX Brownian level `w_fx`, and in full mode the credit
    state and its integral) reads only the inputs that `key` holds as exact
    bytes: the rate transition coefficients, the Cholesky blocks it uses, the
    credit parameters in full mode, the substep sizes, paths, seed and mode.
    The overlay turns that state into a date's drivers with this model set's
    deterministic terms: the domestic discount-like factor, the FX means, log
    spots and volatilities, and in full mode the credit means and mean
    integrals. Rate curves, FX spots and FX volatilities move only the
    overlay; credit curves, and in base mode the credit parameters and the
    market-credit correlations, do not enter the stream at all. Model sets
    that differ only in these share one pass (`shared_pass`).

    Iterating runs the simulation once from `seed` and yields one DateState
    per monitoring date, date 0 first; a second iteration repeats it. Its
    arrays are the live simulation state: a yielded state is valid only
    until the next one is requested, because the integrated rate drivers
    are updated in place. Memory therefore scales with paths x factors, not
    with dates. After the last date, `truncated_fraction` and
    `credit_seconds` describe the pass.

    Each pass owns a `ThreadPoolExecutor` with one worker that draws the
    standard normals into a ring of two preallocated buffer sets:
    (substeps, market factors, paths) and, in full mode, (substeps, credit
    factors, paths). The first two intervals are submitted before date 0
    is yielded; once an interval's substeps have run, the interval two
    ahead is submitted into the slot just read. The worker only fills
    buffers; the correlation products, the process updates and the finite
    checks stay in the iterating thread, in the serial order, so the
    yielded states are bit for bit those of drawing each substep in turn.
    However the iteration ends (last date, `close()`, a `break`, an
    exception in the consumer or in the stream), pending fills are
    cancelled and the worker is joined; an exception raised in the worker
    is re-raised in the consumer when it reads that interval's result.

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
        n_mkt = n_ccy + n_fx

        # the noise recursion's inputs
        self.dts = np.diff(dates) / grid.substeps_per_interval
        rates = [models.rates[c] for c in self.ccys]
        a_r = np.array([p.a for p in rates])[:, None]
        self.decay = np.exp(-a_r * self.dts)
        self.shock_sd = (np.array([p.sigma for p in rates])[:, None]
                         * np.sqrt(bfac(2.0 * a_r, self.dts)))
        L = corr.cholesky
        self.L_mm = np.ascontiguousarray(L[:n_mkt, :n_mkt])
        self.L_cm = np.ascontiguousarray(L[n_mkt:n_mkt + n_cred, :n_mkt])
        self.L_cc = np.ascontiguousarray(L[n_mkt:n_mkt + n_cred, n_mkt:n_mkt + n_cred])
        credit = [models.credit[z] for z in self.entities]
        self.x0_c, self.a_c, self.theta_c, self.sigma_c = (
            np.array([getattr(p, f) for p in credit])[:, None]
            for f in ("x0", "a", "theta", "sigma"))
        self.key = exact_key(tuple(labels), mode, n_paths, seed,
                             grid.substeps_per_interval, self.dts, self.decay,
                             self.shock_sd, self.L_mm, self.L_cm, self.L_cc,
                             self.x0_c, self.a_c, self.theta_c, self.sigma_c)

        # the overlay: FX log level = mean + Y_dom - Y_ccy + sigma_fx * Brownian
        # level; credit centred by the closed-form mean and mean integral
        self.h_dom = hw_terms(models.rates[dom], 0.0, dates).H
        self.fx_rows = [self.ccys.index(c) for c in self.fx_ccys]
        self.sigma_fx = np.array([models.fx[c].sigma_fx for c in self.fx_ccys])[:, None]
        self.mu_fx = np.array([
            fx_terms(models.rates[dom], models.rates[c], models.fx[c],
                     corr.entry(rate_factor(dom), rate_factor(c)),
                     corr.entry(rate_factor(dom), fx_factor(c)),
                     corr.entry(rate_factor(c), fx_factor(c)), 0.0, dates).mu_fx
            for c in self.fx_ccys]).reshape(n_fx, len(dates))
        cred_terms = [cir_terms(p, 0.0, dates) for p in credit]
        self.M_cred = np.array([ct.M for ct in cred_terms]).reshape(n_cred, len(dates))
        # only the investor's intensity driver itself reaches the state
        self.mu_I = cred_terms[self.entities.index("I")].mu if "I" in self.entities else None
        self.overlay_key = exact_key(self.h_dom, self.fx_rows, self.sigma_fx, self.mu_fx,
                                     self.M_cred, self.mu_I)

        # rows alive at once: the process states and the credit floor, one
        # substep's correlated draws and their temporaries, and one date's
        # derived rows (log-FX, credit drivers, discount); a shared pass
        # holds the derived rows once per distinct overlay
        self.overlay_rows = n_fx + n_cred + 2
        rows = (2 * n_ccy + n_fx + 3 * n_cred) + 2 * (n_ccy + n_fx + n_cred) \
            + self.overlay_rows
        # plus the draw ring: two intervals of standard normals
        rows += 2 * grid.substeps_per_interval * (n_ccy + n_fx + n_cred)
        self.state_bytes = 8 * n_paths * rows
        # the cube's slabs: y and Y per currency, log-FX, and in full mode
        # the investor's driver plus the integrated I and C drivers
        n_slabs = (2 * n_ccy + n_fx + 2 * ("I" in self.entities)
                   + ("C" in self.entities))
        self.cube_bytes = 8 * n_paths * len(dates) * n_slabs
        require_memory(self.state_bytes, "the simulation state")
        self.truncated_fraction = 0.0
        self.credit_seconds = 0.0

    def __iter__(self) -> Iterator[DateState]:
        states = shared_pass([self])
        try:
            for (st,) in states:
                yield st
        finally:
            states.close()


def shared_pass(streams) -> Iterator[tuple[DateState, ...]]:
    """One simulation pass for streams of equal `key`: per monitoring date, a
    tuple with one DateState per stream, in the streams' order.

    The noise recursion runs once; each distinct overlay then evaluates its
    own log-FX expression, finite check and credit drivers from the shared
    state, in the order a stream of its own would, so every stream's states
    are bitwise those it yields alone. Streams with equal `overlay_key` get
    the same DateState object. Afterwards each stream's `truncated_fraction`
    and `credit_seconds` describe the pass.
    """
    streams = list(streams)
    s0 = streams[0]
    if any(s.key != s0.key for s in streams[1:]):
        raise ValueError("streams with different simulation inputs cannot share a pass")
    # the first stream of each distinct overlay computes it; at[k] is the
    # overlay of stream k
    first = {}
    for s in streams:
        first.setdefault(s.overlay_key, s)
    overlays = list(first.values())
    at = [list(first).index(s.overlay_key) for s in streams]
    n_paths = s0.n_paths
    require_memory(s0.state_bytes + 8 * n_paths * sum(o.overlay_rows for o in overlays[1:]),
                   "the simulation state")

    dom, ccys, fx_ccys, entities = s0.models.domestic, s0.ccys, s0.fx_ccys, s0.entities
    n_ccy, n_fx, n_cred = len(ccys), len(fx_ccys), len(entities)
    n_mkt = n_ccy + n_fx
    n_dates = len(s0.dates)
    nsub = s0.grid.substeps_per_interval
    dts, decay, shock_sd = s0.dts, s0.decay, s0.shock_sd
    L_mm, L_cm, L_cc = s0.L_mm, s0.L_cm, s0.L_cc
    a_c, theta_c, sigma_c = s0.a_c, s0.theta_c, s0.sigma_c
    k_I = entities.index("I") if "I" in entities else None

    def state(o, i, ln_fx, Y_cred, y_I):
        Y_c = dict(zip(entities, Y_cred))
        return DateState(i, dom, o.h_dom[i], dict(zip(ccys, y)),
                         dict(zip(ccys, Y)), dict(zip(fx_ccys, ln_fx)),
                         y_I, Y_c.get("I"), Y_c.get("C"))

    y = np.zeros((n_ccy, n_paths))          # OU noise per currency
    Y = np.zeros((n_ccy, n_paths))          # trapezoidal integral of y
    w_fx = np.zeros((n_fx, n_paths))        # Brownian level of the FX noise
    x_cred = np.repeat(s0.x0_c, n_paths, axis=1)
    xp_cred = np.maximum(x_cred, 0.0)       # its floor, carried across substeps
    intx_cred = np.zeros((n_cred, n_paths))

    # the draw ring: interval i is drawn into slot (i - 1) % 2, so the worker
    # fills one slot's buffers while the loop reads the other's
    mkt_bufs = [np.empty((nsub, n_mkt, n_paths)) for _ in range(2)]
    cred_bufs = [np.empty((nsub, n_cred, n_paths)) for _ in range(2)]
    rng_mkt, rng_credit = _generators(s0.seed)

    def fill(slot):
        """Draw one interval into `slot`; return the credit fill's CPU seconds."""
        rng_mkt.standard_normal(out=mkt_bufs[slot])
        if not entities:
            return 0.0
        t0 = time.thread_time()
        rng_credit.standard_normal(out=cred_bufs[slot])
        return time.thread_time() - t0

    pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="PathStream draws")
    n_truncated = 0
    credit_seconds = 0.0
    try:
        ahead = [pool.submit(fill, slot) for slot in range(min(2, n_dates - 1))]
        for i in range(n_dates):
            if i > 0:
                slot = (i - 1) % 2
                credit_seconds += ahead[slot].result()
                dt = dts[i - 1]
                sq_dt = np.sqrt(dt)
                for k in range(nsub):
                    z_mkt = mkt_bufs[slot][k]
                    eps_mkt = L_mm @ z_mkt
                    y_new = y * decay[:, i - 1:i] + shock_sd[:, i - 1:i] * eps_mkt[:n_ccy]
                    Y += 0.5 * dt * (y + y_new)
                    y = y_new
                    w_fx += sq_dt * eps_mkt[n_ccy:]
                    if entities:
                        tc = time.thread_time()
                        z_cred = cred_bufs[slot][k]
                        eps_cred = L_cm @ z_mkt + L_cc @ z_cred
                        x_new = (x_cred + a_c * (theta_c - xp_cred) * dt
                                 + sigma_c * np.sqrt(xp_cred * dt) * eps_cred)
                        n_truncated += int(np.count_nonzero(x_new < 0.0))
                        xp_new = np.maximum(x_new, 0.0)
                        intx_cred += 0.5 * dt * (xp_cred + xp_new)
                        x_cred, xp_cred = x_new, xp_new
                        credit_seconds += time.thread_time() - tc
                if i + 2 < n_dates:
                    ahead[slot] = pool.submit(fill, slot)

            _check_finite(i, "y", y, ccys)
            _check_finite(i, "Y", Y, ccys)
            made = []
            for o in overlays:
                ln_fx = o.mu_fx[:, i:i + 1] + Y[0] - Y[o.fx_rows] + o.sigma_fx * w_fx
                _check_finite(i, "lnfx", ln_fx, fx_ccys)
                y_I = (xp_cred[k_I] - o.mu_I[i]
                       if k_I is not None else None)
                made.append(state(o, i, ln_fx, intx_cred - o.M_cred[:, i:i + 1], y_I))
            yield tuple(made[k] for k in at)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
        for s in streams:
            s.credit_seconds = credit_seconds

    credit_steps = n_cred * n_paths * nsub * (n_dates - 1)
    for s in streams:
        s.truncated_fraction = n_truncated / credit_steps if credit_steps else 0.0


def _check_finite(i: int, name: str, rows: np.ndarray, keys) -> None:
    """Raise naming the first non-finite entry of `rows` (one row per key)."""
    if not np.all(np.isfinite(rows)):
        k, path = np.argwhere(~np.isfinite(rows))[0]
        raise FloatingPointError(
            f"non-finite {name}[{keys[k]}] at date index {i}, path {path}")


def simulate(models: ModelSet, corr: CorrelationMatrix, grid: SimGrid,
             n_paths: int, seed: int, mode: str = "base") -> ScenarioCube:
    """Simulate all drivers (see PathStream) and keep every date in a cube.

    The cube holds (n_dates, n_paths) slabs; its size is checked against
    physical memory before any of it is allocated.
    """
    stream = PathStream(models, corr, grid, n_paths, seed, mode)
    require_memory(stream.cube_bytes + stream.state_bytes,
                   "the scenario cube and its simulation state")
    for st in stream:
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
            fh.write(np.ascontiguousarray(arr, dtype=np.float64).tobytes())


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
