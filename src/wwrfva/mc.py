"""Correlated path engine.

One correlated standard-normal vector per substep drives all factors.
Factor order is market first (rates, then FX), credit last; with a
lower-triangular Cholesky factor the market paths depend only on the
market draws, so a base-mode cube and a full-mode cube with the same
seed share bit-identical rate and FX paths. Credit draws come from a
dedicated second stream and are only consumed in full mode. `run_fva`
relies on this: it simulates once and reads the market slabs of a full
cube where a credit-free run would read a base cube.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

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
    """
    labels = tuple(labels)
    n = len(labels)
    idx = {lab: i for i, lab in enumerate(labels)}
    mat = np.eye(n)
    for key, rho in entries.items():
        try:
            a, b = key.split(":")
        except ValueError:
            raise ValueError(f"correlation key {key!r} must be 'factor_a:factor_b'") from None
        if a not in idx or b not in idx:
            raise ValueError(f"correlation key {key!r} names an undeclared factor")
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

    def pathwise_discount(self, date_index: int) -> np.ndarray:
        """H_r(0,u) * exp(-Y_r(0,u)) for the domestic rate, per path."""
        if not 0 <= date_index < len(self.dates):
            raise IndexError("date index out of range")
        return self.h_dom[date_index] * np.exp(-self.Y_r[self.domestic][date_index])


def simulate(models: ModelSet, corr: CorrelationMatrix, grid: SimGrid,
             n_paths: int, seed: int, mode: str = "base") -> ScenarioCube:
    """Simulate all drivers jointly under the domestic risk-neutral measure.

    Rate noise uses the exact conditional transition per substep; credit uses
    full-truncation Euler; running integrals are trapezoidal on substeps.
    The state of each process is one stacked (n_factors, n_paths) array whose
    rows follow the factor order, so the correlated draws feed it directly.
    """
    if mode not in ("base", "full"):
        raise ValueError("mode must be 'base' or 'full'")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    labels = factor_labels(models)
    if list(corr.labels) != labels:
        raise ValueError(f"correlation labels {corr.labels} do not match models {labels}")

    dom = models.domestic
    ccys = [dom] + models.foreign_currencies
    fx_ccys = list(models.fx)
    entities = list(models.credit) if mode == "full" else []
    n_ccy, n_fx, n_cred = len(ccys), len(fx_ccys), len(entities)
    n_mkt = n_ccy + n_fx

    L = corr.cholesky
    L_mm = np.ascontiguousarray(L[:n_mkt, :n_mkt])
    L_cm = np.ascontiguousarray(L[n_mkt:, :n_mkt])
    L_cc = np.ascontiguousarray(L[n_mkt:, n_mkt:])

    ss_mkt, ss_credit = np.random.SeedSequence(seed).spawn(2)
    rng_mkt = np.random.default_rng(ss_mkt)
    rng_credit = np.random.default_rng(ss_credit)

    dates = grid.monitoring_dates
    n_dates = len(dates)
    nsub = grid.substeps_per_interval
    dts = np.diff(dates) / nsub

    # rates: exact transition coefficients per currency and substep size
    rates = [models.rates[c] for c in ccys]
    a_r = np.array([p.a for p in rates])[:, None]
    decay = np.exp(-a_r * dts)
    shock_sd = np.array([p.sigma for p in rates])[:, None] * np.sqrt(bfac(2.0 * a_r, dts))
    h_dom = hw_terms(models.rates[dom], 0.0, dates).H

    # FX: log level = mean + Y_dom - Y_ccy + sigma_fx * Brownian level
    fx_rows = [ccys.index(c) for c in fx_ccys]
    sigma_fx = np.array([models.fx[c].sigma_fx for c in fx_ccys])[:, None]
    mu_fx = np.array([
        fx_terms(models.rates[dom], models.rates[c], models.fx[c],
                 corr.entry(rate_factor(dom), rate_factor(c)),
                 corr.entry(rate_factor(dom), fx_factor(c)),
                 corr.entry(rate_factor(c), fx_factor(c)), 0.0, dates).mu_fx
        for c in fx_ccys]).reshape(n_fx, n_dates)

    # credit: centered by the closed-form mean and mean integral
    credit = [models.credit[z] for z in entities]
    cred_terms = [cir_terms(p, 0.0, dates) for p in credit]
    M_cred = np.array([ct.M for ct in cred_terms]).reshape(n_cred, n_dates)
    a_c = np.array([p.a for p in credit])[:, None]
    theta_c = np.array([p.theta for p in credit])[:, None]
    sigma_c = np.array([p.sigma for p in credit])[:, None]

    y = np.zeros((n_ccy, n_paths))          # OU noise per currency
    Y = np.zeros((n_ccy, n_paths))          # trapezoidal integral of y
    w_fx = np.zeros((n_fx, n_paths))        # Brownian level of the FX noise
    x_cred = np.repeat(np.array([p.x0 for p in credit])[:, None], n_paths, axis=1)
    intx_cred = np.zeros((n_cred, n_paths))

    out_y = np.zeros((n_ccy, n_dates, n_paths))
    out_Y = np.zeros((n_ccy, n_dates, n_paths))
    out_lnfx = np.zeros((n_fx, n_dates, n_paths))
    out_lnfx[:, 0] = np.array([np.log(models.fx[c].spot) for c in fx_ccys])[:, None]
    out_Ycred = np.zeros((n_cred, n_dates, n_paths))
    # only the investor's intensity driver itself reaches the cube
    k_I = entities.index("I") if "I" in entities else None
    out_yI = np.zeros((n_dates, n_paths)) if k_I is not None else None

    n_truncated = 0
    credit_seconds = 0.0

    for i in range(1, n_dates):
        dt = dts[i - 1]
        sq_dt = np.sqrt(dt)
        for _ in range(nsub):
            z_mkt = rng_mkt.standard_normal((n_mkt, n_paths))
            eps_mkt = L_mm @ z_mkt
            y_new = y * decay[:, i - 1:i] + shock_sd[:, i - 1:i] * eps_mkt[:n_ccy]
            Y += 0.5 * dt * (y + y_new)
            y = y_new
            w_fx += sq_dt * eps_mkt[n_ccy:]
            if entities:
                tc = time.perf_counter()
                z_cred = rng_credit.standard_normal((n_cred, n_paths))
                eps_cred = L_cm @ z_mkt + L_cc @ z_cred
                xp = np.maximum(x_cred, 0.0)
                x_new = (x_cred + a_c * (theta_c - xp) * dt
                         + sigma_c * np.sqrt(xp * dt) * eps_cred)
                n_truncated += int(np.count_nonzero(x_new < 0.0))
                xp_new = np.maximum(x_new, 0.0)
                intx_cred += 0.5 * dt * (xp + xp_new)
                x_cred = x_new
                credit_seconds += time.perf_counter() - tc

        out_y[:, i] = y
        out_Y[:, i] = Y
        out_lnfx[:, i] = mu_fx[:, i:i + 1] + Y[0] - Y[fx_rows] + sigma_fx * w_fx
        out_Ycred[:, i] = intx_cred - M_cred[:, i:i + 1]
        if out_yI is not None:
            out_yI[i] = np.maximum(x_cred[k_I], 0.0) - cred_terms[k_I].mu[i]

    for name, arr, keys in (("y", out_y, ccys), ("Y", out_Y, ccys),
                            ("lnfx", out_lnfx, fx_ccys)):
        if not np.all(np.isfinite(arr)):
            k, d, path = np.argwhere(~np.isfinite(arr))[0]
            raise FloatingPointError(
                f"non-finite {name}[{keys[k]}] at date index {d}, path {path}")

    Y_cred = dict(zip(entities, out_Ycred))
    credit_steps = n_cred * n_paths * nsub * (n_dates - 1)
    return ScenarioCube(
        mode=mode, seed=seed, dates=dates.copy(), n_paths=n_paths, domestic=dom,
        y_r=dict(zip(ccys, out_y)), Y_r=dict(zip(ccys, out_Y)),
        ln_fx=dict(zip(fx_ccys, out_lnfx)), h_dom=h_dom,
        y_I=out_yI, Y_I=Y_cred.get("I"), Y_C=Y_cred.get("C"),
        truncated_fraction=n_truncated / credit_steps if credit_steps else 0.0,
        credit_seconds=credit_seconds,
    )


# ---------------------------------------------------------------------------
# optional cube dump (debugging aid)

_CUBE_MAGIC = b"WWRCUBE1"


def dump_cube(cube: ScenarioCube, path) -> None:
    """Write the cube to a binary file: magic, JSON header, float64 slabs.

    Slabs are stored path-major (C order of shape (n_dates, n_paths)), in the
    order listed in the header's "slabs" field.
    """
    import json

    slabs = []
    arrays = []
    for c, arr in cube.y_r.items():
        slabs.append(f"y_r:{c}")
        arrays.append(arr)
    for c, arr in cube.Y_r.items():
        slabs.append(f"Y_r:{c}")
        arrays.append(arr)
    for c, arr in cube.ln_fx.items():
        slabs.append(f"ln_fx:{c}")
        arrays.append(arr)
    if cube.mode == "full":
        for name, arr in (("y_I", cube.y_I), ("Y_I", cube.Y_I), ("Y_C", cube.Y_C)):
            slabs.append(name)
            arrays.append(arr)
    header = {
        "mode": cube.mode, "seed": cube.seed, "n_paths": cube.n_paths,
        "domestic": cube.domestic, "dates": cube.dates.tolist(), "slabs": slabs,
        "truncated_fraction": cube.truncated_fraction,
    }
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CUBE_MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        fh.write(cube.h_dom.astype(np.float64).tobytes())
        for arr in arrays:
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
    y_r = {k.split(":")[1]: v for k, v in slabs.items() if k.startswith("y_r:")}
    Y_r = {k.split(":")[1]: v for k, v in slabs.items() if k.startswith("Y_r:")}
    ln_fx = {k.split(":")[1]: v for k, v in slabs.items() if k.startswith("ln_fx:")}
    return ScenarioCube(
        mode=header["mode"], seed=header["seed"], dates=dates, n_paths=n_paths,
        domestic=header["domestic"], y_r=y_r, Y_r=Y_r, ln_fx=ln_fx, h_dom=h_dom,
        y_I=slabs.get("y_I"), Y_I=slabs.get("Y_I"), Y_C=slabs.get("Y_C"),
        truncated_fraction=float(header.get("truncated_fraction", 0.0)),
    )
