"""Finite-difference sensitivities of the funding adjustment and its WWR part.

Every difference leg is a full run on bumped inputs with the same seed
(common random numbers), so shifts, discount-like factors and variance
ratios are all consistently recomputed; nothing is frozen across a bump.
The independent/WWR split is differenced per leg, which makes
d_total = d_indep + d_wwr exact by construction.

All legs of one call go to `run_fva_legs` together. Legs whose bump
leaves the random part of the simulation unchanged (curves, spots, FX
vols, credit curves and, without credit simulation, credit vols and
market-credit correlations) share one simulation pass, and legs that
also value the same portfolio on the same states share that valuation;
a rate-volatility bump gets a pass per leg. Each leg's result is bit for
bit that of a run of its own.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from .fva import RunInputs, RunSettings, run_fva_legs
from .mc import pair_key

TARGETS = ("ir_parallel", "ir_pillar", "credit_parallel", "sigma_r",
           "sigma_fx", "sigma_lambda", "fx_spot", "correlation")

# absolute for curves/correlations, relative for spots and vols
DEFAULT_CURVE_BUMP = 1e-4
DEFAULT_SPOT_REL = 0.01
DEFAULT_VOL_REL = 0.10
DEFAULT_CORR_BUMP = 0.01
# each vol bump: the RunInputs table of its model records, the parameter
# it moves, and the record's name in messages
_VOL_BUMPS = {"sigma_r": ("rate_params", "sigma", "rate model"),
              "sigma_fx": ("fx_params", "sigma_fx", "FX model"),
              "sigma_lambda": ("credit_params", "sigma", "credit model")}


@dataclass(frozen=True)
class BumpSpec:
    """One market bump: what to move, by how much (absolute), and the scheme."""

    target: str
    qualifier: str            # currency, entity, or correlation key "a:b"
    size: float
    scheme: str = "central"
    pillar: Optional[int] = None

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ValueError(f"unknown bump target {self.target!r}")
        if self.size <= 0.0:
            raise ValueError("bump size must be positive")
        if self.scheme not in ("central", "forward"):
            raise ValueError("scheme must be central or forward")
        if self.target == "ir_pillar" and self.pillar is None:
            raise ValueError("ir_pillar bump needs a pillar index")

    @property
    def label(self) -> str:
        extra = f"[{self.pillar}]" if self.pillar is not None else ""
        return f"{self.target}:{self.qualifier}{extra}"


def default_size(target: str, qualifier: str, inputs: RunInputs) -> float:
    """Desk-convention default bump, converted to an absolute size."""
    if target in ("ir_parallel", "ir_pillar", "credit_parallel"):
        return DEFAULT_CURVE_BUMP
    if target == "correlation":
        return DEFAULT_CORR_BUMP
    if target == "fx_spot":
        return DEFAULT_SPOT_REL * _entry(inputs.market.fx_spots, qualifier, "fx spot")
    if target in _VOL_BUMPS:
        record, key = _vol_record(inputs, target, qualifier)
        return DEFAULT_VOL_REL * record[key]
    raise ValueError(f"unknown bump target {target!r}")


def _vol_record(inputs: RunInputs, target: str, qualifier: str) -> tuple[dict, str]:
    """The model record that a vol bump moves, and the key of its vol."""
    table, key, what = _VOL_BUMPS[target]
    return _entry(getattr(inputs, table), qualifier, what), key


def _entry(table: dict, qualifier: str, what: str):
    """table[qualifier], or a ValueError naming the qualifier."""
    if qualifier not in table:
        raise ValueError(f"no {what} for {qualifier!r}")
    return table[qualifier]


def parse_bump(text: str, inputs: RunInputs) -> BumpSpec:
    """Parse a command-line bump "target:qualifier[:size]".

    Correlation qualifiers name the factor pair with a slash, e.g.
    "correlation:r_EUR/lambda_I:0.01". An ir_pillar qualifier carries
    the pillar index after "@", e.g. "ir_pillar:EUR@2".
    """
    parts = text.split(":")
    if len(parts) < 2:
        raise ValueError(f"bump {text!r}: expected target:qualifier[:size]")
    target = parts[0]
    size = None
    if len(parts) > 2:
        try:
            size = float(parts[-1])
            qualifier = ":".join(parts[1:-1])
        except ValueError:
            qualifier = ":".join(parts[1:])
    else:
        qualifier = parts[1]
        try:
            # "target:size" shorthand: qualifier defaults per target kind
            size = float(qualifier)
            qualifier = _default_qualifier(target, inputs)
        except ValueError:
            pass
    pillar = None
    if target == "ir_pillar" and "@" in qualifier:
        qualifier, pil = qualifier.rsplit("@", 1)
        try:
            pillar = int(pil)
        except ValueError:
            raise ValueError(f"bump {text!r}: an ir_pillar qualifier must read "
                             f"CCY@INDEX with an integer INDEX, got {pil!r}") from None
    if target == "correlation":
        qualifier = qualifier.replace("/", ":")
    if size is None:
        size = default_size(target, qualifier, inputs)
    return BumpSpec(target=target, qualifier=qualifier, size=size, pillar=pillar)


def _default_qualifier(target: str, inputs: RunInputs) -> str:
    if target in ("ir_parallel", "ir_pillar", "sigma_r"):
        return inputs.market.domestic
    if target in ("credit_parallel", "sigma_lambda"):
        return "C"
    raise ValueError(f"bump target {target} needs an explicit qualifier")


def apply_bump(inputs: RunInputs, bump: BumpSpec, direction: float) -> RunInputs:
    """New inputs with one market quantity shifted by direction * size."""
    out = inputs.copy()
    h = direction * bump.size
    m = out.market
    if bump.target in ("ir_parallel", "ir_pillar"):
        ccy = bump.qualifier
        curve = m.rate_curve(ccy)
        new = (curve.bumped(h) if bump.target == "ir_parallel"
               else curve.bumped_pillar(bump.pillar, h))
        if ccy == m.domestic:
            out.market = dataclasses.replace(m, domestic_curve=new)
        else:
            fc = dict(m.foreign_curves)
            if ccy not in fc:
                raise ValueError(f"no curve for currency {ccy}")
            fc[ccy] = new
            out.market = dataclasses.replace(m, foreign_curves=fc)
    elif bump.target == "credit_parallel":
        cc = dict(m.credit_curves)
        if bump.qualifier not in cc:
            raise ValueError(f"no credit curve for entity {bump.qualifier}")
        cc[bump.qualifier] = cc[bump.qualifier].bumped(h)
        out.market = dataclasses.replace(m, credit_curves=cc)
    elif bump.target == "fx_spot":
        spots = dict(m.fx_spots)
        if bump.qualifier not in spots:
            raise ValueError(f"no fx spot for currency {bump.qualifier}")
        spots[bump.qualifier] = spots[bump.qualifier] + h
        out.market = dataclasses.replace(m, fx_spots=spots)
    elif bump.target in _VOL_BUMPS:
        record, key = _vol_record(out, bump.target, bump.qualifier)
        vol = float(record[key]) + h
        if vol <= 0.0:
            raise ValueError(f"bump {bump.label} moves {key} to {vol!r}; "
                             "a vol must stay positive")
        record[key] = vol
    elif bump.target == "correlation":
        key = pair_key(out.correlations, bump.qualifier)
        rho = out.correlations.get(key, 0.0) + h
        if not -1.0 <= rho <= 1.0:
            raise ValueError(f"bumped correlation {key} = {rho} outside [-1, 1]")
        out.correlations[key] = rho
    return out


@dataclass
class SensitivityRow:
    target: str
    size: float
    scheme: str
    d_fva_indep: float
    d_fva_wwr: float
    method: str

    @property
    def d_fva_total(self) -> float:
        return self.d_fva_indep + self.d_fva_wwr


def fd_sensitivities(inputs: RunInputs, settings: RunSettings,
                     bumps: list[BumpSpec]) -> list[SensitivityRow]:
    """First-order differences of FVA under each bump, common random
    numbers, with every leg of every bump in one `run_fva_legs` call.

    Forward bumps share one unbumped leg. The benchmark is never run: a
    leg reads only its own FVA split.
    """
    legs, at = [], []
    base_at = None
    for bump in bumps:
        up = len(legs)
        legs.append(apply_bump(inputs, bump, +1.0))
        if bump.scheme == "central":
            legs.append(apply_bump(inputs, bump, -1.0))
            at.append((up, up + 1))
            continue
        if base_at is None:
            base_at = len(legs)
            legs.append(inputs)
        at.append((up, base_at))
    reports = run_fva_legs(legs, dataclasses.replace(settings, benchmark=False))
    rows = []
    for bump, (up, dn) in zip(bumps, at):
        den = 2.0 * bump.size if bump.scheme == "central" else bump.size
        rows.append(SensitivityRow(
            target=bump.label, size=bump.size, scheme=bump.scheme,
            d_fva_indep=(reports[up].fva_indep - reports[dn].fva_indep) / den,
            d_fva_wwr=(reports[up].fva_wwr - reports[dn].fva_wwr) / den,
            method=settings.method))
    return rows


def fd_sensitivity(inputs: RunInputs, settings: RunSettings,
                   bump: BumpSpec) -> SensitivityRow:
    """First-order difference of FVA under one bump, common random numbers."""
    return fd_sensitivities(inputs, settings, [bump])[0]


def cross_gamma(inputs: RunInputs, settings: RunSettings,
                bump_a: BumpSpec, bump_b: BumpSpec) -> dict[str, float]:
    """Mixed central second difference of FVA across two bumps, common seed;
    the four legs run in one `run_fva_legs` call."""
    for bump in (bump_a, bump_b):
        if bump.scheme != "central":
            raise ValueError(f"cross_gamma takes central bumps only, got "
                             f"{bump.label} with scheme {bump.scheme!r}")
    legs = [apply_bump(apply_bump(inputs, bump_a, da), bump_b, db)
            for da, db in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    pp, pm, mp, mm = run_fva_legs(legs, dataclasses.replace(settings, benchmark=False))
    den = 4.0 * bump_a.size * bump_b.size
    d_ind = (pp.fva_indep - pm.fva_indep - mp.fva_indep + mm.fva_indep) / den
    d_wwr = (pp.fva_wwr - pm.fva_wwr - mp.fva_wwr + mm.fva_wwr) / den
    return {"d2_fva_indep": d_ind, "d2_fva_wwr": d_wwr,
            "d2_fva_total": d_ind + d_wwr}


def write_sensi_csv(rows: list[SensitivityRow], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("target,size,scheme,d_fva_indep,d_fva_wwr,d_fva_total,method\n")
        for r in rows:
            fh.write(f"{r.target},{r.size!r},{r.scheme},{r.d_fva_indep!r},"
                     f"{r.d_fva_wwr!r},{r.d_fva_total!r},{r.method}\n")
