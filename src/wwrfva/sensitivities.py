"""Finite-difference sensitivities of the funding adjustment and its WWR part.

Every difference leg is a full run on bumped inputs with the same seed
(common random numbers), so shifts, discount-like factors and variance
ratios are all consistently recomputed; nothing is frozen across a bump.
The independent/WWR split is differenced per leg, which makes
d_total = d_indep + d_wwr exact by construction.

All legs of one call, first-order and cross, go to `run_fva_legs`
together, where a leg shares whatever `models.term` built from equal
inputs (see there). Legs whose bump leaves the random part of the
simulation unchanged (curves, spots, FX vols, credit curves and, without
credit simulation, credit vols and market-credit correlations) thus
share one simulation pass, and a rate-volatility bump gets a pass per
leg. Nothing of this outlives the call. Each leg's result is bit for bit
that of a run of its own.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Optional

from .fva import RunInputs, RunSettings, build_correlation_for, build_model_set, run_fva_legs
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
        if not 0.0 < self.size < math.inf:
            raise ValueError(f"bump {self.label}: the size must be positive and "
                             f"finite, got {self.size!r}")
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
    """New inputs with one market quantity shifted by direction * size.

    Only the table that holds the quantity is copied; the new inputs share
    every other table with `inputs`, so neither is changed in place."""
    h = direction * bump.size
    m = inputs.market
    if bump.target in ("ir_parallel", "ir_pillar"):
        ccy = bump.qualifier
        curve = m.rate_curve(ccy)
        new = (curve.bumped(h) if bump.target == "ir_parallel"
               else curve.bumped_pillar(bump.pillar, h))
        if ccy == m.domestic:
            market = dataclasses.replace(m, domestic_curve=new)
        else:
            market = dataclasses.replace(m, foreign_curves={**m.foreign_curves, ccy: new})
    elif bump.target == "credit_parallel":
        cc = m.credit_curves
        if bump.qualifier not in cc:
            raise ValueError(f"no credit curve for entity {bump.qualifier}")
        market = dataclasses.replace(
            m, credit_curves={**cc, bump.qualifier: cc[bump.qualifier].bumped(h)})
    elif bump.target == "fx_spot":
        spots = m.fx_spots
        if bump.qualifier not in spots:
            raise ValueError(f"no fx spot for currency {bump.qualifier}")
        spot = spots[bump.qualifier] + h
        if spot <= 0.0:
            raise ValueError(f"bump {bump.label} moves the spot to {spot!r}; "
                             "a spot must stay positive")
        market = dataclasses.replace(m, fx_spots={**spots, bump.qualifier: spot})
    elif bump.target in _VOL_BUMPS:
        table = _VOL_BUMPS[bump.target][0]
        record, key = _vol_record(inputs, bump.target, bump.qualifier)
        vol = float(record[key]) + h
        if vol <= 0.0:
            raise ValueError(f"bump {bump.label} moves {key} to {vol!r}; "
                             "a vol must stay positive")
        records = {**getattr(inputs, table), bump.qualifier: {**record, key: vol}}
        return dataclasses.replace(inputs, **{table: records})
    else:  # correlation
        key = pair_key(inputs.correlations, bump.qualifier)
        rho = inputs.correlations.get(key, 0.0) + h
        if not -1.0 <= rho <= 1.0:
            raise ValueError(f"bumped correlation {key} = {rho} outside [-1, 1]")
        return dataclasses.replace(inputs, correlations={**inputs.correlations, key: rho})
    return dataclasses.replace(inputs, market=market)


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


def fd_sensitivities(inputs: RunInputs, settings: RunSettings, bumps: list[BumpSpec],
                     cross: Optional[tuple[BumpSpec, BumpSpec]] = None) -> list[SensitivityRow]:
    """Differences of FVA under common random numbers: one first-order row
    per bump, then, for a pair (a, b) of central bumps, their mixed central
    second difference as the row `cross(a;b)` of size a.size * b.size.

    Each row is a stencil: signed legs over a denominator, each leg the
    (bump, direction) moves that make its inputs. A move leaves out the
    bump's scheme, which shapes the stencil and not the inputs. Each
    distinct leg is built once, so forward bumps share one unbumped leg,
    a central and a forward row of one bump share their up leg, and every
    leg of every row runs in one `run_fva_legs` call, which builds each
    deterministic term of the legs once (see there). A row sums its
    signed legs left to right in stencil order, which keeps the bits of
    `up - down` and of `pp - pm - mp + mm`. The benchmark is never run: a
    leg reads only its own FVA split.
    """
    def move(bump, direction):
        return dataclasses.replace(bump, scheme="central"), direction

    rows = []
    for bump in bumps:
        # central: (up - down) / 2h; forward: (up - unbumped) / h
        central = bump.scheme == "central"
        rows.append((bump.label, bump.size, bump.scheme,
                     [(1.0, (move(bump, 1.0),)),
                      (-1.0, (move(bump, -1.0),) if central else ())],
                     2.0 * bump.size if central else bump.size))
    if cross is not None:
        a, b = cross
        for bump in cross:
            if bump.scheme != "central":
                raise ValueError(f"a cross difference takes central bumps only, got "
                                 f"{bump.label} with scheme {bump.scheme!r}")
        # (pp - pm - mp + mm) / 4hk
        rows.append((f"cross({a.label};{b.label})", a.size * b.size, "cross",
                     [(da * db, (move(a, da), move(b, db)))
                      for da, db in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))],
                     4.0 * a.size * b.size))
    legs = list(dict.fromkeys(moves for *_, stencil, _ in rows for _, moves in stencil))
    reports = dict(zip(legs, run_fva_legs([_leg_inputs(inputs, moves) for moves in legs],
                                          dataclasses.replace(settings, benchmark=False))))
    return [SensitivityRow(
        target=target, size=size, scheme=scheme,
        d_fva_indep=reduce(add, (s * reports[m].fva_indep for s, m in stencil)) / den,
        d_fva_wwr=reduce(add, (s * reports[m].fva_wwr for s, m in stencil)) / den,
        method=settings.method) for target, size, scheme, stencil, den in rows]


def _leg_inputs(inputs: RunInputs, moves: tuple) -> RunInputs:
    """A leg's inputs: its (bump, direction) moves applied in turn. A leg
    that moves a correlation is refused here, before any leg runs and
    naming its moves, if its factor matrix is not valid."""
    leg = reduce(lambda x, move: apply_bump(x, *move), moves, inputs)
    if any(bump.target == "correlation" for bump, _ in moves):
        try:
            build_correlation_for(build_model_set(leg), leg.correlations)
        except ValueError as e:
            named = ", ".join(f"{b.label} {'up' if d > 0 else 'down'}" for b, d in moves)
            raise ValueError(f"bump leg ({named}): {e}") from None
    return leg


def fd_sensitivity(inputs: RunInputs, settings: RunSettings,
                   bump: BumpSpec) -> SensitivityRow:
    """First-order difference of FVA under one bump, common random numbers."""
    return fd_sensitivities(inputs, settings, [bump])[0]


def cross_gamma(inputs: RunInputs, settings: RunSettings,
                bump_a: BumpSpec, bump_b: BumpSpec) -> dict[str, float]:
    """Mixed central second difference of FVA across two bumps, common seed."""
    row = fd_sensitivities(inputs, settings, [], (bump_a, bump_b))[0]
    return {"d2_fva_indep": row.d_fva_indep, "d2_fva_wwr": row.d_fva_wwr,
            "d2_fva_total": row.d_fva_total}


def write_sensi_csv(rows: list[SensitivityRow], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("target,size,scheme,d_fva_indep,d_fva_wwr,d_fva_total,method\n")
        for r in rows:
            fh.write(f"{r.target},{r.size!r},{r.scheme},{r.d_fva_indep!r},"
                     f"{r.d_fva_wwr!r},{r.d_fva_total!r},{r.method}\n")
