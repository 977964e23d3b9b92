"""Market term structures.

Curves are continuously-compounded zero-rate curves with linear
interpolation in the zero rate and flat extrapolation on both ends.
Credit curves reuse the same type: their "discount" is the market
survival probability of the entity.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import yaml


@dataclass(frozen=True)
class Curve:
    """Zero-rate curve: pillars in years, rates per annum (cc)."""

    label: str
    times: tuple[float, ...]
    zero_rates: tuple[float, ...]

    def __post_init__(self):
        if len(self.times) != len(self.zero_rates):
            raise ValueError(f"curve {self.label}: times and zero_rates lengths differ")
        if len(self.times) == 0:
            raise ValueError(f"curve {self.label}: no pillars")
        if self.times[0] < 0.0:
            raise ValueError(f"curve {self.label}: first pillar must be >= 0")
        for i in range(1, len(self.times)):
            if self.times[i] <= self.times[i - 1]:
                raise ValueError(f"curve {self.label}: pillar times must be strictly increasing")
        for r in self.zero_rates:
            if not np.isfinite(r):
                raise ValueError(f"curve {self.label}: non-finite zero rate")

    def zero_rate(self, t):
        """Interpolated zero rate at t (scalar or array), flat beyond the ends."""
        return np.interp(t, self.times, self.zero_rates)

    def discount(self, t):
        """Discount factor (or survival probability) exp(-z(t)*t)."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0):
            raise ValueError("discount requires t >= 0")
        out = np.exp(-self.zero_rate(t) * t)
        return float(out) if out.ndim == 0 else out

    def log_discount(self, t):
        """ln of the discount factor; convenient for shift integrals."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0):
            raise ValueError("log_discount requires t >= 0")
        out = -self.zero_rate(t) * t
        return float(out) if out.ndim == 0 else out

    def bumped(self, shift: float) -> "Curve":
        """Parallel additive bump of every zero rate."""
        return replace(self, zero_rates=tuple(r + shift for r in self.zero_rates))

    def bumped_pillar(self, index: int, shift: float) -> "Curve":
        """Additive bump of the zero rate at pillar `index` (0-based)."""
        n = len(self.zero_rates)
        if not 0 <= index < n:
            raise ValueError(f"curve {self.label} has {n} pillars: a pillar index "
                             f"must be in 0..{n - 1}, got {index}")
        rates = list(self.zero_rates)
        rates[index] += shift
        return replace(self, zero_rates=tuple(rates))


@dataclass
class MarketData:
    """All input term structures and FX spots for one run."""

    domestic: str
    domestic_curve: Curve
    foreign_curves: dict[str, Curve] = field(default_factory=dict)
    credit_curves: dict[str, Curve] = field(default_factory=dict)
    fx_spots: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for ccy, spot in self.fx_spots.items():
            if spot <= 0.0:
                raise ValueError(f"fx spot for {ccy} must be positive")
        for ccy in self.foreign_curves:
            if ccy not in self.fx_spots:
                raise ValueError(f"foreign currency {ccy} has no fx spot")

    def rate_curve(self, currency: str) -> Curve:
        if currency == self.domestic:
            return self.domestic_curve
        try:
            return self.foreign_curves[currency]
        except KeyError:
            raise KeyError(f"no yield curve for currency {currency}") from None

    def credit_curve(self, entity: str) -> Curve:
        try:
            return self.credit_curves[entity]
        except KeyError:
            raise KeyError(f"no credit curve for entity {entity}") from None


def check_keys(where: str, record, allowed) -> None:
    """Refuse an input mapping with a key outside `allowed`, or a non-mapping:
    the loaders refuse a misspelt key rather than run without it."""
    if not isinstance(record, dict):
        raise ValueError(f"{where}: expected a mapping")
    unknown = sorted(set(record) - set(allowed), key=str)
    if unknown:
        raise ValueError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}; "
                         f"allowed: {', '.join(allowed)}")


_MARKET_KEYS = ("domestic", "curves", "credit_curves", "fx_spots")
_CURVE_KEYS = ("label", "times", "zero_rates")


def _parse_curve(entry: dict) -> Curve:
    check_keys("curve entry", entry, _CURVE_KEYS)
    try:
        return Curve(
            label=str(entry["label"]),
            times=tuple(float(t) for t in entry["times"]),
            zero_rates=tuple(float(r) for r in entry["zero_rates"]),
        )
    except KeyError as exc:
        raise ValueError(f"curve entry missing key {exc}") from None


def load_market_data(path) -> MarketData:
    """Read a market data file (YAML): curves, credit curves, FX spots."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ValueError(f"malformed market data file {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"market data file {path}: expected a mapping at top level")
    check_keys(f"market data file {path}", doc, _MARKET_KEYS)

    domestic = doc.get("domestic")
    if not domestic:
        raise ValueError("market data: 'domestic' currency missing")

    curves = {}
    for entry in doc.get("curves", []):
        c = _parse_curve(entry)
        curves[c.label] = c
    if domestic not in curves:
        raise ValueError(f"market data: no curve for domestic currency {domestic}")

    credit = {}
    for entry in doc.get("credit_curves", []):
        c = _parse_curve(entry)
        credit[c.label] = c

    fx_spots = {str(k): float(v) for k, v in (doc.get("fx_spots") or {}).items()}
    foreign = {ccy: c for ccy, c in curves.items() if ccy != domestic}
    return MarketData(
        domestic=domestic,
        domestic_curve=curves[domestic],
        foreign_curves=foreign,
        credit_curves=credit,
        fx_spots=fx_spots,
    )
