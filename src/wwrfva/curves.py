"""Market term structures.

Curves are continuously-compounded zero-rate curves with linear
interpolation in the zero rate and flat extrapolation on both ends.
Credit curves reuse the same type: their "discount" is the market
survival probability of the entity.
"""

from __future__ import annotations

import math
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
            if not (math.isfinite(spot) and spot > 0.0):
                raise ValueError(f"fx_spots: {ccy} must be finite and positive, "
                                 f"got {spot!r}")
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


def check_keys(where: str, record, allowed, required=()) -> None:
    """Refuse an input mapping with a key outside `allowed` or without one
    of `required`, or a non-mapping: the loaders refuse a misspelt or
    missing key rather than run without it."""
    if not isinstance(record, dict):
        raise ValueError(f"{where}: expected a mapping")
    unknown = sorted(set(record) - set(allowed), key=str)
    if unknown:
        raise ValueError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}; "
                         f"allowed: {', '.join(allowed)}")
    missing = [k for k in required if k not in record]
    if missing:
        raise ValueError(f"{where}: missing key(s) {', '.join(map(repr, missing))}")


def number(where: str, key, value) -> float:
    """An input value as a float, refusing a bool or anything `float` does
    not take with a message that names where the value sits."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{where}: {key} must be a number, got {value!r}")


def integer(where: str, key, value) -> int:
    """An input value as an int: an int, or an integral float such as 2000.0.
    Refuses a bool, a string and a float that `int` would truncate, with a
    message that names where the value sits."""
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and (isinstance(value, int) or value.is_integer())):
        return int(value)
    raise ValueError(f"{where}: {key} must be an integer, got {value!r}")


_MARKET_KEYS = ("domestic", "curves", "credit_curves", "fx_spots")
_CURVE_KEYS = ("label", "times", "zero_rates")


def _parse_curve(where: str, entry: dict) -> Curve:
    check_keys(where, entry, _CURVE_KEYS, required=_CURVE_KEYS)
    return Curve(
        label=str(entry["label"]),
        times=tuple(number(where, "times", t) for t in entry["times"]),
        zero_rates=tuple(number(where, "zero_rates", r) for r in entry["zero_rates"]),
    )


# PyYAML's libyaml parser where PyYAML was built with it: the same safe
# documents, parsed several times faster than by the pure-Python loader
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_yaml(path, what: str):
    """The YAML document in the file at `path`; a malformed one is a
    ValueError that names `what` and the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return yaml.load(fh, Loader=_YAML_LOADER)
        except yaml.YAMLError as exc:
            raise ValueError(f"malformed {what} {path}: {exc}") from None


def load_market_data(path) -> MarketData:
    """Read a market data file (YAML): curves, credit curves, FX spots."""
    doc = load_yaml(path, "market data file")
    if not isinstance(doc, dict):
        raise ValueError(f"market data file {path}: expected a mapping at top level")
    check_keys(f"market data file {path}", doc, _MARKET_KEYS)

    domestic = doc.get("domestic")
    if not domestic:
        raise ValueError("market data: 'domestic' currency missing")

    curves = {}
    for n, entry in enumerate(doc.get("curves", [])):
        c = _parse_curve(f"market data file {path}: curves entry {n}", entry)
        curves[c.label] = c
    if domestic not in curves:
        raise ValueError(f"market data: no curve for domestic currency {domestic}")

    credit = {}
    for n, entry in enumerate(doc.get("credit_curves", [])):
        c = _parse_curve(f"market data file {path}: credit_curves entry {n}", entry)
        credit[c.label] = c

    fx_spots = {str(k): number(f"market data file {path}: fx_spots", k, v)
                for k, v in (doc.get("fx_spots") or {}).items()}
    foreign = {ccy: c for ccy, c in curves.items() if ccy != domestic}
    try:
        return MarketData(
            domestic=domestic,
            domestic_curve=curves[domestic],
            foreign_curves=foreign,
            credit_curves=credit,
            fx_spots=fx_spots,
        )
    except ValueError as exc:
        raise ValueError(f"market data file {path}: {exc}") from None
