"""Instruments and their valuation as functions of the rate drivers.

A swap's value at a monitoring date u is an explicit function of the
zero-mean rate driver y of its currency: V(u; y) = phi * N * (-1_{u>T0}
+ sum_k wbar_k exp(-y B_k)). Both the Monte Carlo benchmark and the
analytic approximation price through this single function, so the two
branches cannot drift apart. The positivity boundary ystar is the
unique root of a monotone auxiliary function (a Jamshidian-style
decomposition), found by bracketed bisection plus Newton polish.

FX forwards are valued exactly on paths from the two reconstructed
zero-coupon bonds and the FX level; their positivity region under the
single-driver projection is a half-line in the domestic rate driver
with a closed-form threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
import yaml

from .mc import (CorrelationMatrix, DateState, ScenarioCube, exact_key, fx_factor,
                 rate_factor)
from .models import Hw1fParams, ModelSet, fx_terms, hw_terms, sigma_ratio


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


def load_portfolio(path) -> Portfolio:
    """Read a portfolio file (YAML list under 'instruments')."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    if not isinstance(doc, dict) or "instruments" not in doc:
        raise ValueError(f"portfolio file {path}: expected an 'instruments' list")
    out: list[Instrument] = []
    for entry in doc["instruments"]:
        kind = entry.get("type")
        if kind == "swap":
            out.append(Swap.regular(
                currency=str(entry["currency"]), notional=float(entry["notional"]),
                fixed_rate=float(entry["fixed_rate"]), expiry=float(entry["expiry"]),
                maturity=float(entry["maturity"]),
                frequency=int(entry.get("frequency", 1)),
                direction=str(entry.get("direction", "receiver"))))
        elif kind == "fx_forward":
            out.append(FxForward(
                currency=str(entry["currency"]), notional=float(entry["notional"]),
                strike=float(entry["strike"]), maturity=float(entry["maturity"]),
                phi={"buy": 1, "sell": -1}[str(entry.get("direction", "buy"))]))
        else:
            raise ValueError(f"unknown instrument type {kind!r}")
    return Portfolio(instruments=tuple(out))


# ---------------------------------------------------------------------------
# swap valuation in terms of the rate driver

@dataclass(frozen=True)
class SwapWeights:
    """Deterministic valuation bundle of one swap at one monitoring date."""

    beta: int                 # index of the first live payment date
    const: float              # -1 if u is past expiry, else 0
    w: np.ndarray             # raw weights, live dates only (k >= beta)
    wbar: np.ndarray          # weights with deterministic exponent folded in
    B: np.ndarray             # driver loadings B(u, T_k), live dates only
    pay_times: np.ndarray     # live payment dates


def swap_weights_on_dates(s: Swap, rp: Hw1fParams, t: float,
                          dates) -> list[SwapWeights]:
    """swap_weights at every monitoring date in `dates`, from one closed-form
    call over the (date, payment date) grid."""
    pay = np.asarray(s.schedule)
    u = np.asarray(dates, dtype=float)
    if np.any(u > pay[-1]):
        raise ValueError(f"monitoring date {u.max()} is past swap maturity {pay[-1]}")
    m = len(pay) - 1
    tau = s.accruals
    w = np.empty(m + 1)
    w[0] = -1.0
    w[1:m] = s.fixed_rate * tau[:-1]
    w[m] = 1.0 + s.fixed_rate * tau[-1]
    # first live index: 0 up to and including expiry, else the next payment date
    started = u > pay[0]
    beta = np.where(started, np.searchsorted(pay, u, side="left"), 0)
    mu = hw_terms(rp, t, u).mu
    # payments already made collapse onto the monitoring date and are cut below
    terms = hw_terms(rp, u[:, None], np.maximum(pay, u[:, None]))
    wbar = w * np.exp(terms.A_bar - mu[:, None] * terms.B)
    return [SwapWeights(beta=int(b), const=-1.0 if st else 0.0, w=w[b:],
                        wbar=wbar[i, b:], B=terms.B[i, b:], pay_times=pay[b:])
            for i, (b, st) in enumerate(zip(beta, started))]


def swap_weights(s: Swap, rp: Hw1fParams, t: float, u: float) -> SwapWeights:
    """Weights of the value function V(u; y) given time-t information."""
    return swap_weights_on_dates(s, rp, t, [u])[0]


def swap_value_y(s: Swap, sw: SwapWeights, y):
    """Swap value at the monitoring date as a function of the rate driver y."""
    y = np.asarray(y, dtype=float)
    # paths x live payments, the largest temporary of a valuation: one copy
    expo = np.multiply.outer(y, -sw.B)
    np.exp(expo, out=expo)
    val = s.phi * s.notional * (sw.const + expo @ sw.wbar)
    return float(val) if val.ndim == 0 else val


def _d_parts(sw: SwapWeights):
    """Coefficients c_k > 0 and exponents b_k > 0 of the monotone root function.

    The value is zero iff d(y) := sum_k c_k exp(-y b_k) equals 1; d is
    strictly decreasing, so the root (if the sum is nonempty) is unique.
    """
    if sw.const == 0.0:
        # normalize by the (negative) expiry-date term
        c = sw.wbar[1:] / (-sw.wbar[0])
        b = sw.B[1:] - sw.B[0]
    else:
        c = sw.wbar.copy()
        b = sw.B.copy()
    return c, b


def ystar(s: Swap, sw: SwapWeights, sd_y: float) -> float:
    """Positivity boundary: the y with V(u; y) = 0, or +/-inf when one-signed.

    Returns +inf when the value is positive for every y (indicator constant 1
    for a receiver) and -inf when never positive.
    """
    c, b = _d_parts(sw)
    if len(c) == 0 or np.all(c == 0.0):
        # no live cash flows beyond the normalizer: d = 0 < 1 everywhere
        return -math.inf
    if np.any(c < 0.0):
        raise ValueError("negative weights: root function not monotone")

    def log_d(y: float) -> float:
        z = np.log(c[c > 0.0]) - y * b[c > 0.0]
        zmax = z.max()
        return zmax + math.log(np.exp(z - zmax).sum())

    f0 = log_d(0.0)
    lo = hi = 0.0
    flo = fhi = f0
    k = 1.0
    while k <= 64.0:
        lo, hi = -k * sd_y, k * sd_y
        flo, fhi = log_d(lo), log_d(hi)
        if flo >= 0.0 >= fhi:
            break
        k *= 2.0
    else:
        # no sign change in the widest bracket: positivity is constant
        return math.inf if f0 > 0.0 else -math.inf

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if log_d(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-8:
            break
    root = 0.5 * (lo + hi)
    # Newton polish on log d (monotone decreasing, nearly linear)
    for _ in range(3):
        mask = c > 0.0
        e = c[mask] * np.exp(-root * b[mask])
        sd_ = e.sum()
        val = math.log(sd_)
        deriv = -(b[mask] * e).sum() / sd_
        root -= val / deriv
    return root


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


def _fx_forward_bonds(fwd: FxForward, models: ModelSet, t, u):
    """Domestic and foreign rate terms over (t, u) and over (u, T) of one
    forward: the bond exponents of both legs at the monitoring dates u."""
    rp_d, rp_f = models.rates[models.domestic], models.rates[fwd.currency]
    return (hw_terms(rp_d, t, u), hw_terms(rp_f, t, u),
            hw_terms(rp_d, u, fwd.maturity), hw_terms(rp_f, u, fwd.maturity))


def fx_forward_terms(fwd: FxForward, models: ModelSet, corr: CorrelationMatrix,
                     t: float, u: float) -> FxForwardTerms:
    if u > fwd.maturity:
        raise ValueError("monitoring date past forward maturity")
    dom = models.domestic
    f = fwd.currency
    td_u, tf_u, td_T, tf_T = _fx_forward_bonds(fwd, models, t, u)
    fx = models.fx[f]
    rho_d_fx = corr.entry(rate_factor(dom), fx_factor(f))
    rho_d_f = corr.entry(rate_factor(dom), rate_factor(f))
    mu_fx = fx_terms(models.rates[dom], models.rates[f], fx, rho_d_f, rho_d_fx,
                     corr.entry(rate_factor(f), fx_factor(f)), t, u).mu_fx
    w1 = math.exp(mu_fx + tf_T.A_bar - tf_u.mu * tf_T.B)
    p_d = math.exp(td_T.A_bar - td_u.mu * td_T.B)
    w2 = fwd.strike * p_d
    delta = w1 / p_d
    tau = u - t

    if tau <= 0.0:
        # degenerate at the valuation date: value sign is deterministic
        log_m = math.log(fwd.strike / delta)
        return FxForwardTerms(delta=delta, w1=w1, w2=w2, eta=0.0, B_dom=td_T.B,
                              ystar=0.0, constant_indicator=int(log_m <= 0.0))

    sd_yd = math.sqrt(td_u.var_y)
    sig_fx_noise = fx.sigma_fx * math.sqrt(tau) / sd_yd
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
# Each instrument's deterministic terms are computed once over all dates;
# the pathwise values then follow one date's simulated drivers at a time.

def _swap_terms(s: Swap, models: ModelSet, dates: np.ndarray) -> list[SwapWeights]:
    return swap_weights_on_dates(s, models.rates[s.currency], 0.0,
                                 dates[dates <= s.maturity])


def _swap_value(s: Swap, models: ModelSet, sw: SwapWeights, st: DateState):
    vals = swap_value_y(s, sw, st.y_r[s.currency])
    if s.currency != models.domestic:
        vals = vals * np.exp(st.ln_fx[s.currency])
    return vals


def _fx_forward_path_terms(fwd: FxForward, models: ModelSet, dates: np.ndarray):
    """Per live date: (A_bar, mu, B) of the domestic and of the foreign bond."""
    td_u, tf_u, td_T, tf_T = _fx_forward_bonds(fwd, models, 0.0,
                                               dates[dates <= fwd.maturity])
    return list(zip(td_T.A_bar, td_u.mu, td_T.B, tf_T.A_bar, tf_u.mu, tf_T.B))


def _fx_forward_value(fwd: FxForward, models: ModelSet, terms, st: DateState):
    """Exact pathwise value from reconstructed bonds and the FX level (domestic)."""
    a_d, mu_d, b_d, a_f, mu_f, b_f = terms
    p_d = np.exp(a_d - (mu_d + st.y_r[models.domestic]) * b_d)
    p_f = np.exp(a_f - (mu_f + st.y_r[fwd.currency]) * b_f)
    x_u = np.exp(st.ln_fx[fwd.currency])
    return fwd.phi * fwd.notional * (p_f * x_u - p_d * fwd.strike)


class PortfolioValuation:
    """Pathwise portfolio values in the domestic currency, date by date.

    The instruments' deterministic terms are computed once over `dates`;
    `row` then values one date's simulated drivers.

    The term builders see only what `key` holds as exact bytes
    (`mc.exact_key`): the instruments, the domestic currency, the rate
    models of the portfolio's currencies and the dates. They get a model
    set cut down to those rate models, with no FX or credit models, so no
    other input can reach them; two valuations of equal key give
    bitwise-equal rows on one date state.
    """

    def __init__(self, p: Portfolio, models: ModelSet, dates):
        self.key, self.models, dates = self._inputs(p, models, dates)
        self.parts = []
        for inst in p.instruments:
            if isinstance(inst, Swap):
                self.parts.append((inst, _swap_value, _swap_terms(inst, self.models, dates)))
            elif isinstance(inst, FxForward):
                self.parts.append((inst, _fx_forward_value,
                                   _fx_forward_path_terms(inst, self.models, dates)))
            else:
                raise TypeError(f"unknown instrument {type(inst)!r}")

    @staticmethod
    def _inputs(p: Portfolio, models: ModelSet, dates):
        """(key, cut-down model set, dates) of the valuation of `p` on `dates`."""
        for inst in p.instruments:
            if (isinstance(inst, Swap) and inst.currency != models.domestic
                    and inst.currency not in models.fx):
                raise KeyError(f"no FX model for {inst.currency}")
        ccys = sorted(p.currencies | {models.domestic})
        rates = {c: models.rates[c] for c in ccys}
        dates = np.asarray(dates, dtype=float)
        key = exact_key(dates, models.domestic, p.instruments, [rates[c] for c in ccys])
        return key, ModelSet(models.domestic, rates, fx={}, credit={}), dates

    @classmethod
    def key_of(cls, p: Portfolio, models: ModelSet, dates) -> bytes:
        """The `key` of `PortfolioValuation(p, models, dates)`, without
        computing its terms."""
        return cls._inputs(p, models, dates)[0]

    def row(self, st: DateState) -> np.ndarray:
        """Portfolio value per path at the state's date: the live instruments
        summed in portfolio order, starting from zeros."""
        out = np.zeros(len(st.Y_r[st.domestic]))
        for inst, value, terms in self.parts:
            if st.index < len(terms):
                out += value(inst, self.models, terms[st.index], st)
        return out


def value_matrix(p: Portfolio, models: ModelSet, cube: ScenarioCube) -> np.ndarray:
    """Portfolio values for every (date, path) pair of a cube."""
    valuation = PortfolioValuation(p, models, cube.dates)
    out = np.empty((len(cube.dates), cube.n_paths))
    for i in range(len(cube.dates)):
        out[i] = valuation.row(cube.state(i))
    return out


def static_portfolio_value(p: Portfolio, models: ModelSet) -> float:
    """Date-0 portfolio value from the curves alone (no simulation)."""
    total = 0.0
    for inst in p.instruments:
        if isinstance(inst, Swap):
            curve = models.rates[inst.currency].curve
            pay = np.asarray(inst.schedule)
            tau = inst.accruals
            v = (-curve.discount(pay[0]) + curve.discount(pay[-1])
                 + inst.fixed_rate * float(np.sum(tau * curve.discount(pay[1:]))))
            v *= inst.phi * inst.notional
            if inst.currency != models.domestic:
                v *= models.fx[inst.currency].spot
            total += v
        elif isinstance(inst, FxForward):
            dom_curve = models.rates[models.domestic].curve
            f_curve = models.rates[inst.currency].curve
            total += inst.phi * inst.notional * (
                f_curve.discount(inst.maturity) * models.fx[inst.currency].spot
                - dom_curve.discount(inst.maturity) * inst.strike)
        else:
            raise TypeError(f"unknown instrument {type(inst)!r}")
    return total
