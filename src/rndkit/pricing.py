"""Monte Carlo option pricing on the shared normal draws.

A price is the discounted sample average of the payoff applied to the
model's log returns:

    C = e^(-r tau) S (1/N) sum_n (e^X_n - K/S)^+
    P = e^(-r tau) S (1/N) sum_n (K/S - e^X_n)^+

The draws are fixed per run, so prices are deterministic functions of the
model parameters.  Every sum over the draws at one maturity is read off
one ``MaturitySlice``: the growth factors e^X are sorted once (stable
sort) and prefix-summed in that fixed order, so a price, a calendar
value or the martingale defect costs one binary search.  Calibration,
pricing, the penalties and the audit all read the same slice.  The calibration loop hands each slice
the previous iteration's order as a hint: the slice takes the growth
factors in that order as they are when they are already strictly
increasing, or else re-sorts them (nearly sorted, so about O(N)), and
keeps the result only when it is strictly increasing, the one case in
which it must equal the cold stable sort; otherwise it sorts cold, with
numpy's default sort under the same test and the stable sort only on
ties.  ``growth_factors`` is e^X alone, for callers that need no sums.
Each entry point binds the model to the draws once (``models.bind``), so
G_Z(Z) is evaluated once per call however many maturities it prices, and
not at all when the caller passes a model already bound to these draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import bind, sample_log_returns

__all__ = ["MaturitySlice", "PriceRequest", "growth_factors", "price", "price_chain"]

SIDES = ("call", "put")


@dataclass
class PriceRequest:
    side: str
    spot: float
    strike: float
    tau: float
    rate: float

    def __post_init__(self):
        if self.side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}")
        if self.spot <= 0.0:
            raise ValueError("spot must be positive")
        if self.strike < 0.0:
            raise ValueError("strike must be non-negative")
        if self.tau < 0.0:
            raise ValueError("tau must be non-negative")


class MaturitySlice:
    """The growth factors e^X at one maturity, sorted once, with prefix sums.

    ``slope`` is dX/dtau on the same draws; without it the calendar
    lookups are unavailable.  Each lookup returns its value and the
    position splitting the sorted growth array, which calibration's
    adjoint pass reuses.  A call sums growth > K/S, a put growth < K/S,
    a calendar call growth >= K/S and a calendar put growth <= K/S.

    ``hint`` is an optional candidate order, such as the previous
    iteration's ``order``.  It is used only when the growth factors in
    that order, re-sorted if they are not already, give a strictly
    increasing sequence: with no ties the stable order is unique, so
    every field is bit-identical to a cold sort.  Ties, rounding
    inversions or no hint fall back to the cold stable sort.  A hint that
    is used becomes ``order``, reordered in place if it had to be
    re-sorted: the caller hands the array over, so a loop keeps one order
    buffer per maturity instead of allocating a new one that outlives
    each iteration (which fragments the heap).
    """

    __slots__ = ("tau", "rate", "growth", "slope", "order", "gs", "cum_g",
                 "cum_a", "mean_growth")

    def __init__(self, tau, rate, x, slope=None, hint=None):
        growth = growth_factors(x, tau)
        self.tau = tau
        self.rate = rate
        self.growth = growth
        self.slope = slope
        self.order, self.gs = _stable_order(growth, hint)
        self.cum_g = _prefix_sums(self.gs)
        if slope is not None:
            a = np.subtract(slope, rate)
            a *= growth
            self.cum_a = _prefix_sums(a[self.order])
        self.mean_growth = self.cum_g[-1] / growth.size

    @property
    def defect(self):
        """Martingale defect ln((1/N) sum_n e^X_n) - r tau."""
        return np.log(self.mean_growth) - self.rate * self.tau

    def call_price_sum(self, moneyness):
        """sum of (growth - k)^+ and the strict-ITM split position."""
        n = self.gs.size
        pos = int(np.searchsorted(self.gs, moneyness, side="right"))
        return (self.cum_g[-1] - self.cum_g[pos]) - moneyness * (n - pos), pos

    def put_price_sum(self, moneyness):
        pos = int(np.searchsorted(self.gs, moneyness, side="left"))
        return moneyness * pos - self.cum_g[pos], pos

    def price(self, side, strike, spot):
        """Discounted Monte Carlo price of one option, with its position."""
        m = strike / spot
        total, pos = self.call_price_sum(m) if side == "call" else self.put_price_sum(m)
        return np.exp(-self.rate * self.tau) * spot * (total / self.gs.size), pos

    def calendar_call(self, moneyness):
        """(1/N) sum_{growth >= k} [(slope - r) growth + r k], with position."""
        n = self.gs.size
        pos = int(np.searchsorted(self.gs, moneyness, side="left"))
        value = (self.cum_a[-1] - self.cum_a[pos]) + self.rate * moneyness * (n - pos)
        return value / n, pos

    def calendar_put(self, moneyness):
        n = self.gs.size
        pos = int(np.searchsorted(self.gs, moneyness, side="right"))
        value = -self.cum_a[pos] - self.rate * moneyness * pos
        return value / n, pos


def growth_factors(x, tau):
    """e^X at one maturity; raises FloatingPointError if any overflows."""
    with np.errstate(over="ignore"):
        growth = np.exp(x)
    if not np.all(np.isfinite(growth)):
        raise FloatingPointError(
            f"model produced non-finite growth factors at tau={float(tau):.6g}")
    return growth


def _stable_order(growth, hint):
    """Stable ascending order of ``growth`` and the sorted values.

    An order whose sorted values are strictly increasing is the unique
    stable order, whatever sort produced it.  So a full-length hint is
    tried first: kept as it is when the growth is already strictly
    increasing in that order (in a fit, nearly every slice after the
    first), else re-sorted and, when that passes, permuted in place
    (``take`` buffers ``out`` in raise mode); otherwise numpy's default
    sort, which is cheaper than the stable one, and the stable sort only
    on ties.
    """
    if hint is not None and hint.size == growth.size:
        near = growth[hint]
        if _strictly_increasing(near):
            return hint, near
        perm = np.argsort(near, kind="stable")
        gs = near[perm]
        if _strictly_increasing(gs):
            return np.take(hint, perm, out=hint), gs
    order = np.argsort(growth)
    gs = growth[order]
    if not _strictly_increasing(gs):
        order = np.argsort(growth, kind="stable")
        gs = growth[order]
    return order, gs


def _prefix_sums(values):
    """[0, v_0, v_0 + v_1, ...] in one (N+1)-long array, summed in order."""
    out = np.empty(values.size + 1)
    out[0] = 0.0
    np.cumsum(values, out=out[1:])
    return out


def _strictly_increasing(values):
    return bool(np.all(values[1:] > values[:-1]))


def _intrinsic(side, spot, strike) -> float:
    """Exact price at tau = 0, where the distribution is degenerate."""
    return max(spot - strike, 0.0) if side == "call" else max(strike - spot, 0.0)


def price(model, req: PriceRequest, samples) -> float:
    """Monte Carlo price of one request."""
    if req.tau == 0.0:
        return _intrinsic(req.side, req.spot, req.strike)
    x = sample_log_returns(model, req.tau, samples, req.rate)
    return MaturitySlice(req.tau, req.rate, x).price(req.side, req.strike, req.spot)[0]


def price_chain(model, chain, samples, hints=None) -> np.ndarray:
    """Price every quote in a chain from one maturity slice per maturity.

    The model is bound to the draws once, before the maturity loop.
    ``hints`` optionally maps a maturity to a candidate order for its
    slice (see ``MaturitySlice``), handed over as there.  Returns prices
    aligned with ``chain.quotes``.
    """
    bound = bind(model, samples)
    quotes = chain.quotes
    by_tau = {}
    for i, q in enumerate(quotes):
        by_tau.setdefault(q.tau, []).append(i)
    prices = np.empty(len(quotes))
    for tau in sorted(by_tau):
        idx = by_tau[tau]
        rate = chain.rate(tau)
        table = MaturitySlice(tau, rate, bound.log_returns(tau, rate), hint=(hints or {}).get(tau))
        prices[idx] = [table.price(quotes[i].side, quotes[i].strike, chain.spot)[0] for i in idx]
    return prices
