"""Monte Carlo option pricing on the shared normal draws.

A price is the discounted sample average of the payoff applied to the
model's log returns:

    C = e^(-r tau) S (1/N) sum_n (e^X_n - K/S)^+
    P = e^(-r tau) S (1/N) sum_n (K/S - e^X_n)^+

The draws are fixed per run, so prices are deterministic functions of the
model parameters.  Every sum over the draws at one maturity is read off
one ``MaturitySlice``: the growth factors e^X in ascending order (stable
order) prefix-summed in that order, only the sorted arrays kept, and its
two lookups answer a whole array of moneyness values at once: one side's
prices, or the calendar values.  Calibration, pricing, the penalties and
the audit all read the same slice.

The pool is stored in ascending Z (``sampling``) and every model's X is,
in practice, monotone in Z, so a slice first tests the growth in storage
order: non-decreasing means its stable order is the identity and the
growth is already sorted; strictly decreasing means the reversed view.
Either order is a ``slice``, and no index array, gather or sort is made.
Only a non-monotone X (a net that folds in Z, or a caller's unsorted
pool) takes the general path, where the calibration loop hands each
slice the previous iteration's order as a hint: the slice takes the
growth factors in that order as they are when they are already strictly
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

import numpy as np

from .models import bind

__all__ = ["MaturitySlice", "growth_factors", "price_chain", "quote_groups", "quote_prices"]


class MaturitySlice:
    """The growth factors e^X at one maturity, sorted once, with prefix sums.

    A slice keeps only sorted state: ``order``, the draws' stable
    ascending order, the sorted growth ``gs`` and its prefix sums; e^X in
    draw order is dropped once sorted.  ``order`` is ``slice(None)`` when
    the growth is non-decreasing in storage order and ``slice(None, None,
    -1)`` when it is strictly decreasing, else an index array; ``a[order]``
    is the draw-order array ``a`` in sorted order, and ``a[order] = b``
    puts a sorted ``b`` back, either way.  ``slope`` is dX/dtau on the
    same draws; without it ``calendars`` is unavailable.  With it the
    slice keeps ``a_sorted``, (slope - r) e^X in sorted order, for
    calibration's adjoint.  The two lookups,
    ``prices`` and ``calendars``, take an array of moneyness values K/S
    and return the values and the positions splitting the sorted growth
    array, which calibration's adjoint pass reuses.  A call sums growth > K/S, a put growth < K/S,
    a calendar call growth >= K/S and a calendar put growth <= K/S.

    ``hint`` is an optional candidate index order, such as the previous
    iteration's ``order``, for growth that is not monotone in storage
    order (a slice is no hint).  It is used only when the growth factors
    in that order, re-sorted if they are not already, give a strictly
    increasing sequence: with no ties the stable order is unique, so
    every field is bit-identical to a cold sort.  Ties, rounding
    inversions or no hint fall back to the cold stable sort.  A hint that
    is used becomes ``order``, reordered in place if it had to be
    re-sorted: the caller hands the array over, so a loop keeps one order
    buffer per maturity instead of allocating a new one that outlives
    each iteration (which fragments the heap).
    """

    __slots__ = ("tau", "rate", "a_sorted", "order", "gs", "cum_g", "cum_a", "mean_growth")

    def __init__(self, tau, rate, x, slope=None, hint=None):
        self.tau = tau
        self.rate = rate
        self.a_sorted = None
        self.order, self.gs = _stable_order(growth_factors(x, tau), hint)
        self.cum_g = _prefix_sums(self.gs)
        if slope is not None:  # (slope - r) e^X, slope in sorted order
            a = self.a_sorted = np.subtract(slope[self.order], rate)
            a *= self.gs
            self.cum_a = _prefix_sums(a)
        self.mean_growth = self.cum_g[-1] / self.gs.size

    @property
    def defect(self):
        """Martingale defect ln((1/N) sum_n e^X_n) - r tau."""
        return np.log(self.mean_growth) - self.rate * self.tau

    def prices(self, side, moneyness, spot):
        """Discounted Monte Carlo prices of one side at K/S, with positions."""
        n = self.gs.size
        if side == "call":
            pos = np.searchsorted(self.gs, moneyness, side="right")
            total = (self.cum_g[-1] - self.cum_g[pos]) - moneyness * (n - pos)
        else:
            pos = np.searchsorted(self.gs, moneyness, side="left")
            total = moneyness * pos - self.cum_g[pos]
        return np.exp(-self.rate * self.tau) * spot * (total / n), pos

    def calendars(self, moneyness):
        """Calendar values at K/S: (calls, call positions, puts, put positions).

        A call is (1/N) sum_{growth >= k} [(slope - r) growth + r k], a put
        (1/N) sum_{growth <= k} [(r - slope) growth - r k].
        """
        n = self.gs.size
        pos_c = np.searchsorted(self.gs, moneyness, side="left")
        pos_p = np.searchsorted(self.gs, moneyness, side="right")
        calls = ((self.cum_a[-1] - self.cum_a[pos_c]) + self.rate * moneyness * (n - pos_c)) / n
        puts = (-self.cum_a[pos_p] - self.rate * moneyness * pos_p) / n
        return calls, pos_c, puts, pos_p


def growth_factors(x, tau):
    """e^X at one maturity; raises FloatingPointError if any overflows."""
    with np.errstate(over="ignore"):
        growth = np.exp(x)
    if not np.all(np.isfinite(growth)):
        raise FloatingPointError(
            f"model produced non-finite growth factors at tau={float(tau):.6g}")
    return growth


_IDENTITY, _REVERSED = slice(None), slice(None, None, -1)


def _stable_order(growth, hint):
    """Stable ascending order of ``growth`` and the sorted values.

    Growth that is non-decreasing in storage order has the identity as
    its stable order, ties or not, and is its own sorted array; strictly
    decreasing growth has the reversal (a tie would keep its pair's
    storage order).  Otherwise an order whose sorted values are strictly
    increasing is the unique stable order, whatever sort produced it.
    So a full-length index hint is tried first: kept as it is when the
    growth is already strictly increasing in that order (in a fit, nearly
    every slice after the first), else re-sorted and, when that passes,
    permuted in place; otherwise numpy's default sort, which is cheaper
    than the stable one, and the stable sort only on ties.
    """
    if growth[0] <= growth[-1]:
        if np.all(growth[1:] >= growth[:-1]):
            return _IDENTITY, growth
    elif np.all(growth[1:] < growth[:-1]):
        return _REVERSED, growth[::-1].copy()
    if isinstance(hint, np.ndarray) and hint.size == growth.size:
        near = np.take(growth, hint)
        if _strictly_increasing(near):
            return hint, near
        perm = np.argsort(near, kind="stable")
        gs = near[perm]
        if _strictly_increasing(gs):
            return np.take(hint, perm, out=hint), gs
    order = np.argsort(growth)
    gs = np.take(growth, order)
    if not _strictly_increasing(gs):
        order = np.argsort(growth, kind="stable")
        gs = np.take(growth, order)
    return order, gs


def _prefix_sums(values):
    """[0, v_0, v_0 + v_1, ...] in one (N+1)-long array, summed in order."""
    out = np.empty(values.size + 1)
    out[0] = 0.0
    np.cumsum(values, out=out[1:])
    return out


def _strictly_increasing(values):
    return bool(np.all(values[1:] > values[:-1]))


def quote_groups(chain) -> list:
    """The chain's quotes by maturity, in maturity order and then chain order.

    One (tau, index, calls, moneyness, mids) per maturity: the quotes'
    positions in ``chain.quotes``, a mask of the calls, K/S and the mids.
    """
    quotes = chain.quotes
    calls = np.array([q.side == "call" for q in quotes], dtype=bool)
    moneyness = np.array([q.strike for q in quotes], dtype=float) / chain.spot
    mids = np.array([q.mid for q in quotes], dtype=float)
    taus, which = np.unique(np.array([q.tau for q in quotes], dtype=float), return_inverse=True)
    groups = []
    for i, tau in enumerate(taus):
        index = np.flatnonzero(which == i)
        groups.append((float(tau), index, calls[index], moneyness[index], mids[index]))
    return groups


def quote_prices(table, calls, moneyness, spot):
    """One maturity's quote prices and positions, calls and puts mixed."""
    prices = np.empty(moneyness.size)
    positions = np.empty(moneyness.size, dtype=np.intp)
    for side, mask in (("call", calls), ("put", ~calls)):
        prices[mask], positions[mask] = table.prices(side, moneyness[mask], spot)
    return prices, positions


def price_chain(model, chain, samples, hints=None) -> np.ndarray:
    """Price every quote in a chain from one maturity slice per maturity.

    The model is bound to the draws once, before the maturity loop.
    ``hints`` optionally maps a maturity to a candidate order for its
    slice (see ``MaturitySlice``), handed over as there.  Returns prices
    aligned with ``chain.quotes``.
    """
    bound = bind(model, samples)
    prices = np.empty(len(chain.quotes))
    for tau, index, calls, moneyness, _ in quote_groups(chain):
        rate = chain.rate(tau)
        table = MaturitySlice(tau, rate, bound.log_returns(tau, rate), hint=(hints or {}).get(tau))
        prices[index] = quote_prices(table, calls, moneyness, chain.spot)[0]
    return prices
