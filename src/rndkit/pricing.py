"""Monte Carlo option pricing on the shared normal draws.

A price is the discounted sample average of the payoff applied to the
model's log returns:

    C = e^(-r tau) S (1/N) sum_n (e^X_n - K/S)^+
    P = e^(-r tau) S (1/N) sum_n (K/S - e^X_n)^+

The draws are fixed per run, so prices are deterministic functions of the
model parameters.  Every sum over the draws at one maturity is read off
one ``MaturitySlice``: the growth factors e^X in ascending order (stable
order), only the sorted arrays kept, with the running sums of their
block totals from below and from above (``block_sums``, N / SUM_BLOCK + 1
values each way), and its two lookups answer a whole array of moneyness
values at once: one side's prices, or the calendar values.  A lookup adds whole blocks and one
pairwise sum within a block (``range_sums``); a call's tail is summed
from the top, so an out-of-the-money price keeps its digits.  The block
sums are ``numerics``', the one owner of how the pool is summed; this
module only applies them.  Calibration, pricing, the penalties and the
audit all read the same slice.

The pool is stored in ascending Z (``sampling``) and every model's X is,
in practice, monotone in Z, so a slice first tests the growth in storage
order: non-decreasing means its stable order is the identity and the
growth is already sorted; strictly decreasing means the reversed view.
Either order is a ``slice``, and no index array, gather or sort is made.
Only a non-monotone X (a net that folds in Z, or a caller's unsorted
pool) takes one stable sort; numpy's is run-adaptive (timsort), so
growth made of a few monotone runs sorts in about O(N).  Calibration
sorts a caller's unsorted pool once, before its loop.
``growth_factors`` is e^X alone, for callers that need no sums.
Each entry point binds the model to the draws once (``models.bind``), so
G_Z(Z) is evaluated once per call however many maturities it prices, and
not at all when the caller passes a model already bound to these draws.
"""

from __future__ import annotations

import numpy as np

from .models import bind
from .numerics import SUM_BLOCK, block_sums, block_totals, range_sums

__all__ = ["MaturitySlice", "growth_factors", "price_chain", "quote_groups", "quote_prices"]


class MaturitySlice:
    """The growth factors e^X at one maturity, sorted once, with block sums.

    A slice keeps only sorted state: ``order``, the draws' stable
    ascending order, the sorted growth ``gs`` and ``blocks_g``, the
    running sums of its block totals (``block_sums``); e^X in draw order
    is dropped once sorted.  ``order`` is ``slice(None)`` when the growth
    is non-decreasing in storage order and ``slice(None, None, -1)`` when
    it is strictly decreasing, else the index array of one stable sort;
    ``a[order]`` is the draw-order array ``a`` in sorted order, and
    ``a[order] = b`` puts a sorted ``b`` back, either way.  ``slope`` is
    dX/dtau on the same draws; without it ``calendars`` is unavailable.
    With it the slice keeps ``a_sorted``, (slope - r) e^X in sorted
    order, and its ``blocks_a``.  The two lookups, ``prices`` and
    ``calendars``, take an array of moneyness values K/S and return the
    values and the positions splitting the sorted growth array, which
    calibration's adjoint pass reuses.  A call sums growth > K/S, a put growth < K/S, a calendar call
    growth >= K/S and a calendar put growth <= K/S.  Every sum is read off
    the block sums (``range_sums``), so a value depends only on the slice
    and its position, never on the other moneyness values asked for.
    """

    __slots__ = ("tau", "rate", "a_sorted", "order", "gs", "blocks_g", "blocks_a", "mean_excess")

    def __init__(self, tau, rate, x, slope=None):
        self.tau = tau
        self.rate = rate
        self.a_sorted = None
        self.order, self.gs = _stable_order(growth_factors(x, tau))
        n = self.gs.size
        totals = block_totals(self.gs)
        self.blocks_g = block_sums(totals)
        # each total less its block's length (exact within a factor 2 of
        # it), so the mean's excess over 1 keeps the digits that rounding
        # the mean itself near 1 drops
        lengths = np.minimum(SUM_BLOCK, n - SUM_BLOCK * np.arange(totals.size))
        self.mean_excess = np.sum(totals - lengths) / n
        if slope is not None:  # (slope - r) e^X, slope in sorted order
            a = self.a_sorted = np.subtract(slope[self.order], rate)
            a *= self.gs
            self.blocks_a = block_sums(block_totals(a))

    @property
    def mean_growth(self):
        """(1/N) sum_n e^X_n."""
        return 1.0 + self.mean_excess

    @property
    def defect(self):
        """Martingale defect ln((1/N) sum_n e^X_n) - r tau, the log taken
        as log1p of the mean's excess over 1."""
        return np.log1p(self.mean_excess) - self.rate * self.tau

    def prices(self, side, moneyness, spot):
        """Discounted Monte Carlo prices of one side at K/S, with positions."""
        n = self.gs.size
        if side == "call":
            pos = np.searchsorted(self.gs, moneyness, side="right")
            total = range_sums(self.gs, self.blocks_g, pos, True) - moneyness * (n - pos)
        else:
            pos = np.searchsorted(self.gs, moneyness, side="left")
            total = moneyness * pos - range_sums(self.gs, self.blocks_g, pos, False)
        return np.exp(-self.rate * self.tau) * spot * (total / n), pos

    def calendars(self, moneyness):
        """Calendar values at K/S: (calls, call positions, puts, put positions).

        A call is (1/N) sum_{growth >= k} [(slope - r) growth + r k], a put
        (1/N) sum_{growth <= k} [(r - slope) growth - r k].
        """
        n = self.gs.size
        pos_c = np.searchsorted(self.gs, moneyness, side="left")
        pos_p = np.searchsorted(self.gs, moneyness, side="right")
        a, blocks = self.a_sorted, self.blocks_a
        calls = (range_sums(a, blocks, pos_c, True) + self.rate * moneyness * (n - pos_c)) / n
        puts = (-range_sums(a, blocks, pos_p, False) - self.rate * moneyness * pos_p) / n
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


def _stable_order(growth):
    """Stable ascending order of ``growth`` and the sorted values.

    Growth that is non-decreasing in storage order has the identity as
    its stable order, ties or not, and is its own sorted array; strictly
    decreasing growth has the reversal (a tie would keep its pair's
    storage order).  Any other growth takes one stable sort.
    """
    if growth[0] <= growth[-1]:
        if np.all(growth[1:] >= growth[:-1]):
            return _IDENTITY, growth
    elif np.all(growth[1:] < growth[:-1]):
        return _REVERSED, growth[::-1].copy()
    order = np.argsort(growth, kind="stable")
    return order, np.take(growth, order)


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


def price_chain(model, chain, samples) -> np.ndarray:
    """Price every quote in a chain from one maturity slice per maturity.

    The model is bound to the draws once, before the maturity loop.
    Returns prices aligned with ``chain.quotes``.
    """
    bound = bind(model, samples)
    prices = np.empty(len(chain.quotes))
    for tau, index, calls, moneyness, _ in quote_groups(chain):
        rate = chain.rate(tau)
        table = MaturitySlice(tau, rate, bound.log_returns(tau, rate))
        prices[index] = quote_prices(table, calls, moneyness, chain.spot)[0]
    return prices
