"""Deterministic reduction helpers shared across the toolkit.

This module owns how a pool of draws is summed: in blocks of SUM_BLOCK
from index 0, each block summed pairwise (``block_totals``), with the
running sums of the block totals from below and from above
(``block_sums``), off which any prefix or suffix is read as whole blocks
plus one pairwise in-block sum (``range_sums``).  Pricing's maturity
slices, rn-q's Jacobian and ``logmeanexp`` all sum this way.  Every
reduction runs in a fixed order, so repeated runs produce bit-identical
results.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SUM_BLOCK", "block_sums", "block_totals", "logmeanexp", "range_sums",
           "sorted_unique"]

SUM_BLOCK = 512  # elements per block total


def block_totals(values):
    """Totals of ``values`` in blocks of SUM_BLOCK from index 0, each
    summed pairwise (``np.add.reduceat``)."""
    return np.add.reduceat(values, np.arange(0, values.size, SUM_BLOCK))


def block_sums(totals):
    """The running sums of M block totals, one (2, M + 1) array: row 0
    holds the sums below each block boundary, row 1 the sums at and above
    it, both 0.0 at the far end.  Row 1 is summed from the top, not taken
    as the total minus row 0, so a small upper tail keeps its digits."""
    sums = np.zeros((2, totals.size + 1))
    np.cumsum(totals, out=sums[0, 1:])
    np.cumsum(totals[::-1], out=sums[1, -2::-1])
    return sums


def range_sums(values, sums, positions, upper):
    """Sums of ``values`` below each position, or at and above it where
    ``upper`` (one flag, or one per position), with ``sums`` the
    ``block_sums`` of ``values``' ``block_totals``.

    Each is a running sum of whole blocks plus one pairwise sum over the
    rest of the position's block, so it depends only on (values, position),
    never on the other positions asked for.
    """
    positions = np.asarray(positions)
    upper = np.broadcast_to(upper, positions.shape)
    block = np.minimum(positions // SUM_BLOCK, sums.shape[1] - 2)
    start = block * SUM_BLOCK
    lo = np.where(upper, positions, start)
    hi = np.where(upper, np.minimum(start + SUM_BLOCK, values.size), positions)
    part = np.array([np.add.reduce(values[i:j]) for i, j in zip(lo.tolist(), hi.tolist())],
                    dtype=float)
    return np.where(upper, part + sums[1, block + 1], sums[0, block] + part)


def logmeanexp(values) -> float:
    """log(mean(exp(x))) with the usual max-shift for overflow safety; the
    shifted exponentials are summed by their block totals."""
    x = np.asarray(values, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("logmeanexp of empty array")
    m = float(np.max(x))
    if not np.isfinite(m):
        return m
    e = x - m
    np.exp(e, out=e)
    return m + np.log(np.sum(block_totals(e)) / x.size)


def sorted_unique(values) -> np.ndarray:
    """``np.unique`` of finite floats, without the masked-array check that imports numpy.ma."""
    x = np.sort(np.asarray(values, dtype=float).ravel())
    return x[np.concatenate(([True], x[1:] != x[:-1]))] if x.size else x
