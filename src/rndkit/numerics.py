"""Deterministic reduction helpers shared across the toolkit.

All reductions here run in a fixed order, so repeated runs produce
bit-identical results.
"""

from __future__ import annotations

import numpy as np

__all__ = ["kahan_sum", "logmeanexp", "sorted_unique"]

_CHUNK = 4096


def kahan_sum(values) -> float:
    """Compensated sum of a 1-d array.

    Values are summed pairwise inside fixed-size chunks and the chunk
    totals are combined with Kahan compensation in chunk order, so the
    result is identical across runs.
    """
    x = np.asarray(values, dtype=float).ravel()
    total = 0.0
    comp = 0.0
    for start in range(0, x.size, _CHUNK):
        part = float(np.sum(x[start:start + _CHUNK]))
        y = part - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def logmeanexp(values) -> float:
    """log(mean(exp(x))) with the usual max-shift for overflow safety."""
    x = np.asarray(values, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("logmeanexp of empty array")
    m = float(np.max(x))
    if not np.isfinite(m):
        return m
    e = x - m
    np.exp(e, out=e)
    return m + np.log(kahan_sum(e) / x.size)


def sorted_unique(values) -> np.ndarray:
    """``np.unique`` of finite floats, without the masked-array check that imports numpy.ma."""
    x = np.sort(np.asarray(values, dtype=float).ravel())
    return x[np.concatenate(([True], x[1:] != x[:-1]))] if x.size else x
