"""Deterministic reduction helpers shared across the toolkit.

All reductions here run in a fixed order that does not depend on thread
count, so repeated runs (and runs with different ``threads`` settings)
produce bit-identical results.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = ["kahan_sum", "logmeanexp", "parallel_map"]

_CHUNK = 4096


def kahan_sum(values, chunk: int = _CHUNK) -> float:
    """Compensated sum of a 1-d array.

    Values are summed pairwise inside fixed-size chunks and the chunk
    totals are combined with Kahan compensation in chunk order.  The
    result is independent of threading and identical across runs.
    """
    x = np.asarray(values, dtype=float).ravel()
    total = 0.0
    comp = 0.0
    for start in range(0, x.size, chunk):
        part = float(np.sum(x[start:start + chunk]))
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
    return m + np.log(kahan_sum(np.exp(x - m)) / x.size)


def parallel_map(fn, items, threads=None):
    """Order-preserving map, optionally over a thread pool.

    Work items must be independent; results are collected in input order
    so the combine step downstream stays deterministic.
    """
    items = list(items)
    if threads is None or threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
