"""Small dense feed-forward networks in plain numpy.

Softplus hidden layers, linear output.  Besides forward evaluation the
module provides reverse-mode parameter gradients, the analytic input
derivative, and the parameter gradient of that input derivative; the
calibration objectives need all three.  Gradients are accumulated in a
fixed (layer, row, column) order so flattened vectors are reproducible.

A hidden layer takes one exp: with e = e^h the softplus is log1p(e) and
its derivative, the sigmoid, is e / (1 + e), so a layer writes e and
then the softplus over its pre-activation buffer and the sigmoid into
one other buffer.  A pass in which e^h would overflow (any h above ln of
the largest double, about 709.78) takes the max form instead,
max(h, 0) + log1p(e^-|h|).  A layer with one input (net_z's first) and
the backward pass through one output (its last) form their outer
products by a broadcast multiply, with the bits of the 1-wide matmul.

A 1 -> ... -> 1 network read at many inputs (G_Z at all N draws) runs at
M knots, and the inputs read the cubic Hermite interpolant of its knot
values and slopes (``KnotPass``, on a ``KnotLattice`` a fit keeps); its
parameter gradient, exact for the interpolant, moves the inputs' weights
onto the knots and runs one float64 backward pass over the M rows the
knot pass kept.  Both cost O(M) network rows and O(N) vector arithmetic.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from dataclasses import dataclass
from itertools import count, takewhile

import numpy as np

from .numerics import sorted_unique

__all__ = [
    "DenseNetwork",
    "KnotLattice",
    "KnotPass",
    "ParamGradient",
    "Scratch",
    "init_network",
    "softplus",
    "softplus_prime",
    "stack_caches",
]


def softplus(x):
    """ln(1 + e^x), overflow-safe: for large x this is x + ln(1 + e^-x)."""
    x = np.asarray(x, dtype=float)
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    return out if out.ndim else float(out)


def _expit(v):
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:
        return 0.0  # e^-v is inf


def softplus_prime(x):
    """d/dx softplus = logistic sigmoid, 1 / (1 + e^-x).

    Element by element through the C library's ``exp``, which gives
    ``scipy.special.expit``'s bits; numpy's vectorized ``np.exp`` does
    not always.  Its callers pass a few Adam coordinates.
    """
    x = np.asarray(x, dtype=float)
    out = np.fromiter(map(_expit, x.ravel().tolist()), float, count=x.size).reshape(x.shape)
    return out if out.ndim else float(out)


# exp(h) is finite exactly when h <= ln(largest double) = 709.78...
_EXP_MAX = math.log(sys.float_info.max)


def _softplus_and_sigmoid(h, t=None):
    # One exp per layer: e = e^h over h, the sigmoid e / (1 + e) into
    # ``t`` (h-shaped, or None to allocate), then the softplus log1p(e)
    # over e, so a layer uses h's buffer and one other.  Both keep full
    # relative accuracy in the lower tail, where e is the answer to
    # working precision.  A pass with any h above _EXP_MAX (or a NaN)
    # would overflow e and takes the max form, whose exp never overflows.
    if not float(h.max(initial=-math.inf)) <= _EXP_MAX:  # initial: no rows is fine
        return _softplus_and_sigmoid_max_form(h, t)
    e = np.exp(h, out=h)
    sig = np.add(e, 1.0, out=t)
    np.divide(e, sig, out=sig)
    return np.log1p(e, out=e), sig


def _softplus_and_sigmoid_max_form(h, t):
    t = np.abs(h, out=t)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    sp = np.maximum(h, 0.0, out=h)
    sp += t
    sig = np.negative(sp, out=t)
    np.expm1(sig, out=sig)
    np.negative(sig, out=sig)
    return sp, sig


def _product(a, b, out=None):
    # a @ b.  With one inner column (net_z's 1-wide input, or the backward
    # pass through its 1-wide output) the product is an outer product: a
    # broadcast multiply gives the same bits at about half the cost of
    # OpenBLAS's K=1 GEMM.
    if a.shape[1] == 1:
        return np.multiply(a, b, out=out)
    return np.matmul(a, b, out=out)


@dataclass
class ParamGradient:
    """Gradient with the same layout as the network parameters."""

    weights: list
    biases: list

    def to_vector(self) -> np.ndarray:
        return np.concatenate([np.asarray(a, dtype=float).ravel()
                               for pair in zip(self.weights, self.biases) for a in pair])


# forward-pass state reused by the weighted backward passes
_BatchCache = namedtuple("_BatchCache", "acts sigs tangents tangent_pre", defaults=(None, None))


class Scratch:
    """Buffers that every evaluation of a fit reuses: ``take(key, rows,
    *width)`` is the leading rows of the float64 buffer under ``key``, made
    on first use or when a use asks for more rows or another width, and
    ``lattices`` the fit's knot lattices by knot count (``KnotPass``).
    A pass's cache and values are views into the buffers, valid until the
    next pass through the same buffers, so each binding or fit makes or
    carries its own.
    """

    __slots__ = ("_buffers", "lattices")

    def __init__(self):
        self._buffers, self.lattices = {}, {}

    def take(self, key, rows, *width):
        buf = self._buffers.get(key)
        if buf is None or buf.shape[0] < rows or buf.shape[1:] != width:
            buf = self._buffers[key] = np.empty((rows, *width))
        return buf[:rows]


def stack_caches(caches) -> _BatchCache:
    """The cache of one pass over the inputs of several ``scalar_batch``
    passes of one network, in order, so one backward call serves them all."""
    fields = [[getattr(c, name) for c in caches] for name in _BatchCache._fields]
    return _BatchCache(*(None if f[0] is None else [np.concatenate(r) for r in zip(*f)]
                         for f in fields))


# ----------------------------------------------------------------------
# cubic Hermite interpolation on a knot lattice

FIRST_KNOTS = 1024  # the first uniform lattice tried
KNOT_GAP = 1e-13  # the largest midpoint gap, relative to the largest |value|


class KnotLattice:
    """Cubic Hermite interpolation from values y and slopes s at sorted
    knots onto fixed inputs x in [knots[0], knots[-1]]: an input in interval
    i (the top knot's a padded one) at local coordinate t in [0, 1) reads
    y[i] + c1 t + c2 t^2 + c3 t^3 by Horner's rule, with h the width,
    dy = y[i + 1] - y[i], c1 = h s[i], c2 = 3 dy - 2 h s[i] - h s[i + 1] and
    c3 = h s[i] + h s[i + 1] - 2 dy; at a knot (t = 0) it reads y[i] exactly.

    The lattice works on the inputs in ascending order, x itself when it
    is non-decreasing (the pool's own order), else x's stable sort, whose
    order it keeps.  Each interval's inputs are then one contiguous run,
    found by one ``searchsorted`` of the knots, and the adjoint sums each
    run with ``np.add.reduceat``.
    """

    __slots__ = ("knots", "_order", "_starts", "_empty", "_index", "_coord", "_width")

    def __init__(self, x, knots):
        self.knots = knots
        self._order = None if np.all(x[1:] >= x[:-1]) else np.argsort(x, kind="stable")
        xs = x if self._order is None else x[self._order]
        self._starts = np.searchsorted(xs, knots)  # each interval's first input
        counts = np.diff(self._starts, append=x.size)
        self._empty = counts == 0
        self._index = i = np.repeat(np.arange(knots.size), counts)
        self._width = np.diff(knots)
        t = np.take(knots, i)
        np.subtract(xs, t, out=t)
        t /= np.take(np.append(self._width, 1.0), i)  # the top knot's t is 0 / 1
        self._coord = t

    def values(self, y, s, out=None) -> np.ndarray:
        """The interpolant of knot values y and slopes s at every input."""
        h, dy = self._width, y[1:] - y[:-1]
        c = np.zeros((4, y.size))  # the padded interval's cubic is y alone
        c[0], c[1, :-1] = y, h * s[:-1]
        c[2, :-1] = 3.0 * dy - 2.0 * c[1, :-1] - h * s[1:]
        c[3, :-1] = c[1, :-1] + h * s[1:] - 2.0 * dy
        i, t = self._index, self._coord
        out = np.take(c[3], i, out=out, mode="clip")  # "raise" would buffer out
        part = np.empty_like(t)
        for row in c[2::-1]:
            out *= t
            out += np.take(row, i, out=part, mode="clip")
        if self._order is not None:  # back to the inputs' order, through part
            part[self._order] = out
            out[...] = part
        return out

    def adjoint(self, w):
        """(wy, ws) with sum_n w_n G(x_n) = wy . y + ws . s, G the interpolant:
        each interval's sums of w t^k, one ``reduceat`` per power over the
        sorted runs, are the adjoints of its cubic's coefficients, which
        are linear in y and s."""
        t, m, h = self._coord, self.knots.size, self._width
        sorted_w = w if self._order is None else w[self._order]

        def runs(v):
            out = np.add.reduceat(v, self._starts)
            out[self._empty] = 0.0  # reduceat reads an empty run's first element
            return out

        a = [runs(sorted_w)]
        wt = np.multiply(sorted_w, t, out=None if self._order is None else sorted_w)
        a.append(runs(wt)[:-1])
        for _ in range(2):
            wt *= t
            a.append(runs(wt)[:-1])
        d = 3.0 * a[2] - 2.0 * a[3]  # the adjoint of dy
        wy, ws = a[0], np.zeros(m)
        wy[:-1] -= d
        wy[1:] += d
        ws[:-1] = h * (a[1] - 2.0 * a[2] + a[3])
        ws[1:] += h * (a[3] - a[2])
        return wy, ws


def _lattice(x, lattices, m):
    # x's KnotLattice of m uniform knots (None: its sorted distinct values),
    # made on first use; the two used last are kept, one per mixture component
    lattice = lattices.pop(m, None) or KnotLattice(
        x, sorted_unique(x) if m is None else np.linspace(x.min(), x.max(), m))
    if len(lattices) > 1:
        del lattices[next(iter(lattices))]
    lattices[m] = lattice
    return lattice


class _Own(namedtuple("_Own", "scratch key rows", defaults=(0,))):
    # a pass's buffers, under (key, name) for a training pass's own, made at least ``rows`` tall
    def take(self, name, rows, *width):
        key = name if self.key is None else (self.key, name)
        return self.scratch.take(key, max(rows, self.rows), *width)[:rows]


class KnotPass:
    """A 1 -> ... -> 1 network at every input x, read off the cubic Hermite
    interpolant of its values and slopes at knots: M uniform ones, for the
    first M of 1024, 2048, ... up to N / 8 at which the interpolant is
    within ``KNOT_GAP`` times the largest |value| of the network at every
    knot midpoint, else the sorted distinct inputs.

    ``lattices`` holds x's lattices by M (a fit keeps them).  With
    ``scratch`` every network pass writes into its buffers, which several
    networks' passes share, and ``out`` takes the values.  ``key`` makes a
    training pass: its forward passes get buffers of their own (under key),
    where the accepted knot pass keeps its cache for ``param_gradient``.
    """

    __slots__ = ("net", "lattice", "values", "scratch", "_cache")

    def __init__(self, net, x, lattices, scratch=None, out=None, key=None):
        keep = key is not None
        own = None if scratch is None else _Own(scratch, key)
        for m in [*takewhile(lambda k: k <= x.size // 8, (FIRST_KNOTS << j for j in count())), None]:
            if m is None:  # every input is a knot (t = 0): the slopes play no part
                y, *s, cache = net.scalar_batch(_lattice(x, lattices, None).knots, want_slope=keep,
                                                keep_cache=keep, scratch=own)
                s = s[0] if keep else np.zeros_like(y)
                break
            knots = np.linspace(x.min(), x.max(), m)  # the knots of _lattice(x, lattices, m)
            h = np.diff(knots)  # the check runs first, in M-row buffers the knot pass then fills
            exact = net.scalar_batch(knots[:-1] + 0.5 * h, keep_cache=False,
                                     scratch=own and own._replace(rows=m))[0].copy()
            y, s, cache = net.scalar_batch(knots, want_slope=True, keep_cache=keep, scratch=own)
            # at t = 1/2 the Hermite basis is (1/2, h/8, 1/2, -h/8)
            gap = np.abs(0.5 * (y[:-1] + y[1:]) + 0.125 * h * (s[:-1] - s[1:]) - exact)
            if gap.max() <= KNOT_GAP * max(np.abs(y).max(), np.abs(exact).max()):
                break
        self.net, self.lattice, self.scratch, self._cache = net, _lattice(x, lattices, m), scratch, cache
        self.values = self.lattice.values(y, s, out)

    def param_gradient(self, w) -> ParamGradient:
        """Gradient of sum_n w_n G(x_n) in the parameters, G the interpolant, for
        a training pass: w onto the knots, one backward pass over the kept cache."""
        wy, ws = self.lattice.adjoint(w)
        return self.net.weighted_value_slope_param_gradient(self._cache, wy, ws, self.scratch)


@dataclass
class DenseNetwork:
    """Fully connected network; ``weights[l]`` has shape (dims[l+1], dims[l])."""

    layer_dims: list
    weights: list
    biases: list

    def __post_init__(self):
        dims = [int(d) for d in self.layer_dims]
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ValueError(f"bad layer_dims {self.layer_dims}")
        self.layer_dims = dims
        if len(self.weights) != len(dims) - 1 or len(self.biases) != len(dims) - 1:
            raise ValueError("layer count mismatch")
        ws, bs = [], []
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            w = np.asarray(w, dtype=float)
            b = np.asarray(b, dtype=float)
            if w.shape != (dims[l + 1], dims[l]) or b.shape != (dims[l + 1],):
                raise ValueError(f"layer {l} shape mismatch: {w.shape}, {b.shape}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {l} has non-finite parameters")
            ws.append(w)
            bs.append(b)
        self.weights = ws
        self.biases = bs

    # ------------------------------------------------------------------
    # basic evaluation

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def n_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    # ------------------------------------------------------------------
    # scalar-input / scalar-output batch machinery

    def _check_scalar(self):
        if self.layer_dims[0] != 1 or self.layer_dims[-1] != 1:
            raise ValueError("scalar batch path needs a 1 -> ... -> 1 network")

    def scalar_batch(self, x, want_slope: bool = False, keep_cache: bool = True,
                     scratch: Scratch | None = None):
        """Evaluate a 1 -> ... -> 1 net at an array of scalar inputs.

        Returns (values, cache) or (values, slopes, cache); the cache feeds
        the weighted backward passes below.  ``keep_cache=False`` gives no
        cache and keeps no activations.  With ``scratch`` the layer arrays,
        the values, the slopes and the cache are views into its buffers,
        valid until the next pass through it; the arithmetic is the same.
        """
        self._check_scalar()
        x = np.asarray(x, dtype=float).reshape(-1, 1)
        take = (lambda key, *shape: None) if scratch is None else scratch.take  # None: allocate
        n, last = x.shape[0], self.n_layers - 1
        acts = [x]
        sigs = []
        tangents = [np.ones_like(x)] if want_slope else None
        tangent_pre = [] if want_slope else None
        a = x
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            width = w.shape[0]
            h = _product(a, w.T, take(("act", l), n, width))
            h += b
            if want_slope:  # the input's tangent is 1, so the first layer's is w in every row
                u = np.broadcast_to(w.T, (n, width)) if l == 0 else \
                    _product(tangents[-1], w.T, take(("tangent_pre", l), n, width))
                tangent_pre.append(u)
            if l < last:
                a, sig = _softplus_and_sigmoid(h, take(("sig", l), n, width))
                sigs.append(sig)
                if want_slope:
                    tangents.append(np.multiply(sig, u, out=take(("tangent", l), n, width)))
            else:
                a = h
                if want_slope:
                    tangents.append(u)
            if keep_cache:
                acts.append(a)
        values = a[:, 0]
        cache = _BatchCache(acts, sigs, tangents, tangent_pre) if keep_cache else None
        if want_slope:
            return values, tangents[-1][:, 0], cache
        return values, cache

    def weighted_param_gradient(self, cache: _BatchCache, w_value) -> ParamGradient:
        """Gradient of sum_i w_i * y_i with respect to all parameters."""
        delta = np.asarray(w_value, dtype=float).reshape(-1, 1)
        g_w = [None] * self.n_layers
        g_b = [None] * self.n_layers
        for l in range(self.n_layers - 1, -1, -1):
            g_w[l] = delta.T @ cache.acts[l]
            g_b[l] = np.ones(delta.shape[0]) @ delta  # one BLAS pass, 5x delta.sum(axis=0)
            if l > 0:
                delta = _product(delta, self.weights[l])
                delta *= cache.sigs[l - 1]
        return ParamGradient(g_w, g_b)

    def weighted_value_slope_param_gradient(self, cache: _BatchCache, w_value, w_slope,
                                            scratch: Scratch | None = None) -> ParamGradient:
        """Gradient of sum_i (wv_i * y_i + ws_i * y'_i) w.r.t. parameters.

        y' is the derivative of the network output in its scalar input; the
        cache must come from scalar_batch(..., want_slope=True).  With
        ``scratch`` the backpropagated rows are written into its buffers.
        """
        if cache is None or cache.tangents is None:
            raise ValueError("no cache, or a cache built without slopes")
        take = (lambda key, *shape: None) if scratch is None else scratch.take  # None: allocate
        abar = np.asarray(w_value, dtype=float).reshape(-1, 1)
        tbar = np.asarray(w_slope, dtype=float).reshape(-1, 1)
        g_w = [None] * self.n_layers
        g_b = [None] * self.n_layers
        a, t, f = "bar0", "bar1", "bar2"  # abar's, tbar's and a free buffer, rotating
        for l in range(self.n_layers - 1, -1, -1):
            if l == self.n_layers - 1:
                hbar, ubar = abar, tbar
            else:
                # hbar = abar sig + tbar sig (1 - sig) u and ubar = tbar sig,
                # over abar's and tbar's own buffers
                sig = cache.sigs[l]
                term = np.subtract(1.0, sig, out=take(f, *sig.shape))
                term *= sig
                term *= tbar
                term *= cache.tangent_pre[l]
                hbar = np.multiply(abar, sig, out=abar)
                hbar += term
                ubar = np.multiply(tbar, sig, out=tbar)
            g_w[l] = hbar.T @ cache.acts[l] + ubar.T @ cache.tangents[l]
            g_b[l] = hbar.sum(axis=0)
            if l > 0:
                w = self.weights[l]
                abar = np.matmul(hbar, w, out=take(f, hbar.shape[0], w.shape[1]))
                tbar = np.matmul(ubar, w, out=take(a, hbar.shape[0], w.shape[1]))
                a, t, f = f, a, t
        return ParamGradient(g_w, g_b)

    # ------------------------------------------------------------------
    # flat vector and serialization helpers

    def to_vector(self) -> np.ndarray:
        return ParamGradient(self.weights, self.biases).to_vector()

    @classmethod
    def from_vector(cls, layer_dims, vec) -> "DenseNetwork":
        vec = np.asarray(vec, dtype=float)
        dims = [int(d) for d in layer_dims]
        ws, bs, pos = [], [], 0
        for l in range(len(dims) - 1):
            n_w = dims[l + 1] * dims[l]
            ws.append(vec[pos:pos + n_w].reshape(dims[l + 1], dims[l]))
            pos += n_w
            bs.append(vec[pos:pos + dims[l + 1]].copy())
            pos += dims[l + 1]
        if pos != vec.size:
            raise ValueError(f"vector length {vec.size} does not match dims {dims}")
        return cls(dims, ws, bs)

    def to_jsonable(self) -> dict:
        return {
            "layer_dims": list(self.layer_dims),
            "weights": [w.ravel().tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }

    @classmethod
    def from_jsonable(cls, doc: dict) -> "DenseNetwork":
        dims = [int(d) for d in doc["layer_dims"]]
        ws = [
            np.asarray(flat, dtype=float).reshape(dims[l + 1], dims[l])
            for l, flat in enumerate(doc["weights"])
        ]
        bs = [np.asarray(b, dtype=float) for b in doc["biases"]]
        return cls(dims, ws, bs)


def init_network(layer_dims, seed: int) -> DenseNetwork:
    """Glorot-uniform weights (bound sqrt(6/(fan_in+fan_out))), zero biases.

    Uses a counter-based generator so the same seed gives the same
    parameters on every platform.
    """
    dims = [int(d) for d in layer_dims]
    rng = np.random.Generator(np.random.Philox(seed))
    ws, bs = [], []
    for l in range(len(dims) - 1):
        fan_in, fan_out = dims[l], dims[l + 1]
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        ws.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        bs.append(np.zeros(fan_out))
    return DenseNetwork(dims, ws, bs)
