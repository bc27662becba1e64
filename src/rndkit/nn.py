"""Small dense feed-forward networks in plain numpy.

Softplus hidden layers, linear output.  Besides forward evaluation the
module provides reverse-mode parameter gradients, the analytic input
derivative, and the parameter gradient of that input derivative; the
calibration objectives need all three.  Gradients are accumulated in a
fixed (layer, row, column) order so flattened vectors are reproducible.

A hidden layer takes one exp: with e = e^h the softplus is log1p(e) and
its derivative, the sigmoid, is e / (1 + e), so a layer writes e and
then the softplus over its pre-activation buffer and the sigmoid into
one other buffer.  A block in which e^h would overflow (any h above
ln of the largest double, about 709.78) takes the max form instead,
max(h, 0) + log1p(e^-|h|).  A layer with one input (net_z's first) and
the backward pass through one output (its last) form their outer
products by a broadcast multiply, with the bits of the 1-wide matmul.

A pass over many inputs (G_Z over all N draws) runs in fixed blocks of
``BLOCK_ROWS`` rows through ``blocked_values`` and
``blocked_param_gradient``.  Each block's layers are written into one
``Scratch``, a set of block-sized buffers allocated once and reused, so
such a pass holds O(block x width) floats instead of O(N x width).  The
value pass keeps only the outputs; the gradient recomputes each block's
activations into the same scratch and runs the weighted backward pass
on the block while it is in cache (gradient checkpointing, Chen et al.
2016).  The per-block kernels are ``scalar_batch`` and
``weighted_param_gradient``, so the layer arithmetic exists once: with
one BLAS thread a blocked value equals the whole-array value bit for
bit, and a blocked gradient, summed block by block in order, differs
from the whole-array one only in the order of its row sums.

The kernels work in the dtype of the network's weights and cast their
inputs to it.  Calibration runs net_z's gradient pass on a float32 copy
(``astype``), as in mixed-precision training (Micikevicius et al. 2018):
each block's draws and adjoint weights are cast once, its layers are
float32 views into the scratch's float64 buffers, and the block
gradients are added in float64, in block order.  The gradient only sets
the direction of Adam's normalized step; every value pass, and so every
loss, price, penalty and sort, stays float64 and keeps its bits.  The
one-exp test uses ln of the dtype's largest value, 88.72 for float32.
"""

from __future__ import annotations

import copy
import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BLOCK_ROWS",
    "DenseNetwork",
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


# Rows per block of a blocked pass.  At N = 1e6 on a 1 -> 32 -> 32 -> 1
# net, one value pass plus one recompute-and-backward pass took 1.59 s
# with 4096-row blocks, 1.63 s with 1024 and 1.79 s with 16384 (best of
# 3, one BLAS thread); a block's layer buffers are then 1 MB each.
BLOCK_ROWS = 4096


# exp(h) is finite exactly when h <= ln(largest value of h's dtype):
# 709.78... for float64, 88.72... for float32
_EXP_MAX = math.log(sys.float_info.max)
_EXP_MAX_OF = {np.dtype(np.float64): _EXP_MAX,
               np.dtype(np.float32): math.log(float(np.finfo(np.float32).max))}


def _softplus_and_sigmoid(h, want_sig=True, t=None):
    # One exp per layer: e = e^h over h, the sigmoid e / (1 + e) into
    # ``t`` (h-shaped, or None to allocate), then the softplus log1p(e)
    # over e, so a layer uses h's buffer and one other.  Both keep full
    # relative accuracy in the lower tail, where e is the answer to
    # working precision.  A block with any h above its dtype's _EXP_MAX
    # (or a NaN) would overflow e and takes the max form, whose exp never
    # overflows.  The test runs in float64, where a float32 h is exact.
    if not float(h.max(initial=-math.inf)) <= _EXP_MAX_OF[h.dtype]:  # initial: no rows is fine
        return _softplus_and_sigmoid_max_form(h, want_sig, t)
    e = np.exp(h, out=h)
    sig = None
    if want_sig:
        sig = np.add(e, 1.0, out=t)
        np.divide(e, sig, out=sig)
    return np.log1p(e, out=e), sig


def _softplus_and_sigmoid_max_form(h, want_sig, t):
    t = np.abs(h, out=t)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    sp = np.maximum(h, 0.0, out=h)
    sp += t
    if not want_sig:
        return sp, None
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
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(np.asarray(w, dtype=float).ravel())
            parts.append(np.asarray(b, dtype=float).ravel())
        return np.concatenate(parts)


class _BatchCache:
    """Forward-pass state reused by the weighted backward passes."""

    __slots__ = ("acts", "sigs", "tangents", "tangent_pre")

    def __init__(self, acts, sigs, tangents=None, tangent_pre=None):
        self.acts = acts
        self.sigs = sigs
        self.tangents = tangents
        self.tangent_pre = tangent_pre


class Scratch:
    """Buffers that every blocked pass, or every evaluation of a fit, reuses.

    ``take(key, rows, width, dtype)`` returns a (rows, width) view of the
    leading elements of the float64 (``BLOCK_ROWS``, width) buffer stored
    under ``key``, made on first use (or when a network of another width
    asks for the key), so a fit that carries one scratch allocates its
    buffers once, not per block, pass or dtype.  A pass's cache and
    values are views into these buffers and last until the next pass
    through the same scratch, so each binding or fit makes or carries its
    own.  The blocks themselves come from ``_block_bounds``.
    ``vector(key, n)`` is the same for a whole n-element float64 array,
    sized on first use (or when a use asks for another length): the
    rn-q fit keeps each N-length array of an evaluation there.
    """

    __slots__ = ("_buffers",)

    def __init__(self):
        self._buffers = {}

    def take(self, key, rows, width, dtype=np.float64):
        buf = self._buffers.get(key)
        if buf is None or buf.shape[1] != width:
            buf = self._buffers[key] = np.empty((BLOCK_ROWS, width))
        return buf.reshape(-1).view(dtype)[:rows * width].reshape(rows, width)

    def vector(self, key, n):
        buf = self._buffers.get(key)
        if buf is None or buf.shape != (n,):
            buf = self._buffers[key] = np.empty(n)
        return buf


def _block_bounds(n):
    """(start, stop) row ranges of n inputs, in order.

    Full blocks from the start; a last block shorter than half a block is
    merged with the one before, and the pair split into half a block and
    the rest.  So every block starts at a multiple of half a block, and
    none is shorter than half a block unless n itself is: BLAS gives a
    product's trailing rows, and all rows of a few-row product (OpenBLAS's
    small-matrix path), other kernels, and only with these bounds does
    each row get the bits a whole-array product gives it.
    """
    half = BLOCK_ROWS // 2
    bounds = list(range(0, n, BLOCK_ROWS)) + [n]
    if len(bounds) > 2 and n - bounds[-2] < half:
        bounds[-2] = bounds[-3] + half
    return list(zip(bounds[:-1], bounds[1:]))


def _fresh(key, rows, width, dtype=None):
    # no scratch: ``out=None`` makes numpy allocate, as a plain expression would
    return None


def stack_caches(caches) -> _BatchCache:
    """The cache of one pass over the inputs of several ``scalar_batch``
    passes of one network, in order, so one backward call serves them all."""
    fields = [[getattr(c, name) for c in caches] for name in _BatchCache.__slots__]
    return _BatchCache(*(None if f[0] is None else [np.concatenate(r) for r in zip(*f)]
                         for f in fields))


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

    def astype(self, dtype) -> "DenseNetwork":
        """A copy with its weights and biases cast to ``dtype``, in which
        the kernels then run."""
        net = copy.copy(self)
        net.weights = [w.astype(dtype) for w in self.weights]
        net.biases = [b.astype(dtype) for b in self.biases]
        return net

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
        cache, keeps no activations and, without slopes, forms no sigmoids,
        so a pass over many inputs holds a few layer-sized buffers at once.
        With ``scratch`` the layer arrays, the values and the cache are
        views into its buffers (one block's worth of rows at most), valid
        until the next pass through it; the arithmetic is the same.  The
        pass runs in the weights' dtype, to which ``x`` is cast.
        """
        self._check_scalar()
        x = np.asarray(x, dtype=self.weights[0].dtype).reshape(-1, 1)
        if scratch is not None and (want_slope or x.shape[0] > BLOCK_ROWS):
            raise ValueError("a scratch pass takes at most one block and no slopes")
        take = _fresh if scratch is None else scratch.take
        n, last = x.shape[0], self.n_layers - 1
        acts = [x]
        sigs = []
        tangents = [np.ones_like(x)] if want_slope else None
        tangent_pre = [] if want_slope else None
        a = x
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = _product(a, w.T, take(("act", l), n, w.shape[0], x.dtype))
            h += b
            if want_slope:
                u = _product(tangents[-1], w.T)
            if l < last:
                a, sig = _softplus_and_sigmoid(h, want_sig=keep_cache or want_slope,
                                               t=take(("sig", l), n, w.shape[0], x.dtype))
                sigs.append(sig)
                if want_slope:
                    tangent_pre.append(u)
                    tangents.append(sig * u)
            else:
                a = h
                if want_slope:
                    tangent_pre.append(u)
                    tangents.append(u)
            if keep_cache:
                acts.append(a)
        values = a[:, 0]
        cache = _BatchCache(acts, sigs, tangents, tangent_pre) if keep_cache else None
        if want_slope:
            return values, tangents[-1][:, 0], cache
        return values, cache

    def weighted_param_gradient(self, cache: _BatchCache, w_value,
                                scratch: Scratch | None = None) -> ParamGradient:
        """Gradient of sum_i w_i * y_i with respect to all parameters.

        With ``scratch`` the backpropagated rows are written into its
        buffers instead of fresh arrays.
        """
        take = _fresh if scratch is None else scratch.take
        dtype = self.weights[0].dtype
        delta = np.asarray(w_value, dtype=dtype).reshape(-1, 1)
        g_w = [None] * self.n_layers
        g_b = [None] * self.n_layers
        for l in range(self.n_layers - 1, -1, -1):
            g_w[l] = delta.T @ cache.acts[l]
            g_b[l] = np.ones(delta.shape[0], dtype) @ delta  # one BLAS pass, 5x delta.sum(axis=0)
            if l > 0:
                w = self.weights[l]
                delta = _product(delta, w, take(("delta", l), delta.shape[0], w.shape[1], dtype))
                delta *= cache.sigs[l - 1]
        return ParamGradient(g_w, g_b)

    def blocked_values(self, x, scratch: Scratch) -> np.ndarray:
        """Outputs at every input, one scratch block at a time.

        Keeps only the outputs; bit-identical to ``scalar_batch(x)[0]``.
        """
        x = np.asarray(x, dtype=float).ravel()
        out = np.empty(x.size)
        for lo, hi in _block_bounds(x.size):
            out[lo:hi] = self.scalar_batch(x[lo:hi], keep_cache=False, scratch=scratch)[0]
        return out

    def blocked_param_gradient(self, x, w_value, scratch: Scratch) -> ParamGradient:
        """``weighted_param_gradient`` over every input, recomputing each
        block's activations into the scratch and adding the per-block
        gradients in block order, in float64.

        Each block runs in the weights' dtype: a float32 copy
        (``astype``) casts one block of ``x`` and ``w_value`` at a time.
        """
        x = np.asarray(x, dtype=float).ravel()
        w_value = np.asarray(w_value, dtype=float).ravel()
        total = ParamGradient([np.zeros(w.shape) for w in self.weights],
                              [np.zeros(b.shape) for b in self.biases])
        for lo, hi in _block_bounds(x.size):
            _, cache = self.scalar_batch(x[lo:hi], scratch=scratch)
            grad = self.weighted_param_gradient(cache, w_value[lo:hi], scratch=scratch)
            for acc, part in zip(total.weights + total.biases, grad.weights + grad.biases):
                acc += part
        return total

    def weighted_value_slope_param_gradient(self, cache: _BatchCache, w_value, w_slope) -> ParamGradient:
        """Gradient of sum_i (wv_i * y_i + ws_i * y'_i) w.r.t. parameters.

        y' is the derivative of the network output in its scalar input; the
        cache must come from scalar_batch(..., want_slope=True).
        """
        if cache.tangents is None:
            raise ValueError("cache was built without slopes")
        abar = np.asarray(w_value, dtype=float).reshape(-1, 1)
        tbar = np.asarray(w_slope, dtype=float).reshape(-1, 1)
        g_w = [None] * self.n_layers
        g_b = [None] * self.n_layers
        for l in range(self.n_layers - 1, -1, -1):
            if l == self.n_layers - 1:
                hbar = abar
                ubar = tbar
            else:
                sig = cache.sigs[l]
                spp = sig * (1.0 - sig)
                hbar = abar * sig + tbar * spp * cache.tangent_pre[l]
                ubar = tbar * sig
            g_w[l] = hbar.T @ cache.acts[l] + ubar.T @ cache.tangents[l]
            g_b[l] = hbar.sum(axis=0)
            if l > 0:
                abar = hbar @ self.weights[l]
                tbar = ubar @ self.weights[l]
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
