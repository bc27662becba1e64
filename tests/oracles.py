"""Independent closed-form references used by the test suite.

These stay deliberately separate from the package code paths they check:
Black-Scholes via the error function, normal integrals via adaptive
quadrature, network values and derivatives at a single input by
plain layer-by-layer evaluation and chain rule (the package evaluates
networks only through ``DenseNetwork.scalar_batch``), a network's
values and weighted parameter gradient at every one of many inputs by
exact passes over fixed row blocks (the package reads them off a knot
lattice's cubic Hermite interpolant), the hidden
activation by the overflow-safe max form (the package forms it from one
e^h per layer), the Fourier pricer's sums as one dense 2-D array (the
package forms them in fixed row blocks), rn-q's u^Z and v^-Z by
``np.power`` (the package forms them as exps), Heston prices and log
returns by full-truncation Euler Monte Carlo (the package prices Heston
only through its characteristic function), and the Heston cumulants of
ln S_T by 50-digit central differences of a second formulation of the
log-CF, Richardson extrapolated (the package reads them in float64 off
its own log-CF on a circle, by the trapezoidal rule).
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import expit

from rndkit.heston import DAMPING_ALPHA, _damped_cf_table, _log_cf
from rndkit.nn import ParamGradient
from rndkit.numerics import kahan_sum


def norm_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def norm_pdf(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def black_scholes_call(spot, strike, tau, rate, vol):
    if tau == 0.0 or vol == 0.0:
        return max(spot - strike * math.exp(-rate * tau), 0.0)
    s = vol * math.sqrt(tau)
    d1 = (math.log(spot / strike) + (rate + 0.5 * vol * vol) * tau) / s
    d2 = d1 - s
    return spot * norm_cdf(d1) - strike * math.exp(-rate * tau) * norm_cdf(d2)


def black_scholes_put(spot, strike, tau, rate, vol):
    call = black_scholes_call(spot, strike, tau, rate, vol)
    return call - spot + strike * math.exp(-rate * tau)


def normal_expectation(fn, lower=-np.inf, upper=np.inf, **kwargs):
    """E[fn(Z) 1{lower <= Z <= upper}] for standard normal Z by quadrature."""
    value, _ = quad(lambda z: fn(z) * norm_pdf(z), lower, upper, limit=400, **kwargs)
    return value


# ----------------------------------------------------------------------
# dense softplus networks at a single input


def softplus_and_sigmoid_max_form(h):
    """Softplus and sigmoid by the max form, max(h, 0) + log1p(e^-|h|) and
    1 - e^-softplus: the network kernel's operations for a block where
    e^h would overflow, and a reference for its one-exp form elsewhere."""
    h = np.asarray(h, dtype=float)
    sp = np.maximum(h, 0.0) + np.log1p(np.exp(-np.abs(h)))
    return sp, -np.expm1(-sp)


def softplus_double_prime(x):
    s = expit(np.asarray(x, dtype=float))
    return s * (1.0 - s)


def _layers(net, x):
    """Activations (input first) and hidden-layer sigmoids at one input."""
    acts = [np.asarray(x, dtype=float).reshape(1, net.layer_dims[0])]
    sigs = []
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = acts[-1] @ w.T + b
        if l < net.n_layers - 1:
            sigs.append(expit(h))
            h = np.logaddexp(0.0, h)
        acts.append(h)
    return acts, sigs


def forward(net, x):
    """Network output at one input vector, shape (dims[-1],)."""
    acts, _ = _layers(net, x)
    return acts[-1][0]


def backward_params(net, x, upstream):
    """Gradient of upstream . y(x) in all network parameters."""
    acts, sigs = _layers(net, x)
    delta = np.asarray(upstream, dtype=float).reshape(1, net.layer_dims[-1])
    g_w = [None] * net.n_layers
    g_b = [None] * net.n_layers
    for l in range(net.n_layers - 1, -1, -1):
        g_w[l] = delta.T @ acts[l]
        g_b[l] = delta[0].copy()
        if l > 0:
            delta = (delta @ net.weights[l]) * sigs[l - 1]
    return ParamGradient(g_w, g_b)


def input_gradient(net, x):
    """Jacobian dy/dx at one input, shape (dims[-1], dims[0])."""
    _, sigs = _layers(net, x)
    jac = net.weights[0]
    for sig, w in zip(sigs, net.weights[1:]):
        jac = w @ (sig[0][:, None] * jac)
    return jac


# ----------------------------------------------------------------------
# a 1 -> ... -> 1 network at every one of many inputs, in row blocks

BLOCK_ROWS = 4096


def block_bounds(n):
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


def blocked_values(net, x):
    """The network's output at every input, one block at a time."""
    x = np.asarray(x, dtype=float).ravel()
    out = np.empty(x.size)
    for lo, hi in block_bounds(x.size):
        out[lo:hi] = net.scalar_batch(x[lo:hi], keep_cache=False)[0]
    return out


def blocked_param_gradient(net, x, w):
    """Gradient of sum_n w_n y(x_n) in the parameters, block gradients
    added in block order."""
    x = np.asarray(x, dtype=float).ravel()
    w = np.asarray(w, dtype=float).ravel()
    total = ParamGradient([np.zeros(a.shape) for a in net.weights],
                          [np.zeros(b.shape) for b in net.biases])
    for lo, hi in block_bounds(x.size):
        grad = net.weighted_param_gradient(net.scalar_batch(x[lo:hi])[1], w[lo:hi])
        for acc, part in zip(total.weights + total.biases, grad.weights + grad.biases):
            acc += part
    return total


class BlockedPass:
    """A stand-in for ``nn.KnotPass`` that evaluates the network exactly
    at every input: the reference the knot lattice is measured against."""

    def __init__(self, net, x, lattices, scratch=None, out=None, key=None):
        self.net, self.x = net, x
        self.values = blocked_values(net, self.x)
        if out is not None:
            out[:] = self.values
            self.values = out

    def param_gradient(self, w):
        return blocked_param_gradient(self.net, self.x, w)


# ----------------------------------------------------------------------
# rn-q shape terms


def rnq_terms_power_form(p, z):
    """u^Z, v^-Z, the shape (u^Z + v^-Z)/a + 1 and t = sigma Z shape, with
    the two powers taken by ``np.power``."""
    z = np.asarray(z, dtype=float)
    uz = np.power(p.u, z)
    vz = np.power(p.v, -z)
    shape = (uz + vz) / p.a_const + 1.0
    return uz, vz, shape, p.sigma * z * shape


# ----------------------------------------------------------------------
# dense 2-D sums


def heston_call_prices_dense(p, spot, strikes, tau, rate):
    """Call prices from the whole strikes x nodes phase matrix at once."""
    strikes = np.asarray(strikes, dtype=float)
    out = np.empty(strikes.shape)
    zero = strikes == 0.0
    if np.any(zero):
        disc = np.exp(-rate * tau)
        out[zero] = disc * np.exp(_log_cf(p, np.array(-1j), tau, spot, rate)).real
    pos = ~zero
    if np.any(pos):
        u, w, psi = _damped_cf_table(p, spot, tau, rate)
        k = np.log(strikes[pos])
        phase = np.exp(-1j * np.outer(k, u))
        integral = (phase * (w * psi)).real.sum(axis=1)
        out[pos] = np.exp(-DAMPING_ALPHA * k) / np.pi * integral
    return out


# ----------------------------------------------------------------------
# Heston by full-truncation Euler Monte Carlo

MC_CHUNK = 131_072


def _chunk_bounds(paths: int):
    starts = range(0, paths, MC_CHUNK)
    return [(i, min(MC_CHUNK, paths - s)) for i, s in enumerate(starts)]


def mc_terminal_log_returns(p, tau, rate, paths, steps, seed) -> np.ndarray:
    """ln(S_T/S_0) samples from full-truncation Euler, fixed chunk streams.

    Chunks of 131072 paths each get their own counter-based stream keyed by
    (seed, chunk), so any prefix of chunks is reproducible.
    """
    if paths < 1 or steps < 1:
        raise ValueError("paths and steps must be >= 1")
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    dt = tau / steps
    drift = rate * dt
    sq_rho = np.sqrt(1.0 - p.rho * p.rho)

    def run_chunk(spec):
        chunk_index, n = spec
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, chunk_index], dtype=np.uint64)))
        x = np.zeros(n)
        v = np.full(n, p.nu0)
        for _ in range(steps):
            z = rng.standard_normal((2, n))
            vplus = np.maximum(v, 0.0)
            shock = np.sqrt(vplus * dt)
            x += drift - 0.5 * vplus * dt + shock * z[0]
            v += p.kappa * (p.vartheta - vplus) * dt + p.xi * shock * (p.rho * z[0] + sq_rho * z[1])
        return x

    return np.concatenate([run_chunk(spec) for spec in _chunk_bounds(paths)])


def heston_mc_price(p, side, spot, strike, tau, rate, paths, steps, seed):
    """(price, stderr) for one option, or arrays when strike is array-like."""
    if side not in ("call", "put"):
        raise ValueError("side must be 'call' or 'put'")
    strikes = np.asarray(strike, dtype=float)
    growth = np.exp(mc_terminal_log_returns(p, tau, rate, paths, steps, seed))
    disc_spot = np.exp(-rate * tau) * spot
    n = growth.size

    def one(k):
        m = k / spot
        payoff = np.maximum(growth - m, 0.0) if side == "call" else np.maximum(m - growth, 0.0)
        mean = kahan_sum(payoff) / n
        second = kahan_sum(payoff * payoff) / n
        var = max(second - mean * mean, 0.0)
        return disc_spot * mean, disc_spot * np.sqrt(var / n)

    if strikes.ndim == 0:
        return one(float(strikes))
    pairs = [one(float(k)) for k in strikes]
    return np.array([a for a, _ in pairs]), np.array([b for _, b in pairs])


# ----------------------------------------------------------------------
# Heston cumulants in 50-digit arithmetic


def heston_true_moments_50_digits(p, spot, tau, rate):
    """(variance, skewness, kurtosis) of ln S_T from high-precision cumulants.

    Central differences of the log-CF at u=0 with step 1e-4 need ~25
    significant digits for the fourth cumulant, far beyond float64, so the
    stencil is evaluated in 50-digit arithmetic and Richardson extrapolated.
    """
    import mpmath as mp

    if tau <= 0.0:
        raise ValueError("tau must be positive")

    with mp.workdps(50):
        kappa, vartheta, xi, rho, nu0 = (
            mp.mpf(repr(float(v))) for v in (p.kappa, p.vartheta, p.xi, p.rho, p.nu0)
        )
        lns_rt = (mp.log(mp.mpf(repr(float(spot))))
                  + mp.mpf(repr(float(rate))) * mp.mpf(repr(float(tau))))
        tau_mp = mp.mpf(repr(float(tau)))

        def log_cf(u):
            iu = 1j * u
            quad_term = iu + u * u
            beta = kappa - rho * xi * iu
            d = mp.sqrt(beta * beta + xi * xi * quad_term)
            g = (beta - d) / (beta + d)
            edt = mp.e**(-d * tau_mp)
            dd = (beta - d) / (xi * xi) * (1 - edt) / (1 - g * edt)
            cc = kappa * vartheta / (xi * xi) * (
                (beta - d) * tau_mp - 2 * mp.log((1 - g * edt) / (1 - g))
            )
            return iu * lns_rt + cc + dd * nu0

        def stencil(h):
            f1, f2, fm1, fm2 = log_cf(h), log_cf(2 * h), log_cf(-h), log_cf(-2 * h)
            # log_cf(0) == 0, so the center term drops out of d2 and d4
            d2 = (f1 + fm1) / h**2
            d3 = (f2 - 2 * f1 + 2 * fm1 - fm2) / (2 * h**3)
            d4 = (f2 - 4 * f1 - 4 * fm1 + fm2) / h**4
            return d2, d3, d4

        h = mp.mpf("1e-4")
        coarse = stencil(h)
        fine = stencil(h / 2)
        rich = [(4 * f - c) / 3 for c, f in zip(coarse, fine)]
        k2 = -mp.re(rich[0])
        if k2 <= 0:
            raise FloatingPointError("non-positive variance cumulant")
        # stabilization is judged on the standardized moments, where it
        # matters: skew and kurtosis each to 1e-6 absolute
        tol = mp.mpf("1e-6")
        scales = (k2, k2**mp.mpf("1.5"), k2 * k2)
        for r, f, s in zip(rich, fine, scales):
            if abs(r - f) / s > tol:
                raise FloatingPointError("cumulant differencing did not stabilize")
        skew = float(-mp.im(rich[1]) / k2**mp.mpf("1.5"))
        kurt = float(mp.re(rich[2]) / (k2 * k2)) + 3.0
        k2 = float(k2)
    return k2, skew, kurt
