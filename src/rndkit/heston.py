"""Heston ground truth for the simulation study.

Two ingredients, deliberately independent of the generative models: a
branch-stable characteristic function with a damped-Fourier pricer, and
the implied density / cumulants used as the "true" answers when scoring
calibrated models.
Each quadrature node is a panel start plus one of 64 fixed Gauss offsets,
so the pricer factors its phase e^{-iku} = e^{-ik start} e^{-ik offset}:
per strike, 64 + panels complex exps and one matrix product over the
offsets (``simulate`` prices 1501 strikes per maturity for the density).
The true cumulants of ln S_T come from the same log-CF: the trapezoidal
rule on a circle of radius 0.25 / sqrt(nu0 tau) in the moment-generating
argument, whose 32 even nodes check the 64-node answer.  Spot and rate
only shift the mean, so they do not enter.

The dynamics are

    dS = r S dt + sqrt(nu) S dW_S
    dnu = kappa (vartheta - nu) dt + xi sqrt(nu) dW_nu,   d<W_S, W_nu> = rho dt
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .data_io import OptionChain, OptionQuote
from .density import DensityEstimate

__all__ = [
    "HestonParams",
    "SCENARIOS",
    "heston_cf",
    "heston_call_prices",
    "density_from_calls",
    "heston_rnd",
    "heston_true_moments",
    "generate_simulated_chain",
]

DAMPING_ALPHA = 1.5

_PANEL_WIDTH = 20.0
_MAX_PANELS = 400
_TAIL_TOL = 1e-10

_CONTOUR_NODES = 64
_CONTOUR_SCALE = 0.25  # cumulant contour radius, in units of 1/sqrt(nu0 tau)
_CONTOUR_TOL = 1e-9  # largest skew or kurtosis gap between 64 and 32 nodes


@cache
def _panel_rule():
    """64-node Gauss-Legendre rule on one panel: (node offsets, weights).

    Node u = panel start + offset.  Formed on first use, so only a process
    that prices under Heston loads numpy.polynomial.
    """
    nodes, weights = np.polynomial.legendre.leggauss(64)
    return (nodes + 1.0) * (_PANEL_WIDTH / 2.0), weights * (_PANEL_WIDTH / 2.0)


@dataclass
class HestonParams:
    nu0: float
    vartheta: float
    kappa: float
    xi: float
    rho: float

    def __post_init__(self):
        if self.nu0 <= 0.0 or self.vartheta <= 0.0 or self.kappa <= 0.0 or self.xi <= 0.0:
            raise ValueError("nu0, vartheta, kappa, xi must all be positive")
        if not -1.0 < self.rho < 1.0:
            raise ValueError("rho must lie strictly inside (-1, 1)")

    @property
    def feller_satisfied(self) -> bool:
        return 2.0 * self.kappa * self.vartheta >= self.xi * self.xi


_BASE = dict(nu0=0.05, vartheta=0.25, kappa=0.15)

# scenario name -> (params, days to maturity)
SCENARIOS = {
    "left-skew": (HestonParams(**_BASE, xi=0.35, rho=-0.9), 91),
    "likely-normal": (HestonParams(**_BASE, xi=0.25, rho=-0.2), 91),
    "right-skew": (HestonParams(**_BASE, xi=0.2, rho=0.85), 91),
    "long-maturity": (HestonParams(**_BASE, xi=0.35, rho=-0.9), 730),
}


# ----------------------------------------------------------------------
# characteristic function


def _log1p_complex(w):
    """Principal log(1+w), accurate for small |w| (numpy log1p is real-only)."""
    w = np.asarray(w, dtype=complex)
    out = np.empty_like(w)
    small = np.abs(w) < 1e-4
    ws = w[small]
    out[small] = ws * (1.0 - ws / 2.0 + ws * ws / 3.0 - ws * ws * ws / 4.0)
    out[~small] = np.log(1.0 + w[~small])
    return out


def _log_cf(p: HestonParams, u, tau, spot, rate):
    """ln E[e^{iu ln S_T}] in a branch-stable little-trap formulation.

    The two Riccati roots beta +/- d multiply to -xi^2 q exactly, so the
    smaller one (which suffers cancellation when computed by subtraction)
    is recovered from the product instead.  The log term goes through a
    series-backed log1p so nothing degrades as xi -> 0, and the points
    with q = iu + u^2 = 0 (u = 0 and u = -i, where the CF is pinned by
    normalization and the martingale property) are evaluated exactly.
    """
    u = np.asarray(u, dtype=complex)
    iu = 1j * u
    q = iu + u * u
    xi2 = p.xi * p.xi
    beta = p.kappa - p.rho * p.xi * iu
    d = np.sqrt(beta * beta + xi2 * q)
    martingale = iu * (np.log(spot) + rate * tau)
    with np.errstate(divide="ignore", invalid="ignore"):
        bp_raw = beta + d
        bm_raw = beta - d
        prod = -xi2 * q
        keep_p = np.abs(bp_raw) >= np.abs(bm_raw)
        bp = np.where(keep_p, bp_raw, prod / bm_raw)
        bm = np.where(keep_p, prod / bp_raw, bm_raw)
        edt = np.exp(-d * tau)
        one_m_edt = 1.0 - edt
        # D multiplies nu0; C aggregates the vartheta part
        dd = -q * one_m_edt / (bp - bm * edt)
        w = bm * one_m_edt / (2.0 * d)
        cc = p.kappa * p.vartheta * (-tau * q / bp - 2.0 * _log1p_complex(w) / xi2)
        out = martingale + cc + dd * p.nu0
        out = np.where(q == 0.0, martingale, out)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("characteristic function overflowed")
    return out


def heston_cf(p: HestonParams, u, tau, spot, rate):
    """E[e^{iu ln S_T}]; u may be complex (scalar or array)."""
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    if spot <= 0.0:
        raise ValueError("spot must be positive")
    scalar = np.isscalar(u) or getattr(u, "ndim", 0) == 0
    out = np.exp(_log_cf(p, u, tau, spot, rate))
    return complex(out[()]) if scalar else out


# ----------------------------------------------------------------------
# Fourier pricing


def _damped_cf_table(p, spot, tau, rate, alpha=DAMPING_ALPHA):
    """Quadrature nodes, weights and damped-CF values shared by all strikes.

    The damped transform of the call in log-strike k is

        psi(u) = e^{-r tau} cf(u - (alpha+1)i) / (alpha^2 + alpha - u^2 + i(2 alpha + 1) u)

    and C(K) = e^{-alpha k}/pi * Int_0^inf Re[e^{-iuk} psi(u)] du.  Panels of
    fixed Gauss-Legendre rule are appended until the integrand's l1 tail
    bound drops below 1e-10.
    """
    disc = np.exp(-rate * tau)
    offsets, w = _panel_rule()
    nodes_all, weights_all, psi_all = [], [], []
    prev_l1 = None
    for panel in range(_MAX_PANELS):
        lo = panel * _PANEL_WIDTH
        u = lo + offsets
        cf = np.exp(_log_cf(p, u - (alpha + 1.0) * 1j, tau, spot, rate))
        denom = alpha * alpha + alpha - u * u + 1j * (2.0 * alpha + 1.0) * u
        psi = disc * cf / denom
        nodes_all.append(u)
        weights_all.append(w)
        psi_all.append(psi)
        l1 = float(np.sum(w * np.abs(psi)))
        if prev_l1 is not None and l1 < prev_l1:
            ratio = l1 / prev_l1
            tail = l1 * ratio / (1.0 - ratio)
            if tail < _TAIL_TOL and l1 < _TAIL_TOL:
                return (np.concatenate(nodes_all), np.concatenate(weights_all),
                        np.concatenate(psi_all))
        prev_l1 = l1
    raise RuntimeError("Fourier quadrature did not converge; CF tail decays too slowly")


def heston_call_prices(p, spot, strikes, tau, rate, cf_tables=None) -> np.ndarray:
    """Call prices at many strikes from one shared CF evaluation.

    ``cf_tables``, a dict kept by the caller for one (p, spot), holds the
    damped-CF table of each (tau, rate) it has priced, so later calls at
    the same maturity and rate reuse it.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    strikes = np.asarray(strikes, dtype=float)
    if np.any(strikes < 0.0):
        raise ValueError("strikes must be non-negative")
    out = np.empty(strikes.shape)
    zero = strikes == 0.0
    if np.any(zero):
        out[zero] = np.exp(-rate * tau) * np.exp(_log_cf(p, np.array(-1j), tau, spot, rate)).real
    pos = ~zero
    if np.any(pos):
        tables = {} if cf_tables is None else cf_tables
        if (tau, rate) not in tables:
            tables[tau, rate] = _damped_cf_table(p, spot, tau, rate)
        u, w, psi = tables[tau, rate]
        k = np.log(strikes[pos])
        offsets = _panel_rule()[0]
        w_psi = (w * psi).reshape(-1, offsets.size)  # one row per panel
        # strikes x panels: each panel's nodes summed against e^{-ik offset}
        by_panel = np.exp(-1j * np.outer(k, offsets)) @ w_psi.T
        by_panel *= np.exp(-1j * np.outer(k, _PANEL_WIDTH * np.arange(len(w_psi))))
        out[pos] = np.exp(-DAMPING_ALPHA * k) / np.pi * by_panel.real.sum(axis=1)
    return out


# ----------------------------------------------------------------------
# implied density and true moments


def density_from_calls(call_prices, strikes, tau, rate) -> DensityEstimate:
    """Breeden-Litzenberger: f(K) = e^{r tau} d2C/dK2 on the interior grid."""
    strikes = np.asarray(strikes, dtype=float)
    call_prices = np.asarray(call_prices, dtype=float)
    if strikes.size < 3:
        raise ValueError("need at least three strikes")
    left = np.diff(call_prices[:-1]) / np.diff(strikes[:-1])
    right = np.diff(call_prices[1:]) / np.diff(strikes[1:])
    second = 2.0 * (right - left) / (strikes[2:] - strikes[:-2])
    values = np.exp(rate * tau) * second
    clipped = np.clip(values, 0.0, None)
    negative_mass = float(np.trapezoid(np.minimum(values, 0.0), strikes[1:-1]))
    if -negative_mass > 1e-4:
        raise ValueError(
            f"strike grid too coarse for a clean density (clipped mass {-negative_mass:.2e})"
        )
    return DensityEstimate(grid=strikes[1:-1], values=clipped, variable_kind="terminal-price")


def heston_rnd(p, spot, tau, rate, strike_grid, cf_tables=None) -> DensityEstimate:
    """True terminal-price density implied by the CF pricer (``cf_tables``
    as in ``heston_call_prices``)."""
    strike_grid = np.asarray(strike_grid, dtype=float)
    if np.any(np.diff(strike_grid) <= 0.0):
        raise ValueError("strike grid must be strictly increasing")
    calls = heston_call_prices(p, spot, strike_grid, tau, rate, cf_tables)
    return density_from_calls(calls, strike_grid, tau, rate)


def _standardized_moments(psi, radius):
    """(variance, skewness, kurtosis) from psi at equispaced nodes on |v| = radius.

    The trapezoidal rule on the circle is a discrete Fourier transform:
    fft(psi)[k] / n = a_k radius^k up to aliasing from a_{k+n}, where a_k
    is the k-th Taylor coefficient of psi, so kappa_k = k! a_k.
    """
    a = (np.fft.fft(psi)[:5] / psi.size).real / radius ** np.arange(5)
    k2, k3, k4 = 2.0 * a[2], 6.0 * a[3], 24.0 * a[4]
    if k2 <= 0.0:
        raise FloatingPointError("non-positive variance cumulant")
    return k2, k3 / k2**1.5, k4 / (k2 * k2) + 3.0


def heston_true_moments(p, tau):
    """(variance, skewness, kurtosis) of ln S_T from the cumulants of the pricer's CF.

    The cumulants are the Taylor coefficients of psi(v) = ln E[e^{v ln S_T}],
    which ``_log_cf`` gives at u = -iv.  Cauchy's integral formula on the
    circle |v| = 0.25 / sqrt(nu0 tau), summed by the trapezoidal rule over
    64 equispaced nodes, reads them off in float64 with no cancellation
    (Lyness & Moler 1967; Trefethen & Weideman 2014).  The radius shrinks
    with the variance scale so the circle stays inside the domain of
    E[e^{v ln S_T}].  The 32 even nodes give a second estimate from the
    same evaluations; if skew or kurtosis moves by more than 1e-9 between
    the two (the circle has reached a moment explosion), this raises
    FloatingPointError.  The spot and the rate would only shift the mean
    of ln S_T, which is not returned, so psi is taken at spot 1 and rate 0.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    radius = _CONTOUR_SCALE / np.sqrt(p.nu0 * tau)
    nodes = radius * np.exp(2j * np.pi * np.arange(_CONTOUR_NODES) / _CONTOUR_NODES)
    psi = _log_cf(p, -1j * nodes, tau, 1.0, 0.0)
    var, skew, kurt = _standardized_moments(psi, radius)
    _, skew_even, kurt_even = _standardized_moments(psi[::2], radius)
    if abs(skew - skew_even) > _CONTOUR_TOL or abs(kurt - kurt_even) > _CONTOUR_TOL:
        raise FloatingPointError("contour cumulants did not stabilize")
    return float(var), float(skew), float(kurt)


# ----------------------------------------------------------------------
# simulated chains


def generate_simulated_chain(scenario="left-skew", params=None, spot=1000.0,
                             rate=0.04, days=None, strikes=None,
                             observation_date="2026-06-30", cf_tables=None) -> OptionChain:
    """Synthetic call chain priced by the CF engine.

    The default grid is strikes 400:20:1600 (61 calls) with bid = ask =
    model price.  `days` may be an int or a list of ints for the
    multi-maturity variant.  `cf_tables` is as in `heston_call_prices`.
    """
    if params is None:
        if scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {scenario!r}; choose from {sorted(SCENARIOS)}")
        params, default_days = SCENARIOS[scenario]
    else:
        default_days = 91
    if days is None:
        days = default_days
    day_list = [int(days)] if np.isscalar(days) else [int(d) for d in days]
    if any(d <= 0 for d in day_list) or len(set(day_list)) != len(day_list):
        raise ValueError("days must be distinct positive integers")
    if strikes is None:
        strikes = np.arange(400.0, 1601.0, 20.0)
    strikes = np.asarray(strikes, dtype=float)

    quotes = []
    for d in sorted(day_list):
        tau = d / 365.0
        prices = heston_call_prices(params, spot, strikes, tau, rate, cf_tables)
        if np.any(prices < -1e-8 * spot):
            raise FloatingPointError("negative call price from the CF pricer")
        prices = np.maximum(prices, 0.0)
        for strike, price_val in zip(strikes, prices):
            quotes.append(OptionQuote("call", float(strike), d, float(price_val), float(price_val)))
    curve = [(float(d), float(rate)) for d in sorted(day_list)]
    return OptionChain(observation_date=observation_date, spot=float(spot),
                       quotes=quotes, rate_curve=curve)
