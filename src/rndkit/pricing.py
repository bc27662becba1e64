"""Monte Carlo option pricing on the shared normal draws.

A price is the discounted sample average of the payoff applied to the
model's log returns:

    C = e^(-r tau) S (1/N) sum_n (e^X_n - K/S)^+
    P = e^(-r tau) S (1/N) sum_n (K/S - e^X_n)^+

The draws are fixed per run, so prices are deterministic functions of the
model parameters; reductions use compensated summation in fixed order.
Each entry point binds the model to the draws once (``models.bind``), so
G_Z(Z) is evaluated once per call however many maturities it prices, and
not at all when the caller passes a model already bound to these draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import bind, sample_log_returns
from .numerics import kahan_sum, parallel_map

__all__ = ["PriceRequest", "price", "price_with_stderr", "price_chain"]

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


def _payoff(side: str, growth: np.ndarray, moneyness: float) -> np.ndarray:
    if side == "call":
        return np.maximum(growth - moneyness, 0.0)
    return np.maximum(moneyness - growth, 0.0)


def price(model, req: PriceRequest, samples) -> float:
    return price_with_stderr(model, req, samples)[0]


def price_with_stderr(model, req: PriceRequest, samples):
    """Monte Carlo price and its standard error for one request."""
    if req.tau == 0.0:
        # Degenerate distribution at tau = 0: intrinsic payoff, no MC noise.
        intrinsic = max(req.spot - req.strike, 0.0) if req.side == "call" else max(req.strike - req.spot, 0.0)
        return intrinsic, 0.0
    x = sample_log_returns(model, req.tau, samples, req.rate)
    growth = np.exp(x)
    if not np.all(np.isfinite(growth)):
        raise FloatingPointError("model produced non-finite growth factors")
    payoff = _payoff(req.side, growth, req.strike / req.spot)
    scale = np.exp(-req.rate * req.tau) * req.spot
    n = payoff.size
    mean = kahan_sum(payoff) / n
    second = kahan_sum(payoff * payoff) / n
    var = max(second - mean * mean, 0.0)
    return scale * mean, scale * np.sqrt(var / n)


def price_chain(model, chain, samples, threads=None) -> np.ndarray:
    """Price every quote in a chain, reusing one log-return vector per maturity.

    The model is bound to the draws before the per-maturity fan-out.
    Returns prices aligned with ``chain.quotes``.
    """
    bound = bind(model, samples)
    quotes = chain.quotes
    by_tau = {}
    for i, q in enumerate(quotes):
        by_tau.setdefault(q.tau, []).append(i)
    taus = sorted(by_tau)

    def run_group(tau):
        idx = by_tau[tau]
        rate = chain.rate(tau)
        if tau == 0.0:
            out = []
            for i in idx:
                q = quotes[i]
                out.append(max(chain.spot - q.strike, 0.0) if q.side == "call" else max(q.strike - chain.spot, 0.0))
            return idx, out
        growth = np.exp(bound.log_returns(tau, rate))
        scale = np.exp(-rate * tau) * chain.spot
        n = growth.size
        out = []
        for i in idx:
            q = quotes[i]
            payoff = _payoff(q.side, growth, q.strike / chain.spot)
            # Same association order as price_with_stderr so both paths agree bitwise.
            out.append(scale * (kahan_sum(payoff) / n))
        return idx, out

    prices = np.empty(len(quotes))
    for idx, vals in parallel_map(run_group, taus, threads):
        prices[idx] = vals
    return prices
