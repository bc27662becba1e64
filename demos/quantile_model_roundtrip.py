"""Self-consistency of the quantile generator and its parity identity.

A known three-parameter quantile model prices a strip of options; refitting
a fresh model to those prices recovers them to high accuracy.  Because the
location parameter is eliminated through the martingale constraint, put-call
parity holds on the Monte Carlo estimates themselves, not just in the limit.
"""

import sys

import numpy as np

from rndkit.arbitrage import price_surface
from rndkit.calibration import CalibrationConfig, calibrate
from rndkit.data_io import OptionChain, OptionQuote
from rndkit.models import RnQParams, rnq_mu_from_constraint
from rndkit.sampling import draw_standard_normal

spot, rate, days = 1000.0, 0.04, 91
tau = days / 365.0
n = 50_000
samples = draw_standard_normal(n, 42)

mu = rnq_mu_from_constraint(0.25, 1.05, 1.2, 4.0, samples, rate, tau)
truth = RnQParams(mu=mu, sigma=0.25, u=1.05, v=1.2)
rate_fn = lambda t: rate
strikes = np.arange(700.0, 1301.0, 25.0)
mids = price_surface(truth, [tau], strikes, spot, rate_fn, samples).calls[0]
quotes = [OptionQuote("call", float(k), days, mid, mid) for k, mid in zip(strikes, mids)]
chain = OptionChain("2026-06-30", spot, quotes, [(days, rate)])
print(f"priced {len(quotes)} calls from sigma=0.25, u=1.05, v=1.2")

config = CalibrationConfig(n_samples=n, iterations=600, seed=42, lam=0.0)
result = calibrate("rn-q", chain, config)
p = result.params
print(f"refit:  sigma={p.sigma:.4f}  u={p.u:.4f}  v={p.v:.4f}")
print(f"train MSE {result.final_train_mse:.3e} "
      f"(spot^2 scale {result.final_train_mse / spot**2:.3e})")

# parity: with mu eliminated, C - P = S - K e^{-r tau} on the same draw
worst = 0.0
parity_strikes = (700.0, 1000.0, 1300.0)
fitted = price_surface(p, [tau], parity_strikes, spot, rate_fn, samples)
for k, c, q in zip(parity_strikes, fitted.calls[0], fitted.puts[0]):
    gap = abs(c - q - (spot - k * np.exp(-rate * tau)))
    worst = max(worst, gap)
    print(f"K={k:6.0f}  C-P={c - q:12.6f}  S-Ke^(-rt)="
          f"{spot - k * np.exp(-rate * tau):12.6f}  |gap|={gap:.2e}")
target = 1e-10 * spot
print(f"worst parity gap {worst:.2e} (target 1e-10 of spot = {target:.0e})")
if worst > target:
    sys.exit("parity gap misses its target")
