"""Moment term structures of a Gaussian baseline generator.

With all three networks zeroed the mixture generator reduces to
X = sigma sqrt(tau) Z, so the risk-neutral volatility must grow like
sqrt(tau), skewness must vanish and kurtosis must sit at 3 for every
maturity.  The script exits non-zero when any maturity misses these
targets: RNM2/sqrt(tau) spread at most 1e-12, |skewness| at most 1e-3 and
|kurtosis - 3| at most 0.05 on these 2e5 draws, or when the density at
one maturity is more than 1e-5 of its peak from the exact normal curve
over the draws' range.
"""

import sys

import numpy as np

from rndkit.density import pushforward_density, term_structure
from rndkit.models import bind, zero_net_rnmlp
from rndkit.sampling import draw_standard_normal

sigma, rate = 0.2, 0.04
model = zero_net_rnmlp(sigma=sigma)
samples = draw_standard_normal(200_000, 11)

tau_grid = np.array([7, 30, 91, 182, 273, 365]) / 365.0
rows = term_structure(model, tau_grid, samples, lambda tau: rate)
print("tau      RNM2     RNM2/sqrt(tau)  RNM3      RNM4")
for tau, rnm2, rnm3, rnm4 in rows:
    print(f"{tau:.4f}  {rnm2:.5f}  {rnm2 / np.sqrt(tau):.5f}       "
          f"{rnm3:+.4f}   {rnm4:.4f}")
ratios = rows[:, 1] / np.sqrt(rows[:, 0])
spread = ratios.max() / ratios.min() - 1.0
print(f"RNM2/sqrt(tau) spread {spread:.2e} (flat means exact sqrt-tau scaling)")
misses = []
if not spread <= 1e-12:
    misses.append(f"RNM2/sqrt(tau) spread {spread:.2e} > 1e-12")
if not np.all(np.abs(rows[:, 2]) <= 1e-3):
    misses.append(f"|skewness| up to {np.max(np.abs(rows[:, 2])):.2e} > 1e-3")
if not np.all(np.abs(rows[:, 3] - 3.0) <= 0.05):
    misses.append(f"|kurtosis - 3| up to {np.max(np.abs(rows[:, 3] - 3.0)):.4f} > 0.05")

tau = 0.25
x = bind(model, samples).log_returns(tau, rate)
grid = np.linspace(x.min(), x.max(), 801)
est = pushforward_density(model, tau, samples, grid, rate)
sd = sigma * np.sqrt(tau)
normal = np.exp(-0.5 * (grid / sd) ** 2) / (sd * np.sqrt(2 * np.pi))
gap = np.max(np.abs(est.values - normal)) / normal.max()
print(f"\ndensity vs exact normal at tau={tau}: sup gap {gap:.2e} of peak")
if not gap <= 1e-5:
    misses.append(f"density sup gap {gap:.2e} of peak > 1e-5")
if misses:
    sys.exit("moment targets missed: " + "; ".join(misses))
