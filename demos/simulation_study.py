"""Recover a known Heston risk-neutral density from 61 synthetic option prices.

A Heston market with a pronounced left skew prices a strip of calls; the
mixture generator is calibrated to those prices and its density, read off
the generator by change of variables, is compared against the exact density
implied by the characteristic function.
Sample counts and iterations are kept small so the demo runs in about a
minute.  No test runs this study; CI runs the demo as it stands.
"""

import numpy as np

from rndkit.calibration import CalibrationConfig, calibrate
from rndkit.data_io import MIN_QUOTE
from rndkit.density import pushforward_density, risk_neutral_moments
from rndkit.heston import SCENARIOS, generate_simulated_chain, heston_rnd, \
    heston_true_moments
from rndkit.pricing import price_chain
from rndkit.sampling import draw_standard_normal

chain = generate_simulated_chain("left-skew")
print(f"generated {len(chain.quotes)} calls, spot {chain.spot}, "
      f"maturity {chain.quotes[0].days_to_maturity} days")

# drop sub-tick quotes exactly as the CSV loader would
chain = chain.with_quotes([q for q in chain.quotes if q.mid >= MIN_QUOTE])
print(f"{len(chain.quotes)} quotes at or above the {MIN_QUOTE} price floor")

config = CalibrationConfig(n_samples=20_000, iterations=1200, seed=4,
                           convergence_tol=-np.inf)
result = calibrate("rn-dmlp", chain, config)
print(f"calibrated rn-dmlp: {result.iterations_run} iterations, "
      f"train MSE {result.final_train_mse:.5f}, "
      f"penalty {result.final_penalty.total:.4f}")

samples = draw_standard_normal(config.n_samples, config.seed)
observed = np.array([q.mid for q in chain.quotes])
fitted = price_chain(result.params, chain, samples)
rmse = np.sqrt(np.mean((fitted - observed) ** 2))
print(f"price RMSE {rmse:.4f} ({100.0 * rmse / chain.spot:.4f}% of spot)")

tau = chain.quotes[0].tau
rate = chain.rate(tau)
heston_params, _ = SCENARIOS["left-skew"]
var_true, skew_true, kurt_true = heston_true_moments(heston_params, tau)
rnm2, rnm3, rnm4 = risk_neutral_moments(result.params, tau, samples, rate)
print("\nlog-return moments      true      fitted")
print(f"  volatility (RNM2)  {np.sqrt(var_true):8.4f}  {rnm2:8.4f}")
print(f"  skewness   (RNM3)  {skew_true:8.4f}  {rnm3:8.4f}")
print(f"  kurtosis   (RNM4)  {kurt_true:8.4f}  {rnm4:8.4f}")

# density comparison on a shared terminal-price grid
strike_grid = np.linspace(600.0, 1400.0, 401)
true_rnd = heston_rnd(heston_params, chain.spot, tau, rate, strike_grid)
log_grid = np.log(true_rnd.grid / chain.spot)
est = pushforward_density(result.params, tau, samples, log_grid, rate)
fitted_price_density = est.values / true_rnd.grid
sup_gap = np.max(np.abs(fitted_price_density - true_rnd.values))
peak = np.max(true_rnd.values)
print(f"\ndensity sup-gap {sup_gap:.2e} vs true peak {peak:.2e} "
      f"({100.0 * sup_gap / peak:.1f}%)")
