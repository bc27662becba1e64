"""How much do recovered density characteristics move under tick noise?

Every training price is shifted by plus or minus one tick (equal
probability), the model is refit from scratch, and the spread of the
resulting density characteristics across trials measures the stability of
the extraction.  Small and fast here; the CLI `perturb` command runs the
full protocol and writes the trial table as CSV.
"""

import dataclasses

import numpy as np

from rndkit.calibration import CalibrationConfig, calibrate
from rndkit.density import characteristics
from rndkit.heston import generate_simulated_chain
from rndkit.models import bind
from rndkit.pricing import price_chain
from rndkit.sampling import draw_standard_normal

chain = generate_simulated_chain("left-skew")
train = chain.with_quotes([q for q in chain.quotes
                           if 800.0 <= q.strike <= 1200.0])
tau = train.quotes[0].tau
config = CalibrationConfig(n_samples=10_000, iterations=300, seed=4)
samples = draw_standard_normal(config.n_samples, config.seed)
tick = 0.25

rows = []
for trial in range(4):
    rng = np.random.default_rng([0, trial])
    signs = rng.integers(0, 2, size=len(train.quotes)) * 2.0 - 1.0
    quotes = [dataclasses.replace(q, bid=q.bid + tick * s, ask=q.ask + tick * s)
              for q, s in zip(train.quotes, signs)]
    result = calibrate("rn-q", train.with_quotes(quotes), config)
    values = chain.spot * np.exp(bind(result.params, samples).log_returns(
        tau, train.rate(tau)))
    ch = characteristics(values)
    rows.append((ch.mean, ch.std, ch.x05, ch.x95))
    print(f"trial {trial}: mean {ch.mean:9.3f}  std {ch.std:8.3f}  "
          f"x05 {ch.x05:8.2f}  x95 {ch.x95:8.2f}")

spread = np.ptp(np.array(rows), axis=0)
print(f"\nspread across trials: mean {spread[0]:.4f}  std {spread[1]:.3f}  "
      f"x05 {spread[2]:.3f}  x95 {spread[3]:.3f}")
print("the martingale constraint pins the density mean, so its spread is "
      "orders of magnitude below one tick")
