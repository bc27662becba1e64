"""Audit the static no-arbitrage checks on model price surfaces.

Monotonicity and convexity in strike hold for any generator by
construction; the calendar condition in maturity is the one property that
calibration has to earn through the penalty.  The audit prints both a
freshly initialized network and a briefly penalty-trained one.
"""

import numpy as np

from rndkit.arbitrage import audit_price_surface, build_synthetic_grid, price_surface
from rndkit.calibration import CalibrationConfig, calibrate
from rndkit.heston import generate_simulated_chain
from rndkit.models import init_rnmlp
from rndkit.sampling import draw_standard_normal

spot = 1000.0
taus = [0.1, 0.25, 0.5, 1.0]
strikes = list(np.linspace(700.0, 1300.0, 13))
samples = draw_standard_normal(20_000, 7)
rate_fn = lambda tau: 0.04


def show(tag, model):
    # the penalty grid holds the audited points, so one surface serves both
    grid = build_synthetic_grid(taus, strikes)
    surface = price_surface(model, grid.taus, grid.strikes, spot, rate_fn, samples)
    audit = audit_price_surface(surface.at(taus, strikes))
    penalty = surface.penalty()
    print(f"\n{tag}: audit {'PASS' if audit['passed'] else 'FAIL'}, "
          f"penalty total {penalty.total:.5f}, "
          f"{penalty.n_violations} active hinges")
    for name, check in sorted(audit["checks"].items()):
        print(f"  {name:20s} {'ok' if check['passed'] else 'VIOLATED':8s} "
              f"worst {check['worst']:+.3e}")


show("untrained rn-mlp (seed 3)", init_rnmlp(3))

chain = generate_simulated_chain("left-skew", days=[37, 91, 182])
config = CalibrationConfig(n_samples=20_000, iterations=400, seed=7)
result = calibrate("rn-mlp", chain, config)
show(f"rn-mlp after 400 iterations (train MSE "
     f"{result.final_train_mse:.3f})", result.params)
