"""Paper-scale timing of the rn-dmlp fit: N = 1e6 draws, one BLAS thread.

Workload: rn-dmlp from ``init_rndmlp(1)`` on the 33-quote train split of
the simulated left-skew chain at 30, 91 and 182 days (5 penalty-grid
maturities), on the N = 1e6 pool of seed 1.  Prints

- the warm objective with its gradient: one cold evaluation fills the
  fit's scratch and sort orders, then 5 more are timed (median and
  quartiles);
- a 6-iteration ``calibrate()``, run in a fresh child process: its wall
  time and the child's peak RSS.

Takes about half a minute and peaks near 0.3 GB.  Not run by CI; run it
as ``python demos/paper_scale_objective.py`` on an idle host, since a
busy one moves the times by tens of percent.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import resource
import subprocess
import sys
import time

import numpy as np

from rndkit import calibration
from rndkit.arbitrage import build_synthetic_grid
from rndkit.calibration import CalibrationConfig, calibrate
from rndkit.data_io import split_train_test
from rndkit.heston import generate_simulated_chain
from rndkit.models import init_rndmlp
from rndkit.nn import Scratch
from rndkit.sampling import draw_standard_normal

N, SEED, REPEATS, ITERATIONS = 1_000_000, 1, 5, 6

train = split_train_test(generate_simulated_chain("left-skew", days=[30, 91, 182])).train


def fit():
    config = CalibrationConfig(n_samples=N, iterations=ITERATIONS, seed=SEED)
    t0 = time.perf_counter()
    calibrate("rn-dmlp", train, config, init_model=init_rndmlp(1))
    print(time.perf_counter() - t0)


def warm_objective():
    config = CalibrationConfig(n_samples=N, seed=SEED)
    samples = draw_standard_normal(N, SEED)
    grid = build_synthetic_grid([q.tau for q in train.quotes], [q.strike for q in train.quotes])
    adapter, model, scratch = calibration._adapter("rn-dmlp"), init_rndmlp(1), Scratch()
    _, _, parts = calibration._objective_parts(adapter, model, train, grid, config, samples,
                                               None, scratch)
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        calibration._objective_parts(adapter, model, train, grid, config, samples,
                                     parts["orders"], scratch)
        times.append(time.perf_counter() - t0)
    return np.percentile(times, [25, 50, 75])


if __name__ == "__main__":
    if sys.argv[1:] == ["fit"]:
        fit()
        sys.exit(0)
    print(f"rn-dmlp, N = {N:.0e}, {len(train.quotes)} train quotes, numpy {np.__version__}, "
          f"{os.cpu_count()} cores")
    q1, median, q3 = warm_objective()
    print(f"warm objective with gradient, {REPEATS} runs: median {median:.3f} s "
          f"(quartiles {q1:.3f}-{q3:.3f} s)")
    child = subprocess.run([sys.executable, __file__, "fit"], check=True,
                           capture_output=True, text=True)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
    print(f"{ITERATIONS}-iteration calibrate(): {float(child.stdout):.2f} s wall, "
          f"peak RSS {peak:.1f} MiB")
