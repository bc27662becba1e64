"""Density and moment extraction from model samples.

The density of the log-return is estimated by a Gaussian kernel on a
deterministic subsample; the terminal-price density follows by the change
of variables f(s) = q(ln(s/S)) / s.  Moments are always computed from the
full sample, never from the kernel estimate.  The kernel sums run over
GRID_BLOCK grid points by at most X_BLOCK draws at a time in two reused
buffers, so ``report`` holds only block-sized temporaries whatever the
sample size, with the same row sums as whole-array evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import bind, sample_log_returns

__all__ = [
    "DensityEstimate",
    "RndCharacteristics",
    "kde_log_return",
    "price_density",
    "characteristics",
    "risk_neutral_moments",
    "term_structure",
]

KDE_SUBSAMPLE = 10_000

# _kernel_values works on GRID_BLOCK x X_BLOCK tiles of the grid-minus-draws matrix
GRID_BLOCK = 8
X_BLOCK = 65_536

VARIABLE_KINDS = ("log-return", "terminal-price")

CHARACTERISTIC_LEVELS = np.array([0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99])


@dataclass
class DensityEstimate:
    grid: np.ndarray
    values: np.ndarray
    variable_kind: str
    bandwidth: float | None = None

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.variable_kind not in VARIABLE_KINDS:
            raise ValueError(f"variable_kind must be one of {VARIABLE_KINDS}")
        if self.grid.ndim != 1 or self.grid.shape != self.values.shape:
            raise ValueError("grid and values must be 1-d and equal length")
        if self.grid.size < 2:
            raise ValueError("grid needs at least two points")
        if np.any(np.diff(self.grid) <= 0.0):
            raise ValueError("grid must be strictly increasing")
        if np.any(self.values < 0.0):
            raise ValueError("density values must be non-negative")

    def integral(self) -> float:
        return float(np.trapezoid(self.values, self.grid))


@dataclass
class RndCharacteristics:
    """The ten summary numbers reported for a risk-neutral density."""

    mean: float
    std: float
    skewness: float
    skew_pm: float
    skew_am: float
    kurtosis: float
    x01: float
    x05: float
    x95: float
    x99: float

    FIELD_ORDER = ("mean", "std", "skewness", "skew_pm", "skew_am",
                   "kurtosis", "x01", "x05", "x95", "x99")

    def to_vector(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in self.FIELD_ORDER])

    def to_jsonable(self) -> dict:
        return {name: float(getattr(self, name)) for name in self.FIELD_ORDER}


def _sample_values(samples) -> np.ndarray:
    values = getattr(samples, "values", samples)
    return np.asarray(values, dtype=float)


def subsample(x: np.ndarray, size: int = KDE_SUBSAMPLE) -> np.ndarray:
    """Deterministic stride subsample: every (n // size)-th element."""
    x = np.asarray(x)
    if x.size <= size:
        return x
    stride = x.size // size
    return x[::stride][:size]


def silverman_bandwidth(x: np.ndarray) -> float:
    sigma = float(np.std(x))
    return 1.06 * sigma * x.size ** (-0.2)


def _kernel_values(x: np.ndarray, grid: np.ndarray, bandwidth: float) -> np.ndarray:
    """Kernel sum at each grid point, GRID_BLOCK rows by X_BLOCK draws at a time.

    The two work buffers are allocated once; each block is a contiguous
    view of their leading elements, so every row is summed over the same
    contiguous run of draws whatever the grid or sample size.
    """
    norm = x.size * bandwidth * np.sqrt(2.0 * np.pi)
    out = np.empty(grid.size)
    width = min(X_BLOCK, x.size)
    u_buf = np.empty(GRID_BLOCK * width)
    k_buf = np.empty(GRID_BLOCK * width)
    for gs in range(0, grid.size, GRID_BLOCK):
        g = grid[gs:gs + GRID_BLOCK, None]
        acc = np.zeros(g.size)
        for xs in range(0, x.size, X_BLOCK):
            xb = x[None, xs:xs + X_BLOCK]
            shape = (g.size, xb.size)
            u = u_buf[:g.size * xb.size].reshape(shape)
            k = k_buf[:g.size * xb.size].reshape(shape)
            np.subtract(g, xb, out=u)
            u /= bandwidth
            np.multiply(-0.5, u, out=k)
            k *= u
            np.exp(k, out=k)
            acc += k.sum(axis=1)
        out[gs:gs + GRID_BLOCK] = acc / norm
    return out


def kde_log_return(model, tau, samples, grid, rate=0.0,
                   subsample_size=KDE_SUBSAMPLE) -> DensityEstimate:
    """Gaussian-kernel density of the log-return at one maturity.

    By default the estimate uses a size-10^4 deterministic subsample with
    the Silverman bandwidth 1.06 sigma m^(-1/5), which is plenty for plots
    (sup-norm error a few percent of the peak).  Pass subsample_size=None
    to run on the full sample when tighter accuracy is needed; its work
    memory is bounded by the kernel blocks too (about 8 MB at 6e4 draws),
    and only its time grows with the sample.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be 1-d and strictly increasing")
    x = sample_log_returns(model, tau, samples, rate)
    sub = x if subsample_size is None else subsample(x, subsample_size)
    if np.std(sub) == 0.0:
        raise ValueError("degenerate samples: zero variance")
    bandwidth = silverman_bandwidth(sub)
    values = _kernel_values(sub, grid, bandwidth)
    return DensityEstimate(grid=grid, values=values, variable_kind="log-return",
                           bandwidth=bandwidth)


def price_density(est: DensityEstimate, spot) -> DensityEstimate:
    """Map a log-return density to the terminal-price density."""
    if est.variable_kind != "log-return":
        raise ValueError("price_density expects a log-return density")
    if spot <= 0.0:
        raise ValueError("spot must be positive")
    s_grid = spot * np.exp(est.grid)
    return DensityEstimate(grid=s_grid, values=est.values / s_grid,
                           variable_kind="terminal-price", bandwidth=est.bandwidth)


def _standardized_moments(x: np.ndarray):
    mean = float(np.mean(x))
    std = float(np.std(x))
    if std == 0.0:
        raise ValueError("degenerate sample: zero variance")
    z = (x - mean) / std
    z2 = z * z  # products, not z**3 and z**4, which numpy runs through pow
    skewness = float(np.mean(z2 * z))
    kurtosis = float(np.mean(z2 * z2))  # non-excess: normal -> 3
    return mean, std, skewness, kurtosis


def _median_unbiased_quantiles(x, levels):
    """``np.quantile(x, levels, method="median_unbiased")`` of a 1-d sample.

    Hyndman and Fan's type 8: numpy's virtual index with alpha = beta =
    1/3, its clamping at the ends, and its ``_lerp`` expression, on the
    order statistics from one partition, so the values carry numpy's bits
    without the ``np.unique`` of the partition ranks (which imports
    numpy.ma).
    """
    n = x.size
    alpha = beta = 1 / 3.0
    virtual = n * levels + (alpha + levels * (1 - alpha - beta)) - 1
    below = np.floor(virtual)
    above = below + 1
    below[virtual >= n - 1] = above[virtual >= n - 1] = -1
    below[virtual < 0] = above[virtual < 0] = 0
    below, above = below.astype(np.intp), above.astype(np.intp)
    ordered = np.partition(x, np.concatenate(([0, -1], below, above)))
    if np.isnan(ordered[-1]):
        return np.full(levels.shape, np.nan)
    a, b = ordered[below], ordered[above]
    gamma = virtual - below
    diff = b - a
    return np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)


def characteristics(values) -> RndCharacteristics:
    """The ten distribution characteristics of a sample."""
    x = _sample_values(values)
    if x.size < 100:
        raise ValueError("need at least 100 samples")
    mean, std, skewness, kurtosis = _standardized_moments(x)
    q = _median_unbiased_quantiles(x, CHARACTERISTIC_LEVELS)
    x01, x05, x25, x50, x75, x95, x99 = (float(v) for v in q)
    iqr_low = x50 - x25
    if iqr_low == 0.0:
        raise ValueError("degenerate sample: lower quartile equals median")
    return RndCharacteristics(
        mean=mean,
        std=std,
        skewness=skewness,
        skew_pm=(mean - x50) / std,
        skew_am=(x75 - x50) / iqr_low,
        kurtosis=kurtosis,
        x01=x01,
        x05=x05,
        x95=x95,
        x99=x99,
    )


def risk_neutral_moments(model, tau, samples, rate=0.0):
    """(RNM2, RNM3, RNM4) = std, skewness, kurtosis of the log-return at tau."""
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    x = sample_log_returns(model, tau, samples, rate)
    _, std, skewness, kurtosis = _standardized_moments(x)
    return std, skewness, kurtosis


def term_structure(model, tau_grid, samples, rate_fn) -> np.ndarray:
    """Rows of (tau, RNM2, RNM3, RNM4) over an ascending maturity grid.

    rate_fn maps a maturity to its interpolated rate.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    if tau_grid.ndim != 1 or tau_grid.size == 0:
        raise ValueError("tau grid must be a non-empty 1-d array")
    if np.any(tau_grid <= 0.0) or np.any(np.diff(tau_grid) <= 0.0):
        raise ValueError("tau grid must be positive and ascending")
    bound = bind(model, samples)
    rows = np.empty((tau_grid.size, 4))
    for i, tau in enumerate(tau_grid.tolist()):
        rows[i] = (tau, *risk_neutral_moments(bound, tau, samples, rate_fn(tau)))
    return rows
