"""Density and moment extraction from model samples.

The log-return X = f(Z, tau) is an explicit function of the standard
normal, so its density is read off the model by change of variables on a
fixed grid of Z nodes, with no bandwidth to tune; the terminal-price
density follows by the change of variables f(s) = q(ln(s/S)) / s.
Moments and quantiles are always computed from the full sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import _values, bind, sample_log_returns

__all__ = [
    "DensityEstimate",
    "RndCharacteristics",
    "pushforward_density",
    "price_density",
    "characteristics",
    "risk_neutral_moments",
    "term_structure",
]

# uniform Z nodes over the pool's range on which pushforward_density reads X
DENSITY_NODES = 4097

VARIABLE_KINDS = ("log-return", "terminal-price")

CHARACTERISTIC_LEVELS = np.array([0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99])


@dataclass
class DensityEstimate:
    grid: np.ndarray
    values: np.ndarray
    variable_kind: str

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


def pushforward_density(model, tau, samples, grid, rate=0.0) -> DensityEstimate:
    """Density of the log-return X = f(Z, tau) at one maturity, read off the
    model by change of variables: at x it is the sum of phi(z) / |dX/dz|
    over the z with X(z) = x.

    X is evaluated on DENSITY_NODES uniform Z nodes over the pool's
    [min Z, max Z], with dX/dz by central differences.  Between two nodes
    the density is linear in x through the node values phi(z) / |dX/dz|,
    scaled so the segment carries the trapezoid normal mass of its Z step;
    folds of X add their branches and stay finite.  Grid points outside
    X's range read 0, and the density integrates to the normal mass of the
    pool's Z range, not to 1.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    z = _values(samples)
    if z.size == 0 or z.min() == z.max():
        raise ValueError("degenerate pool: the draws span no Z range, so X has no density")
    nodes = np.linspace(z.min(), z.max(), DENSITY_NODES)
    x = bind(model, nodes).log_returns(tau, rate)
    if x.min() == x.max():
        raise ValueError("zero-range X: the model maps every draw to one log-return, "
                         "which has no density")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be 1-d and strictly increasing")
    step = nodes[1] - nodes[0]
    phi = np.exp(-0.5 * nodes * nodes) / np.sqrt(2.0 * np.pi)
    dxdz = np.abs(np.gradient(x, step))
    # segment i runs from x[i] to x[i + 1], its end values in the ratio
    # w0 : w1 of the node densities phi / |X'|; a flat one holds no density
    w0, w1 = phi[:-1] * dxdz[1:], phi[1:] * dxdz[:-1]
    live = x[:-1] != x[1:]
    x0, x1, dx, w0, w1 = x[:-1][live], x[1:][live], np.diff(x)[live], w0[live], w1[live]
    share = np.divide(w0, w0 + w1, out=np.full(w0.shape, 0.5), where=w0 + w1 > 0.0)
    heights = (phi[:-1] + phi[1:])[live] * step / np.abs(dx)  # sum of the two end values
    slopes = heights * (1.0 - 2.0 * share) / dx
    offsets = heights * share - slopes * x0
    # each segment adds offset + slope * g at the grid points g in
    # [low end, high end), and at X's top too; two difference arrays
    lo, hi = np.minimum(x0, x1), np.maximum(x0, x1)
    first, stop = np.searchsorted(grid, lo), np.searchsorted(grid, hi)
    stop[hi == hi.max()] = np.searchsorted(grid, hi.max(), "right")
    n = grid.size + 1
    offset, slope = (np.cumsum(np.bincount(first, w, n) - np.bincount(stop, w, n))[:-1]
                     for w in (offsets, slopes))
    # the cumulative sums leave cancellation residue of either sign at 0
    values = np.maximum(offset + slope * grid, 0.0)
    return DensityEstimate(grid=grid, values=values, variable_kind="log-return")


def price_density(est: DensityEstimate, spot) -> DensityEstimate:
    """Map a log-return density to the terminal-price density."""
    if est.variable_kind != "log-return":
        raise ValueError("price_density expects a log-return density")
    if spot <= 0.0:
        raise ValueError("spot must be positive")
    s_grid = spot * np.exp(est.grid)
    return DensityEstimate(grid=s_grid, values=est.values / s_grid,
                           variable_kind="terminal-price")


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
    x = _values(values)
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
