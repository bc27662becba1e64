"""Static no-arbitrage penalties and the price-surface audit.

The calendar penalties are sample averages whose sign certifies that the
discounted-price surface moves the right way in maturity:

    Jt_C(tau, K) = (1/N) sum_n 1{e^X_n >= K/S} [ (dX_n/dtau - r) e^X_n + r K/S ]
    Jt_P(tau, K) = (1/N) sum_n 1{e^X_n <= K/S} [ (r - dX_n/dtau) e^X_n - r K/S ]

and S e^(-r tau) Jt_C equals the maturity derivative of the Monte Carlo
call price on the same draws (fixed indicator set), which the test suite
verifies by finite differences.  The martingale penalty is the squared
defect J_mu(tau) = (ln (1/N) sum_n e^X_n - r tau)^2.

Aggregation hinges the calendar terms, so only violations contribute:
J = sum (-Jt_C)^+ + sum (-Jt_P)^+ + sum J_mu.

Every term, and every price the audit checks, is read off the sorted
block sums of one ``pricing.MaturitySlice`` per maturity, the same
slice calibration reads, by the slice's array lookups; the martingale
defect is the log1p of the mean growth's excess over 1.
``aggregate_penalties`` is the one penalty total: the surface's penalty
and calibration's objective both call it on per-maturity calendar rows
and defects, so the final metrics of a fit reproduce its last objective
evaluation bit for bit.  ``price_surface`` is the one pass over the
maturities; the penalty and the audit both read its surface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import bind
from .numerics import sorted_unique
from .pricing import MaturitySlice

__all__ = [
    "SyntheticGrid",
    "build_synthetic_grid",
    "aggregate_penalties",
    "PenaltyReport",
    "price_surface",
    "audit_price_surface",
]


# ----------------------------------------------------------------------
# synthetic grid


@dataclass
class SyntheticGrid:
    """Penalty evaluation grid: maturities x strikes, both option sides."""

    taus: np.ndarray
    strikes: np.ndarray

    @property
    def n_pairs(self) -> int:
        return self.taus.size * self.strikes.size


def _with_midpoints(values: np.ndarray) -> np.ndarray:
    if values.size == 1:
        return values
    mids = 0.5 * (values[:-1] + values[1:])
    return np.sort(np.concatenate([values, mids]))


def build_synthetic_grid(taus, strikes) -> SyntheticGrid:
    """Sorted unique inputs, augmented with pairwise midpoints, Cartesian.

    n maturities and m strikes give (2n-1)(2m-1) pairs, each present for
    both the call and the put side.
    """
    taus = sorted_unique(taus)
    strikes = sorted_unique(strikes)
    if taus.size == 0 or strikes.size == 0:
        raise ValueError("grid needs at least one maturity and one strike")
    if np.any(taus <= 0.0) or np.any(strikes <= 0.0):
        raise ValueError("maturities and strikes must be positive")
    return SyntheticGrid(taus=_with_midpoints(taus), strikes=_with_midpoints(strikes))


# ----------------------------------------------------------------------
# penalty terms


@dataclass
class PenaltyReport:
    total: float
    n_violations: int
    worst: float  # most negative calendar value, 0.0 if none
    calendar_values: list  # (tau, strike, side, value)
    mu_values: list  # (tau, value)

    def to_jsonable(self) -> dict:
        return {
            "total": self.total,
            "n_violations": self.n_violations,
            "worst": self.worst,
            "mu_values": [{"tau": t, "value": v} for t, v in self.mu_values],
            "calendar_violations": [
                {"tau": t, "strike": k, "side": s, "value": v}
                for t, k, s, v in self.calendar_values
                if v < 0.0
            ],
        }


def aggregate_penalties(jtau_calls, jtau_puts, defects) -> float:
    """The penalty total J from per-maturity calendar rows and defects.

    ``jtau_calls`` and ``jtau_puts`` hold one row of signed calendar values
    per maturity, one value per strike.  The terms add left to right: per
    maturity, the hinged call and put values strike by strike, then the
    squared defect.  A cumulative sum keeps that order (``np.sum`` pairs
    the terms, which would move the bits); a value that is not negative
    adds an exact zero.
    """
    calendar = np.stack([jtau_calls, jtau_puts], axis=-1).reshape(len(defects), -1)
    terms = np.column_stack([np.where(calendar < 0.0, -calendar, 0.0), defects * defects])
    return float(np.cumsum(terms)[-1])


# ----------------------------------------------------------------------
# surface audit


@dataclass
class PriceSurface:
    """Prices, calendar values and defects on a maturity x strike grid."""

    spot: float
    taus: np.ndarray
    strikes: np.ndarray
    calls: np.ndarray  # (n_tau, n_strike)
    puts: np.ndarray
    rates: np.ndarray  # per tau
    defects: np.ndarray  # martingale defect per tau
    jtau_calls: np.ndarray  # (n_tau, n_strike) signed calendar values
    jtau_puts: np.ndarray

    def penalty(self) -> PenaltyReport:
        """The penalty on this grid: per maturity, a call and a put calendar
        row at each strike, then the squared martingale defect."""
        calendar = np.stack([self.jtau_calls, self.jtau_puts], axis=-1)
        violated = calendar[calendar < 0.0]
        return PenaltyReport(
            total=aggregate_penalties(self.jtau_calls, self.jtau_puts, self.defects),
            n_violations=int(violated.size),
            worst=float(violated.min(initial=0.0)),
            calendar_values=[(float(tau), float(k), side, float(calendar[i, j, s]))
                             for i, tau in enumerate(self.taus)
                             for j, k in enumerate(self.strikes)
                             for s, side in enumerate(("call", "put"))],
            mu_values=[(float(tau), float(d * d)) for tau, d in zip(self.taus, self.defects)],
        )

    def at(self, taus, strikes) -> "PriceSurface":
        """The sub-surface at points of this grid; ValueError for any off it."""
        i = _grid_index(self.taus, taus, "maturity")
        j = _grid_index(self.strikes, strikes, "strike")
        cell = np.ix_(i, j)
        return PriceSurface(self.spot, self.taus[i], self.strikes[j], self.calls[cell],
                            self.puts[cell], self.rates[i], self.defects[i],
                            self.jtau_calls[cell], self.jtau_puts[cell])


def _grid_index(grid, values, name):
    values = sorted_unique(values)
    pos = np.minimum(np.searchsorted(grid, values), grid.size - 1)
    off = values[grid[pos] != values]
    if off.size:
        raise ValueError(f"{name} {float(off[0])!r} is not on the surface's grid")
    return pos


def price_surface(model, taus, strikes, spot, rate_fn, samples) -> PriceSurface:
    """One slice per maturity, on the model bound once."""
    taus = sorted_unique(taus)
    strikes = sorted_unique(strikes)
    if taus.size == 0:
        raise ValueError("a surface needs at least one maturity")
    if np.any(taus <= 0.0):
        raise ValueError("surface maturities must be positive")
    bound = bind(model, samples)
    moneyness = strikes / spot
    rows = []
    for tau in map(float, taus):
        rate = rate_fn(tau)
        table = MaturitySlice(tau, rate, *bound.columns(tau, rate))
        jtau_calls, _, jtau_puts, _ = table.calendars(moneyness)
        rows.append((table.prices("call", moneyness, spot)[0],
                     table.prices("put", moneyness, spot)[0],
                     rate, table.defect, jtau_calls, jtau_puts))
    return PriceSurface(float(spot), taus, strikes, *map(np.array, zip(*rows)))


_SIDES = ("call", "put")


def _violations(bad, values, **axes) -> dict:
    """One check's report from its violation mask and signed values, whose
    axes ``axes`` labels in order: entries come in row-major order, keyed
    tau, strike, side, value; ``examples`` holds the first five, and
    ``worst`` is the found value of largest magnitude, the first on ties."""
    found = values[bad]
    labels = {name: np.asarray(axis).tolist() for name, axis in axes.items()}
    examples = []
    for index, value in zip(np.argwhere(bad)[:5], found[:5].tolist()):
        at = {name: labels[name][i] for name, i in zip(axes, index)}
        examples.append({**{k: at[k] for k in ("tau", "strike", "side") if k in at}, "value": value})
    return {"passed": not found.size, "n_violations": int(found.size),
            "worst": float(found[np.argmax(np.abs(found))]) if found.size else 0.0,
            "examples": examples}


def audit_price_surface(surface: PriceSurface) -> dict:
    """Run the static checks on an already-priced surface.

    Returns a JSON-ready report; ``passed`` is the conjunction of all
    checks.  Parity and bound checks get slack S |e^delta - 1| from the
    measured martingale defect delta per maturity, and report a failing
    point's largest excess over its five limits.
    """
    s = surface
    tol = 1e-12 * s.spot
    prices = np.stack([s.calls, s.puts], axis=1)  # (tau, side, strike)
    jtau = np.stack([s.jtau_calls, s.jtau_puts], axis=1)
    # monotone in strike (calls fall, puts rise), and convex in strike
    step = np.diff(prices, axis=2)
    second = prices[..., :-2] - 2.0 * prices[..., 1:-1] + prices[..., 2:]
    # calendar, (tau, strike, side): prices should not fall as maturity grows,
    # with slack integrated from any measured negative calendar values
    rise = np.diff(prices, axis=0).swapaxes(1, 2)
    floor = np.maximum(0.0, -np.minimum(jtau[:-1], jtau[1:])).swapaxes(1, 2)
    lag = s.spot * np.diff(s.taus)[:, None, None] * floor + tol
    # parity and static bounds within the measured martingale slack: a point
    # fails when its largest excess is positive; fmax passes over a NaN term
    slack = (s.spot * np.abs(np.expm1(s.defects)) + 1e-10 * s.spot)[:, None]
    disc_k = s.strikes * np.exp(-s.rates * s.taus)[:, None]
    excess = np.fmax.reduce([
        np.abs(s.calls - s.puts - (s.spot - disc_k)) - slack,
        (np.maximum(s.spot - disc_k, 0.0) - slack) - s.calls, s.calls - (s.spot + slack),
        (np.maximum(disc_k - s.spot, 0.0) - slack) - s.puts, s.puts - (disc_k + slack),
    ])
    checks = {
        "monotone_in_strike": _violations(step * np.array([[1.0], [-1.0]]) > tol, step,
                                          tau=s.taus, side=_SIDES, strike=s.strikes[1:]),
        "convex_in_strike": _violations(second < -tol, second,
                                        tau=s.taus, side=_SIDES, strike=s.strikes[1:-1]),
        "calendar_in_tau": _violations(rise < -lag, rise,
                                       tau=s.taus[1:], strike=s.strikes, side=_SIDES),
        "parity_and_bounds": _violations(excess > 0.0, excess, tau=s.taus, strike=s.strikes),
    }
    defects = [{"tau": t, "defect": d} for t, d in zip(s.taus.tolist(), s.defects.tolist())]
    return {"passed": all(c["passed"] for c in checks.values()), "spot": s.spot,
            "martingale_defects": defects, "checks": checks}
