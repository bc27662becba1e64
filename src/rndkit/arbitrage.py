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


def price_surface(model, taus, strikes, spot, rate_fn, samples, hints=None) -> PriceSurface:
    """One slice per maturity, on the model bound once; ``hints`` maps a
    maturity to a candidate sort order, as in ``pricing.price_chain``."""
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
        table = MaturitySlice(tau, rate, *bound.columns(tau, rate), (hints or {}).get(tau))
        jtau_calls, _, jtau_puts, _ = table.calendars(moneyness)
        rows.append((table.prices("call", moneyness, spot)[0],
                     table.prices("put", moneyness, spot)[0],
                     rate, table.defect, jtau_calls, jtau_puts))
    return PriceSurface(float(spot), taus, strikes, *map(np.array, zip(*rows)))


def audit_price_surface(surface: PriceSurface) -> dict:
    """Run the static checks on an already-priced surface.

    Returns a JSON-ready report; ``passed`` is the conjunction of all
    checks.  Parity and bound checks get slack S |e^delta - 1| from the
    measured martingale defect delta per maturity.
    """
    s = surface
    tol = 1e-12 * s.spot
    checks = {}

    def record(name, violations, worst):
        checks[name] = {
            "passed": bool(len(violations) == 0),
            "n_violations": len(violations),
            "worst": float(worst) if violations else 0.0,
            "examples": violations[:5],
        }

    # 1. monotone in strike: calls fall, puts rise.
    viol, worst = [], 0.0
    for i, tau in enumerate(s.taus):
        dc = np.diff(s.calls[i])
        dp = np.diff(s.puts[i])
        for j in np.nonzero(dc > tol)[0]:
            viol.append({"tau": float(tau), "strike": float(s.strikes[j + 1]), "side": "call", "value": float(dc[j])})
            worst = max(worst, float(dc[j]))
        for j in np.nonzero(dp < -tol)[0]:
            viol.append({"tau": float(tau), "strike": float(s.strikes[j + 1]), "side": "put", "value": float(dp[j])})
            worst = min(worst, float(dp[j]))
    record("monotone_in_strike", viol, worst)

    # 2. convex in strike.
    viol, worst = [], 0.0
    for i, tau in enumerate(s.taus):
        for name, grid_prices in (("call", s.calls[i]), ("put", s.puts[i])):
            if grid_prices.size < 3:
                continue
            second = grid_prices[:-2] - 2.0 * grid_prices[1:-1] + grid_prices[2:]
            for j in np.nonzero(second < -tol)[0]:
                viol.append({"tau": float(tau), "strike": float(s.strikes[j + 1]), "side": name, "value": float(second[j])})
                worst = min(worst, float(second[j]))
    record("convex_in_strike", viol, worst)

    # 3. calendar: prices should not fall as maturity grows, with slack
    # integrated from any measured negative calendar values.
    viol, worst = [], 0.0
    for i in range(s.taus.size - 1):
        dtau = s.taus[i + 1] - s.taus[i]
        for j, k in enumerate(s.strikes):
            jc = min(s.jtau_calls[i, j], s.jtau_calls[i + 1, j])
            slack_c = s.spot * dtau * max(0.0, -jc) + tol
            dc = s.calls[i + 1, j] - s.calls[i, j]
            if dc < -slack_c:
                viol.append({"tau": float(s.taus[i + 1]), "strike": float(k), "side": "call", "value": float(dc)})
                worst = min(worst, float(dc))
            jp = min(s.jtau_puts[i, j], s.jtau_puts[i + 1, j])
            slack_p = s.spot * dtau * max(0.0, -jp) + tol
            dp = s.puts[i + 1, j] - s.puts[i, j]
            if dp < -slack_p:
                viol.append({"tau": float(s.taus[i + 1]), "strike": float(k), "side": "put", "value": float(dp)})
                worst = min(worst, float(dp))
    record("calendar_in_tau", viol, worst)

    # 4. parity and static bounds within the measured martingale slack.
    viol, worst = [], 0.0
    for i, tau in enumerate(s.taus):
        slack = s.spot * abs(np.expm1(s.defects[i])) + 1e-10 * s.spot
        disc_k = s.strikes * np.exp(-s.rates[i] * tau)
        parity_gap = np.abs(s.calls[i] - s.puts[i] - (s.spot - disc_k))
        lower_c = np.maximum(s.spot - disc_k, 0.0)
        lower_p = np.maximum(disc_k - s.spot, 0.0)
        bad = (
            (parity_gap > slack)
            | (s.calls[i] < lower_c - slack) | (s.calls[i] > s.spot + slack)
            | (s.puts[i] < lower_p - slack) | (s.puts[i] > disc_k + slack)
        )
        for j in np.nonzero(bad)[0]:
            viol.append({"tau": float(tau), "strike": float(s.strikes[j]), "value": float(parity_gap[j])})
            worst = max(worst, float(parity_gap[j]))
    record("parity_and_bounds", viol, worst)

    return {
        "passed": all(c["passed"] for c in checks.values()),
        "spot": s.spot,
        "martingale_defects": [{"tau": float(t), "defect": float(d)} for t, d in zip(s.taus, s.defects)],
        "checks": checks,
    }
