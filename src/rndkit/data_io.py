"""Option-chain ingestion, rate interpolation, train/test splitting, and
``write_csv``, the one writer of every CSV table the package produces.

Chain CSV format (comment lines start with '#'):

    #spot=2900.0
    date,side,strike,days,bid,ask
    2019-07-01,call,2800,30,112.25,113.00

Rates come from a sidecar CSV with columns ``tenor_days,rate``; by default
``<chain>.rates.csv`` next to the chain file.  Quotes with bid or ask
below $0.025 are dropped before mids are formed; the chain's
``load_report`` counts them, and the crossed quotes dropped.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .numerics import sorted_unique

__all__ = [
    "DataError",
    "OptionQuote",
    "OptionChain",
    "SplitChains",
    "check_distinct_tenors",
    "interpolate_rate",
    "load_chain",
    "save_chain",
    "save_rates",
    "split_train_test",
    "write_csv",
]

MIN_QUOTE = 0.025
MONEYNESS_BAND = (0.8, 1.2)
DAYS_PER_YEAR = 365.0


class DataError(ValueError):
    """Malformed or unusable market data."""


@dataclass
class OptionQuote:
    side: str
    strike: float
    days_to_maturity: int
    bid: float
    ask: float

    def __post_init__(self):
        if self.side not in ("call", "put"):
            raise DataError(f"unknown side {self.side!r}")
        if self.strike <= 0.0:
            raise DataError(f"strike must be positive, got {self.strike}")
        if self.days_to_maturity <= 0:
            raise DataError(f"days must be positive, got {self.days_to_maturity}")
        if self.bid < 0.0 or self.ask < 0.0:
            raise DataError("negative quote")

    @property
    def tau(self) -> float:
        return self.days_to_maturity / DAYS_PER_YEAR

    @property
    def mid(self) -> float:
        return 0.5 * (self.bid + self.ask)


@dataclass
class OptionChain:
    observation_date: str
    spot: float
    quotes: list
    rate_curve: list  # (tenor_days, rate) pairs
    load_report: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.spot <= 0.0:
            raise DataError("spot must be positive")

    def rate(self, tau: float) -> float:
        return interpolate_rate(self.rate_curve, tau)

    def maturities(self) -> np.ndarray:
        return sorted_unique([q.tau for q in self.quotes])

    def strikes(self) -> np.ndarray:
        return sorted_unique([q.strike for q in self.quotes])

    def with_quotes(self, quotes) -> "OptionChain":
        return OptionChain(self.observation_date, self.spot, list(quotes), list(self.rate_curve))


@dataclass
class SplitChains:
    train: OptionChain
    test: OptionChain
    extreme: OptionChain


def interpolate_rate(curve, tau: float) -> float:
    """Linear interpolation in tenor days with flat extrapolation."""
    if not curve:
        raise DataError("empty rate curve")
    tenors, rates = np.array(sorted((float(t), float(r)) for t, r in curve)).T
    return float(np.interp(tau * DAYS_PER_YEAR, tenors, rates))


def _parse_float(row_num, name, raw):
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise DataError(f"row {row_num}: column {name!r} is not numeric: {raw!r}") from None
    if not np.isfinite(value):
        raise DataError(f"row {row_num}: column {name!r} is not finite: {raw!r}")
    return value


def load_chain(path, rates_path=None, spot=None) -> OptionChain:
    """Read a chain CSV plus its rates sidecar.

    ``spot`` overrides any ``#spot=`` header comment.  Drop counts land in
    the returned chain's ``load_report``.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"chain file not found: {path}")
    header_spot = None
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        data_lines = []
        for line in fh:
            stripped = line.strip()
            if stripped.startswith("#"):
                body = stripped.lstrip("#").strip()
                if body.startswith("spot="):
                    header_spot = _parse_float("header", "spot", body.split("=", 1)[1])
                continue
            if stripped:
                data_lines.append(line)
        reader = csv.DictReader(data_lines)
        required = {"date", "side", "strike", "days", "bid", "ask"}
        got = set(reader.fieldnames or [])
        if not required.issubset(got):
            raise DataError(f"chain header must contain {sorted(required)}, got {sorted(got)}")
        for i, row in enumerate(reader, start=2):
            rows.append((i, row))
    if spot is None:
        spot = header_spot
    if spot is None:
        raise DataError("spot price missing: pass spot= or add a '#spot=' header line")

    dropped_low = 0
    dropped_crossed = 0
    quotes = []
    date = None
    for row_num, row in rows:
        side = (row["side"] or "").strip().lower()
        strike = _parse_float(row_num, "strike", row["strike"])
        days_raw = _parse_float(row_num, "days", row["days"])
        days = int(round(days_raw))
        if days != days_raw:
            raise DataError(f"row {row_num}: days must be an integer, got {days_raw}")
        bid = _parse_float(row_num, "bid", row["bid"])
        ask = _parse_float(row_num, "ask", row["ask"])
        if date is None:
            date = (row["date"] or "").strip()
        if bid < MIN_QUOTE or ask < MIN_QUOTE:
            dropped_low += 1
            continue
        if bid > ask:
            dropped_crossed += 1
            continue
        quotes.append(OptionQuote(side=side, strike=strike, days_to_maturity=days, bid=bid, ask=ask))
    if not quotes:
        raise DataError("no usable quotes after filtering")

    if rates_path is None:
        candidate = path.with_suffix(".rates.csv")
        if candidate.exists():
            rates_path = candidate
        else:
            raise DataError(f"rates sidecar not found (looked for {candidate}); pass rates_path")
    curve = _load_rates(rates_path)

    report = {
        "rows": len(rows),
        "kept": len(quotes),
        "dropped_low_quote": dropped_low,
        "dropped_crossed": dropped_crossed,
    }
    return OptionChain(
        observation_date=date or "", spot=float(spot), quotes=quotes,
        rate_curve=curve, load_report=report,
    )


def _load_rates(path) -> list:
    path = Path(path)
    if not path.exists():
        raise DataError(f"rates file not found: {path}")
    curve = []
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [l for l in fh if l.strip() and not l.strip().startswith("#")]
    reader = csv.DictReader(lines)
    if not {"tenor_days", "rate"}.issubset(set(reader.fieldnames or [])):
        raise DataError("rates header must contain tenor_days,rate")
    for i, row in enumerate(reader, start=2):
        curve.append((_parse_float(i, "tenor_days", row["tenor_days"]), _parse_float(i, "rate", row["rate"])))
    if not curve:
        raise DataError("empty rate curve")
    check_distinct_tenors(curve, f"rates file {path}")
    return curve


def check_distinct_tenors(curve, where) -> None:
    """Raise a DataError naming the first tenor that ``curve`` lists twice:
    one tenor with two rates has no one interpolated rate."""
    seen = set()
    for tenor, _ in curve:
        if float(tenor) in seen:
            raise DataError(f"{where} lists tenor {float(tenor):g} days twice")
        seen.add(float(tenor))


def write_csv(path, header, rows, comment=None) -> None:
    """Write a table: an optional ``#comment`` line, the header, then one
    line per row, each float by repr (enough digits to read back bit for
    bit) and any other value as ``csv.writer`` writes it."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if comment is not None:
            fh.write(f"#{comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(float(x)) if isinstance(x, (float, np.floating)) else x
                          for x in row] for row in rows)


def save_chain(chain: OptionChain, path) -> None:
    write_csv(path, ["date", "side", "strike", "days", "bid", "ask"],
              ([chain.observation_date, q.side, float(q.strike), q.days_to_maturity,
                float(q.bid), float(q.ask)] for q in chain.quotes),
              comment=f"spot={chain.spot!r}")


def save_rates(curve, path) -> None:
    write_csv(path, ["tenor_days", "rate"], ([float(t), float(r)] for t, r in curve))


def split_train_test(chain: OptionChain) -> SplitChains:
    """Alternating odd/even split by strike inside the moneyness band.

    Quotes are grouped per (maturity, side); in-band quotes (strike/spot
    in [0.8, 1.2], closed) are sorted by strike and alternate train (1st,
    3rd, ...) / test (2nd, 4th, ...).  Out-of-band quotes form the extreme
    set.
    """
    lo, hi = MONEYNESS_BAND
    groups = {}
    extreme = []
    for q in chain.quotes:
        m = q.strike / chain.spot
        if lo <= m <= hi:
            groups.setdefault((q.days_to_maturity, q.side), []).append(q)
        else:
            extreme.append(q)
    train, test = [], []
    for key in sorted(groups):
        members = sorted(groups[key], key=lambda q: q.strike)
        for pos, q in enumerate(members, start=1):
            (train if pos % 2 == 1 else test).append(q)
    return SplitChains(
        train=chain.with_quotes(train),
        test=chain.with_quotes(test),
        extreme=chain.with_quotes(extreme),
    )
