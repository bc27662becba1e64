import numpy as np
import pytest

from rndkit.data_io import (
    DataError,
    OptionChain,
    OptionQuote,
    interpolate_rate,
    load_chain,
    save_chain,
    save_rates,
    split_train_test,
)
from rndkit.numerics import sorted_unique

CHAIN_CSV = """\
#spot=100.0
date,side,strike,days,bid,ask
2026-01-05,call,90,30,10.10,10.30
2026-01-05,call,100,30,2.05,2.15
2026-01-05,call,110,30,0.01,0.02
2026-01-05,put,100,30,1.95,2.05
2026-01-05,put,80,30,0.30,0.20
"""

RATES_CSV = """\
tenor_days,rate
30,0.02
90,0.04
"""


@pytest.fixture
def chain_files(tmp_path):
    chain_path = tmp_path / "chain.csv"
    chain_path.write_text(CHAIN_CSV)
    (tmp_path / "chain.rates.csv").write_text(RATES_CSV)
    return chain_path


def test_load_chain_filters_and_parses(chain_files):
    chain = load_chain(chain_files)
    assert chain.spot == 100.0
    assert chain.observation_date == "2026-01-05"
    # sub-$0.025 quote and the crossed quote are dropped
    assert len(chain.quotes) == 3
    assert chain.load_report["dropped_low_quote"] == 1
    assert chain.load_report["dropped_crossed"] == 1
    q = chain.quotes[0]
    assert q.mid == pytest.approx(10.20)
    assert q.tau == pytest.approx(30.0 / 365.0, rel=1e-15)


def test_load_chain_spot_override_and_missing(tmp_path, chain_files):
    chain = load_chain(chain_files, spot=105.0)
    assert chain.spot == 105.0

    no_spot = tmp_path / "nospot.csv"
    no_spot.write_text(CHAIN_CSV.replace("#spot=100.0\n", ""))
    (tmp_path / "nospot.rates.csv").write_text(RATES_CSV)
    with pytest.raises(DataError, match="spot"):
        load_chain(no_spot)
    assert load_chain(no_spot, spot=100.0).spot == 100.0


def test_load_chain_error_cases(tmp_path):
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("side,strike,days,bid\ncall,100,30,1.0\n")
    with pytest.raises(DataError, match="header"):
        load_chain(bad_header, spot=100.0)

    bad_value = tmp_path / "value.csv"
    bad_value.write_text("date,side,strike,days,bid,ask\n2026-01-05,call,abc,30,1.0,1.1\n")
    (tmp_path / "value.rates.csv").write_text(RATES_CSV)
    with pytest.raises(DataError, match="numeric"):
        load_chain(bad_value, spot=100.0)

    all_dropped = tmp_path / "empty.csv"
    all_dropped.write_text("date,side,strike,days,bid,ask\n2026-01-05,call,100,30,0.01,0.02\n")
    with pytest.raises(DataError, match="no usable quotes"):
        load_chain(all_dropped, spot=100.0)

    with pytest.raises(DataError, match="not found"):
        load_chain(tmp_path / "missing.csv")


NON_FINITE_EDITS = [
    (False, "call,100,30,2.05", "call,nan,30,2.05", "strike"),
    (False, "call,100,30,2.05", "call,100,inf,2.05", "days"),
    (False, "30,2.05,2.15", "30,nan,2.15", "bid"),
    (False, "30,2.05,2.15", "30,2.05,inf", "ask"),
    (False, "#spot=100.0", "#spot=nan", "spot"),
    (True, "90,0.04", "nan,0.04", "tenor_days"),
    (True, "90,0.04", "90,nan", "rate"),
]


@pytest.mark.parametrize("sidecar, old, new, field", NON_FINITE_EDITS,
                         ids=[edit[-1] for edit in NON_FINITE_EDITS])
def test_load_chain_rejects_non_finite_numbers(tmp_path, sidecar, old, new, field):
    chain_csv, rates_csv = CHAIN_CSV, RATES_CSV
    if sidecar:
        rates_csv = rates_csv.replace(old, new)
    else:
        chain_csv = chain_csv.replace(old, new)
    (tmp_path / "chain.csv").write_text(chain_csv)
    (tmp_path / "chain.rates.csv").write_text(rates_csv)
    with pytest.raises(DataError, match=f"column '{field}' is not finite"):
        load_chain(tmp_path / "chain.csv")


def test_load_chain_rejects_a_tenor_listed_twice(tmp_path):
    # two rates at 90 days would leave 60 days interpolating towards one
    # and 90 days reading the other
    (tmp_path / "chain.csv").write_text(CHAIN_CSV)
    (tmp_path / "chain.rates.csv").write_text(RATES_CSV + "90.0,0.09\n")
    with pytest.raises(DataError, match="tenor 90 days twice"):
        load_chain(tmp_path / "chain.csv")


def test_quote_validation():
    with pytest.raises(DataError):
        OptionQuote("call", -5.0, 30, 1.0, 1.1)
    with pytest.raises(DataError):
        OptionQuote("call", 100.0, 0, 1.0, 1.1)
    with pytest.raises(DataError):
        OptionQuote("payer", 100.0, 30, 1.0, 1.1)
    assert OptionQuote("put", 100.0, 365, 1.0, 1.1).tau == 1.0


def test_interpolate_rate():
    curve = [(30.0, 0.02), (90.0, 0.04)]
    assert interpolate_rate(curve, 60.0 / 365.0) == pytest.approx(0.03, rel=1e-12)
    assert interpolate_rate(curve, 30.0 / 365.0) == 0.02
    assert interpolate_rate(curve, 5.0 / 365.0) == 0.02  # flat below
    assert interpolate_rate(curve, 2.0) == 0.04  # flat above
    with pytest.raises(DataError):
        interpolate_rate([], 0.5)


def test_split_alternates_inside_band():
    quotes = [OptionQuote("call", k, 30, 1.0, 1.2) for k in (90.0, 95.0, 100.0, 105.0, 110.0)]
    chain = OptionChain("2026-01-05", 100.0, quotes, [(30.0, 0.02)])
    split = split_train_test(chain)
    assert [q.strike for q in split.train.quotes] == [90.0, 100.0, 110.0]
    assert [q.strike for q in split.test.quotes] == [95.0, 105.0]
    assert split.extreme.quotes == []


def test_split_band_edges_and_partition():
    strikes = [79.0, 80.0, 95.0, 120.0, 121.0]
    quotes = [OptionQuote("call", k, 30, 1.0, 1.2) for k in strikes]
    quotes += [OptionQuote("put", k, 30, 1.0, 1.2) for k in strikes]
    quotes += [OptionQuote("call", k, 91, 1.0, 1.2) for k in (85.0, 90.0, 95.0)]
    chain = OptionChain("2026-01-05", 100.0, quotes, [(30.0, 0.02)])
    split = split_train_test(chain)
    # 0.8 and 1.2 moneyness are inside the closed band; 0.79 / 1.21 are not.
    extreme_strikes = sorted(q.strike for q in split.extreme.quotes)
    assert extreme_strikes == [79.0, 79.0, 121.0, 121.0]
    # Partition: every quote lands in exactly one split.
    def keys(chain_part):
        return sorted((q.side, q.strike, q.days_to_maturity) for q in chain_part.quotes)
    all_keys = keys(chain)
    recombined = sorted(keys(split.train) + keys(split.test) + keys(split.extreme))
    assert recombined == all_keys
    # Per-group alternation for the 91-day calls.
    group = [q.strike for q in split.train.quotes if q.days_to_maturity == 91]
    assert group == [85.0, 95.0]


def test_save_load_round_trip(tmp_path):
    quotes = [
        OptionQuote("call", 90.0, 30, 10.10, 10.30),
        OptionQuote("put", 100.0, 91, 1.95, 2.05),
    ]
    chain = OptionChain("2026-01-05", 123.456, quotes, [(30.0, 0.021), (91.0, 0.034)])
    path = tmp_path / "chain.csv"
    save_chain(chain, path)
    save_rates(chain.rate_curve, tmp_path / "chain.rates.csv")
    loaded = load_chain(path)
    assert loaded.spot == chain.spot
    assert loaded.rate_curve == chain.rate_curve
    assert len(loaded.quotes) == 2
    for orig, back in zip(chain.quotes, loaded.quotes):
        assert (orig.side, orig.strike, orig.days_to_maturity, orig.bid, orig.ask) == (
            back.side, back.strike, back.days_to_maturity, back.bid, back.ask,
        )


def test_sorted_unique_matches_np_unique_on_finite_input():
    rng = np.random.default_rng(4)
    values = rng.choice([-1.5, -0.0, 0.0, 0.25, 7.0, 1e300], size=200).tolist()
    for case in (values, [3.0], [], [2.0, 2.0], 0.5):
        got, want = sorted_unique(case), np.unique(np.asarray(case, dtype=float))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
