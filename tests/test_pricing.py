import math

import numpy as np
import pytest

from rndkit import pricing
from rndkit.data_io import OptionChain, OptionQuote
from rndkit.models import (
    RnQParams,
    bind,
    init_rndmlp,
    init_rnmlp,
    rnq_mu_from_constraint,
    sample_log_returns,
    zero_net_rnmlp,
)
from rndkit.numerics import logmeanexp
from rndkit.arbitrage import price_surface
from rndkit.pricing import (
    MaturitySlice,
    growth_factors,
    price_chain,
    quote_groups,
)
from rndkit.sampling import draw_standard_normal

from oracles import black_scholes_call, black_scholes_put

S = 100.0


def make_chain(quotes, spot=S, rate=0.03):
    return OptionChain("2026-01-05", spot, quotes, [(365.0, rate)])


def surface_prices(model, tau, rate, strikes, z):
    """Calls and puts at one maturity, one per (sorted) strike."""
    surface = price_surface(model, [tau], strikes, S, lambda t: rate, z)
    return surface.calls[0], surface.puts[0]


def payoff_stderr(model, side, strike, tau, rate, z):
    """Standard error of the discounted payoff's sample mean on the draws."""
    growth = np.exp(sample_log_returns(model, tau, z, rate))
    m = strike / S
    payoff = np.maximum(growth - m, 0.0) if side == "call" else np.maximum(m - growth, 0.0)
    return np.exp(-rate * tau) * S * np.std(payoff) / np.sqrt(payoff.size)


def test_degenerate_sigma_zero_prices_forward():
    rate, tau = 0.04, 0.5
    z = draw_standard_normal(1000, seed=1)
    model = RnQParams(mu=rate * tau, sigma=0.0, u=1.0, v=1.0)
    calls, puts = surface_prices(model, tau, rate, [90.0, 110.0], z)
    assert calls[0] == pytest.approx(S - 90.0 * np.exp(-rate * tau), rel=1e-12)
    # strike above the forward: worthless call, intrinsic-less put
    assert calls[1] == 0.0
    assert puts[1] == pytest.approx(110.0 * np.exp(-rate * tau) - S, rel=1e-12)


@pytest.mark.parametrize("strike", [80.0, 100.0, 125.0])
def test_lognormal_special_case_matches_black_scholes(strike):
    # u = v = 1 makes X normal with scale 1.5 sigma; with mu from the
    # martingale constraint the model prices must match Black-Scholes with
    # total volatility 1.5 sigma up to Monte Carlo noise.
    sigma, rate, tau = 0.2, 0.03, 0.5
    z = draw_standard_normal(200_000, seed=7)
    mu = rnq_mu_from_constraint(sigma, 1.0, 1.0, 4.0, z, rate, tau)
    model = RnQParams(mu=mu, sigma=sigma, u=1.0, v=1.0)
    vol = 1.5 * sigma / np.sqrt(tau)
    (call,), (put,) = surface_prices(model, tau, rate, [strike], z)
    for side, got, oracle in (("call", call, black_scholes_call), ("put", put, black_scholes_put)):
        want = oracle(S, strike, tau, rate, vol)
        assert abs(got - want) < 3.0 * payoff_stderr(model, side, strike, tau, rate, z) + 1e-10


def test_put_call_parity_with_eliminated_mu():
    sigma, rate, tau = 0.25, 0.04, 0.3
    z = draw_standard_normal(100_000, seed=3)
    mu = rnq_mu_from_constraint(sigma, 1.4, 1.2, 4.0, z, rate, tau)
    model = RnQParams(mu=mu, sigma=sigma, u=1.4, v=1.2)
    strikes = np.array([70.0, 95.0, 100.0, 130.0])
    c, p = surface_prices(model, tau, rate, strikes, z)
    gap = c - p - (S - strikes * np.exp(-rate * tau))
    assert np.all(np.abs(gap) <= 1e-10 * S)


def test_parity_gap_equals_martingale_defect():
    # Without the drift correction the zero-net model violates parity by
    # exactly S (e^delta - 1), delta the log martingale defect.
    model = zero_net_rnmlp(sigma=0.3)
    rate, tau = 0.05, 0.4
    z = draw_standard_normal(50_000, seed=11)
    delta = logmeanexp(sample_log_returns(model, tau, z, rate)) - rate * tau
    slack = S * abs(np.expm1(delta))
    strikes = np.array([85.0, 105.0])
    c, p = surface_prices(model, tau, rate, strikes, z)
    for gap in c - p - (S - strikes * np.exp(-rate * tau)):
        assert gap == pytest.approx(S * np.expm1(delta), rel=1e-9)
        assert abs(gap) <= slack + 1e-12 * S


def test_monotone_and_convex_in_strike():
    model = init_rnmlp(seed=21)
    z = draw_standard_normal(20_000, seed=5)
    rate, tau = 0.02, 0.6
    strikes = np.linspace(60.0, 140.0, 20)
    calls, puts = surface_prices(model, tau, rate, strikes, z)
    tol = 1e-12 * S
    assert np.all(np.diff(calls) <= tol)
    assert np.all(np.diff(puts) >= -tol)
    assert np.all(np.diff(calls, 2) >= -tol)
    assert np.all(np.diff(puts, 2) >= -tol)


def test_price_chain_matches_single_prices():
    model = init_rnmlp(seed=2)
    z = draw_standard_normal(10_000, seed=9)
    quotes = [
        OptionQuote("call", 90.0, 30, 1.0, 1.2),
        OptionQuote("put", 95.0, 30, 1.0, 1.2),
        OptionQuote("call", 100.0, 91, 1.0, 1.2),
        OptionQuote("put", 110.0, 91, 1.0, 1.2),
        OptionQuote("call", 100.0, 30, 1.0, 1.2),
    ]
    chain = make_chain(quotes)
    got = price_chain(model, chain, z)
    # each quote priced alone, on a one-point surface
    want = np.array([
        getattr(price_surface(model, [q.tau], [q.strike], chain.spot, chain.rate, z),
                q.side + "s")[0, 0]
        for q in quotes
    ])
    np.testing.assert_array_equal(got, want)
    assert got.shape == (5,)


def test_price_chain_bound_model_is_bit_identical():
    model = init_rndmlp(seed=2)
    z = draw_standard_normal(5_000, seed=9)
    other = draw_standard_normal(5_000, seed=10)
    quotes = [
        OptionQuote(side, k, days, 1.0, 1.2)
        for days in (30, 91)
        for k in (90.0, 110.0)
        for side in ("call", "put")
    ]
    chain = make_chain(quotes)
    want = price_chain(model, chain, z)
    want_put = surface_prices(model, 0.4, 0.03, [95.0], z)[1]
    for bound in (bind(model, z), bind(model, other)):
        np.testing.assert_array_equal(price_chain(bound, chain, z), want)
        assert surface_prices(bound, 0.4, 0.03, [95.0], z)[1].tobytes() == want_put.tobytes()


def assert_same_sorted_state(got, want):
    for name in ("gs", "a_sorted", "blocks_g", "blocks_a"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.mean_excess == want.mean_excess


B = pricing.SUM_BLOCK


@pytest.mark.parametrize("n", [1, 2, B - 1, B, B + 1, 4097, 40_000])
def test_range_sums_match_fsum(n):
    # below a position, and at and above it, within (blocks + 12) ulps of
    # the exactly rounded sum: the blocks' running sum adds one rounding
    # per block, the pairwise in-block sum about log2(B)
    values = np.exp(np.random.Generator(np.random.Philox(n)).normal(size=n))
    sums = pricing.block_sums(pricing.block_totals(values))
    assert sums.shape == (2, -(-n // B) + 1)
    positions = np.unique(np.r_[0, 1, B - 1, B, B + 1, n - 1, n,
                                np.linspace(0, n, 40).astype(int)].clip(0, n))
    bound = (n // B + 12) * np.finfo(float).eps
    for upper in (False, True):
        got = pricing.range_sums(values, sums, positions, upper)
        want = np.array([math.fsum(values[p:] if upper else values[:p]) for p in positions])
        assert np.all(np.abs(got - want) <= bound * want), upper
    assert pricing.range_sums(values, sums, [0], False)[0] == 0.0
    assert pricing.range_sums(values, sums, [n], True)[0] == 0.0


def lognormal_slice(n, tau=0.5, rate=0.03, sigma=0.25, seed=7):
    """A Black-Scholes maturity slice on n ascending draws, with dX/dtau."""
    z = draw_standard_normal(n, seed).values
    x = (rate - 0.5 * sigma ** 2) * tau + sigma * np.sqrt(tau) * z
    slope = rate - 0.5 * sigma ** 2 + 0.5 * sigma * z / np.sqrt(tau)
    return MaturitySlice(tau, rate, x, slope)


def test_far_out_of_the_money_values_match_fsum():
    # at N = 1e5 the calls at K/S = 1.3 .. 1.9 sum the top 6759 .. 10 draws;
    # a tail taken as total - prefix loses about 1e-12 of them, one summed
    # from the top agrees with the exactly rounded sums to 1e-13
    n, spot, bound = 100_000, 100.0, 1e-13
    table = lognormal_slice(n)
    gs, a, rate = table.gs, table.a_sorted, table.rate
    disc = np.exp(-rate * table.tau) * spot
    high, low = np.array([1.3, 1.5, 1.7, 1.9]), np.array([0.5, 0.6, 0.7, 0.8])
    calls, pos = table.prices("call", high, spot)
    assert pos.tolist()[-1] == n - 10
    want = [disc * (math.fsum([*gs[p:], -(m * (n - p))]) / n) for m, p in zip(high, pos)]
    np.testing.assert_allclose(calls, want, rtol=bound, atol=0.0)
    puts, pos = table.prices("put", low, spot)
    want = [disc * (math.fsum([m * p, *-gs[:p]]) / n) for m, p in zip(low, pos)]
    np.testing.assert_allclose(puts, want, rtol=bound, atol=0.0)
    cal_calls, pos_c, _, _ = table.calendars(high)
    want = [math.fsum([*a[p:], rate * m * (n - p)]) / n for m, p in zip(high, pos_c)]
    np.testing.assert_allclose(cal_calls, want, rtol=bound, atol=0.0)
    _, _, cal_puts, pos_p = table.calendars(low)
    want = [math.fsum([*-a[:p], -(rate * m * p)]) / n for m, p in zip(low, pos_p)]
    np.testing.assert_allclose(cal_puts, want, rtol=bound, atol=0.0)
    # the defect, a small difference near r tau, read off the mean's excess
    # over 1: the log of the mean, rounded near 1, is 3e-11 off here
    want = math.log1p(math.fsum(gs - 1.0) / n) - rate * table.tau
    assert abs(table.defect - want) <= bound * abs(want)


def test_a_lookup_alone_equals_its_entry_in_a_row():
    # a value depends on (slice, position) only: blocks, block edges and
    # both ends, looked up alone and in a shuffled row of strikes
    n = 3 * B + 17
    table = lognormal_slice(n, seed=3)
    m = np.r_[table.gs[[0, 1, B - 1, B, B + 1, 2 * B, n - 2, n - 1]], 0.1, 1.0, 10.0]
    m = m[np.random.default_rng(2).permutation(m.size)]
    row = [table.prices("call", m, S)[0], table.prices("put", m, S)[0],
           *table.calendars(m)[::2]]
    for i, k in enumerate(m):
        alone = [table.prices("call", m[i:i + 1], S)[0], table.prices("put", m[i:i + 1], S)[0],
                 *table.calendars(m[i:i + 1])[::2]]
        assert [v.tobytes() for v in alone] == [v[i:i + 1].tobytes() for v in row], k


def test_growth_factors_reject_overflow_like_the_slice():
    x = np.array([0.1, -0.2, 0.05])
    table = MaturitySlice(0.25, 0.03, x)
    assert growth_factors(x, 0.25)[table.order].tobytes() == table.gs.tobytes()
    x[1] = 800.0
    for build in (lambda: growth_factors(x, 0.25), lambda: MaturitySlice(0.25, 0.03, x)):
        with pytest.raises(FloatingPointError, match="non-finite growth factors at tau=0.25"):
            build()


@pytest.mark.parametrize("ties", [False, True])
def test_cold_slice_order_is_the_stable_order(ties):
    x = 0.2 * np.random.default_rng(13).standard_normal(20_000)
    if ties:
        x = np.round(x, 2)  # many repeated values
    growth = np.exp(x)
    stable = np.argsort(growth, kind="stable")
    # numpy's default sort orders ties differently; the slice's is the stable one
    assert np.array_equal(np.argsort(growth), stable) != ties
    got = MaturitySlice(0.25, 0.03, x)
    assert got.order.tobytes() == stable.tobytes()
    assert got.gs.tobytes() == growth[stable].tobytes()


@pytest.mark.parametrize("case", ["runs", "random"])
def test_slice_on_tied_non_monotone_growth_has_the_stable_order(case):
    # growth made of a few monotone runs (a net that folds in Z) or in random
    # order, with many ties: one stable sort orders the ties by storage order
    rng = np.random.default_rng(12)
    x = np.round(0.2 * rng.standard_normal(5_000), 2)  # many repeated values
    if case == "runs":
        x = np.concatenate([np.sort(x[:2_000]), np.sort(x[2_000:])[::-1]])
    slope = 0.1 + 0.3 * x + 0.05 * rng.standard_normal(x.size)
    growth = np.exp(x)
    stable = np.argsort(growth, kind="stable")
    # the default sort orders these ties differently
    assert not np.array_equal(np.argsort(growth), stable)
    got = MaturitySlice(0.25, 0.03, x, slope)
    assert got.order.tobytes() == stable.tobytes()
    assert got.gs.tobytes() == growth[stable].tobytes()
    assert got.a_sorted.tobytes() == ((slope[stable] - 0.03) * growth[stable]).tobytes()
    # the same draws stored in sorted order: the identity, and the same sums
    presorted = MaturitySlice(0.25, 0.03, x[stable], slope[stable])
    assert presorted.order == slice(None)
    assert_same_sorted_state(got, presorted)


def test_quote_groups_follow_maturity_then_chain_order():
    quotes = [
        OptionQuote("put", 95.0, 91, 1.0, 1.2),
        OptionQuote("call", 90.0, 30, 2.0, 2.2),
        OptionQuote("call", 100.0, 91, 3.0, 3.2),
        OptionQuote("put", 110.0, 30, 4.0, 4.2),
    ]
    (tau_a, index_a, calls_a, m_a, _), (tau_b, index_b, calls_b, _, mids_b) = \
        quote_groups(make_chain(quotes))
    assert (tau_a, tau_b) == (30 / 365.0, 91 / 365.0)
    assert (index_a.tolist(), index_b.tolist()) == ([1, 3], [0, 2])
    assert (calls_a.tolist(), calls_b.tolist()) == ([True, False], [False, True])
    np.testing.assert_array_equal(m_a, [90.0 / S, 110.0 / S])
    np.testing.assert_array_equal(mids_b, [quotes[0].mid, quotes[2].mid])
    assert quote_groups(make_chain([])) == []


@pytest.mark.parametrize("ties", [False, True])
def test_lookups_at_sample_values_follow_the_side_conventions(ties):
    # at K/S equal to a growth value a call takes growth > K/S, a put
    # growth < K/S, a calendar call growth >= K/S and a calendar put
    # growth <= K/S; the prices cannot tell, the positions and the
    # calendar values can
    rng = np.random.Generator(np.random.Philox(5))
    x = 0.2 * rng.normal(size=4000)
    if ties:
        x = np.round(x, 2)
    slope = rng.normal(size=x.size)
    rate, tau, spot = 0.03, 0.25, 1.0
    table = MaturitySlice(tau, rate, x, slope)
    growth = growth_factors(x, tau)
    m = np.concatenate([table.gs[[0, 1, 17, 2000, 3998, 3999]], [0.5, 1.01, 3.0]])
    g, k = growth[:, None], m[None, :]
    above, below = g > k, g < k
    np.testing.assert_array_equal(table.prices("call", m, spot)[1], np.sum(~above, axis=0))
    np.testing.assert_array_equal(table.prices("put", m, spot)[1], np.sum(below, axis=0))
    disc = np.exp(-rate * tau) * spot / x.size
    np.testing.assert_allclose(table.prices("call", m, spot)[0],
                               disc * np.sum(np.where(above, g - k, 0.0), axis=0),
                               rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(table.prices("put", m, spot)[0],
                               disc * np.sum(np.where(below, k - g, 0.0), axis=0),
                               rtol=1e-10, atol=1e-14)
    calls, pos_c, puts, pos_p = table.calendars(m)
    np.testing.assert_array_equal(pos_c, np.sum(below, axis=0))
    np.testing.assert_array_equal(pos_p, np.sum(~above, axis=0))
    term = (slope[:, None] - rate) * g + rate * k
    # one term at the tie is about 1/N of a value, far above the rounding
    np.testing.assert_allclose(calls, np.sum(np.where(~below, term, 0.0), axis=0) / x.size,
                               rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(puts, np.sum(np.where(~above, -term, 0.0), axis=0) / x.size,
                               rtol=1e-10, atol=1e-14)
