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


def assert_same_slice(got, want):
    for name in ("order", "gs", "cum_g", "cum_a"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.mean_growth == want.mean_growth


@pytest.mark.parametrize("n", [1, 2, 4097, 40_000])
def test_prefix_sums_match_the_concatenated_cumsum(n):
    values = np.exp(np.random.Generator(np.random.Philox(n)).normal(size=n))
    want = np.concatenate([[0.0], np.cumsum(values)])
    assert pricing._prefix_sums(values).tobytes() == want.tobytes()


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
    # numpy's default sort orders ties differently, so the slice must fall back
    assert np.array_equal(np.argsort(growth), stable) != ties
    got = MaturitySlice(0.25, 0.03, x)
    assert got.order.tobytes() == stable.tobytes()
    assert got.gs.tobytes() == growth[stable].tobytes()


@pytest.mark.parametrize("case", ["cold-order", "reversed", "random", "perturbed", "truncated"])
def test_slice_hint_reproduces_cold_sort(case):
    rng = np.random.default_rng(11)
    prev = 0.2 * rng.standard_normal(20_000)
    x = prev + 1e-3 * rng.standard_normal(prev.size) if case == "perturbed" else prev
    slope = 0.1 + 0.3 * x + 0.05 * rng.standard_normal(x.size)
    want = MaturitySlice(0.25, 0.03, x, slope)
    hint = {
        "cold-order": want.order.copy(),
        "reversed": want.order[::-1].copy(),
        "random": rng.permutation(x.size),
        "perturbed": MaturitySlice(0.25, 0.03, prev).order,
        "truncated": want.order[:-1].copy(),  # not a permutation of the draws
    }[case]
    if case == "perturbed":
        # the previous order is close to, but not, this one
        assert not np.array_equal(hint, want.order)
    assert_same_slice(MaturitySlice(0.25, 0.03, x, slope, hint), want)


@pytest.mark.parametrize("case", ["reversed", "random"])
def test_slice_hint_with_ties_falls_back_to_cold_sort(case):
    rng = np.random.default_rng(12)
    x = np.round(0.2 * rng.standard_normal(5_000), 2)  # many repeated values
    slope = 0.1 + 0.3 * x + 0.05 * rng.standard_normal(x.size)
    want = MaturitySlice(0.25, 0.03, x, slope)
    hint = {
        "reversed": want.order[::-1].copy(),
        "random": rng.permutation(x.size),
    }[case]
    # taken unchecked, the hint would order the ties differently
    unchecked = hint[np.argsort(x[hint], kind="stable")]
    assert not np.array_equal(unchecked, want.order)
    assert_same_slice(MaturitySlice(0.25, 0.03, x, slope, hint), want)


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
