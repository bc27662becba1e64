import tracemalloc

import numpy as np
import pytest

import oracles
import rndkit.heston as heston
from rndkit.data_io import MIN_QUOTE, load_chain, save_chain, save_rates
from rndkit.heston import (
    SCENARIOS,
    HestonParams,
    density_from_calls,
    generate_simulated_chain,
    heston_call_prices,
    heston_cf,
    heston_rnd,
    heston_true_moments,
)
from oracles import (
    black_scholes_call,
    heston_call_prices_dense,
    heston_mc_price,
    mc_terminal_log_returns,
)

SPOT = 1000.0
RATE = 0.04

# nu0 == vartheta, so integrated variance is flat and the xi -> 0 limit
# is Black-Scholes with sigma = sqrt(nu0)
NEAR_BS = HestonParams(nu0=0.04, vartheta=0.04, kappa=0.15, xi=1e-8, rho=0.0)


# ----------------------------------------------------------------------
# parameters and scenarios


def test_param_validation():
    with pytest.raises(ValueError, match="positive"):
        HestonParams(nu0=0.0, vartheta=0.25, kappa=0.15, xi=0.35, rho=-0.9)
    with pytest.raises(ValueError, match="positive"):
        HestonParams(nu0=0.05, vartheta=0.25, kappa=0.15, xi=-0.1, rho=-0.9)
    with pytest.raises(ValueError, match="rho"):
        HestonParams(nu0=0.05, vartheta=0.25, kappa=0.15, xi=0.35, rho=-1.0)


def test_feller_condition_flags():
    assert not SCENARIOS["left-skew"][0].feller_satisfied  # 0.075 < 0.1225
    assert SCENARIOS["right-skew"][0].feller_satisfied  # 0.075 >= 0.04
    assert SCENARIOS["likely-normal"][0].feller_satisfied
    assert SCENARIOS["long-maturity"][1] == 730


# ----------------------------------------------------------------------
# characteristic function


def test_cf_normalization_and_martingale():
    for p, days in SCENARIOS.values():
        tau = days / 365.0
        assert heston_cf(p, 0.0, tau, SPOT, RATE) == 1.0 + 0.0j
        fwd = SPOT * np.exp(RATE * tau)
        assert heston_cf(p, -1j, tau, SPOT, RATE).real == pytest.approx(fwd, rel=1e-14)


def test_cf_martingale_long_maturity_right_skew():
    # kappa < rho*xi here, so beta + d vanishes at u = -i; the g2 form
    # of the CF is singular at this point
    p, _ = SCENARIOS["right-skew"]
    got = heston_cf(p, -1j, 2.0, SPOT, RATE)
    assert got.real == pytest.approx(SPOT * np.exp(RATE * 2.0), rel=1e-13)
    assert abs(got.imag) < 1e-10


def test_cf_matches_normal_cf_at_tiny_xi():
    tau, rate = 0.5, 0.03
    var = NEAR_BS.nu0 * tau
    mean = np.log(SPOT) + (rate - NEAR_BS.nu0 / 2.0) * tau
    u = np.array([0.3, 1.0, 4.0, 17.5, -2.2])
    got = heston_cf(NEAR_BS, u, tau, SPOT, rate)
    want = np.exp(1j * u * mean - 0.5 * var * u * u)
    assert np.max(np.abs(got - want)) < 1e-8


def test_cf_conjugate_symmetry():
    p, days = SCENARIOS["left-skew"]
    tau = days / 365.0
    u = np.array([0.5, 2.0, 9.0])
    plus = heston_cf(p, u, tau, SPOT, RATE)
    minus = heston_cf(p, -u, tau, SPOT, RATE)
    np.testing.assert_allclose(minus, np.conj(plus), rtol=1e-14)


def test_cf_rejects_bad_inputs():
    p, _ = SCENARIOS["left-skew"]
    with pytest.raises(ValueError, match="tau"):
        heston_cf(p, 1.0, 0.0, SPOT, RATE)
    with pytest.raises(ValueError, match="spot"):
        heston_cf(p, 1.0, 0.25, -5.0, RATE)


# ----------------------------------------------------------------------
# semi-analytic pricing


def test_price_matches_black_scholes_at_tiny_xi():
    tau, rate = 0.5, 0.03
    sigma = np.sqrt(NEAR_BS.nu0)
    strikes = [60.0, 80.0, 100.0, 125.0, 160.0]
    got = heston_call_prices(NEAR_BS, 100.0, np.array(strikes), tau, rate)
    for strike, call in zip(strikes, got):
        want = black_scholes_call(100.0, strike, tau, rate, sigma)
        assert call == pytest.approx(want, abs=1e-6)


def test_zero_strike_call_is_spot():
    p, days = SCENARIOS["left-skew"]
    got = heston_call_prices(p, SPOT, np.array([0.0]), days / 365.0, RATE)
    assert got[0] == pytest.approx(SPOT, rel=1e-12)


def test_call_prices_reject_nonpositive_tau():
    p, _ = SCENARIOS["left-skew"]
    for tau in (0.0, -0.1):
        with pytest.raises(ValueError, match="tau"):
            heston_call_prices(p, SPOT, np.array([900.0]), tau, RATE)


def test_call_prices_vectorized_match_singles():
    p, days = SCENARIOS["likely-normal"]
    tau = days / 365.0
    strikes = np.array([500.0, 900.0, 1000.0, 1400.0])
    batch = heston_call_prices(p, SPOT, strikes, tau, RATE)
    singles = [heston_call_prices(p, SPOT, np.array([k]), tau, RATE)[0] for k in strikes]
    np.testing.assert_allclose(batch, singles, rtol=1e-13)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_call_prices_factored_phase_match_dense_phase_matrix(scenario):
    # the factored phase sums each panel's nodes in a matrix product, so
    # it agrees with the whole strikes x nodes matrix to rounding (6.8e-13
    # at most measured); the zero strike takes the closed-form branch
    p, days = SCENARIOS[scenario]
    strikes = np.concatenate([[0.0], np.geomspace(300.0, 3000.0, 1501)])
    got = heston_call_prices(p, SPOT, strikes, days / 365.0, RATE)
    want = heston_call_prices_dense(p, SPOT, strikes, days / 365.0, RATE)
    assert got[0] == want[0]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=5e-12)


@pytest.mark.parametrize("days", [30, 91, 730])
def test_quadrature_nodes_are_panel_starts_plus_fixed_offsets(days):
    # heston_call_prices factors e^{-iku} over exactly this layout
    p, _ = SCENARIOS["left-skew"]
    u, _, _ = heston._damped_cf_table(p, SPOT, days / 365.0, RATE)
    offsets = heston._panel_rule()[0]
    panels = u.size // offsets.size
    assert panels > 1 and u.size == panels * offsets.size
    starts = np.arange(panels) * heston._PANEL_WIDTH
    assert u.reshape(panels, -1).tobytes() == (starts[:, None] + offsets).tobytes()


def test_call_prices_memory_is_bounded_by_the_factored_phase():
    # the whole 1501 x 1600 complex phase matrix alone would take 38 MB;
    # the 1501 x 64 offset and 1501 x panels start factors peak near 3.2 MB
    p, _ = SCENARIOS["left-skew"]
    strikes = np.geomspace(300.0, 3000.0, 1501)
    tracemalloc.start()
    try:
        heston_call_prices(p, SPOT, strikes, 30 / 365.0, RATE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_call_price_ordering_and_bounds():
    p, days = SCENARIOS["left-skew"]
    tau = days / 365.0
    strikes = np.arange(400.0, 1601.0, 20.0)
    c = heston_call_prices(p, SPOT, strikes, tau, RATE)
    assert np.all(np.diff(c) < 0.0)
    assert np.all(np.diff(c, 2) > -1e-9 * SPOT)
    lower = np.maximum(SPOT - strikes * np.exp(-RATE * tau), 0.0)
    assert np.all(c >= lower - 1e-9 * SPOT)
    assert np.all(c <= SPOT)


def test_quadrature_panel_cap_raises(monkeypatch):
    monkeypatch.setattr(heston, "_MAX_PANELS", 1)
    p, _ = SCENARIOS["left-skew"]
    with pytest.raises(RuntimeError, match="quadrature"):
        heston_call_prices(p, SPOT, np.array([1000.0]), 0.25, RATE)


# ----------------------------------------------------------------------
# Monte Carlo oracle


def test_mc_is_deterministic_and_seed_sensitive():
    p, _ = SCENARIOS["left-skew"]
    a = mc_terminal_log_returns(p, 0.25, RATE, paths=20_000, steps=20, seed=3)
    b = mc_terminal_log_returns(p, 0.25, RATE, paths=20_000, steps=20, seed=3)
    c = mc_terminal_log_returns(p, 0.25, RATE, paths=20_000, steps=20, seed=4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_mc_chunking_gives_prefix_stability(monkeypatch):
    # growing the path count must not disturb earlier chunks
    monkeypatch.setattr(oracles, "MC_CHUNK", 1_000)
    p, _ = SCENARIOS["left-skew"]
    short = mc_terminal_log_returns(p, 0.25, RATE, paths=1_000, steps=5, seed=2)
    longer = mc_terminal_log_returns(p, 0.25, RATE, paths=2_500, steps=5, seed=2)
    np.testing.assert_array_equal(longer[:1_000], short)


def test_mc_martingale():
    p, days = SCENARIOS["left-skew"]
    tau = days / 365.0
    x = mc_terminal_log_returns(p, tau, RATE, paths=200_000, steps=50, seed=21)
    growth = np.exp(x)
    se = np.std(growth) / np.sqrt(growth.size)
    assert abs(growth.mean() - np.exp(RATE * tau)) < 4.0 * se + 5e-4


def test_mc_price_matches_cf():
    p, days = SCENARIOS["left-skew"]
    tau = days / 365.0
    strikes = np.array([800.0, 1000.0, 1200.0])
    mc, se = heston_mc_price(p, "call", SPOT, strikes, tau, RATE,
                             paths=150_000, steps=200, seed=5)
    cf = heston_call_prices(p, SPOT, strikes, tau, RATE)
    # 4 SE plus a small allowance for Euler bias at this step count
    assert np.all(np.abs(mc - cf) < 4.0 * se + 3e-3 * np.maximum(cf, 1.0))


def test_mc_price_put_and_scalar_forms():
    p, _ = SCENARIOS["likely-normal"]
    price, se = heston_mc_price(p, "put", SPOT, 1100.0, 0.25, RATE,
                                paths=100_000, steps=60, seed=13)
    call = heston_call_prices(p, SPOT, np.array([1100.0]), 0.25, RATE)[0]
    want = call - SPOT + 1100.0 * np.exp(-RATE * 0.25)  # parity
    assert isinstance(price, float)
    assert abs(price - want) < 4.0 * se + 3e-3 * want


def test_mc_stderr_shrinks_with_paths():
    p, _ = SCENARIOS["likely-normal"]
    _, se1 = heston_mc_price(p, "call", SPOT, 1000.0, 0.25, RATE,
                             paths=50_000, steps=10, seed=1)
    _, se2 = heston_mc_price(p, "call", SPOT, 1000.0, 0.25, RATE,
                             paths=200_000, steps=10, seed=1)
    assert se2 == pytest.approx(se1 / 2.0, rel=0.1)


def test_mc_rejects_bad_inputs():
    p, _ = SCENARIOS["left-skew"]
    with pytest.raises(ValueError, match="paths"):
        mc_terminal_log_returns(p, 0.25, RATE, paths=0, steps=5, seed=1)
    with pytest.raises(ValueError, match="tau"):
        mc_terminal_log_returns(p, -0.25, RATE, paths=10, steps=5, seed=1)
    with pytest.raises(ValueError, match="seed"):
        mc_terminal_log_returns(p, 0.25, RATE, paths=10, steps=5, seed=-2)


# ----------------------------------------------------------------------
# implied density


def test_rnd_integrates_to_one_with_forward_mean():
    p, days = SCENARIOS["left-skew"]
    tau = days / 365.0
    grid = np.linspace(300.0, 2200.0, 951)
    est = heston_rnd(p, SPOT, tau, RATE, grid)
    assert est.variable_kind == "terminal-price"
    assert est.integral() == pytest.approx(1.0, abs=5e-3)
    mean = np.trapezoid(est.grid * est.values, est.grid)
    assert mean == pytest.approx(SPOT * np.exp(RATE * tau), rel=1e-3)


def test_rnd_matches_lognormal_at_tiny_xi():
    tau, rate, spot = 0.5, 0.03, 100.0
    sigma = np.sqrt(NEAR_BS.nu0)
    grid = np.arange(60.0, 160.01, 0.25)
    est = heston_rnd(NEAR_BS, spot, tau, rate, grid)
    s = est.grid
    m = np.log(spot) + (rate - sigma * sigma / 2.0) * tau
    w = sigma * np.sqrt(tau)
    exact = np.exp(-0.5 * ((np.log(s) - m) / w) ** 2) / (s * w * np.sqrt(2.0 * np.pi))
    assert np.max(np.abs(est.values - exact)) < 1e-4 * exact.max()


def test_density_from_calls_rejects_concave_prices():
    strikes = np.array([90.0, 100.0, 110.0, 120.0, 130.0])
    calls = np.array([15.0, 10.0, 9.9, 9.8, 1.0])
    with pytest.raises(ValueError, match="clipped mass"):
        density_from_calls(calls, strikes, 0.25, RATE)


def test_density_from_calls_clips_roundoff_dips():
    strikes = np.arange(50.0, 150.01, 1.0)
    calls = np.array([black_scholes_call(100.0, k, 0.5, 0.03, 0.2) for k in strikes])
    calls[40] += 1e-9  # curvature dip far below the mass tolerance
    est = density_from_calls(calls, strikes, 0.5, 0.03)
    assert np.all(est.values >= 0.0)
    # ~0.3% of lognormal mass sits outside the 50..150 strike window
    assert est.integral() == pytest.approx(1.0, abs=5e-3)


def test_density_from_calls_needs_three_strikes():
    with pytest.raises(ValueError, match="three strikes"):
        density_from_calls(np.array([5.0, 4.0]), np.array([90.0, 100.0]), 0.25, RATE)
    p, _ = SCENARIOS["left-skew"]
    with pytest.raises(ValueError, match="increasing"):
        heston_rnd(p, SPOT, 0.25, RATE, np.array([900.0, 900.0, 1000.0]))


# ----------------------------------------------------------------------
# true moments


def test_true_moments_gaussian_limit():
    var, skew, kurt = heston_true_moments(NEAR_BS, 0.5)
    assert var == pytest.approx(NEAR_BS.nu0 * 0.5, rel=1e-9)
    assert abs(skew) < 1e-8
    assert kurt == pytest.approx(3.0, abs=1e-8)


def test_true_moments_scenario_signs():
    moments = {name: heston_true_moments(p, days / 365.0)
               for name, (p, days) in SCENARIOS.items()}
    assert moments["left-skew"][1] < -0.5
    assert moments["right-skew"][1] > 0.3
    assert abs(moments["likely-normal"][1]) < 0.25
    for var, _, kurt in moments.values():
        assert var > 0.0
        assert kurt > 3.0
    assert moments["long-maturity"][0] > moments["left-skew"][0]


def test_true_moments_match_monte_carlo():
    p, days = SCENARIOS["left-skew"]
    tau = days / 365.0
    var, skew, _ = heston_true_moments(p, tau)
    x = mc_terminal_log_returns(p, tau, RATE, paths=262_144, steps=200, seed=31)
    z = x - x.mean()
    m2 = np.mean(z * z)
    sample_skew = np.mean(z**3) / m2**1.5
    assert m2 == pytest.approx(var, rel=0.02)
    assert sample_skew == pytest.approx(skew, abs=0.08)


# vol-of-vol so high that E[e^{v ln S_T}] explodes inside the contour at
# two years but not at 7 or 91 days
EXPLOSIVE = HestonParams(nu0=0.05, vartheta=0.25, kappa=0.15, xi=1.5, rho=-0.9)


@pytest.mark.parametrize("p, days", [
    pytest.param(p, days, id=f"{name}-{days}d")
    for name, (p, _) in SCENARIOS.items() for days in (7, 30, 91, 182, 365, 730, 1825)
] + [pytest.param(EXPLOSIVE, days, id=f"explosive-{days}d") for days in (7, 91)])
def test_true_moments_match_the_50_digit_oracle(p, days):
    tau = days / 365.0
    got = heston_true_moments(p, tau)
    assert got == pytest.approx(oracles.heston_true_moments_50_digits(p, SPOT, tau, RATE),
                                rel=1e-10)


def test_true_moments_raise_where_the_contour_crosses_a_moment_explosion():
    with pytest.raises(FloatingPointError, match="did not stabilize"):
        heston_true_moments(EXPLOSIVE, 730 / 365.0)
    with pytest.raises(FloatingPointError, match="did not stabilize"):
        oracles.heston_true_moments_50_digits(EXPLOSIVE, SPOT, 730 / 365.0, RATE)


def test_true_moments_rejects_bad_tau():
    with pytest.raises(ValueError, match="tau"):
        heston_true_moments(NEAR_BS, 0.0)


# ----------------------------------------------------------------------
# simulated chains


def test_default_chain_shape():
    chain = generate_simulated_chain()
    assert len(chain.quotes) == 61
    assert chain.spot == SPOT
    assert chain.rate_curve == [(91.0, RATE)]
    strikes = sorted(q.strike for q in chain.quotes)
    assert strikes[0] == 400.0 and strikes[-1] == 1600.0
    assert all(q.side == "call" and q.bid == q.ask for q in chain.quotes)
    assert all(q.days_to_maturity == 91 for q in chain.quotes)


def test_chain_prices_come_from_cf_pricer():
    chain = generate_simulated_chain("right-skew")
    p, days = SCENARIOS["right-skew"]
    atm = next(q for q in chain.quotes if q.strike == 1000.0)
    want = heston_call_prices(p, SPOT, np.array([1000.0]), days / 365.0, RATE)[0]
    assert atm.mid == pytest.approx(want, rel=1e-12)


def test_chain_multi_maturity():
    chain = generate_simulated_chain(days=[182, 30, 91])
    assert len(chain.quotes) == 183
    days = [q.days_to_maturity for q in chain.quotes]
    assert sorted(set(days)) == [30, 91, 182]
    assert days == sorted(days)
    assert chain.rate_curve == [(30.0, RATE), (91.0, RATE), (182.0, RATE)]


def test_chain_validation():
    with pytest.raises(ValueError, match="unknown scenario"):
        generate_simulated_chain("sideways")
    with pytest.raises(ValueError, match="distinct positive"):
        generate_simulated_chain(days=[91, 91])
    with pytest.raises(ValueError, match="distinct positive"):
        generate_simulated_chain(days=0)


def test_chain_custom_params_and_strikes():
    chain = generate_simulated_chain(params=NEAR_BS, spot=100.0, rate=0.03,
                                     strikes=np.array([90.0, 100.0, 110.0]))
    assert len(chain.quotes) == 3
    want = black_scholes_call(100.0, 110.0, 91 / 365.0, 0.03, 0.2)
    assert chain.quotes[-1].mid == pytest.approx(want, abs=1e-6)


def test_chain_csv_round_trip_filters_subtick_quotes(tmp_path):
    chain = generate_simulated_chain("left-skew")
    n_subtick = sum(1 for q in chain.quotes if q.mid < MIN_QUOTE)
    assert n_subtick == 18  # deep OTM calls under the 0.025 floor
    path = tmp_path / "chain.csv"
    save_chain(chain, path)
    save_rates(chain.rate_curve, tmp_path / "chain.rates.csv")
    loaded = load_chain(path)
    assert len(loaded.quotes) == 61 - n_subtick
    assert loaded.load_report["dropped_low_quote"] == n_subtick
    assert loaded.spot == chain.spot
    got = {q.strike: q.mid for q in loaded.quotes}
    for q in chain.quotes:
        if q.mid >= MIN_QUOTE:
            assert got[q.strike] == pytest.approx(q.mid, rel=1e-15)
