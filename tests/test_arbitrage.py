import numpy as np
import pytest

from rndkit.arbitrage import (
    PriceSurface,
    aggregate_penalties,
    audit_price_surface,
    build_synthetic_grid,
    price_surface,
)
from rndkit.models import (
    RnQParams,
    bind,
    init_rndmlp,
    init_rnmlp,
    rnq_mu_from_constraint,
    zero_net_rnmlp,
)
from rndkit.data_io import OptionChain, OptionQuote
from rndkit.pricing import MaturitySlice, price_chain
from rndkit.sampling import draw_standard_normal

from oracles import normal_expectation


def make_rnq(z, rate, tau, sigma=0.2, u=1.1, v=1.1):
    mu = rnq_mu_from_constraint(sigma, u, v, 4.0, z, rate, tau)
    return RnQParams(mu=mu, sigma=sigma, u=u, v=v)


def point_penalty(model, tau, rate, z, strike=100.0, spot=100.0):
    """(calendar call, calendar put, squared martingale defect) at one
    (tau, strike) point, read off a one-point penalty grid."""
    report = price_surface(model, [tau], [strike], spot, lambda t: rate, z).penalty()
    (*_, call), (*_, put) = report.calendar_values
    return call, put, report.mu_values[0][1]


# ----------------------------------------------------------------------
# synthetic grid


def test_grid_single_point():
    grid = build_synthetic_grid([0.1], [100.0])
    assert grid.n_pairs == 1
    np.testing.assert_array_equal(grid.taus, [0.1])
    np.testing.assert_array_equal(grid.strikes, [100.0])


def test_grid_counts_with_midpoints():
    grid = build_synthetic_grid([0.1, 0.25, 0.5], [80, 90, 100, 110, 120])
    # (2*3 - 1) * (2*5 - 1) pairs, each with a call and a put side.
    assert grid.n_pairs == 45
    np.testing.assert_allclose(grid.taus, [0.1, 0.175, 0.25, 0.375, 0.5])
    assert 85.0 in grid.strikes and 115.0 in grid.strikes


def test_grid_dedupes_and_validates():
    grid = build_synthetic_grid([0.25, 0.25], [100.0, 100.0])
    assert grid.n_pairs == 1
    with pytest.raises(ValueError):
        build_synthetic_grid([], [100.0])
    with pytest.raises(ValueError):
        build_synthetic_grid([0.25], [-5.0])
    with pytest.raises(ValueError):
        build_synthetic_grid([0.0], [100.0])


# ----------------------------------------------------------------------
# calendar penalties against quadrature on the zero-net model
#
# With all networks zeroed, X = sigma sqrt(tau) Z and
# dX/dtau = sigma Z / (2 sqrt(tau)), so every penalty reduces to a
# one-dimensional normal integral we can evaluate independently.

SIGMA, TAU, RATE = 0.2, 0.25, 0.03
A = SIGMA * np.sqrt(TAU)


def zero_net_tables(n=200_000, seed=11):
    model = zero_net_rnmlp(sigma=SIGMA)
    z = draw_standard_normal(n, seed=seed)
    return model, z


def mc_error(z, terms_fn):
    vals = terms_fn(np.asarray(z.values))
    return np.std(vals) / np.sqrt(vals.size)


def test_calendar_call_strike_zero_closed_form():
    model, z = zero_net_tables()
    got = point_penalty(model, TAU, RATE, z, strike=0.0)[0]
    want = (SIGMA**2 / 2.0 - RATE) * np.exp(A * A / 2.0)
    se = mc_error(z, lambda zz: (SIGMA * zz / (2 * np.sqrt(TAU)) - RATE) * np.exp(A * zz))
    assert abs(got - want) < 4.0 * se
    assert want < 0.0  # discounting beats the sigma^2/2 drift here


@pytest.mark.parametrize("moneyness", [0.9, 1.05])
def test_calendar_call_matches_quadrature(moneyness):
    model, z = zero_net_tables()
    got = point_penalty(model, TAU, RATE, z, strike=moneyness * 100.0)[0]
    z0 = np.log(moneyness) / A

    def integrand(zz):
        return (SIGMA * zz / (2 * np.sqrt(TAU)) - RATE) * np.exp(A * zz) + RATE * moneyness

    want = normal_expectation(integrand, lower=z0)
    se = mc_error(z, lambda zz: np.where(zz >= z0, integrand(zz), 0.0))
    assert abs(got - want) < 4.0 * se


@pytest.mark.parametrize("moneyness", [0.9, 1.1])
def test_calendar_put_matches_quadrature(moneyness):
    model, z = zero_net_tables()
    got = point_penalty(model, TAU, RATE, z, strike=moneyness * 100.0)[1]
    z0 = np.log(moneyness) / A

    def integrand(zz):
        return (RATE - SIGMA * zz / (2 * np.sqrt(TAU))) * np.exp(A * zz) - RATE * moneyness

    want = normal_expectation(integrand, upper=z0)
    se = mc_error(z, lambda zz: np.where(zz <= z0, integrand(zz), 0.0))
    assert abs(got - want) < 4.0 * se
    if moneyness == 1.1:
        # an in-the-money put still gains value with maturity here
        assert got > 0.0


def test_calendar_empty_indicator_is_exact_zero():
    model, z = zero_net_tables(n=10_000)
    assert point_penalty(model, TAU, RATE, z, strike=100.0 * np.exp(10.0))[0] == 0.0
    assert point_penalty(model, TAU, RATE, z, strike=0.0)[1] == 0.0


def test_calendar_rejects_nonpositive_tau():
    model, z = zero_net_tables(n=100)
    with pytest.raises(ValueError):
        point_penalty(model, 0.0, RATE, z)
    with pytest.raises(ValueError):
        point_penalty(model, -0.1, RATE, z)


def test_surface_rejects_no_maturities():
    model, z = zero_net_tables(n=100)
    with pytest.raises(ValueError, match="at least one maturity"):
        price_surface(model, [], [90.0, 100.0], 100.0, lambda t: RATE, z)


# ----------------------------------------------------------------------
# the penalty is the discounted price's maturity derivative


@pytest.mark.parametrize("strike", [80.0, 100.0, 125.0])
@pytest.mark.parametrize("side", ["call", "put"])
def test_penalty_equals_price_derivative(strike, side):
    model = init_rnmlp(seed=5)
    z = draw_standard_normal(20_000, seed=17)
    spot, tau, rate = 100.0, 0.25, 0.03
    j = point_penalty(model, tau, rate, z, strike=strike, spot=spot)[0 if side == "call" else 1]
    analytic = spot * np.exp(-rate * tau) * j

    h = 1e-5
    up, dn = (getattr(price_surface(model, [t], [strike], spot, lambda _: rate, z), side + "s")
              for t in (tau + h, tau - h))
    fd = float((up - dn)[0, 0]) / (2 * h)
    assert analytic == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_penalty_derivative_identity_dmlp():
    model = init_rndmlp(seed=8)
    z = draw_standard_normal(20_000, seed=18)
    spot, tau, rate, strike = 100.0, 0.5, 0.02, 95.0
    j = point_penalty(model, tau, rate, z, strike=strike, spot=spot)[0]
    h = 1e-5
    up, dn = (price_surface(model, [t], [strike], spot, lambda _: rate, z).calls[0, 0]
              for t in (tau + h, tau - h))
    fd = (up - dn) / (2 * h)
    assert spot * np.exp(-rate * tau) * j == pytest.approx(fd, rel=1e-4, abs=1e-8)


# ----------------------------------------------------------------------
# martingale penalty


def test_penalty_mu_rnq_elimination_is_exact():
    z = draw_standard_normal(50_000, seed=3)
    model = make_rnq(z, rate=0.04, tau=0.25)
    assert point_penalty(model, 0.25, 0.04, z)[2] < 1e-20


def test_penalty_mu_zero_net_value():
    model, z = zero_net_tables()
    rate, tau = 0.04, 0.25
    got = point_penalty(model, tau, rate, z)[2]
    # defect is ln mean e^{a Z} - r tau ~= a^2/2 - r tau = -0.005
    growth = np.exp(A * np.asarray(z.values))
    se = np.std(growth) / (np.mean(growth) * np.sqrt(growth.size))
    defect_pop = SIGMA**2 * tau / 2 - rate * tau
    assert abs(-np.sqrt(got) - defect_pop) < 4.0 * se
    # and it matches a direct recomputation on the same draws exactly
    direct = (np.log(np.mean(growth)) - rate * tau) ** 2
    assert got == pytest.approx(direct, rel=1e-12)


def test_penalty_mu_edges():
    # X is zero at tau = 0, so the defect is exactly zero there
    model, z = zero_net_tables(n=100)
    bound = bind(model, z)
    assert MaturitySlice(0.0, 0.04, bound.log_returns(0.0, 0.04)).defect == 0.0
    with pytest.raises(ValueError):
        point_penalty(model, -1.0, 0.04, z)


# ----------------------------------------------------------------------
# aggregation


def hand_surface(jtau_calls, jtau_puts, defects, taus=(0.25, 0.5), strikes=(90.0, 100.0)):
    """A surface carrying only the given calendar values and defects."""
    shape = np.shape(jtau_calls)
    return PriceSurface(100.0, np.array(taus), np.array(strikes), np.zeros(shape),
                        np.zeros(shape), np.zeros(len(taus)), np.array(defects, dtype=float),
                        np.array(jtau_calls, dtype=float), np.array(jtau_puts, dtype=float))


def test_aggregate_hinges_only_violations():
    surface = hand_surface([[-0.3, 0.5], [-0.1, 0.0]], [[0.2, 0.0], [0.0, 0.0]], [0.1, 0.0])
    report = surface.penalty()
    assert report.total == aggregate_penalties(surface.jtau_calls, surface.jtau_puts,
                                               surface.defects)
    assert report.total == pytest.approx(0.3 + 0.1 + 0.01)
    assert report.n_violations == 2
    assert report.worst == -0.3
    assert report.calendar_values[:2] == [(0.25, 90.0, "call", -0.3), (0.25, 90.0, "put", 0.2)]
    assert report.mu_values == [(0.25, 0.1 * 0.1), (0.5, 0.0)]
    payload = report.to_jsonable()
    assert len(payload["calendar_violations"]) == 2
    assert payload["total"] == report.total


def test_aggregate_adds_left_to_right():
    # per maturity: the hinged call and put values strike by strike, then
    # the squared defect, each added to the running total in that order
    rng = np.random.Generator(np.random.Philox(7))
    calls, puts = rng.normal(size=(2, 6, 40)) * 10.0 ** rng.integers(-8, 3, size=(2, 6, 40))
    defects = rng.normal(size=6)
    total = 0.0
    for i in range(6):
        for j in range(40):
            for value in (calls[i, j], puts[i, j]):
                if value < 0.0:
                    total += -value
        total += defects[i] * defects[i]
    got = aggregate_penalties(calls, puts, defects)
    assert got == total
    assert got != float(np.sum(np.where(calls < 0.0, -calls, 0.0)) + np.sum(np.where(
        puts < 0.0, -puts, 0.0)) + np.sum(defects * defects))  # these values tell the orders apart
    taus, strikes = np.arange(1, 7) / 10.0, np.arange(40) + 80.0
    assert hand_surface(calls, puts, defects, taus, strikes).penalty().total == total


def test_total_penalty_rnq_zero_rate_all_clear():
    z = draw_standard_normal(50_000, seed=4)
    model = make_rnq(z, rate=0.0, tau=0.25)
    report = price_surface(model, [0.25], [90.0, 100.0, 110.0], 100.0, lambda tau: 0.0,
                           z).penalty()
    # slope == r == 0 makes every calendar term exactly zero
    assert report.n_violations == 0
    assert all(v == 0.0 for *_, v in report.calendar_values)
    assert report.total < 1e-20


def test_total_penalty_counts_match_recount():
    model = init_rnmlp(seed=21)
    z = draw_standard_normal(20_000, seed=22)
    grid = build_synthetic_grid([0.2, 0.4], [85.0, 100.0, 115.0])
    report = price_surface(model, grid.taus, grid.strikes, 100.0, lambda tau: 0.03,
                           z).penalty()
    recount = sum(1 for *_, v in report.calendar_values if v < 0.0)
    assert report.n_violations == recount
    hinge = sum(-v for *_, v in report.calendar_values if v < 0.0)
    mu_sum = sum(m for _, m in report.mu_values)
    assert report.total == pytest.approx(hinge + mu_sum, rel=1e-12)
    assert len(report.calendar_values) == 2 * grid.n_pairs
    assert len(report.mu_values) == grid.taus.size


def test_penalty_and_surface_bound_model_is_bit_identical():
    model = init_rndmlp(seed=21)
    z = draw_standard_normal(8_000, seed=22)
    other = draw_standard_normal(8_000, seed=23)
    grid = build_synthetic_grid([0.2, 0.4], [90.0, 110.0])
    rate_fn = lambda tau: 0.03
    want = price_surface(model, grid.taus, grid.strikes, 100.0, rate_fn, z).penalty()
    want_surface = price_surface(model, [0.2, 0.4], [90.0, 100.0, 110.0], 100.0, rate_fn, z)
    for bound in (bind(model, z), bind(model, other)):
        got = price_surface(bound, grid.taus, grid.strikes, 100.0, rate_fn, z).penalty()
        assert got.total == want.total
        assert got.calendar_values == want.calendar_values
        assert got.mu_values == want.mu_values
        surface = price_surface(bound, [0.2, 0.4], [90.0, 100.0, 110.0], 100.0, rate_fn, z)
        for name in ("calls", "puts", "defects", "jtau_calls", "jtau_puts"):
            np.testing.assert_array_equal(getattr(surface, name), getattr(want_surface, name))
        assert point_penalty(bound, 0.3, 0.03, z, strike=95.0) == \
            point_penalty(model, 0.3, 0.03, z, strike=95.0)


def test_surface_agrees_with_chain_prices_and_penalty_terms():
    model = init_rndmlp(seed=31)
    z = draw_standard_normal(8_000, seed=32)
    bound = bind(model, z)
    spot, days, strikes = 100.0, (30, 91), (85.0, 100.0, 115.0)
    quotes = [OptionQuote(side, k, d, 1.0, 1.0)
              for d in days for k in strikes for side in ("call", "put")]
    chain = OptionChain("2026-01-05", spot, quotes, [(30.0, 0.02), (365.0, 0.04)])
    taus = [d / 365.0 for d in days]
    surface = price_surface(bound, taus, strikes, spot, chain.rate, z)
    prices = iter(price_chain(bound, chain, z))
    for i, tau in enumerate(taus):
        rate = chain.rate(tau)
        for j, k in enumerate(strikes):
            assert surface.calls[i, j] == next(prices)
            assert surface.puts[i, j] == next(prices)
            call, put, mu = point_penalty(bound, tau, rate, z, strike=k, spot=spot)
            assert surface.jtau_calls[i, j] == call
            assert surface.jtau_puts[i, j] == put
            assert surface.defects[i] ** 2 == mu


def test_surface_at_grid_points_equals_a_surface_priced_there():
    model = init_rndmlp(seed=31)
    z = draw_standard_normal(6_000, seed=32)
    rate_fn = lambda tau: 0.02 + 0.01 * tau
    taus, strikes = [30 / 365.0, 91 / 365.0, 182 / 365.0], [85.0, 95.0, 100.0, 115.0]
    grid = build_synthetic_grid(taus, strikes)
    surface = price_surface(model, grid.taus, grid.strikes, 100.0, rate_fn, z)
    for sub_taus, sub_strikes in ((taus, strikes), (taus[1:], [100.0]), (grid.taus, grid.strikes)):
        got = surface.at(sub_taus, sub_strikes)
        want = price_surface(model, sub_taus, sub_strikes, 100.0, rate_fn, z)
        assert got.spot == want.spot
        for name in ("taus", "strikes", "calls", "puts", "rates", "defects",
                     "jtau_calls", "jtau_puts"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
        assert audit_price_surface(got) == audit_price_surface(want)
    with pytest.raises(ValueError, match="maturity"):
        surface.at([taus[0], 0.5], strikes)
    with pytest.raises(ValueError, match="strike"):
        surface.at(taus, [85.0, 101.0])
    with pytest.raises(ValueError, match="strike"):
        surface.at(taus, [1000.0])


# ----------------------------------------------------------------------
# surface audit


def test_audit_rnq_passes():
    z = draw_standard_normal(50_000, seed=6)
    rate = 0.04
    model = make_rnq(z, rate=rate, tau=0.25)
    report = audit_price_surface(price_surface(model, [0.25], [80.0, 90.0, 100.0, 110.0, 120.0],
                                               100.0, lambda t: rate, z))
    assert report["passed"]
    for name, check in report["checks"].items():
        assert check["passed"], name
    assert abs(report["martingale_defects"][0]["defect"]) < 1e-14


def test_audit_flags_tampered_prices():
    z = draw_standard_normal(50_000, seed=6)
    rate = 0.04
    model = make_rnq(z, rate=rate, tau=0.25)
    strikes = [80.0, 90.0, 100.0, 110.0, 120.0]

    broken = price_surface(model, [0.2, 0.3], strikes, 100.0, lambda t: rate, z)
    broken.calls[0, 2] = broken.calls[0, 1] + 1.0  # calls must fall in strike
    report = audit_price_surface(broken)
    assert not report["passed"]
    assert not report["checks"]["monotone_in_strike"]["passed"]
    assert report["checks"]["monotone_in_strike"]["n_violations"] >= 1

    broken = price_surface(model, [0.2, 0.3], strikes, 100.0, lambda t: rate, z)
    broken.calls[1] = broken.calls[0] - 1.0  # longer maturity priced strictly below
    report = audit_price_surface(broken)
    assert not report["checks"]["calendar_in_tau"]["passed"]

    broken = price_surface(model, [0.2, 0.3], strikes, 100.0, lambda t: rate, z)
    broken.puts[0, 0] += 3.0
    report = audit_price_surface(broken)
    assert not report["checks"]["parity_and_bounds"]["passed"]


def test_audit_report_is_json_ready():
    import json

    z = draw_standard_normal(10_000, seed=7)
    model = init_rnmlp(seed=9)
    report = audit_price_surface(price_surface(model, [0.1, 0.25], [90.0, 100.0, 110.0], 100.0,
                                               lambda t: 0.03, z))
    json.dumps(report)  # no numpy scalars allowed


def _audited_rnmlp_surface(taus=(0.1, 0.25)):
    z = draw_standard_normal(20_000, seed=3)
    return price_surface(init_rnmlp(seed=9), list(taus), [80.0, 90.0, 100.0, 110.0, 120.0], 100.0,
                         lambda t: 0.03, z)


def test_audit_monotone_worst_is_the_largest_violation_on_either_side():
    broken = _audited_rnmlp_surface()
    broken.calls[0, 2] = broken.calls[0, 1] + 5.0  # a call rises by 5 in strike
    broken.puts[1, 3] = broken.puts[1, 2] - 0.5  # a put falls by 0.5 in strike
    check = audit_price_surface(broken)["checks"]["monotone_in_strike"]
    assert check["n_violations"] == 2
    assert [e["side"] for e in check["examples"]] == ["call", "put"]
    assert check["worst"] == check["examples"][0]["value"] == pytest.approx(5.0)


def test_audit_parity_value_is_the_largest_excess_over_a_limit():
    # call and put fall together, so parity holds, but the put goes
    # negative and the call falls below its lower bound
    broken = _audited_rnmlp_surface(taus=(0.25,))
    broken.calls[0, 0] -= 5.0
    broken.puts[0, 0] -= 5.0
    s = broken
    slack = s.spot * abs(np.expm1(s.defects[0])) + 1e-10 * s.spot
    disc_k = 80.0 * np.exp(-0.03 * 0.25)
    put_excess = (0.0 - slack) - s.puts[0, 0]
    call_excess = (max(s.spot - disc_k, 0.0) - slack) - s.calls[0, 0]
    gap = abs(s.calls[0, 0] - s.puts[0, 0] - (s.spot - disc_k))
    assert gap <= slack < min(put_excess, call_excess)
    check = audit_price_surface(broken)["checks"]["parity_and_bounds"]
    assert not check["passed"] and check["n_violations"] == 1
    assert check["examples"][0]["value"] == check["worst"] == max(put_excess, call_excess)


def test_audit_entries_follow_each_checks_axis_order():
    def keys(check):
        assert all(list(e)[-1] == "value" for e in check["examples"])
        return [tuple(v for k, v in e.items() if k != "value") for e in check["examples"]]

    flipped = _audited_rnmlp_surface()
    flipped.calls, flipped.puts = flipped.calls[:, ::-1].copy(), flipped.puts[:, ::-1].copy()
    check = audit_price_surface(flipped)["checks"]["monotone_in_strike"]
    assert check["n_violations"] == 16  # maturity, side, strike
    assert keys(check) == [(0.1, k, "call") for k in (90.0, 100.0, 110.0, 120.0)] + [(0.1, 90.0, "put")]

    later = _audited_rnmlp_surface()
    later.calls[1], later.puts[1] = later.calls[0] - 5.0, later.puts[0] - 5.0
    check = audit_price_surface(later)["checks"]["calendar_in_tau"]
    assert check["n_violations"] == 10  # maturity, strike, side
    assert keys(check) == [(0.25, 80.0, "call"), (0.25, 80.0, "put"), (0.25, 90.0, "call"),
                           (0.25, 90.0, "put"), (0.25, 100.0, "call")]

    lowered = _audited_rnmlp_surface()
    lowered.calls -= 5.0
    lowered.puts -= 5.0
    check = audit_price_surface(lowered)["checks"]["parity_and_bounds"]
    assert check["n_violations"] == 10  # maturity, strike
    assert keys(check) == [(0.1, k) for k in (80.0, 90.0, 100.0, 110.0, 120.0)]
