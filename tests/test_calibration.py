"""Objective, gradient, and optimizer tests for model calibration."""

import dataclasses
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracles
from rndkit import calibration, models, pricing
from rndkit.arbitrage import audit_price_surface, build_synthetic_grid, price_surface
from rndkit.calibration import (
    CONVERGENCE_WINDOW,
    AdamState,
    CalibrationConfig,
    CalibrationDivergence,
    adam_step,
    calibrate,
    mse,
    relative_mse,
)
from rndkit.data_io import OptionQuote
from rndkit.heston import generate_simulated_chain
from rndkit.models import (
    BoundModel,
    RnDmlpParams,
    RnQParams,
    bind,
    checkpoint_document,
    init_rndmlp,
    init_rnmlp,
    model_from_checkpoint,
    parameter_vector,
    rnq_mu_from_constraint,
    with_parameter_vector,
    zero_net_rnmlp,
)
from rndkit.nn import FIRST_KNOTS, DenseNetwork, KnotPass, Scratch
from rndkit.pricing import MaturitySlice, growth_factors, price_chain
from rndkit.sampling import NormalSampleSet, draw_standard_normal

SPOT = 1000.0
PINNED = Path(__file__).resolve().parent.parent / "perfbench" / "data" / \
    "rn-dmlp-left-skew.checkpoint.json"


@pytest.fixture(scope="module")
def call_chain():
    chain = generate_simulated_chain("left-skew")
    quotes = [q for q in chain.quotes if 700 <= q.strike <= 1300][::4]
    return chain.with_quotes(quotes)


@pytest.fixture(scope="module")
def mixed_chain(call_chain):
    # flip alternating quotes to puts with parity-consistent mids so both
    # payoff branches of the objective carry weight
    chain = call_chain
    quotes = []
    for i, q in enumerate(chain.quotes):
        if i % 2 == 0:
            quotes.append(q)
        else:
            tau = q.tau
            put = q.mid - chain.spot + q.strike * np.exp(-chain.rate(tau) * tau)
            quotes.append(OptionQuote("put", q.strike, q.days_to_maturity, put, put))
    return chain.with_quotes(quotes)


@pytest.fixture(scope="module")
def three_maturity_chain():
    full = generate_simulated_chain("left-skew", days=[30, 91, 182])
    return full.with_quotes([q for q in full.quotes if 700 <= q.strike <= 1300][::4])


def grid_for(chain):
    return build_synthetic_grid([q.tau for q in chain.quotes],
                                [q.strike for q in chain.quotes])


def params_to_vector(model):
    """The flat trainable vector: rn-q (sigma, u, v); rn-mlp
    sigma | net_mu | net_z | net_tau; rn-dmlp alpha | comp1 | comp2."""
    return parameter_vector(model)


def vector_to_params(template, vec):
    return with_parameter_vector(template, vec)


def shuffled(samples, seed=5):
    """The pool in a fixed permutation of its ascending storage order: a
    caller's unsorted pool, on which a slice sorts (``calibrate`` sorts
    such a pool once, before its loop)."""
    values = np.random.Generator(np.random.Philox(seed)).permutation(samples.values)
    return NormalSampleSet(values=values, seed=samples.seed, n=samples.n)


def index_order(order, n):
    """A slice's order as the index array it stands for, an array as it is."""
    return np.arange(n)[order]


def objective_and_gradient(model, chain, grid, cfg, samples):
    """One evaluation's loss and natural-parameter gradient."""
    adapter = calibration._adapter_of(model)
    loss, grad, _ = calibration._objective_parts(adapter, model, chain, grid, cfg, samples)
    return loss, grad


# ----------------------------------------------------------------------
# loss functions


def test_mse_averages_sides_separately():
    # calls contribute (1 + 9)/2, the put 4/1
    assert mse([10, 10, 10], [11, 13, 12], ["call", "call", "put"]) == 9.0


def test_mse_single_side_is_plain_mean():
    assert mse([1.0, 2.0], [2.0, 4.0], ["call", "call"]) == pytest.approx(2.5)


def test_mse_input_validation():
    with pytest.raises(ValueError):
        mse([], [], [])
    with pytest.raises(ValueError):
        mse([1.0], [1.0, 2.0], ["call", "call"])
    with pytest.raises(ValueError):
        mse([1.0], [1.0], ["straddle"])


def test_relative_mse_floor_excludes_and_counts():
    value, n_excluded = relative_mse([10.0, 0.01, 20.0], [11.0, 5.0, 22.0],
                                     ["call", "call", "put"])
    assert n_excluded == 1
    assert value == pytest.approx(0.01 + 0.01)


def test_relative_mse_rejects_sides_of_another_length():
    # one side for three quotes used to broadcast as if all were calls
    for sides in (["call"], ["call", "put"]):
        with pytest.raises(ValueError, match="sides length mismatch"):
            relative_mse([1.0, 2.0, 3.0], [1.1, 2.0, 3.0], sides)


def test_relative_mse_keeps_prices_at_the_floor():
    value, n_excluded = relative_mse([0.05], [0.1], ["call"], floor=0.05)
    assert n_excluded == 0
    assert value == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Adam


def test_adam_drives_quadratic_to_zero():
    state = AdamState.zeros(1)
    x = np.array([1.0])
    for _ in range(500):
        x = adam_step(state, x, 2.0 * x, 0.01)
    assert abs(x[0]) < 0.05
    assert abs(x[0]) < 1e-6


def test_adam_zero_gradient_leaves_params():
    state = AdamState.zeros(3)
    x = np.array([1.0, -2.0, 0.5])
    out = adam_step(state, x, np.zeros(3), 0.01)
    assert np.array_equal(out, x)


def test_adam_first_step_is_learning_rate_sized():
    # with constant gradient the bias-corrected step is lr * sign(g)
    state = AdamState.zeros(2)
    x = np.zeros(2)
    g = np.array([3.0, -0.25])
    out = adam_step(state, x, g, 0.01)
    np.testing.assert_allclose(out, [-0.01, 0.01], rtol=1e-6)


def test_adam_shape_mismatch_raises():
    state = AdamState.zeros(2)
    with pytest.raises(ValueError):
        adam_step(state, np.zeros(2), np.zeros(3), 0.01)


# ----------------------------------------------------------------------
# parameter flattening


def test_vector_round_trip_rnq():
    model = RnQParams(mu=0.01, sigma=0.3, u=1.2, v=1.4)
    vec = params_to_vector(model)
    back = vector_to_params(model, vec)
    assert np.array_equal(params_to_vector(back), vec)
    assert back.mu == model.mu and back.a_const == model.a_const
    with pytest.raises(ValueError):
        vector_to_params(model, np.zeros(4))


def test_vector_round_trip_networks():
    for model in (init_rnmlp(3, hidden=(4, 4)), init_rndmlp(3, hidden=(4, 4))):
        vec = params_to_vector(model)
        back = vector_to_params(model, vec + 0.5)
        assert np.array_equal(params_to_vector(back), vec + 0.5)
    mlp = init_rnmlp(3, hidden=(4, 4))
    with pytest.raises(ValueError):
        vector_to_params(mlp, np.zeros(params_to_vector(mlp).size + 1))


def test_params_jsonable_round_trip(call_chain):
    cfg = CalibrationConfig(n_samples=2000, seed=5, iterations=0)
    for kind in ("rn-q", "rn-mlp", "rn-dmlp"):
        res = calibrate(kind, call_chain, cfg)
        doc = res.to_jsonable()
        assert doc["params"] == checkpoint_document(res.params)
        back = model_from_checkpoint(doc["params"])
        assert np.array_equal(params_to_vector(back), params_to_vector(res.params))


# ----------------------------------------------------------------------
# gradients vs finite differences


def fd_worst_error(model, chain, cfg, h=1e-5):
    samples = draw_standard_normal(cfg.n_samples, cfg.seed)
    grid = grid_for(chain)
    _, grad = objective_and_gradient(model, chain, grid, cfg, samples)
    vec = params_to_vector(model)
    worst = 0.0
    for i in range(vec.size):
        vp, vm = vec.copy(), vec.copy()
        vp[i] += h
        vm[i] -= h
        lp, _ = objective_and_gradient(vector_to_params(model, vp), chain, grid, cfg, samples)
        lm, _ = objective_and_gradient(vector_to_params(model, vm), chain, grid, cfg, samples)
        fd = (lp - lm) / (2 * h)
        scale = max(abs(fd), abs(grad[i]), 1e-8)
        worst = max(worst, abs(fd - grad[i]) / scale)
    return worst


@pytest.mark.parametrize("loss_kind", ["absolute-MSE", "relative-MSE"])
def test_gradient_matches_fd_rnq(mixed_chain, loss_kind):
    cfg = CalibrationConfig(n_samples=4000, seed=3, loss_kind=loss_kind)
    model = RnQParams(mu=0.0, sigma=0.25, u=1.05, v=1.2)
    assert fd_worst_error(model, mixed_chain, cfg) < 1e-4


@pytest.mark.parametrize("loss_kind", ["absolute-MSE", "relative-MSE"])
def test_rnq_jacobian_matches_central_differences(mixed_chain, loss_kind):
    # J is the Jacobian of the weighted residuals s (fitted - observed) in
    # (sigma, u, v), location re-pinned; a far call quoted under the
    # relative-MSE floor has a zero row there, and the gradient is 2 J^T r
    chain = mixed_chain.with_quotes(
        mixed_chain.quotes + [OptionQuote("call", 1600.0, 91, 0.01, 0.01)])
    cfg = CalibrationConfig(n_samples=4000, seed=3, loss_kind=loss_kind)
    samples = draw_standard_normal(cfg.n_samples, cfg.seed)
    model = RnQParams(mu=0.0, sigma=0.25, u=1.05, v=1.2)
    adapter = calibration._adapter_of(model)
    _, grad, parts = calibration._objective_parts(adapter, model, chain, grid_for(chain), cfg,
                                                  samples)
    jac = parts["jacobian"]
    tau = chain.quotes[0].tau
    observed = np.array([q.mid for q in chain.quotes])
    calls = np.array([q.side == "call" for q in chain.quotes])

    def residuals(vec):
        sigma, u, v = vec
        mu = rnq_mu_from_constraint(sigma, u, v, 4.0, samples, chain.rate(tau), tau)
        fitted = price_chain(RnQParams(mu, sigma, u, v), chain, samples)
        weights = calibration._loss_weights(observed, fitted, calls, loss_kind,
                                            cfg.relative_mse_floor)[2]
        return weights * (fitted - observed)

    vec, h = params_to_vector(model), 1e-6
    fd = np.column_stack([(residuals(vec + h * e) - residuals(vec - h * e)) / (2 * h)
                          for e in np.eye(3)])
    assert jac.shape == (len(chain.quotes), 3)
    assert np.abs(jac - fd).max() <= 1e-7 * np.abs(fd).max()
    if loss_kind == "relative-MSE":
        assert not jac[-1].any() and jac[:-1].all()
    np.testing.assert_allclose(grad, 2.0 * jac.T @ residuals(vec), rtol=1e-12)


def test_rnq_evaluation_takes_no_power_pass(call_chain, monkeypatch):
    # u^Z and v^-Z are exps, formed once; the gradient reads them back
    cfg = CalibrationConfig(n_samples=4000, seed=3)
    samples = draw_standard_normal(cfg.n_samples, cfg.seed)
    model = RnQParams(mu=0.0, sigma=0.25, u=1.05, v=1.2)
    real_power = np.power
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[0])
        return real_power(*args, **kwargs)

    monkeypatch.setattr(np, "power", spy)
    _, grad = objective_and_gradient(model, call_chain, grid_for(call_chain), cfg, samples)
    assert grad is not None
    assert calls == []


def test_rnq_objective_peak_memory(call_chain):
    # one evaluation with its gradient holds at most 9.5 N-length float
    # arrays at once: the terms u^Z, v^-Z, shape and X, each formed in one
    # buffer, the maturity slice and the adjoint weights
    n = 40_000
    cfg = CalibrationConfig(n_samples=n, seed=3)
    samples = draw_standard_normal(n, cfg.seed)
    model = RnQParams(mu=0.0, sigma=0.25, u=1.05, v=1.2)
    grid = grid_for(call_chain)
    tracemalloc.start()
    try:
        objective_and_gradient(model, call_chain, grid, cfg, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9.5 * 8 * n


@pytest.mark.parametrize("loss_kind", ["absolute-MSE", "relative-MSE"])
def test_gradient_matches_fd_rnmlp(mixed_chain, loss_kind):
    cfg = CalibrationConfig(n_samples=4000, seed=3, loss_kind=loss_kind)
    assert fd_worst_error(init_rnmlp(11, hidden=(4, 4)), mixed_chain, cfg) < 1e-4


@pytest.mark.parametrize("loss_kind", ["absolute-MSE", "relative-MSE"])
def test_gradient_matches_fd_rndmlp(mixed_chain, loss_kind):
    cfg = CalibrationConfig(n_samples=2000, seed=3, loss_kind=loss_kind)
    assert fd_worst_error(init_rndmlp(5, hidden=(4, 4)), mixed_chain, cfg) < 1e-4


def test_penalty_scales_linearly_in_lambda(call_chain):
    model = init_rndmlp(5, hidden=(4, 4))
    samples = draw_standard_normal(4000, 3)
    grid = grid_for(call_chain)
    losses = []
    for lam in (0.0, 1.0, 2.0):
        cfg = CalibrationConfig(n_samples=4000, seed=3, lam=lam)
        loss, _ = objective_and_gradient(model, call_chain, grid, cfg, samples)
        losses.append(loss)
    assert losses[1] > losses[0]
    assert losses[2] - losses[0] == pytest.approx(2.0 * (losses[1] - losses[0]), rel=1e-12)


def test_perfect_fit_has_negligible_loss_and_gradient(call_chain):
    # quotes priced by the model itself, penalty off: the optimum
    cfg = CalibrationConfig(n_samples=20_000, seed=8, lam=0.0)
    samples = draw_standard_normal(cfg.n_samples, cfg.seed)
    tau = call_chain.quotes[0].tau
    rate = call_chain.rate(tau)
    mu = rnq_mu_from_constraint(0.25, 1.05, 1.2, 4.0, samples, rate, tau)
    model = RnQParams(mu=mu, sigma=0.25, u=1.05, v=1.2)
    fitted = price_chain(model, call_chain, samples)
    quotes = [OptionQuote(q.side, q.strike, q.days_to_maturity, float(p), float(p))
              for q, p in zip(call_chain.quotes, fitted)]
    chain = call_chain.with_quotes(quotes)
    loss, grad = objective_and_gradient(model, chain, grid_for(chain), cfg, samples)
    assert loss < 1e-12
    assert np.linalg.norm(grad) < 1e-4


# ----------------------------------------------------------------------
# the optimization loop


@pytest.mark.parametrize("field", ["sigma", "u", "v"])
def test_rnq_fit_rejects_a_start_on_its_domain_edge(call_chain, field):
    # sigma = 0 and u, v = 1 are valid models, but the softplus coordinates
    # the fit works in reach only sigma > 0 and u, v > 1
    start = dict(mu=0.0, sigma=0.2, u=1.1, v=1.1)
    start[field] = 0.0 if field == "sigma" else 1.0
    cfg = CalibrationConfig(n_samples=100, iterations=2)
    with pytest.raises(ValueError, match=f"sigma > 0 and u, v > 1; the initial {field} is"):
        calibrate("rn-q", call_chain, cfg, init_model=RnQParams(**start))


def test_rnq_softplus_coordinates_of_a_large_start_do_not_overflow(call_chain):
    # softplus^-1 = log(expm1(x)) overflows past x of about 710; above 30 the
    # fit's coordinates take x + log(-expm1(-x)), and below it keep their bits
    adapter = calibration._adapter("rn-q")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for u in (1.1, 1e3, 1e6, 1e300):
            start = RnQParams(0.0, 0.2, u, 1.1)
            assert adapter.from_state(start, adapter.to_state(start)).u == u
        start = RnQParams(0.0, 0.2, 1.1, 1.3)
        assert adapter.to_state(start).tobytes() == np.log(np.expm1([0.2, 1.1 - 1.0, 1.3 - 1.0])).tobytes()
        cfg = CalibrationConfig(n_samples=4000, seed=3, iterations=20)
        res = calibrate("rn-q", call_chain, cfg, init_model=RnQParams(0.0, 0.2, 1e6, 1.1))
        assert res.iterations_run >= 1 and np.isfinite(res.loss_trajectory).all()
        # u^Z overflows on the first evaluation
        with pytest.raises(CalibrationDivergence) as err:
            calibrate("rn-q", call_chain, cfg, init_model=RnQParams(0.0, 0.2, 1e300, 1.1))
    assert err.value.iteration == 0


def test_calibrate_rejects_bad_inputs(call_chain):
    with pytest.raises(ValueError):
        calibrate("rn-tree", call_chain, CalibrationConfig(n_samples=100))
    multi = generate_simulated_chain("left-skew", days=[91, 182])
    with pytest.raises(ValueError):
        calibrate("rn-q", multi, CalibrationConfig(n_samples=100))
    with pytest.raises(ValueError):
        calibrate("rn-q", call_chain, CalibrationConfig(n_samples=100),
                  init_model=init_rnmlp(1, hidden=(4, 4)))


def test_config_validation():
    with pytest.raises(ValueError):
        CalibrationConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        CalibrationConfig(lam=-0.5)
    with pytest.raises(ValueError):
        CalibrationConfig(n_samples=0)
    with pytest.raises(ValueError):
        CalibrationConfig(iterations=-1)
    with pytest.raises(ValueError):
        CalibrationConfig(loss_kind="huber")
    with pytest.raises(ValueError):
        CalibrationConfig(seed=-1)
    for name, value in [("learning_rate", np.nan), ("learning_rate", np.inf),
                        ("lam", np.nan), ("lam", np.inf),
                        ("relative_mse_floor", np.nan), ("relative_mse_floor", np.inf),
                        ("relative_mse_floor", -np.inf), ("convergence_tol", np.nan)]:
        with pytest.raises(ValueError, match=name):
            CalibrationConfig(**{name: value})
    # -inf switches the stopping rule off
    assert CalibrationConfig(convergence_tol=-np.inf).convergence_tol == -np.inf


def test_zero_iterations_returns_initialization(call_chain):
    cfg = CalibrationConfig(n_samples=2000, seed=6, iterations=0)
    res = calibrate("rn-mlp", call_chain, cfg)
    assert res.iterations_run == 0
    assert res.loss_trajectory.size == 0
    assert not res.converged
    assert np.array_equal(params_to_vector(res.params),
                          params_to_vector(init_rnmlp(6)))
    assert np.isfinite(res.final_train_mse)
    assert np.isfinite(res.final_penalty.total)


@pytest.mark.parametrize("kind", ["rn-q", "rn-mlp", "rn-dmlp"])
def test_calibrate_is_deterministic(call_chain, kind):
    cfg = CalibrationConfig(n_samples=10_000, seed=9, iterations=25)
    r1 = calibrate(kind, call_chain, cfg)
    r2 = calibrate(kind, call_chain, cfg)
    assert np.array_equal(r1.loss_trajectory, r2.loss_trajectory)
    assert np.array_equal(params_to_vector(r1.params), params_to_vector(r2.params))


@pytest.mark.parametrize("kind", ["rn-q", "rn-mlp", "rn-dmlp"])
def test_objective_at_returned_params_equals_last_trajectory_entry(call_chain, kind):
    cfg = CalibrationConfig(n_samples=10_000, seed=9, iterations=25)
    res = calibrate(kind, call_chain, cfg)
    samples = draw_standard_normal(cfg.n_samples, cfg.seed)
    loss, _ = objective_and_gradient(res.params, call_chain, grid_for(call_chain),
                                     cfg, samples)
    assert loss == res.loss_trajectory[-1]


@pytest.mark.parametrize("kind", ["rn-q", "rn-mlp", "rn-dmlp"])
def test_final_metrics_reproduce_last_evaluation(call_chain, three_maturity_chain, kind):
    # the final metrics and the loop read the same maturity slices; the
    # network kinds fit a three-maturity chain so the penalty grid has
    # maturities between the quoted ones
    chain = call_chain if kind == "rn-q" else three_maturity_chain
    cfg = CalibrationConfig(n_samples=5000, seed=9, iterations=8)
    res = calibrate(kind, chain, cfg)
    assert res.final_train_mse + cfg.lam * res.penalty_trajectory[-1] == \
        res.loss_trajectory[-1]
    if kind != "rn-q":
        assert res.final_penalty.total == res.penalty_trajectory[-1]


@pytest.mark.parametrize("kind", ["rn-q", "rn-mlp", "rn-dmlp"])
def test_final_metrics_equal_fresh_pricing(call_chain, three_maturity_chain, monkeypatch, kind):
    # the final MSE and penalty are those of a fresh price_chain and
    # price_surface on the ascending pool, bit for bit, whichever order the
    # caller's pool is in: a fit sorts an unsorted pool first, so every
    # slice of its final metrics keeps a slice order
    chain = call_chain if kind == "rn-q" else three_maturity_chain
    cfg = CalibrationConfig(n_samples=4000, seed=9, iterations=6)
    ascending = draw_standard_normal(cfg.n_samples, cfg.seed)
    real_order = pricing._stable_order
    orders = []

    def order_spy(growth):
        order, gs = real_order(growth)
        orders.append(order)
        return order, gs

    def in_final_metrics(fn):
        def run(*args, **kwargs):
            with monkeypatch.context() as m:
                m.setattr(pricing, "_stable_order", order_spy)
                return fn(*args, **kwargs)
        return run

    monkeypatch.setattr(calibration, "price_chain", in_final_metrics(price_chain))
    monkeypatch.setattr(calibration, "price_surface", in_final_metrics(price_surface))
    grid = grid_for(chain)
    for samples in (ascending, shuffled(ascending)):
        orders.clear()
        res = calibrate(kind, chain, cfg, samples=samples)
        # one slice per quoted maturity for the prices, one per grid maturity
        assert len(orders) == len({q.tau for q in chain.quotes}) + len(grid.taus)
        assert all(isinstance(order, slice) for order in orders)
        fresh = price_chain(res.params, chain, ascending)
        observed = np.array([q.mid for q in chain.quotes])
        assert mse(observed, fresh, [q.side for q in chain.quotes]) == res.final_train_mse
        report = price_surface(res.params, grid.taus, grid.strikes, chain.spot, chain.rate,
                               ascending).penalty()
        assert report.to_jsonable() == res.final_penalty.to_jsonable()


def test_network_objective_holds_no_n_by_width_arrays(three_maturity_chain):
    # net_z's activations live in one block-sized scratch: the evaluation's
    # peak is the maturity slices' N-length arrays, not N x 32 per layer
    cfg = CalibrationConfig(n_samples=100_000, seed=9)
    samples = draw_standard_normal(cfg.n_samples, cfg.seed)
    model = init_rndmlp(4)
    grid = grid_for(three_maturity_chain)
    tracemalloc.start()
    try:
        objective_and_gradient(model, three_maturity_chain, grid, cfg, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6


def test_network_gradient_spends_each_slice_before_the_backward_passes(
        three_maturity_chain):
    # adjoint_weights releases a slice's sorted arrays, forms the weights
    # over them and, on the ascending pool, hands back views of them, so the
    # gradient adds under one N-length array to what the evaluation held
    # when it started (about 4 when each maturity's weights were scattered
    # into draw order), and one objective peaks near its tables (17.5 MB
    # here; 25.5 MB with N-long prefix sums, 28.7 MB with those and the
    # scatters).  Every order is a slice: the slices hold no index array
    n = 100_000
    cfg = CalibrationConfig(n_samples=n, seed=9)
    samples = draw_standard_normal(n, cfg.seed)
    model = init_rndmlp(4)
    chain = three_maturity_chain
    grid = grid_for(chain)
    adapter = calibration._adapter("rn-dmlp")
    taus = sorted({q.tau for q in chain.quotes} | {float(t) for t in grid.taus})
    no_quotes = calibration._Fit(np.empty(0), np.empty(0, np.intp), np.empty(0, bool),
                                 np.empty(0), chain.spot, np.empty(0), np.empty(0))
    tracemalloc.start()
    try:
        objective_and_gradient(model, chain, grid, cfg, samples)
        objective_peak = tracemalloc.get_traced_memory()[1]
        tables, bound = adapter.build_tables(model, taus, chain.rate, samples.values)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        adapter.gradient(model, tables, bound, samples.values, no_quotes)
        gradient_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gradient_peak - held < 8 * n
    assert objective_peak < 19.2e6
    for table in tables.values():
        assert table.gs is None and table.a_sorted is None
        assert isinstance(table.order, slice)


@pytest.mark.parametrize("kind", ["rn-mlp", "rn-dmlp"])
def test_warm_network_objective_peaks_below_25_n_length_arrays(three_maturity_chain, kind):
    # a slice keeps only sorted state and the block sums, so e^X in draw
    # order is freed once sorted; a warm evaluation (the fit's scratch
    # from a first one) then peaks at about 12.2 N-length arrays,
    # held under 13.75 (the name's 25 dates from when each slice kept two
    # N-long prefix sums, 22 arrays, and 27 when it also kept e^X)
    n = 100_000
    cfg = CalibrationConfig(n_samples=n, seed=9)
    samples = draw_standard_normal(n, cfg.seed)
    adapter = calibration._adapter(kind)
    model = adapter.init_model(4)
    grid = grid_for(three_maturity_chain)
    scratch = Scratch()
    calibration._objective_parts(adapter, model, three_maturity_chain, grid, cfg, samples,
                                 scratch)
    tracemalloc.start()
    try:
        calibration._objective_parts(adapter, model, three_maturity_chain, grid, cfg, samples,
                                     scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 13.75 * 8 * n


def test_warm_rnq_objective_peaks_below_7_n_length_arrays(call_chain):
    # on the ascending pool rn-q's Jacobian multiplies rnq_terms' own arrays
    # in place, with no gathered copy of Z or of a column, and reads it off
    # block sums: a warm evaluation peaks at about five N-length arrays (u^Z,
    # v^-Z, the shape, X and e^X), six with e^X's N-long prefix sums and
    # seven when Z and each column were also gathered
    n = 100_000
    cfg = CalibrationConfig(n_samples=n, seed=9)
    samples = draw_standard_normal(n, cfg.seed)
    adapter = calibration._adapter("rn-q")
    model = adapter.init_model(0)
    grid = grid_for(call_chain)
    calibration._objective_parts(adapter, model, call_chain, grid, cfg, samples)
    tracemalloc.start()
    try:
        _, _, again = calibration._objective_parts(adapter, model, call_chain, grid, cfg, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again["jacobian"] is not None and set(again) == {"penalty", "jacobian"}
    assert peak < 5.5 * 8 * n


def test_fit_scratch_holds_two_buffers_per_hidden_layer(three_maturity_chain, monkeypatch):
    # one e^h per hidden layer still needs only the layer's own buffer and
    # one other, and the slope two more (the first layer's tangent is one
    # row).  Each component's midpoint check and knot pass have M-row
    # buffers of their own, where the knot pass keeps its cache; the
    # backward pass's three rotating buffers are shared, whatever N is,
    # G_Z is each component's N-length buffer and H = sum coef sigma G_Z
    # the binding's one more
    made = []

    class SpyScratch(calibration.Scratch):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(calibration, "Scratch", SpyScratch)
    n = 20_000
    calibrate("rn-dmlp", three_maturity_chain,
              CalibrationConfig(n_samples=n, seed=9, iterations=3))
    (fit,) = made
    m = FIRST_KNOTS
    assert list(fit.lattices) == [m]
    own = {("act", 0): (m, 32), ("sig", 0): (m, 32), ("act", 1): (m, 32), ("sig", 1): (m, 32),
           ("act", 2): (m, 1), ("tangent", 0): (m, 32), ("tangent_pre", 1): (m, 32),
           ("tangent", 1): (m, 32), ("tangent_pre", 2): (m, 1)}
    assert {key: buf.shape for key, buf in fit._buffers.items()} == {
        "h": (n,), ("g_z", 0): (n,), ("g_z", 1): (n,),
        "bar0": (m, 32), "bar1": (m, 32), "bar2": (m, 32),
        **{(c, key): shape for c in (0, 1) for key, shape in own.items()}}


def _net_z_rows(monkeypatch):
    """Rows of every pass of more than one row (net_z's; the tau nets run
    one row at a time), keyed by whether it forms slopes."""
    rows = {"slopes": 0, "values": 0}
    scalar_batch = DenseNetwork.scalar_batch

    def spy(self, x, want_slope=False, **kwargs):
        if np.size(x) > 1:
            rows["slopes" if want_slope else "values"] += np.size(x)
        return scalar_batch(self, x, want_slope=want_slope, **kwargs)

    monkeypatch.setattr(DenseNetwork, "scalar_batch", spy)
    return rows


def test_net_z_rows_per_evaluation_do_not_depend_on_n(three_maturity_chain, monkeypatch):
    # from N = 8,192 up a fresh net's G_Z comes off 1024 knots, with
    # slopes, checked at 1023 midpoints, in every binding (two evaluations
    # and the final one); the one gradient reads the evaluation's knot
    # pass and runs none of its own
    rows = _net_z_rows(monkeypatch)
    counts = []
    for n in (8_192, 40_000):
        rows.update(slopes=0, values=0)
        calibrate("rn-dmlp", three_maturity_chain,
                  CalibrationConfig(n_samples=n, seed=9, iterations=2))
        counts.append(dict(rows))
    assert counts[0] == counts[1] == {"slopes": 2 * 3 * FIRST_KNOTS,
                                      "values": 2 * 3 * (FIRST_KNOTS - 1)}


def _scaled_net_z(model, k):
    """``model`` with every net_z weight times k."""
    if isinstance(model, RnDmlpParams):
        return dataclasses.replace(model, comp1=_scaled_net_z(model.comp1, k),
                                   comp2=_scaled_net_z(model.comp2, k))
    net = model.net_z
    return dataclasses.replace(model, net_z=DenseNetwork(net.layer_dims,
                                                         [k * w for w in net.weights], net.biases))


def _param_gradient_rerun(self, w):
    # the net_z gradient with its knot pass run again, with slopes and a
    # cache, into the shared buffers, then one backward pass
    wy, ws = self.lattice.adjoint(w)
    cache = self.net.scalar_batch(self.lattice.knots, want_slope=True, scratch=self.scratch)[2]
    return self.net.weighted_value_slope_param_gradient(cache, wy, ws, self.scratch)


@pytest.mark.parametrize("kind", ["rn-mlp", "rn-dmlp"])
@pytest.mark.parametrize("n, scale, knots", [
    (20_000, 1.0, FIRST_KNOTS),
    (5000, 1.0, None),  # under 8 * FIRST_KNOTS: the sorted draws
    (10_000, 2.5, None),  # the seed-7 net_z's x 2.5 fail 1024 knots
    (20_000, 2.5, 2 * FIRST_KNOTS),  # ... and pass 2048
], ids=["uniform", "draws", "draws-after-1024", "2048-after-1024"])
def test_training_gradient_equals_one_whose_knot_passes_rerun(three_maturity_chain, monkeypatch,
                                                              kind, n, scale, knots):
    # the gradient reads the accepted knot pass's kept cache: byte for
    # byte what running that pass again gives, in one evaluation and over
    # a fit's evaluations through one scratch
    model = _scaled_net_z({"rn-mlp": init_rnmlp, "rn-dmlp": init_rndmlp}[kind](7), scale)
    cfg = CalibrationConfig(n_samples=n, seed=3, iterations=3)
    samples = draw_standard_normal(n, cfg.seed)
    bound = BoundModel(model, samples.values, Scratch())
    want = np.unique(samples.values).size if knots is None else knots
    assert [p.lattice.knots.size for p in bound.passes] == [want] * len(bound.passes)
    grid = grid_for(three_maturity_chain)
    runs = []
    for rerun in (False, True):
        if rerun:
            monkeypatch.setattr(KnotPass, "param_gradient", _param_gradient_rerun)
        grad = objective_and_gradient(model, three_maturity_chain, grid, cfg, samples)[1]
        fit = calibrate(kind, three_maturity_chain, cfg, init_model=model, samples=samples)
        runs.append((grad.tobytes(), fit.loss_trajectory.tobytes(),
                     parameter_vector(fit.params).tobytes()))
    assert runs[0] == runs[1]


def _pinned():
    return model_from_checkpoint(json.loads(PINNED.read_text()))


@pytest.mark.parametrize("make", [
    lambda: init_rnmlp(7),
    lambda: init_rndmlp(7),
    lambda: _pinned().comp1,
    _pinned,
], ids=["rn-mlp-fresh", "rn-dmlp-fresh", "rn-mlp-pinned", "rn-dmlp-pinned"])
def test_knot_lattice_objective_matches_the_exact_blocked_passes(three_maturity_chain, monkeypatch,
                                                                  make):
    # the first evaluation's loss and gradient against net_z run exactly
    # at every draw, in row blocks, as the fit did before the knot lattice
    model = make()
    cfg = CalibrationConfig(n_samples=20_000, seed=3)
    samples = draw_standard_normal(cfg.n_samples, cfg.seed)
    grid = grid_for(three_maturity_chain)
    loss, grad = objective_and_gradient(model, three_maturity_chain, grid, cfg, samples)
    monkeypatch.setattr(models, "KnotPass", oracles.BlockedPass)
    ref_loss, ref_grad = objective_and_gradient(model, three_maturity_chain, grid, cfg, samples)
    assert abs(loss - ref_loss) <= 1e-13 * abs(ref_loss)
    assert np.linalg.norm(grad - ref_grad) <= 1e-12 * np.linalg.norm(ref_grad)


def test_calibrate_takes_the_callers_pool(call_chain):
    cfg = CalibrationConfig(n_samples=3000, seed=4, iterations=3)
    own = calibrate("rn-mlp", call_chain, cfg)
    given = calibrate("rn-mlp", call_chain, cfg, samples=draw_standard_normal(3000, 4))
    assert given.loss_trajectory.tobytes() == own.loss_trajectory.tobytes()
    assert checkpoint_document(given.params) == checkpoint_document(own.params)
    with pytest.raises(ValueError, match="3001 samples for n_samples = 3000"):
        calibrate("rn-mlp", call_chain, cfg, samples=draw_standard_normal(3001, 4))


def test_unpenalized_slice_skips_the_penalty_half_of_the_adjoint():
    # a slice that records no penalty term forms no penalty weights: wd is
    # None and wx has the bits of a zero penalty term's
    rng = np.random.Generator(np.random.Philox(3))
    x, slope = 0.2 * rng.normal(size=5000), rng.normal(size=5000)

    def weights(zero_penalty):
        table = calibration._TauTable(0.25, 0.03, x, slope)
        table.add("data", [1200, 0, 3100], [0.7, -0.4, 0.4])
        table.add("pen", [], [])
        if zero_penalty:
            table.add("pen", [2000], [0.0])
        return list(table.terms["pen"]), table.adjoint_weights()

    pen, (wx, wd) = weights(False)
    assert not pen and wd is None
    pen, (wx_zero, wd_zero) = weights(True)
    assert len(pen) == 1 and wd_zero.shape == (5000,) and not wd_zero.any()
    assert wx.tobytes() == wx_zero.tobytes()


def _dense_step_sums(n, terms):
    # the N-long accumulator the sparse sums stand for: np.add.at adds each
    # repeated position's terms in order, then one cumsum over it
    acc = np.zeros(n + 1)
    for positions, coeffs in terms:
        np.add.at(acc, positions, coeffs)
    return np.cumsum(acc[:n])


def _sparse_step_sums(n, terms):
    table = calibration._TauTable(0.25, 0.03, np.zeros(n), None)
    for positions, coeffs in terms:
        table.add("data", positions, coeffs)
    return calibration._times_step_sums(table.terms["data"], np.ones(n))


def test_add_accumulates_repeated_positions_like_the_scalar_loop():
    # each repeated position, 0 among them, adds its terms in order, so
    # the suffix weights are those of the scalar loop's accumulator
    rng = np.random.Generator(np.random.Philox(4))
    x, slope = 0.2 * rng.normal(size=3000), rng.normal(size=3000)
    positions = rng.choice([0, 0, 5, 1200, 2999, 3000], size=400)
    coeffs = rng.normal(size=400) * 10.0 ** rng.integers(-9, 4, size=400)
    table = calibration._TauTable(0.25, 0.03, x, slope)
    table.add("pen", positions, coeffs)

    def loop(order):
        acc = np.zeros(3001)
        for pos, coeff in zip(positions[order], coeffs[order]):
            acc[pos] += coeff
        return np.cumsum(acc[:3000]).tobytes()

    steps = calibration._times_step_sums(table.terms["pen"], np.ones(3000))
    assert steps.tobytes() == loop(slice(None))
    assert loop(slice(None, None, -1)) != loop(slice(None))  # these terms tell orders apart


def test_sparse_step_sums_give_the_dense_cumsums_bits():
    # the adjoint weights from the terms' positions alone equal, byte for
    # byte, those of a dense accumulator and a full cumsum, with repeated
    # positions, a position-0 defect term and terms past the last index
    rng = np.random.Generator(np.random.Philox(5))
    n = 4000
    x, slope = 0.2 * rng.normal(size=n), rng.normal(size=n)
    data = [(rng.choice([3, 3, 900, 900, 2500, n], size=30), rng.normal(size=30)),
            (np.array([0]), np.array([1e-3])),
            (np.array([900, 17]), np.array([-2.5, 0.25]))]
    pen = [(rng.choice([0, 12, 12, 3999, n], size=25), rng.normal(size=25) * 1e-4)]
    table = calibration._TauTable(0.25, 0.03, x, slope)
    for positions, coeffs in data:
        table.add("data", positions, coeffs)
    for positions, coeffs in pen:
        table.add("pen", positions, coeffs)
    gs, order = table.gs.copy(), table.order.copy()
    wx, wd = table.adjoint_weights()
    dense_data = _dense_step_sums(n, data) * gs
    dense_pen = _dense_step_sums(n, pen)
    want_wd = np.empty(n)
    want_wd[order] = dense_pen * gs
    a_sorted = (slope - 0.03)[order] * gs
    want_wx = np.empty(n)
    want_wx[order] = dense_data + dense_pen * a_sorted
    assert wx.tobytes() == want_wx.tobytes() and wd.tobytes() == want_wd.tobytes()
    for terms in (data, pen, []):
        assert _sparse_step_sums(n, terms).tobytes() == _dense_step_sums(n, terms).tobytes()


def test_objective_penalty_is_the_surface_penalty(three_maturity_chain):
    # the objective's penalty is the one aggregate the surface's penalty
    # uses, on the same slices: equal bits at every start, with and
    # without violated hinges
    chain = three_maturity_chain
    cfg = CalibrationConfig(n_samples=4000, seed=9)
    samples = draw_standard_normal(cfg.n_samples, cfg.seed)
    grid = grid_for(chain)
    hinged_taus = []
    for model in [init_rnmlp(seed) for seed in (1, 2, 3)] + [init_rndmlp(seed) for seed in (1, 2)]:
        adapter = calibration._adapter_of(model)
        _, _, parts = calibration._objective_parts(adapter, model, chain, grid, cfg, samples)
        report = price_surface(model, grid.taus, grid.strikes, chain.spot, chain.rate,
                               samples).penalty()
        assert parts["penalty"] == report.total
        hinged_taus.append(len({tau for tau, _, _, v in report.calendar_values if v < 0.0}))
    assert min(hinged_taus) == 0 and max(hinged_taus) >= 3


@pytest.mark.parametrize("kind", ["rn-mlp", "rn-dmlp"])
def test_training_tables_match_bound_slices(kind):
    # a maturity's training values depend only on (model, Z, tau, rate),
    # whichever other maturities are evaluated with it; on the ascending
    # pool every order is a slice, on a caller's unsorted one an index array
    model = calibration._adapter(kind).init_model(4)
    ascending = draw_standard_normal(3000, seed=5)
    taus = [0.08, 0.25, 0.5, 0.75, 1.0]

    def rate(tau):
        return 0.02 + 0.01 * tau

    for z in (ascending.values, shuffled(ascending).values):
        bound = bind(model, z)
        for subset in (taus, taus[1:4], taus[2:3], taus[::-2]):
            tables, _ = calibration._adapter(kind).build_tables(model, subset, rate, z)
            for tau in subset:
                want = MaturitySlice(tau, rate(tau), *bound.columns(tau, rate(tau)))
                got = tables[tau]
                assert isinstance(got.order, slice) == (z is ascending.values)
                assert index_order(got.order, z.size).tobytes() == \
                    index_order(want.order, z.size).tobytes()
                assert got.gs.tobytes() == want.gs.tobytes()
                assert got.a_sorted.tobytes() == want.a_sorted.tobytes()


def test_rnq_fit_sorts_unsorted_growth_once(call_chain, monkeypatch):
    # rn-q's X is increasing in Z.  On the ascending pool no slice the loop
    # builds sorts anything.  A caller's unsorted pool is sorted once, before
    # the loop, so there too no slice, accepted step or rejected trial, sorts
    real_argsort = np.argsort
    unsorted = []

    def spy(a, *args, **kwargs):
        a = np.asarray(a)
        unsorted.append(bool(np.any(a[1:] < a[:-1])))
        return real_argsort(a, *args, **kwargs)

    real_build = calibration._QuantileAdapter.build_tables

    def build_tables(self, *args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(np, "argsort", spy)
            return real_build(self, *args, **kwargs)

    monkeypatch.setattr(calibration._QuantileAdapter, "build_tables", build_tables)
    cfg = CalibrationConfig(n_samples=10_000, seed=9, iterations=50)
    ascending = draw_standard_normal(cfg.n_samples, cfg.seed)
    for samples in (ascending, shuffled(ascending)):
        unsorted.clear()
        res = calibrate("rn-q", call_chain, cfg, samples=samples)
        assert res.converged and 10 < res.iterations_run < 50
        assert not unsorted


def test_rnq_trial_with_tied_growth_keeps_no_order_array(call_chain, monkeypatch):
    # a far Levenberg-Marquardt trial whose growth underflows to exact ties:
    # non-decreasing growth in storage order has the identity as its stable
    # order, so the slice keeps a slice order and calls no argsort
    cfg = CalibrationConfig(n_samples=10_000, seed=9)
    z = draw_standard_normal(cfg.n_samples, cfg.seed).values
    tau = call_chain.quotes[0].tau
    trial = RnQParams(mu=0.0, sigma=1.0, u=5.8, v=12.6)

    def refuse(*args, **kwargs):
        raise AssertionError("argsort called")

    monkeypatch.setattr(np, "argsort", refuse)
    tables, _ = calibration._adapter("rn-q").build_tables(trial, [tau], call_chain.rate, z)
    table = tables[tau]
    assert table.order == slice(None)
    assert np.sum(table.gs == 0.0) > 1 and np.all(table.gs[1:] >= table.gs[:-1])


def _folding_rnmlp():
    """X = sigma sqrt(tau) Z (3 - 3 softplus(Z)): zero tau nets and a net_z
    G_Z = 2 - 3 softplus(Z), so X rises in Z up to a crest and then falls."""
    net_z = DenseNetwork([1, 1, 1], [np.array([[1.0]]), np.array([[-3.0]])],
                         [np.zeros(1), np.array([2.0])])
    return dataclasses.replace(zero_net_rnmlp(0.2), net_z=net_z)


def test_a_net_that_folds_in_z_takes_the_general_path(three_maturity_chain):
    # growth that is not monotone in storage order sorts: the slice keeps an
    # index order equal to the stable sort, and a fit whose slices sort so
    # on a caller's unsorted pool is the fit on the ascending pool, bit for bit
    model = _folding_rnmlp()
    samples = draw_standard_normal(20_000, 3)
    x, slope = bind(model, samples).columns(0.25, 0.03)
    growth = growth_factors(x, 0.25)
    assert np.any(growth[1:] > growth[:-1]) and np.any(growth[1:] < growth[:-1])
    table = MaturitySlice(0.25, 0.03, x, slope)
    want = np.argsort(growth, kind="stable")
    assert isinstance(table.order, np.ndarray) and table.order.tobytes() == want.tobytes()
    assert table.gs.tobytes() == growth[want].tobytes()
    assert table.a_sorted.tobytes() == ((slope[want] - 0.03) * growth[want]).tobytes()

    cfg = CalibrationConfig(n_samples=samples.n, seed=3, iterations=6)
    want, got = (calibrate("rn-mlp", three_maturity_chain, cfg, init_model=model, samples=pool)
                 for pool in (samples, shuffled(samples)))
    assert got.loss_trajectory.tobytes() == want.loss_trajectory.tobytes()
    assert parameter_vector(got.params).tobytes() == parameter_vector(want.params).tobytes()


@pytest.mark.parametrize("kind", ["rn-q", "rn-mlp", "rn-dmlp"])
def test_fit_on_a_permuted_pool_agrees_with_the_ascending_pool(call_chain, three_maturity_chain,
                                                               kind):
    # a fit sorts a caller's unsorted pool once, into a new array: the same
    # fit on the ascending pool and on a fixed permutation of it has the
    # same bits over the whole loss trajectory and in the final parameters,
    # and the caller's pool keeps its order
    chain = call_chain if kind == "rn-q" else three_maturity_chain
    cfg = CalibrationConfig(n_samples=20_000, seed=3, iterations=30)
    ascending = draw_standard_normal(cfg.n_samples, cfg.seed)
    permuted = shuffled(ascending)
    before = permuted.values.copy()
    fits = [calibrate(kind, chain, cfg, samples=samples) for samples in (ascending, permuted)]
    assert permuted.values.tobytes() == before.tobytes()
    want, got = (fit.loss_trajectory for fit in fits)
    assert want.size == got.size == (cfg.iterations if kind != "rn-q" else want.size)
    assert got.tobytes() == want.tobytes()
    want, got = (parameter_vector(fit.params) for fit in fits)
    assert got.tobytes() == want.tobytes()


def test_rnq_levenberg_marquardt_lowers_the_loss_at_every_step_and_stops_early(call_chain):
    # each trajectory entry after the first is an accepted step, which
    # lowers the loss, and the fit converges long before its cap
    cfg = CalibrationConfig(n_samples=10_000, seed=9, iterations=400)
    res = calibrate("rn-q", call_chain, cfg)
    assert res.converged and res.iterations_run < 40
    assert np.all(np.diff(res.loss_trajectory) < 0.0)
    assert res.loss_trajectory[-1] < 1e-3 * res.loss_trajectory[0]


@pytest.mark.parametrize("iterations", [0, 1])
def test_rnq_zero_and_one_iterations_take_no_step(call_chain, monkeypatch, iterations):
    # as with Adam: no evaluation, or one that forms no Jacobian; the
    # returned model is the start, its location pinned
    jacobians = []
    gradient = calibration._QuantileAdapter.gradient

    def spy(*args, **kwargs):
        jacobians.append(1)
        return gradient(*args, **kwargs)

    monkeypatch.setattr(calibration._QuantileAdapter, "gradient", spy)
    cfg = CalibrationConfig(n_samples=2000, seed=6, iterations=iterations)
    res = calibrate("rn-q", call_chain, cfg)
    assert res.iterations_run == res.loss_trajectory.size == iterations
    assert not res.converged and not jacobians
    adapter = calibration._adapter("rn-q")
    start = adapter.init_model(cfg.seed)
    start = adapter.from_state(start, adapter.to_state(start))
    assert params_to_vector(res.params).tobytes() == params_to_vector(start).tobytes()
    if iterations:
        samples = draw_standard_normal(cfg.n_samples, cfg.seed)
        loss, _ = objective_and_gradient(start, call_chain, grid_for(call_chain), cfg, samples)
        assert res.loss_trajectory[0] == loss


def test_rnq_trial_that_overflows_is_rejected_without_a_warning(call_chain, monkeypatch):
    # the first trial is moved to u = 1 + softplus(1e87), where u^Z
    # overflows: the trial is rejected with no RuntimeWarning, the damping
    # rises, and the fit goes on to the loss of an undisturbed one
    cfg = CalibrationConfig(n_samples=10_000, seed=9, iterations=400)
    want = calibrate("rn-q", call_chain, cfg)
    step = calibration._LevenbergMarquardt.step
    objective = calibration._objective_parts
    trials, failures = [], []

    def step_spy(self, *args):
        trial = step(self, *args)
        if not trials:
            trial = trial.copy()
            trial[1] = 1e87
        trials.append(trial)
        return trial

    def objective_spy(*args, **kwargs):
        try:
            return objective(*args, **kwargs)
        except FloatingPointError:
            failures.append(len(trials))
            raise

    monkeypatch.setattr(calibration._LevenbergMarquardt, "step", step_spy)
    monkeypatch.setattr(calibration, "_objective_parts", objective_spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = calibrate("rn-q", call_chain, cfg)
    assert failures == [1]
    assert res.converged and np.all(np.diff(res.loss_trajectory) < 0.0)
    assert res.loss_trajectory[-1] == pytest.approx(want.loss_trajectory[-1], rel=1e-9)


def test_rnq_start_that_fails_diverges_at_evaluation_0(call_chain, monkeypatch):
    # only a failed first evaluation ends an rn-q fit; later ones are
    # rejected trials
    def failing(*args, **kwargs):
        raise FloatingPointError("objective is not finite")

    monkeypatch.setattr(calibration, "_objective_parts", failing)
    with pytest.raises(CalibrationDivergence, match="iteration 0: objective is not finite"):
        calibrate("rn-q", call_chain, CalibrationConfig(n_samples=2000, iterations=5))


def test_divergence_raises_with_iteration_index(call_chain):
    cfg = CalibrationConfig(n_samples=2000, seed=1, iterations=20, learning_rate=1e6)
    with pytest.raises(CalibrationDivergence) as err:
        calibrate("rn-mlp", call_chain, cfg)
    assert err.value.iteration >= 1
    assert "iteration" in str(err.value)


def test_a_step_that_leaves_the_mixture_interval_diverges(call_chain):
    # Adam's first step moves every coordinate by the learning rate, so
    # alpha = 0.5 lands at -0.1 or 1.1 while sigma = 1 stays positive
    cfg = CalibrationConfig(n_samples=2000, seed=1, iterations=5, learning_rate=0.6)
    with pytest.raises(CalibrationDivergence, match="alpha") as err:
        calibrate("rn-dmlp", call_chain, cfg, init_model=init_rndmlp(3, sigma=1.0))
    assert err.value.iteration == 1


def test_convergence_window_stops_early(call_chain):
    cfg = CalibrationConfig(n_samples=2000, seed=2, iterations=500,
                            convergence_tol=1e12)
    res = calibrate("rn-mlp", call_chain, cfg)
    assert res.converged
    assert res.iterations_run == CONVERGENCE_WINDOW + 1


def test_rnq_final_location_satisfies_martingale(call_chain):
    cfg = CalibrationConfig(n_samples=5000, seed=4, iterations=3)
    res = calibrate("rn-q", call_chain, cfg)
    samples = draw_standard_normal(cfg.n_samples, cfg.seed)
    tau = call_chain.quotes[0].tau
    p = res.params
    expected = rnq_mu_from_constraint(p.sigma, p.u, p.v, p.a_const, samples,
                                      call_chain.rate(tau), tau)
    assert p.mu == expected


def test_penalty_decreases_from_initialization(call_chain):
    cfg = CalibrationConfig(n_samples=10_000, seed=4, iterations=150)
    res = calibrate("rn-dmlp", call_chain, cfg)
    init = init_rndmlp(cfg.seed)
    samples = draw_standard_normal(cfg.n_samples, cfg.seed)
    grid = grid_for(call_chain)
    report_init = price_surface(init, grid.taus, grid.strikes, call_chain.spot,
                                call_chain.rate, samples).penalty()
    assert res.final_penalty.total < report_init.total
    assert res.loss_trajectory[-1] < 0.2 * res.loss_trajectory[0]
    taus = sorted({q.tau for q in call_chain.quotes})
    strikes = sorted({q.strike for q in call_chain.quotes})
    audit_init, audit_fit = (
        audit_price_surface(price_surface(model, taus, strikes, call_chain.spot,
                                          call_chain.rate, samples))
        for model in (init, res.params))
    before = audit_init["checks"]["calendar_in_tau"]["n_violations"]
    after = audit_fit["checks"]["calendar_in_tau"]["n_violations"]
    assert after <= before


def test_rnq_recovers_its_own_chain(call_chain):
    # quotes generated by a known quantile model are refit nearly exactly
    samples = draw_standard_normal(50_000, 42)
    tau = call_chain.quotes[0].tau
    rate = call_chain.rate(tau)
    mu = rnq_mu_from_constraint(0.25, 1.05, 1.2, 4.0, samples, rate, tau)
    true = RnQParams(mu=mu, sigma=0.25, u=1.05, v=1.2)
    strikes = np.linspace(600, 1400, 40)
    proto = call_chain.with_quotes(
        [OptionQuote("call", float(k), 91, 1.0, 1.0) for k in strikes])
    prices = price_chain(true, proto, samples)
    chain = call_chain.with_quotes(
        [OptionQuote("call", float(k), 91, float(p), float(p))
         for k, p in zip(strikes, prices)])
    cfg = CalibrationConfig(n_samples=50_000, seed=42, iterations=600)
    res = calibrate("rn-q", chain, cfg)
    # Levenberg-Marquardt reaches 1e-23 to 3e-22 and parameters within
    # 2.4e-12 of the truth at seeds 1 to 6
    assert res.converged and res.final_train_mse < 1e-20
    assert np.abs(params_to_vector(res.params) - [0.25, 1.05, 1.2]).max() < 1e-10
