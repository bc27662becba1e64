import json
from pathlib import Path

import numpy as np
import pytest

from rndkit.models import (
    CHECKPOINT_VERSION,
    RnDmlpParams,
    RnMlpParams,
    RnQParams,
    bind,
    checkpoint_document,
    checkpoint_json,
    init_rndmlp,
    init_rnmlp,
    model_from_checkpoint,
    parameter_fields,
    parameter_vector,
    rnq_log_return,
    rnq_mu_from_constraint,
    rnq_terms,
    sample_log_returns,
    zero_net_rnmlp,
)
from rndkit.numerics import kahan_sum, logmeanexp
from rndkit.sampling import draw_standard_normal

from oracles import forward, rnq_terms_power_form


def round_trip(model):
    """Write a checkpoint as the CLI does and read it back."""
    return model_from_checkpoint(json.loads(checkpoint_json(checkpoint_document(model))))


def test_rnq_log_return_frozen_values():
    flat = RnQParams(mu=0.0, sigma=1.0, u=1.0, v=1.0)
    assert rnq_log_return(flat, 2.0) == 3.0  # 2 * ((1+1)/4 + 1)
    assert rnq_log_return(RnQParams(mu=0.7, sigma=0.5, u=1.3, v=1.2), 0.0) == 0.7
    tilted = RnQParams(mu=0.0, sigma=0.2, u=1.1, v=1.1)
    assert rnq_log_return(tilted, 1.0) == pytest.approx(0.30045454545454545, rel=1e-15)


@pytest.mark.parametrize("u", [1.0, 1.0 + 1e-7, 1.05, 1.3, 2.0, 3.5])
def test_rnq_terms_match_the_power_form(u):
    # u^Z = exp(Z ln u) and v^-Z = exp(Z (-ln v)) stay within 1e-14 of the
    # powers, so the shape and t do too, 0-d Z included
    z = np.concatenate([np.linspace(-8.0, 8.0, 3201), draw_standard_normal(5000, seed=2).values])
    for v in (1.0, 1.0 + 1e-7, 1.05, 1.3, 2.0, 3.5):
        p = RnQParams(mu=0.0, sigma=0.3, u=u, v=v)
        for zz in (z, np.asarray(-7.25), np.asarray(0.5)):
            got, want = rnq_terms(p, zz), rnq_terms_power_form(p, zz)
            for g, w in zip(got, want):
                assert isinstance(g, np.ndarray) and g.shape == zz.shape
                assert np.all(np.abs(g - w) <= 1e-14 * np.abs(w))


def test_rnq_terms_are_exact_at_unit_bases():
    z = np.linspace(-8.0, 8.0, 1601)
    p = RnQParams(mu=0.0, sigma=0.3, u=1.0, v=1.0)
    uz, vz, shape, t = rnq_terms(p, z)
    assert np.all(uz == 1.0) and np.all(vz == 1.0) and np.all(shape == 1.5)
    assert t.tobytes() == rnq_terms_power_form(p, z)[3].tobytes()


def test_rnq_parameter_validation():
    with pytest.raises(ValueError):
        RnQParams(mu=0.0, sigma=-0.1, u=1.1, v=1.1)
    with pytest.raises(ValueError):
        RnQParams(mu=0.0, sigma=0.2, u=0.9, v=1.1)
    with pytest.raises(ValueError):
        RnQParams(mu=0.0, sigma=0.2, u=1.1, v=1.1, a_const=0.0)


def test_rnq_mu_constraint_degenerate_and_identity():
    z = draw_standard_normal(50_000, seed=1)
    assert rnq_mu_from_constraint(0.0, 1.4, 1.2, 4.0, z, rate=0.04, tau=0.5) == 0.02

    mu = rnq_mu_from_constraint(0.3, 1.2, 1.4, 4.0, z, rate=0.04, tau=0.5)
    model = RnQParams(mu=mu, sigma=0.3, u=1.2, v=1.4)
    x = rnq_log_return(model, z.values)
    # Plugging mu back in satisfies the martingale constraint on the draws.
    assert abs(logmeanexp(x) - 0.04 * 0.5) < 1e-12


def test_logmeanexp_keeps_the_shifted_kahan_form():
    x = 0.3 * draw_standard_normal(10_000, seed=4).values
    m = float(np.max(x))
    assert logmeanexp(x) == m + np.log(kahan_sum(np.exp(x - m)) / x.size)


def test_rnq_mu_constraint_lognormal_limit():
    # u = v = 1 collapses the shape factor to 3/2, so X is normal with
    # scale 1.5 sigma and mu should approach r tau - (1.5 sigma)^2 / 2.
    sigma, rate, tau = 0.2, 0.04, 0.5
    z = draw_standard_normal(400_000, seed=9)
    mu = rnq_mu_from_constraint(sigma, 1.0, 1.0, 4.0, z, rate=rate, tau=tau)
    a = 1.5 * sigma
    t = np.exp(a * z.values)
    stderr = np.std(t) / (np.mean(t) * np.sqrt(z.n))
    assert abs(mu - (rate * tau - 0.5 * a * a)) < 3.0 * stderr


def test_rnq_quantile_map_is_monotone():
    rng = np.random.Generator(np.random.Philox(17))
    z = np.sort(rng.normal(size=1000))
    for u, v in [(1.0, 1.0), (1.5, 1.05), (1.05, 1.9), (2.0, 2.0)]:
        x = rnq_log_return(RnQParams(mu=0.1, sigma=0.4, u=u, v=v), z)
        assert np.all(np.diff(x) >= 0.0)


def test_rnmlp_zero_net_reduces_to_driftless_lognormal():
    p = zero_net_rnmlp(sigma=0.3)
    z = np.linspace(-3, 3, 11)
    x = sample_log_returns(p, 0.25, z, 0.04)
    np.testing.assert_allclose(x, 0.3 * 0.5 * z, rtol=0, atol=1e-16)
    d = bind(p, z).columns(0.25, 0.04)[1]
    np.testing.assert_allclose(d, 0.3 * z / (2.0 * 0.5), rtol=0, atol=1e-16)


def test_rnmlp_matches_straight_line_assembly():
    p = init_rnmlp(seed=5)
    z = np.array([-2.0, -0.3, 0.0, 1.1, 2.4])
    tau, rate = 0.7, 0.03
    got = sample_log_returns(p, tau, z, rate)
    gmu = forward(p.net_mu, np.array([tau]))[0]
    gtau = forward(p.net_tau, np.array([tau]))[0]
    want = np.array([
        rate * tau * gmu
        + p.sigma * np.sqrt(tau) * zi * (forward(p.net_z, np.array([zi]))[0] + gtau + 1.0)
        for zi in z
    ])
    np.testing.assert_allclose(got, want, rtol=1e-13)


def test_rnmlp_tau_zero_and_validation():
    p = init_rnmlp(seed=2)
    z = np.linspace(-2, 2, 7)
    assert np.all(sample_log_returns(p, 0.0, z, 0.05) == 0.0)
    with pytest.raises(ValueError):
        sample_log_returns(p, -0.1, z, 0.05)
    with pytest.raises(ValueError):
        bind(p, z).columns(0.0, 0.05)[1]


def test_rnmlp_dtau_matches_finite_differences():
    p = init_rnmlp(seed=8)
    z = np.array([-1.7, -0.2, 0.4, 2.2])
    tau, rate = 0.4, 0.05
    h = 1e-6 * tau
    fd = (sample_log_returns(p, tau + h, z, rate) - sample_log_returns(p, tau - h, z, rate)) / (2 * h)
    np.testing.assert_allclose(bind(p, z).columns(tau, rate)[1], fd, rtol=1e-5)


def test_rnmlp_dtau_at_zero_z_uses_only_drift_network():
    p = init_rnmlp(seed=4)
    tau, rate = 0.6, 0.02
    got = float(bind(p, np.array([0.0])).columns(tau, rate)[1][0])
    vals, slopes, _ = p.net_mu.scalar_batch(np.array([tau]), want_slope=True)
    assert got == pytest.approx(rate * vals[0] + rate * tau * slopes[0], rel=1e-13)


def test_rndmlp_affine_combination():
    p = init_rndmlp(seed=3)
    z = np.linspace(-2, 2, 9)
    tau, rate = 0.3, 0.04
    x1 = sample_log_returns(p.comp1, tau, z, rate)
    x2 = sample_log_returns(p.comp2, tau, z, rate)

    only_first = RnDmlpParams(alpha=1.0, comp1=p.comp1, comp2=p.comp2)
    np.testing.assert_array_equal(sample_log_returns(only_first, tau, z, rate), x1)

    twin = RnDmlpParams(alpha=0.31, comp1=p.comp1, comp2=p.comp1)
    np.testing.assert_allclose(sample_log_returns(twin, tau, z, rate), x1, rtol=1e-15)

    only_second = RnDmlpParams(alpha=0.0, comp1=p.comp1, comp2=p.comp2)
    np.testing.assert_array_equal(sample_log_returns(only_second, tau, z, rate), x2)

    # the mixture is convex: alpha outside [0, 1], or NaN, is rejected
    for alpha in (2.0, 1.0 + 1e-12, -1e-12, -0.2, np.nan, np.inf):
        with pytest.raises(ValueError, match="alpha"):
            RnDmlpParams(alpha=alpha, comp1=p.comp1, comp2=p.comp2)


def test_sample_log_returns_dispatch_and_edge_cases():
    z = draw_standard_normal(64, seed=11)
    assert np.all(sample_log_returns(init_rnmlp(seed=1), 0.0, z, 0.04) == 0.0)
    assert np.all(sample_log_returns(RnQParams(0.1, 0.2, 1.1, 1.1), 0.0, z, 0.04) == 0.0)

    const = sample_log_returns(RnQParams(mu=0.25, sigma=0.0, u=1.0, v=1.0), 0.5, z, 0.04)
    np.testing.assert_array_equal(const, np.full(64, 0.25))

    with pytest.raises(TypeError):
        sample_log_returns(object(), 0.5, z, 0.04)


def test_sample_log_returns_commutes_with_permutation():
    z = draw_standard_normal(256, seed=6)
    perm = np.random.Generator(np.random.Philox(1)).permutation(256)
    for model in (RnQParams(0.05, 0.3, 1.2, 1.4), init_rnmlp(seed=10), init_rndmlp(seed=10)):
        x = sample_log_returns(model, 0.8, z, 0.03)
        x_perm = sample_log_returns(model, 0.8, z.values[perm], 0.03)
        np.testing.assert_allclose(x_perm, x[perm], rtol=1e-12, atol=1e-15)


def test_dtau_log_returns_rnq_is_flat_rate():
    z = draw_standard_normal(32, seed=2)
    d = bind(RnQParams(0.1, 0.2, 1.3, 1.1), z).columns(0.5, 0.07)[1]
    np.testing.assert_array_equal(d, np.full(32, 0.07))


def test_bound_model_is_bit_identical_and_rebinds_on_other_draws():
    za = draw_standard_normal(512, seed=3)
    zb = draw_standard_normal(512, seed=4)
    for model in (RnQParams(0.05, 0.3, 1.2, 1.4), init_rnmlp(seed=12), init_rndmlp(seed=12)):
        bound = bind(model, za)
        assert bind(bound, za) is bound
        assert bind(bound, draw_standard_normal(512, seed=3)) is bound
        for tau in (0.0, 0.25, 1.0):
            np.testing.assert_array_equal(sample_log_returns(bound, tau, za, 0.03),
                                          sample_log_returns(model, tau, za, 0.03))
        np.testing.assert_array_equal(bind(bound, za).columns(0.5, 0.03)[1],
                                      bind(model, za).columns(0.5, 0.03)[1])
        # bound to draws A, asked about draws B: the unbound result on B
        rebound = bind(bound, zb)
        assert rebound is not bound and rebound.model is model
        np.testing.assert_array_equal(sample_log_returns(bound, 0.5, zb, 0.03),
                                      sample_log_returns(model, 0.5, zb, 0.03))
        np.testing.assert_array_equal(bind(bound, zb).columns(0.5, 0.03)[1],
                                      bind(model, zb).columns(0.5, 0.03)[1])

    # editing the caller's array after binding cannot leave G_Z stale
    model = init_rnmlp(seed=12)
    raw = za.values.copy()
    bound = bind(model, raw)
    raw[0] += 1.0
    np.testing.assert_array_equal(sample_log_returns(bound, 0.5, raw, 0.03),
                                  sample_log_returns(model, 0.5, raw, 0.03))


def test_mlp_variance_scale_bounded_near_zero_tau():
    # Var X / tau should stay bounded as tau -> 0 (X ~ sigma sqrt(tau) Z ...).
    p = init_rnmlp(seed=13)
    z = draw_standard_normal(20_000, seed=3)
    ratios = []
    for tau in (1e-1, 1e-2, 1e-3, 1e-4):
        x = sample_log_returns(p, tau, z.values, 0.04)
        ratios.append(np.var(x) / tau)
    ratios = np.array(ratios)
    assert np.all(ratios < 10.0 * ratios[0] + 1.0)
    assert np.all(np.isfinite(ratios))


def test_init_helpers_are_seeded_and_distinct():
    a = init_rnmlp(seed=20)
    b = init_rnmlp(seed=20)
    np.testing.assert_array_equal(a.net_z.weights[1], b.net_z.weights[1])
    assert not np.array_equal(a.net_z.weights[1], a.net_mu.weights[1])
    d = init_rndmlp(seed=20)
    assert d.alpha == 0.5
    assert not np.array_equal(d.comp1.net_z.weights[1], d.comp2.net_z.weights[1])


def test_checkpoint_roundtrip_is_bit_exact_for_all_kinds():
    z = draw_standard_normal(512, seed=9)
    mu = rnq_mu_from_constraint(0.2, 1.1, 1.3, 4.0, z, 0.04, 0.25)
    models = [
        RnQParams(mu, 0.2, 1.1, 1.3),
        init_rnmlp(seed=21, sigma=0.3),
        init_rndmlp(seed=22),
    ]
    for model in models:
        back = round_trip(model)
        assert type(back) is type(model)
        if isinstance(model, RnQParams):
            for name in ("mu", "sigma", "u", "v", "a_const"):
                assert getattr(back, name) == getattr(model, name)
        else:
            comps = ([(model, back)] if isinstance(model, RnMlpParams)
                     else [(model.comp1, back.comp1), (model.comp2, back.comp2)])
            for orig, copy in comps:
                assert copy.sigma == orig.sigma
                for net in ("net_mu", "net_z", "net_tau"):
                    for w0, w1 in zip(getattr(orig, net).weights,
                                      getattr(copy, net).weights):
                        np.testing.assert_array_equal(w1, w0)
                    for b0, b1 in zip(getattr(orig, net).biases,
                                      getattr(copy, net).biases):
                        np.testing.assert_array_equal(b1, b0)
    mixture = round_trip(models[2])
    assert mixture.alpha == models[2].alpha


def test_checkpoint_floats_carry_17_significant_digits():
    text = checkpoint_json(checkpoint_document(RnQParams(0.0, 0.2, 1.1, 1.3)))
    assert "0.20000000000000001" in text
    # integer-valued floats keep a decimal marker so json preserves the type
    assert '"a_const": 4.0' in text
    doc = json.loads(text)
    assert isinstance(doc["scalars"]["a_const"], float)
    assert doc["scalars"]["sigma"] == 0.2


def test_checkpoint_unknown_model_type_is_rejected():
    doc = checkpoint_document(RnQParams(0.0, 0.2, 1.1, 1.3))
    doc["model_type"] = "rn-cubist"
    with pytest.raises(ValueError, match="unsupported model"):
        model_from_checkpoint(doc)


def test_checkpoint_version_mismatch_is_rejected():
    doc = checkpoint_document(RnQParams(0.0, 0.2, 1.1, 1.3))
    doc["format_version"] = CHECKPOINT_VERSION + 1
    with pytest.raises(ValueError, match="format_version"):
        model_from_checkpoint(doc)


def test_pinned_dmlp_checkpoint_rewrites_byte_for_byte():
    # the benchmark's pinned rn-dmlp checkpoint, read and written again
    # through the parameter layout, context carried over
    path = Path(__file__).resolve().parent.parent / "perfbench" / "data" / \
        "rn-dmlp-left-skew.checkpoint.json"
    text = path.read_text(encoding="utf-8")
    doc = json.loads(text)
    again = checkpoint_document(model_from_checkpoint(doc))
    again["context"] = doc["context"]
    assert checkpoint_json(again) == text


_COMPONENT = ["sigma", "net_mu", "net_z", "net_tau"]


@pytest.mark.parametrize("model, names", [
    (RnQParams(0.01, 0.2, 1.1, 1.3), ["mu", "sigma", "u", "v", "a_const"]),
    (init_rnmlp(2, hidden=(3,)), _COMPONENT),
    (init_rndmlp(2, hidden=(3,)), ["alpha", *("comp1_" + n for n in _COMPONENT),
                                   *("comp2_" + n for n in _COMPONENT)]),
], ids=["rn-q", "rn-mlp", "rn-dmlp"])
def test_parameter_fields_are_the_checkpoint_keys_in_vector_order(model, names):
    # one layout: its names are the checkpoint's keys, and the flat vector
    # is its trained fields (all but rn-q's mu and a_const) in its order
    fields = parameter_fields(model)
    assert [name for name, _ in fields] == names
    doc = checkpoint_document(model)
    assert sorted(names) == sorted([*doc["scalars"], *doc["networks"]])
    trained = [value for name, value in fields if name not in ("mu", "a_const")]
    flat = np.concatenate([[v] if isinstance(v, float) else v.to_vector() for v in trained])
    assert parameter_vector(model).tobytes() == flat.tobytes()


def test_checkpoint_ignores_extra_fields():
    doc = checkpoint_document(init_rnmlp(seed=5))
    doc["context"] = {"spot": 1000.0, "note": "run metadata"}
    model = model_from_checkpoint(doc)
    assert isinstance(model, RnMlpParams)
