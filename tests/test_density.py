import dataclasses

import numpy as np
import pytest
from scipy.special import ndtri

import rndkit.density as density
from rndkit.density import (
    DensityEstimate,
    characteristics,
    price_density,
    pushforward_density,
    risk_neutral_moments,
    term_structure,
)
from rndkit.models import RnQParams, bind, init_rndmlp, zero_net_rnmlp
from rndkit.nn import DenseNetwork
from rndkit.sampling import draw_standard_normal

from oracles import norm_cdf, norm_pdf, rnq_terms_power_form, standardized_moments_expression_form


def gaussian_rnq(mu=0.01, scale=0.15):
    # u = v = 1 collapses the shape factor to the constant 1.5
    return RnQParams(mu=mu, sigma=scale / 1.5, u=1.0, v=1.0)


# ----------------------------------------------------------------------
# DensityEstimate


def test_density_estimate_validation():
    grid = np.linspace(-1.0, 1.0, 11)
    vals = np.ones(11)
    DensityEstimate(grid, vals, "log-return")
    with pytest.raises(ValueError):
        DensityEstimate(grid, -vals, "log-return")
    with pytest.raises(ValueError):
        DensityEstimate(grid[::-1], vals, "log-return")
    with pytest.raises(ValueError):
        DensityEstimate(grid, vals[:5], "log-return")
    with pytest.raises(ValueError):
        DensityEstimate(grid, vals, "strike")


# ----------------------------------------------------------------------
# the pushforward density against exact references


def test_pushforward_zero_net_rnmlp_is_the_normal_pdf():
    # all-zero networks give X = sigma sqrt(tau) Z exactly
    z = draw_standard_normal(60_000, seed=12)
    scale = 0.2 * np.sqrt(0.25)
    grid = np.linspace(scale * z.values.min(), scale * z.values.max(), 1001)
    est = pushforward_density(zero_net_rnmlp(sigma=0.2), 0.25, z, grid, 0.03)
    exact = np.array([norm_pdf(x / scale) / scale for x in grid])
    assert est.variable_kind == "log-return"
    assert np.max(np.abs(est.values - exact)) < 1e-5 * exact.max()


def test_pushforward_rnq_matches_the_closed_form():
    # a skewed rn-q: X = mu + sigma z (u^z/a + v^-z/a + 1) rises in z, so
    # each x has one root, found by bisection, and the density there is
    # phi(z) / X'(z) with X' = sigma (shape + z (ln u u^z - ln v v^-z) / a)
    p = RnQParams(mu=-0.01, sigma=0.12, u=1.6, v=1.05)
    z = draw_standard_normal(60_000, seed=13)
    lo, hi = z.values.min(), z.values.max()
    x_of = lambda w: p.mu + rnq_terms_power_form(p, w)[3]
    grid = np.linspace(x_of(lo), x_of(hi), 1001)
    below, above = np.full(grid.size, lo), np.full(grid.size, hi)
    for _ in range(80):
        mid = 0.5 * (below + above)
        rises = x_of(mid) < grid
        below, above = np.where(rises, mid, below), np.where(rises, above, mid)
    root = 0.5 * (below + above)
    uz, vz, shape, _ = rnq_terms_power_form(p, root)
    slope = p.sigma * (shape + root * (np.log(p.u) * uz - np.log(p.v) * vz) / p.a_const)
    assert np.all(slope > 0.0)
    exact = np.array([norm_pdf(w) for w in root]) / slope
    est = pushforward_density(p, 0.25, z, grid, 0.03)
    assert np.max(np.abs(est.values - exact)) < 1e-5 * exact.max()


def test_pushforward_sums_the_branches_of_a_folding_x():
    # G_Z(z) = -softplus(z - 1) / 2 makes X = z (1 + G_Z) rise to a fold
    # near z = 1.56 and fall again, so most x have two preimages.  The
    # histogram reads X at 1e7 midpoint normal quantiles, which leave no
    # sampling noise; the density is averaged over the same bins.  The bin
    # holding the fold's extreme value, where the density is unbounded, is
    # left out.
    model = dataclasses.replace(zero_net_rnmlp(sigma=1.0), net_z=DenseNetwork(
        [1, 1, 1], [[[1.0]], [[-0.5]]], [[-1.0], [0.0]]))
    n, chunk, bins = 10_000_000, 1_000_000, 60
    ends = ndtri(np.array([0.5, n - 0.5]) / n)
    x_ends = bind(model, np.linspace(*ends, 20_001)).log_returns(1.0, 0.0)
    edges = np.linspace(x_ends.min(), x_ends.max(), bins + 1)
    counts = np.zeros(bins)
    for start in range(0, n, chunk):
        z = ndtri((np.arange(start, start + chunk) + 0.5) / n)
        counts += np.histogram(bind(model, z).log_returns(1.0, 0.0), edges)[0]
    width = edges[1] - edges[0]
    histogram = counts / (n * width)
    per_bin = 50
    fine = np.linspace(edges[0], edges[-1], bins * per_bin + 1)
    est = pushforward_density(model, 1.0, ends, fine, 0.0)
    mass = np.concatenate(([0.0], np.cumsum(np.diff(fine) * 0.5 * (est.values[1:] + est.values[:-1]))))
    average = np.diff(mass[::per_bin]) / width
    fold = min(np.searchsorted(edges, x_ends.max(), "right") - 1, bins - 1)
    off_fold = np.arange(bins) != fold
    # both branches fall from the fold's extreme over more than 5 units of x
    assert max(x_ends[0], x_ends[-1]) < x_ends.max() - 5.0
    gap = np.abs(average - histogram)[off_fold]
    assert gap.max() < 5e-5 * histogram.max()


def test_pushforward_integral_is_the_normal_mass_of_the_pool_range():
    # a small pool leaves a visible tail mass out of its Z range
    model = init_rndmlp(seed=5)
    z = draw_standard_normal(2_000, seed=14)
    x = bind(model, z).log_returns(0.5, 0.03)
    grid = np.linspace(x.min(), x.max(), 2001)
    est = pushforward_density(model, 0.5, z, grid, 0.03)
    inside = norm_cdf(z.values.max()) - norm_cdf(z.values.min())
    assert inside < 1.0 - 1e-4
    assert est.integral() == pytest.approx(inside, abs=1e-5)


def test_pushforward_validation():
    z = draw_standard_normal(1_000, seed=15)
    grid = np.linspace(-1, 1, 51)
    with pytest.raises(ValueError, match="tau must be positive"):
        pushforward_density(gaussian_rnq(), 0.0, z, grid)
    with pytest.raises(ValueError, match="strictly increasing"):
        pushforward_density(gaussian_rnq(), 0.25, z, grid[::-1])
    with pytest.raises(ValueError, match="degenerate pool"):
        pushforward_density(gaussian_rnq(), 0.25, z.values[:1], grid)
    degenerate = RnQParams(mu=0.01, sigma=0.0, u=1.1, v=1.1)
    with pytest.raises(ValueError, match="zero-range X"):
        pushforward_density(degenerate, 0.25, z, grid)


# ----------------------------------------------------------------------
# price density


def exact_normal_estimate(mean, sd, n=501, span=6.0):
    grid = np.linspace(mean - span * sd, mean + span * sd, n)
    vals = np.array([norm_pdf((x - mean) / sd) / sd for x in grid])
    return DensityEstimate(grid, vals, "log-return")


def test_price_density_matches_lognormal():
    spot = 100.0
    est = exact_normal_estimate(0.02, 0.2)
    f = price_density(est, spot)
    assert f.variable_kind == "terminal-price"
    s = f.grid
    exact = np.array([norm_pdf((np.log(si / spot) - 0.02) / 0.2) / (0.2 * si) for si in s])
    assert np.max(np.abs(f.values - exact)) < 1e-12 * exact.max()


def test_price_density_preserves_mass():
    est = exact_normal_estimate(0.0, 0.15, n=2001, span=8.0)
    f = price_density(est, 50.0)
    assert f.integral() == pytest.approx(est.integral(), rel=5e-3)


def test_price_density_mode_shift():
    est = exact_normal_estimate(0.0, 0.25, n=4001)
    f = price_density(est, 100.0)
    mode_f = f.grid[np.argmax(f.values)]
    assert mode_f < 100.0 * np.exp(est.grid[np.argmax(est.values)])


def test_price_density_rejects_wrong_kind():
    est = exact_normal_estimate(0.0, 0.2)
    f = price_density(est, 100.0)
    with pytest.raises(ValueError):
        price_density(f, 100.0)


# ----------------------------------------------------------------------
# characteristics


def test_characteristics_standard_normal():
    z = draw_standard_normal(1_000_000, seed=16)
    c = characteristics(z)
    assert abs(c.mean) < 0.005
    assert c.std == pytest.approx(1.0, abs=0.01)
    assert abs(c.skewness) < 0.02
    assert c.kurtosis == pytest.approx(3.0, abs=0.05)
    assert abs(c.skew_pm) < 0.01
    assert c.skew_am == pytest.approx(1.0, abs=0.02)
    # quantiles of the standard normal
    assert c.x01 == pytest.approx(-2.3263, abs=0.03)
    assert c.x05 == pytest.approx(-1.6449, abs=0.02)
    assert c.x95 == pytest.approx(1.6449, abs=0.02)
    assert c.x99 == pytest.approx(2.3263, abs=0.03)
    assert c.x01 <= c.x05 <= c.x95 <= c.x99


def test_characteristics_symmetric_sample_exact():
    # the interleaved sample (z1, -z1, z2, -z2, ...)
    base = draw_standard_normal(50_000, seed=17).values
    z = np.empty(100_000)
    z[0::2], z[1::2] = base, -base
    c = characteristics(z)
    assert c.mean == 0.0
    assert c.skew_pm == 0.0
    assert c.skew_am == pytest.approx(1.0, abs=1e-15)
    assert abs(c.skewness) < 1e-15


def test_characteristics_affine_invariance():
    x = np.asarray(draw_standard_normal(50_000, seed=18).values) ** 2  # something skewed
    a, b = 2.5, -0.7
    c0 = characteristics(x)
    c1 = characteristics(a * x + b)
    assert c1.skewness == pytest.approx(c0.skewness, abs=1e-12)
    assert c1.kurtosis == pytest.approx(c0.kurtosis, abs=1e-10)
    assert c1.skew_pm == pytest.approx(c0.skew_pm, abs=1e-12)
    assert c1.skew_am == pytest.approx(c0.skew_am, abs=1e-12)
    assert c1.mean == pytest.approx(a * c0.mean + b, rel=1e-12, abs=1e-12)
    assert c1.std == pytest.approx(a * c0.std, rel=1e-12)
    assert c1.x05 == pytest.approx(a * c0.x05 + b, rel=1e-12)


def test_characteristics_permutation_invariant():
    rng = np.random.Generator(np.random.Philox(5))
    x = rng.standard_normal(10_000) * 2.0 + 0.3
    perm = rng.permutation(x)
    c0, c1 = characteristics(x), characteristics(perm)
    for name in ("mean", "std", "skewness", "kurtosis", "skew_pm", "skew_am"):
        assert getattr(c0, name) == pytest.approx(getattr(c1, name), rel=1e-11)
    for name in ("x01", "x05", "x95", "x99"):
        assert getattr(c0, name) == getattr(c1, name)


@pytest.mark.parametrize("n", [100, 101, 103, 997, 4096, 60_001])
def test_characteristic_quantiles_are_numpys_median_unbiased(n):
    # the port reproduces np.quantile's type-8 values bit for bit, on
    # samples with and without ties
    rng = np.random.Generator(np.random.Philox(n))
    levels = density.CHARACTERISTIC_LEVELS
    for x in (rng.normal(size=n), np.round(rng.normal(size=n), 1),
              rng.integers(0, 4, size=n).astype(float)):
        want = np.quantile(x, levels, method="median_unbiased")
        assert density._median_unbiased_quantiles(x, levels).tobytes() == want.tobytes()


def test_characteristics_errors():
    with pytest.raises(ValueError):
        characteristics(np.zeros(50))
    with pytest.raises(ValueError):
        characteristics(np.zeros(500))


# ----------------------------------------------------------------------
# risk-neutral moments and the term structure


def test_standardized_moments_formed_in_place_keep_the_expression_bits():
    rng = np.random.Generator(np.random.Philox(23))
    z = draw_standard_normal(50_000, seed=23).values
    for x in (z, 0.3 * z - 7.0, np.exp(0.8 * z), rng.standard_t(3, size=4097)):
        want = standardized_moments_expression_form(x)
        got = density._standardized_moments(x)
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_moments_zero_net_gaussian():
    model = zero_net_rnmlp(sigma=0.2)
    z = draw_standard_normal(1_000_000, seed=20)
    rnm2, rnm3, rnm4 = risk_neutral_moments(model, 0.25, z)
    assert rnm2 == pytest.approx(0.2 * 0.5, rel=0.01)
    assert abs(rnm3) < 0.02
    assert rnm4 == pytest.approx(3.0, abs=0.05)


def test_moments_sqrt_tau_scaling():
    model = zero_net_rnmlp(sigma=0.2)
    z = draw_standard_normal(100_000, seed=21)
    rnm2_1, _, _ = risk_neutral_moments(model, 0.1, z)
    rnm2_4, _, _ = risk_neutral_moments(model, 0.4, z)
    assert rnm2_4 / rnm2_1 == pytest.approx(2.0, rel=1e-12)


def test_moments_match_characteristics_std():
    model = zero_net_rnmlp(sigma=0.3)
    z = draw_standard_normal(50_000, seed=22)
    rnm2, rnm3, rnm4 = risk_neutral_moments(model, 0.5, z)
    c = characteristics(bind(model, z).log_returns(0.5, 0.0))
    assert rnm2 == c.std
    assert rnm3 == c.skewness
    assert rnm4 == c.kurtosis


def test_term_structure_shape_and_behavior():
    model = zero_net_rnmlp(sigma=0.2)
    z = draw_standard_normal(200_000, seed=23)
    taus = np.array([7.0, 30.0, 91.0, 182.0, 365.0]) / 365.0
    table = term_structure(model, taus, z, lambda tau: 0.0)
    assert table.shape == (5, 4)
    np.testing.assert_array_equal(table[:, 0], taus)
    assert np.all(np.diff(table[:, 1]) > 0)  # RNM2 grows in tau
    assert np.all(np.abs(table[:, 2]) < 0.02)
    np.testing.assert_allclose(table[:, 3], 3.0, atol=0.05)

    single = term_structure(model, [0.25], z, lambda tau: 0.0)
    assert single.shape == (1, 4)


def test_density_bound_model_is_bit_identical():
    model = init_rndmlp(seed=5)
    z = draw_standard_normal(20_000, seed=25)
    other = draw_standard_normal(20_000, seed=26)
    grid = np.linspace(-1.0, 1.0, 101)
    rate_fn = lambda tau: 0.02 + 0.01 * tau
    want = pushforward_density(model, 0.5, z, grid, 0.03)
    for bound in (bind(model, z), bind(model, other)):
        got = pushforward_density(bound, 0.5, z, grid, 0.03)
        np.testing.assert_array_equal(got.values, want.values)
        assert risk_neutral_moments(bound, 0.5, z, 0.03) == \
            risk_neutral_moments(model, 0.5, z, 0.03)
        np.testing.assert_array_equal(term_structure(bound, [0.1, 0.5], z, rate_fn),
                                      term_structure(model, [0.1, 0.5], z, rate_fn))
    # each maturity's moments are read at that maturity's rate
    for tau, *moments in term_structure(model, [0.1, 0.5], z, rate_fn):
        assert tuple(moments) == risk_neutral_moments(model, tau, z, rate_fn(tau))


def test_term_structure_validation():
    model = zero_net_rnmlp()
    z = draw_standard_normal(1_000, seed=24)
    with pytest.raises(ValueError):
        term_structure(model, [], z, lambda tau: 0.0)
    with pytest.raises(ValueError):
        term_structure(model, [0.5, 0.25], z, lambda tau: 0.0)
    with pytest.raises(ValueError):
        term_structure(model, [-0.1, 0.25], z, lambda tau: 0.0)
    with pytest.raises(ValueError):
        risk_neutral_moments(model, 0.0, z)
