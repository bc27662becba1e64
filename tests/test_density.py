import tracemalloc

import numpy as np
import pytest

import rndkit.density as density
from rndkit.density import (
    DensityEstimate,
    characteristics,
    kde_log_return,
    price_density,
    risk_neutral_moments,
    subsample,
    term_structure,
)
from rndkit.models import RnQParams, bind, init_rndmlp, zero_net_rnmlp
from rndkit.sampling import draw_standard_normal

from oracles import kernel_values_dense, norm_pdf


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


def test_subsample_stride():
    x = np.arange(1_000_000)
    sub = subsample(x)
    assert sub.size == 10_000
    assert sub[0] == 0 and sub[1] == 100
    small = np.arange(50)
    assert subsample(small) is small


# ----------------------------------------------------------------------
# KDE against the exact normal density


def test_kde_recovers_normal():
    model = gaussian_rnq(mu=0.01, scale=0.15)
    z = draw_standard_normal(1_000_000, seed=12)
    grid = np.linspace(0.01 - 5 * 0.15, 0.01 + 5 * 0.15, 401)
    # default subsample: plot accuracy (noise floor is ~2-5% of peak at m=1e4)
    est = kde_log_return(model, 0.25, z, grid)
    exact = np.array([norm_pdf((x - 0.01) / 0.15) / 0.15 for x in grid])
    peak = exact.max()
    assert np.max(np.abs(est.values - exact)) < 0.06 * peak
    assert est.bandwidth == pytest.approx(1.06 * 0.15 * 10_000 ** -0.2, rel=0.05)
    # full sample: tight accuracy
    full = kde_log_return(model, 0.25, z, grid, subsample_size=None)
    assert np.max(np.abs(full.values - exact)) < 0.02 * peak


def test_kde_integral_near_one():
    model = gaussian_rnq()
    z = draw_standard_normal(200_000, seed=13)
    grid = np.linspace(0.01 - 8 * 0.15, 0.01 + 8 * 0.15, 601)
    est = kde_log_return(model, 0.5, z, grid)
    assert 0.99 <= est.integral() <= 1.01


def test_kde_shift_moves_mode():
    z = draw_standard_normal(100_000, seed=14)
    grid = np.linspace(-1.0, 1.0, 801)
    cell = grid[1] - grid[0]
    base = kde_log_return(gaussian_rnq(mu=0.0), 0.25, z, grid)
    shifted = kde_log_return(gaussian_rnq(mu=0.2), 0.25, z, grid)
    mode_gap = grid[np.argmax(shifted.values)] - grid[np.argmax(base.values)]
    assert abs(mode_gap - 0.2) <= cell + 1e-12


def test_kernel_values_blocked_equal_dense_arrays():
    # a partial last block along both the draws and the grid
    x = 0.2 * np.random.default_rng(5).standard_normal(70_000)
    grid = np.linspace(-1.0, 1.0, 19)
    assert x.size > density.X_BLOCK and grid.size % density.GRID_BLOCK != 0
    bandwidth = 0.013
    got = density._kernel_values(x, grid, bandwidth)
    want = kernel_values_dense(x, grid, bandwidth, density.X_BLOCK)
    assert got.tobytes() == want.tobytes()


def test_kde_full_sample_memory_is_bounded_by_the_blocks():
    # one 64 x 6e4 float work array alone would take 31 MB
    z = draw_standard_normal(60_000, 3)
    grid = np.linspace(-1.0, 1.0, 1001)
    tracemalloc.start()
    try:
        kde_log_return(gaussian_rnq(), 0.5, z, grid, subsample_size=None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_kde_validation():
    z = draw_standard_normal(1_000, seed=15)
    grid = np.linspace(-1, 1, 51)
    with pytest.raises(ValueError):
        kde_log_return(gaussian_rnq(), 0.0, z, grid)
    with pytest.raises(ValueError):
        kde_log_return(gaussian_rnq(), 0.25, z, grid[::-1])
    degenerate = RnQParams(mu=0.01, sigma=0.0, u=1.1, v=1.1)
    with pytest.raises(ValueError, match="zero variance"):
        kde_log_return(degenerate, 0.25, z, grid)


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


def test_characteristics_vector_order():
    z = draw_standard_normal(1_000, seed=19)
    c = characteristics(z)
    vec = c.to_vector()
    assert vec.shape == (10,)
    assert vec[0] == c.mean and vec[1] == c.std and vec[9] == c.x99
    payload = c.to_jsonable()
    assert list(payload) == list(c.FIELD_ORDER)


# ----------------------------------------------------------------------
# risk-neutral moments and the term structure


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
    from rndkit.models import sample_log_returns

    c = characteristics(sample_log_returns(model, 0.5, z, 0.0))
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
    want = kde_log_return(model, 0.5, z, grid, 0.03)
    for bound in (bind(model, z), bind(model, other)):
        got = kde_log_return(bound, 0.5, z, grid, 0.03)
        np.testing.assert_array_equal(got.values, want.values)
        assert got.bandwidth == want.bandwidth
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
