import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from rndkit.nn import (
    FIRST_KNOTS,
    DenseNetwork,
    KnotLattice,
    KnotPass,
    Scratch,
    _EXP_MAX,
    _product,
    _softplus_and_sigmoid,
    init_network,
    softplus,
    softplus_prime,
    stack_caches,
)
from rndkit.models import model_from_checkpoint
from rndkit.sampling import draw_standard_normal

from oracles import (
    BLOCK_ROWS,
    backward_params,
    block_bounds,
    blocked_param_gradient,
    blocked_values,
    forward,
    input_gradient,
    softplus_and_sigmoid_max_form,
    softplus_double_prime,
)


def straight_line_forward(net, x):
    # Independent re-implementation: explicit loops, no shared code path.
    a = [float(v) for v in np.atleast_1d(x)]
    for l in range(len(net.weights)):
        w, b = net.weights[l], net.biases[l]
        out = []
        for i in range(w.shape[0]):
            s = b[i]
            for j in range(w.shape[1]):
                s += w[i, j] * a[j]
            out.append(s)
        if l < len(net.weights) - 1:
            a = [np.log1p(np.exp(-abs(s))) + max(s, 0.0) for s in out]
        else:
            a = out
    return np.array(a)


def test_softplus_values():
    assert softplus(0.0) == pytest.approx(np.log(2.0), abs=1e-15)
    assert softplus(100.0) == pytest.approx(100.0, abs=1e-12)
    assert softplus(-100.0) == pytest.approx(np.exp(-100.0), rel=1e-12)
    x = np.linspace(-20, 20, 401)
    y = softplus(x)
    assert np.all(np.diff(y) > 0)
    assert np.all(y > np.maximum(x, 0.0))
    big = np.array([-750.0, 40.0, 750.0])
    assert np.all(np.isfinite(softplus(big)))
    assert np.all(softplus(big) >= np.maximum(big, 0.0))


def test_softplus_derivatives_match_fd():
    x = np.linspace(-8, 8, 33)
    h = 1e-6
    fd1 = (softplus(x + h) - softplus(x - h)) / (2 * h)
    fd2 = (softplus_prime(x + h) - softplus_prime(x - h)) / (2 * h)
    np.testing.assert_allclose(softplus_prime(x), fd1, rtol=1e-8, atol=1e-10)
    np.testing.assert_allclose(softplus_double_prime(x), fd2, rtol=1e-7, atol=1e-10)


def test_softplus_prime_equals_scipy_expit_bit_for_bit():
    x = np.concatenate([np.linspace(-40.0, 40.0, 80_001), np.linspace(-800.0, 800.0, 1601),
                        [708.0, 709.8, 710.0, 1e300, np.inf, 0.0, 5e-324]])
    x = np.concatenate([x, -x])
    assert softplus_prime(x).tobytes() == expit(x).tobytes()
    assert softplus_prime(x.reshape(2, -1)).shape == (2, x.size // 2)
    assert softplus_prime(-745.0) == 0.0 and isinstance(softplus_prime(1.5), float)


def _activation(h):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _softplus_and_sigmoid(np.array(h, dtype=float))


def test_one_exp_activation_matches_the_max_form_within_4_ulp():
    # a dense grid over [-800, 800] with +-0, the exp underflow near -745
    # and both sides of the overflow limit ln(DBL_MAX) = 709.78...
    special = [0.0, -0.0, -745.13, -745.14, -708.4, -709.0, 709.78, 709.79,
               _EXP_MAX, np.nextafter(_EXP_MAX, 0.0), np.nextafter(_EXP_MAX, 800.0)]
    grid = np.concatenate([np.linspace(-800.0, 800.0, 400_001), special,
                           np.linspace(-40.0, 40.0, 80_001)])
    # the part exp can take runs as one block through the one-exp form,
    # the rest as a block that falls back to the max form
    low = grid[grid <= _EXP_MAX]
    high = grid[grid > _EXP_MAX]
    for part in (low, high):
        sp, sig = _activation(part)
        ref_sp, ref_sig = softplus_and_sigmoid_max_form(part)
        for got, ref in ((sp, ref_sp), (sig, ref_sig)):
            keep = ref >= 1e-300
            np.testing.assert_allclose(got[keep], ref[keep], rtol=4 * np.finfo(float).eps,
                                       atol=0.0)
            assert np.all(got[~keep] <= 1e-300) and np.all(got >= 0.0)
    assert high.size and high.min() > _EXP_MAX and np.exp(low.max()) < np.inf


def test_a_block_that_would_overflow_exp_gives_the_max_form_bits():
    rng = np.random.Generator(np.random.Philox(5))
    for big in (np.nextafter(_EXP_MAX, 800.0), 709.79, 800.0, 1e300, np.inf):
        h = rng.normal(scale=30.0, size=(64, 8))
        h[17, 3] = big
        sp, sig = _activation(h)
        ref_sp, ref_sig = softplus_and_sigmoid_max_form(h)
        assert sp.tobytes() == ref_sp.tobytes() and sig.tobytes() == ref_sig.tobytes()


def test_one_wide_products_equal_matmul_bit_for_bit():
    # net_z's 1-wide first layer and the backward pass through its 1-wide
    # output, at full-block, tail and few-row sizes
    rng = np.random.Generator(np.random.Philox(6))
    w = rng.normal(size=(32, 1))
    for n in (BLOCK_ROWS, BLOCK_ROWS // 2, BLOCK_ROWS // 2 + 37, BLOCK_ROWS + 1, 5, 1):
        a = 3.0 * rng.normal(size=(n, 1))
        for b in (w.T, rng.normal(size=(1, 32))):
            want = np.matmul(a, b)
            assert _product(a, b).tobytes() == want.tobytes()
            out = np.empty((BLOCK_ROWS + 1, 32))[:n]
            assert _product(a, b, out=out) is out and out.tobytes() == want.tobytes()


def test_forward_zero_parameters():
    # Zero weights and biases: hidden layers emit softplus(0) = ln 2, the
    # linear output stays 0.
    net = DenseNetwork(
        [1, 3, 1],
        [np.zeros((3, 1)), np.zeros((1, 3))],
        [np.zeros(3), np.zeros(1)],
    )
    assert net.scalar_batch(np.array([1.7]))[0][0] == 0.0


def test_forward_single_linear_layer():
    net = DenseNetwork([1, 1], [np.array([[2.5]])], [np.array([-1.0])])
    assert net.scalar_batch(np.array([2.0]))[0][0] == pytest.approx(4.0, abs=1e-15)


def test_forward_matches_straight_line_reimplementation():
    # the package's scalar pass, and the layer-by-layer oracle the other
    # tests use as a reference on a vector-valued net
    rng = np.random.Generator(np.random.Philox(11))
    scalar = init_network([1, 3, 3, 1], seed=5)
    xs = rng.normal(size=5)
    got = scalar.scalar_batch(xs)[0]
    want = np.array([straight_line_forward(scalar, x)[0] for x in xs])
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-14)
    net = init_network([2, 3, 3, 2], seed=5)
    for _ in range(5):
        x = rng.normal(size=2)
        np.testing.assert_allclose(forward(net, x), straight_line_forward(net, x),
                                   rtol=1e-13, atol=1e-14)


def test_scalar_batch_without_cache_gives_the_same_bits():
    net = init_network([1, 32, 32, 1], seed=3)
    xs = np.linspace(-3, 3, 17)
    vals, slopes, cache = net.scalar_batch(xs, want_slope=True)
    bare_vals, bare_slopes, bare_cache = net.scalar_batch(xs, want_slope=True,
                                                          keep_cache=False)
    assert bare_cache is None
    assert vals.tobytes() == bare_vals.tobytes()
    assert slopes.tobytes() == bare_slopes.tobytes()
    values_only, none = net.scalar_batch(xs, keep_cache=False)
    assert none is None and values_only.tobytes() == vals.tobytes()


def _sharp_net():
    # net_z-shaped, with first-layer weights large enough that some h
    # exceeds ln(DBL_MAX) = 709.78 on [-3, 3], so a pass takes the max form
    net = init_network([1, 32, 32, 1], seed=3)
    net.weights[0] = 1000.0 * net.weights[0]
    return net


@pytest.mark.parametrize("make_net", [lambda: init_network([1, 32, 32, 1], seed=3), _sharp_net],
                         ids=["one-exp form", "max form"])
def test_a_pass_without_cache_holds_only_the_sigmoids_it_reads(make_net):
    # values alone form no sigmoid; values and slopes write every layer's
    # sigmoid into one buffer; both keep the cached pass's bits
    net = make_net()
    xs = np.linspace(-3, 3, 257)
    vals, slopes, _ = net.scalar_batch(xs, want_slope=True)
    h = xs[:, None] @ net.weights[0].T + net.biases[0]
    assert (h.max() > _EXP_MAX) == (make_net is _sharp_net)

    scratch = Scratch()
    values_only, none = net.scalar_batch(xs, keep_cache=False, scratch=scratch)
    assert none is None and values_only.tobytes() == vals.tobytes()
    assert not [key for key in scratch._buffers if key[0] == "sig"]

    scratch = Scratch()
    bare_vals, bare_slopes, none = net.scalar_batch(xs, want_slope=True, keep_cache=False,
                                                    scratch=scratch)
    assert none is None
    assert bare_vals.tobytes() == vals.tobytes() and bare_slopes.tobytes() == slopes.tobytes()
    assert [key for key in scratch._buffers if key[0] == "sig"] == [("sig", 0)]


BLOCKED_SIZES = (1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 17)

# Run in a child with one BLAS thread: a multi-threaded BLAS splits one
# large product's rows between its threads at offsets of its own choosing,
# which moves the whole-array reference's last bits with the thread count.
# perfbench pins its workloads to one BLAS thread the same way.
_BLOCKED_VALUES_CHECK = """
import numpy as np
from oracles import blocked_values
from rndkit.nn import init_network
sizes = {sizes!r}
for dims in ([1, 32, 32, 1], [1, 4, 1], [1, 5, 7, 1]):
    net = init_network(dims, seed=3)
    rng = np.random.Generator(np.random.Philox(7))
    for n in sizes:
        x = 2.0 * rng.normal(size=n)
        whole = net.scalar_batch(x, keep_cache=False)[0]
        assert blocked_values(net, x).tobytes() == whole.tobytes(), (dims, n)
print("ok")
"""


def test_blocks_cover_the_rows_at_aligned_starts():
    half = BLOCK_ROWS // 2
    for n in (*BLOCKED_SIZES, BLOCK_ROWS + half - 1, BLOCK_ROWS + half, 7 * BLOCK_ROWS - 1):
        bounds = block_bounds(n)
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        for lo, hi in bounds:
            assert lo % half == 0
            assert min(n, half) <= hi - lo <= BLOCK_ROWS, (n, lo, hi)


def test_blocked_values_equal_one_whole_array_pass():
    # the exact reference the knot lattice is measured against
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", _BLOCKED_VALUES_CHECK.format(sizes=BLOCKED_SIZES)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0 and run.stdout.strip() == "ok", run.stderr


# draws for the knot-lattice tests: 2e4 takes 1024 uniform knots (up to
# N / 8), 2000 the sorted draws
KNOT_SIZES = (1, 2, 2000, 20_000)
PINNED = Path(__file__).resolve().parent.parent / "perfbench" / "data" / \
    "rn-dmlp-left-skew.checkpoint.json"


def test_lattice_reads_its_knots_exactly_and_cubics_to_rounding():
    rng = np.random.Generator(np.random.Philox(12))
    knots = np.sort(rng.normal(size=40))
    y, s = rng.normal(size=40), rng.normal(size=40)
    x = np.concatenate([knots, rng.uniform(knots[0], knots[-1], size=500)])
    lattice = KnotLattice(x, knots)
    got = lattice.values(y, s)
    assert got[:40].tobytes() == y.tobytes()
    # on each interval the interpolant is the cubic with those end values and slopes
    i = np.searchsorted(knots, x[40:], side="right") - 1
    h = knots[i + 1] - knots[i]
    t = (x[40:] - knots[i]) / h
    want = ((2 * t**3 - 3 * t**2 + 1) * y[i] + (t**3 - 2 * t**2 + t) * h * s[i]
            + (-2 * t**3 + 3 * t**2) * y[i + 1] + (t**3 - t**2) * h * s[i + 1])
    np.testing.assert_allclose(got[40:], want, rtol=1e-13, atol=1e-14)
    # the adjoint is the transpose of the linear map (y, s) -> G(x)
    w = rng.normal(size=x.size)
    wy, ws = lattice.adjoint(w)
    basis = np.eye(40)
    cols_y = np.array([lattice.values(e, np.zeros(40)) for e in basis]).T
    cols_s = np.array([lattice.values(np.zeros(40), e) for e in basis]).T
    np.testing.assert_allclose(wy, w @ cols_y, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(ws, w @ cols_s, rtol=1e-12, atol=1e-12)


def test_lattice_on_sorted_and_shuffled_inputs_agree_bit_for_bit():
    # the lattice works on its inputs in ascending order: x itself when it
    # is sorted (ties included), else x's stable sort, whose order it keeps.
    # A permutation of distinct inputs then permutes the values and keeps
    # the adjoint's bits, and the intervals no input falls in (uniform
    # knots denser than the tails) add nothing to the adjoint
    rng = np.random.Generator(np.random.Philox(13))
    x = np.sort(rng.normal(size=3000))
    knots = np.linspace(x[0], x[-1], 1024)
    y, s, w = rng.normal(size=1024), rng.normal(size=1024), rng.normal(size=x.size)
    perm = rng.permutation(x.size)
    ascending, shuffled = KnotLattice(x, knots), KnotLattice(x[perm], knots)
    assert ascending.values(y, s)[perm].tobytes() == shuffled.values(y, s).tobytes()
    for got, want in zip(shuffled.adjoint(w[perm]), ascending.adjoint(w)):
        assert got.tobytes() == want.tobytes()
    tied = np.sort(np.concatenate([x, x[::7]]))
    assert np.sum(np.diff(np.searchsorted(tied, knots), append=tied.size) == 0) > 100
    lattice, w = KnotLattice(tied, knots), rng.normal(size=tied.size)
    basis = np.eye(1024)
    cols_y = np.array([lattice.values(e, np.zeros(1024)) for e in basis]).T
    cols_s = np.array([lattice.values(np.zeros(1024), e) for e in basis]).T
    wy, ws = lattice.adjoint(w)
    np.testing.assert_allclose(wy, w @ cols_y, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(ws, w @ cols_s, rtol=1e-12, atol=1e-12)


def test_knot_pass_takes_uniform_knots_from_1024_up_to_an_eighth_of_the_draws():
    net = init_network([1, 32, 32, 1], seed=3)
    for n in KNOT_SIZES:
        x = draw_standard_normal(n, 5).values
        got = KnotPass(net, x, {})
        want = FIRST_KNOTS if n >= 8 * FIRST_KNOTS else np.unique(x).size
        assert got.lattice.knots.size == want, n
        assert got.lattice.knots[0] == x.min() and got.lattice.knots[-1] == x.max()
        ref = blocked_values(net, x)
        np.testing.assert_allclose(got.values, ref, rtol=0.0, atol=1e-13 * np.abs(ref).max())
    # the benchmark's pinned checkpoint, a trained fit: both net_z's pass
    # the midpoint check at the first lattice
    pinned = model_from_checkpoint(json.loads(PINNED.read_text()))
    x = draw_standard_normal(20_000, 5).values
    for comp in (pinned.comp1, pinned.comp2):
        got = KnotPass(comp.net_z, x, {})
        assert got.lattice.knots.size == FIRST_KNOTS == 1024
        ref = blocked_values(comp.net_z, x)
        np.testing.assert_allclose(got.values, ref, rtol=0.0, atol=1e-13 * np.abs(ref).max())


def test_a_sharp_network_takes_the_sorted_draws_and_reads_the_network_there():
    # weights x 50 make the net too sharp for 1024 and 2048 knots, the
    # uniform counts at N = 2e4: its knots are then the draws, and G_Z is
    # the network's own value at every draw, bit for bit
    base = init_network([1, 32, 32, 1], seed=3)
    sharp = DenseNetwork(base.layer_dims, [50.0 * w for w in base.weights], base.biases)
    x = draw_standard_normal(20_000, 5).values
    smooth = KnotPass(base, x, {})
    got = KnotPass(sharp, x, {})
    assert smooth.lattice.knots.size == FIRST_KNOTS
    assert got.lattice.knots.tobytes() == np.sort(x).tobytes()
    order = np.argsort(x)
    want = np.empty_like(x)
    want[order] = sharp.scalar_batch(x[order], keep_cache=False)[0]
    assert got.values.tobytes() == want.tobytes()


def test_knot_pass_gradient_matches_whole_array_without_n_row_arrays():
    # the exact gradient of the interpolant, within 1e-12 of the network's
    # own over every draw; nothing N rows by the hidden width is allocated
    net = init_network([1, 32, 32, 1], seed=3)
    rng = np.random.Generator(np.random.Philox(8))
    for n in KNOT_SIZES:
        x = draw_standard_normal(n, 6).values
        w = rng.normal(size=n)
        want = blocked_param_gradient(net, x, w).to_vector()
        got = KnotPass(net, x, {}, key=0).param_gradient(w).to_vector()
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), n
    n = 100 * BLOCK_ROWS
    x, w = rng.normal(size=n), rng.normal(size=n)
    lattices = {}
    KnotPass(net, x, lattices)  # the lattice a fit keeps
    tracemalloc.start()
    try:
        KnotPass(net, x, lattices, key=0).param_gradient(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # G_Z, two N-length temporaries and the M-row passes; N x 32 is 32 N
    assert peak < 6 * 8 * n


def test_knot_pass_reuses_its_scratch_and_lattice_after_the_first():
    # a fit's later evaluations add no buffer, replace none, and make no
    # new lattice: their network arrays are M rows, in the same pages.  Each
    # component's knot pass keeps its cache in buffers of its own, so the
    # second one's passes leave the first one's gradient intact
    nets = [init_network([1, 32, 32, 1], seed=seed) for seed in (3, 4)]
    rng = np.random.Generator(np.random.Philox(9))
    n = 100 * BLOCK_ROWS
    x, w = rng.normal(size=n), rng.normal(size=n)
    lattices = {}
    scratch = Scratch()
    outs = [scratch.take(("g_z", c), n) for c in range(2)]

    def evaluation():
        passes = [KnotPass(net, x, lattices, scratch, out, c)
                  for c, (net, out) in enumerate(zip(nets, outs))]
        return passes, [p.param_gradient(w).to_vector() for p in passes]

    first, grads = evaluation()
    buffers = dict(scratch._buffers)
    m = FIRST_KNOTS
    for c in range(2):
        assert first[c].lattice.knots.size == m
        # the midpoint check and the kept knot pass: two buffers per hidden
        # layer, the output, and the slope's tangents (the first layer's is
        # one broadcast row)
        assert {key[1]: buf.shape for key, buf in buffers.items() if key[0] == c} == {
            ("act", 0): (m, 32), ("sig", 0): (m, 32), ("act", 1): (m, 32), ("sig", 1): (m, 32),
            ("act", 2): (m, 1), ("tangent", 0): (m, 32), ("tangent_pre", 1): (m, 32),
            ("tangent", 1): (m, 32), ("tangent_pre", 2): (m, 1)}
    # shared: the backward pass's three rotating buffers
    assert {key: buf.shape for key, buf in buffers.items() if key[0] not in (0, 1, "g_z")} == {
        "bar0": (m, 32), "bar1": (m, 32), "bar2": (m, 32)}
    tracemalloc.start()
    try:
        again, again_grads = evaluation()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for c in range(2):
        assert again[c].lattice is first[c].lattice and again[c].values is outs[c]
        alone = KnotPass(nets[c], x, lattices, key=c)
        assert again[c].values.tobytes() == alone.values.tobytes()
        assert again_grads[c].tobytes() == grads[c].tobytes()
        assert grads[c].tobytes() == alone.param_gradient(w).to_vector().tobytes()
    assert scratch._buffers.keys() == buffers.keys()
    assert all(scratch._buffers[key] is buf for key, buf in buffers.items())
    # per component one N-length temporary each for the values and the
    # adjoint, and the backward pass's M-row arrays; N x 32 is 32 N floats
    assert peak < 2 * 8 * n


def test_a_knot_pass_makes_each_buffer_once_at_its_knot_rows():
    # the midpoint check's M - 1 rows are the leading rows of M-row buffers,
    # so the knot pass that follows replaces none of them, and the values
    # keep the bits of a pass that allocates its own arrays
    net = init_network([1, 32, 32, 1], seed=3)
    x = draw_standard_normal(20_000, 5).values
    made = []

    class Counting(Scratch):
        __slots__ = ()

        def take(self, key, rows, *width):
            buf = self._buffers.get(key)
            if buf is None or buf.shape[0] < rows or buf.shape[1:] != width:
                made.append(key)
            return super().take(key, rows, *width)

    for key in (None, 0):  # an analysis pass and a training pass
        made.clear()
        scratch = Counting()
        got = KnotPass(net, x, {}, scratch, key=key)
        assert got.lattice.knots.size == FIRST_KNOTS
        assert made and len(made) == len(set(made)) == len(scratch._buffers)
        assert all(buf.shape[0] == FIRST_KNOTS for buf in scratch._buffers.values())
        assert got.values.tobytes() == KnotPass(net, x, {}, key=key).values.tobytes()


def test_backward_params_zero_upstream():
    net = init_network([1, 4, 1], seed=0)
    g = backward_params(net, np.array([0.3]), np.array([0.0]))
    assert np.all(g.to_vector() == 0.0)


def test_backward_params_affine():
    net = DenseNetwork([1, 1], [np.array([[1.5]])], [np.array([0.2])])
    g = backward_params(net, np.array([3.0]), np.array([2.0]))
    # d(2 y)/dw = 2 x, d(2 y)/db = 2
    assert g.weights[0][0, 0] == pytest.approx(6.0, abs=1e-15)
    assert g.biases[0][0] == pytest.approx(2.0, abs=1e-15)


def _fd_param_gradient(net, x, upstream, h=1e-6):
    vec = net.to_vector()
    fd = np.empty(vec.size)
    for i in range(vec.size):
        up = vec.copy(); up[i] += h
        dn = vec.copy(); dn[i] -= h
        f_up = float(upstream @ forward(DenseNetwork.from_vector(net.layer_dims, up), x))
        f_dn = float(upstream @ forward(DenseNetwork.from_vector(net.layer_dims, dn), x))
        fd[i] = (f_up - f_dn) / (2 * h)
    return fd


def test_backward_params_matches_fd():
    net = init_network([1, 32, 32, 1], seed=7)
    x = np.array([0.85])
    upstream = np.array([1.3])
    analytic = backward_params(net, x, upstream).to_vector()
    fd = _fd_param_gradient(net, x, upstream)
    mask = np.abs(analytic) >= 1e-10
    np.testing.assert_allclose(analytic[mask], fd[mask], rtol=1e-5)
    np.testing.assert_allclose(analytic[~mask], fd[~mask], atol=1e-8)


def test_input_gradient_cases():
    zero = DenseNetwork(
        [1, 2, 1], [np.zeros((2, 1)), np.zeros((1, 2))], [np.zeros(2), np.zeros(1)]
    )
    assert input_gradient(zero, np.array([0.4]))[0, 0] == 0.0

    affine = DenseNetwork([1, 1], [np.array([[-0.7]])], [np.array([4.0])])
    assert input_gradient(affine, np.array([1.0]))[0, 0] == pytest.approx(-0.7, abs=1e-15)

    net = init_network([1, 32, 32, 1], seed=2)
    x = np.array([0.1])
    h = 1e-6
    fd = (forward(net, x + h) - forward(net, x - h)) / (2 * h)
    np.testing.assert_allclose(input_gradient(net, x)[:, 0], fd, rtol=1e-6)


def test_scalar_batch_slope_matches_input_gradient():
    net = init_network([1, 16, 16, 1], seed=9)
    xs = np.linspace(-2, 2, 9)
    vals, slopes, _ = net.scalar_batch(xs, want_slope=True)
    for x, v, s in zip(xs, vals, slopes):
        assert v == pytest.approx(float(forward(net, np.array([x]))[0]), abs=1e-14)
        assert s == pytest.approx(float(input_gradient(net, np.array([x]))[0, 0]), rel=1e-12)


def test_weighted_param_gradient_matches_sum_of_pointwise():
    net = init_network([1, 8, 8, 1], seed=4)
    xs = np.array([-1.2, 0.0, 0.7, 2.1])
    w = np.array([0.5, -1.0, 2.0, 0.25])
    _, cache = net.scalar_batch(xs)
    combined = net.weighted_param_gradient(cache, w).to_vector()
    pointwise = sum(
        backward_params(net, np.array([x]), np.array([wi])).to_vector()
        for x, wi in zip(xs, w)
    )
    np.testing.assert_allclose(combined, pointwise, rtol=1e-12, atol=1e-15)


def test_stacked_one_row_caches_serve_one_backward_call():
    net = init_network([1, 8, 8, 1], seed=6)
    xs = np.array([0.05, 0.4, 1.3])
    wv = np.array([0.7, -0.2, 1.1])
    ws = np.array([1.5, 0.9, -0.4])
    _, _, batched = net.scalar_batch(xs, want_slope=True)
    rows = [net.scalar_batch(np.array([x]), want_slope=True)[2] for x in xs]
    stacked = stack_caches(rows)
    want = net.weighted_value_slope_param_gradient(batched, wv, ws).to_vector()
    got = net.weighted_value_slope_param_gradient(stacked, wv, ws).to_vector()
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(net.weighted_param_gradient(stacked, wv).to_vector(),
                               net.weighted_param_gradient(batched, wv).to_vector(),
                               rtol=1e-12, atol=1e-15)


def test_value_slope_param_gradient_matches_fd():
    # Gradient of sum_i wv_i G(x_i) + ws_i G'(x_i) in the parameters.
    net = init_network([1, 6, 6, 1], seed=12)
    xs = np.array([0.05, 0.4, 1.3])
    wv = np.array([0.7, -0.2, 1.1])
    ws = np.array([1.5, 0.9, -0.4])
    _, _, cache = net.scalar_batch(xs, want_slope=True)
    analytic = net.weighted_value_slope_param_gradient(cache, wv, ws).to_vector()

    def objective(vec):
        n = DenseNetwork.from_vector(net.layer_dims, vec)
        vals, slopes, _ = n.scalar_batch(xs, want_slope=True)
        return float(wv @ vals + ws @ slopes)

    base = net.to_vector()
    h = 1e-6
    fd = np.empty(base.size)
    for i in range(base.size):
        up = base.copy(); up[i] += h
        dn = base.copy(); dn[i] -= h
        fd[i] = (objective(up) - objective(dn)) / (2 * h)
    mask = np.abs(analytic) >= 1e-10
    np.testing.assert_allclose(analytic[mask], fd[mask], rtol=2e-5)
    np.testing.assert_allclose(analytic[~mask], fd[~mask], atol=1e-8)


def test_init_network_deterministic_and_sized():
    a = init_network([1, 32, 32, 1], seed=123)
    b = init_network([1, 32, 32, 1], seed=123)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    assert a.n_params == 1 * 32 + 32 + 32 * 32 + 32 + 32 * 1 + 1
    assert all(np.all(bias == 0.0) for bias in a.biases)
    c = init_network([1, 32, 32, 1], seed=124)
    assert not np.array_equal(a.weights[1], c.weights[1])


def test_init_network_glorot_variance():
    net = init_network([100, 100], seed=77)
    w = net.weights[0]
    bound = np.sqrt(6.0 / 200.0)
    assert np.all(np.abs(w) <= bound)
    # Uniform(-b, b) variance is b^2/3; 10k draws land within ~20%.
    assert np.var(w) == pytest.approx(bound ** 2 / 3.0, rel=0.2)


def test_vector_round_trip():
    net = init_network([1, 5, 4, 1], seed=21)
    vec = net.to_vector()
    clone = DenseNetwork.from_vector(net.layer_dims, vec)
    for w1, w2 in zip(net.weights, clone.weights):
        np.testing.assert_array_equal(w1, w2)
    with pytest.raises(ValueError):
        DenseNetwork.from_vector([1, 5, 1], vec)


def test_shape_validation():
    with pytest.raises(ValueError):
        DenseNetwork([1], [], [])
    with pytest.raises(ValueError):
        DenseNetwork([1, 2], [np.zeros((3, 1))], [np.zeros(3)])
    with pytest.raises(ValueError):
        DenseNetwork([1, 2], [np.full((2, 1), np.nan)], [np.zeros(2)])
