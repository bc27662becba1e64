import numpy as np
import pytest
from scipy.special import ndtri

from rndkit import sampling
from rndkit.sampling import draw_standard_normal


def test_deterministic_for_seed():
    a = draw_standard_normal(4, seed=7)
    b = draw_standard_normal(4, seed=7)
    np.testing.assert_array_equal(a.values, b.values)
    c = draw_standard_normal(4, seed=8)
    assert not np.array_equal(a.values, c.values)


def test_ascending_pool_holds_a_shorter_draw_interleaved():
    # the pool is stored in ascending order, so a longer draw with the same
    # seed is no prefix-preserving extension: it holds the shorter draw's
    # values, bit for bit, interleaved with its own
    short = draw_standard_normal(10, seed=42).values
    long = draw_standard_normal(1000, seed=42).values
    assert np.all(short[1:] >= short[:-1]) and np.all(long[1:] >= long[:-1])
    assert not np.array_equal(short, long[:10])
    at = np.searchsorted(long, short)
    assert long[at].tobytes() == short.tobytes()


def test_large_sample_moments():
    s = draw_standard_normal(1_000_000, seed=0)
    z = s.values
    assert abs(np.mean(z)) <= 0.005
    assert abs(np.var(z) - 1.0) <= 0.01
    skew = np.mean(z ** 3)
    kurt = np.mean(z ** 4)
    assert abs(skew) <= 0.02
    assert abs(kurt - 3.0) <= 0.05


def test_rejects_empty_draw():
    with pytest.raises(ValueError):
        draw_standard_normal(0, seed=1)


def _lattice_midpoints(seed, n):
    return np.random.Generator(np.random.Philox(seed)).random(n) + 2.0 ** -54


# sizes below, at and across the inverse CDF's chunk length, and one that
# runs the moment guard
@pytest.mark.parametrize("seed, n", [(0, 1), (1, 1000), (7, 65_537), (42, 300_001)])
def test_draws_equal_scipy_ndtri_bit_for_bit(seed, n):
    # the uniforms are sorted before the monotone inverse CDF, so every draw
    # keeps scipy's bits and the pool is their ascending order
    want = np.sort(ndtri(_lattice_midpoints(seed, n)))
    assert draw_standard_normal(n, seed).values.tobytes() == want.tobytes()


def test_draws_keep_their_bits_whatever_the_chunk(monkeypatch):
    # 2e5 draws reach both tails and run the moment guard; the inverse CDF
    # is elementwise, so the chunk length moves no bit
    draws = []
    for chunk in (1 << 10, 1 << 15, 1 << 16):
        monkeypatch.setattr(sampling, "_CHUNK", chunk)
        draws.append(draw_standard_normal(200_000, seed=3).values.tobytes())
    assert draws[0] == draws[1] == draws[2]


def test_ndtri_equals_scipy_at_branch_edges_and_in_the_tails():
    e2, e32 = np.exp(-2.0), np.exp(-32.0)
    edges = [e2, 1.0 - e2, e32, 2.0 ** -54, 1.0 - 2.0 ** -53, 1.0, 0.0, 0.5]
    edges += [np.nextafter(v, d) for v in (e2, 1.0 - e2, e32) for d in (0.0, 1.0)]
    tail = np.logspace(-300, np.log10(e2), 20_000)
    p = np.concatenate([edges, tail, 1.0 - tail])
    assert sampling._ndtri(p).tobytes() == ndtri(p).tobytes()
