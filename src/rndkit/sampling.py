"""Seeded standard-normal draws shared by every Monte Carlo consumer.

One sample set is drawn per run and reused across all maturities and
strikes (common random numbers), so prices move smoothly in the model
parameters.  The generator is counter-based (Philox) and the normals come
from the inverse CDF applied to the midpoint of the 2^53 uniform lattice,
which keeps the sequence reproducible across platforms.

The pool is stored in ascending order: the uniforms are sorted before the
inverse CDF, which is monotone, so each draw keeps its bits and only its
position changes.  Every model's X is, in practice, monotone in Z, so each
maturity's growth factors come out already sorted (or reversed) and the
pricing slices need no sort and no permutation (``pricing.MaturitySlice``).
A longer draw with the same seed is therefore not a prefix-preserving
extension of a shorter one: it holds the shorter draw's values, bit for
bit, interleaved with its own.

The inverse CDF is ``_ndtri``, a numpy port of the Cephes ``ndtri``
rational approximations, the algorithm ``scipy.special.ndtri`` runs, and
it returns the same bits.  The central branch is plain arithmetic, which
numpy rounds like C.  The tail branch takes two logarithms, and those go
through the C library's ``log`` (``math.log``) element by element:
numpy's vectorized ``np.log`` may differ from it in the last bit (on an
AVX-512 host it did so on 724 of 12 million draws), which would move the
draws and with them every fitted model.  Only the tails, about 27% of
the draws, pay for the per-element call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["NormalSampleSet", "draw_standard_normal"]

# Midpoint offset of the 2^53 uniform lattice: Generator.random() returns
# k / 2^53, the inverse CDF is evaluated at (k + 1/2) / 2^53.
_HALF_ULP = 0.5 ** 54

# Draws per pass of the inverse CDF, so its masked temporaries stay small:
# a fresh process drawing N = 1e6 peaked at 60.4 MiB RSS in 2^15-draw
# chunks, 62.4 MiB in 2^16-draw ones and 96.3 MiB in one pass (Python 3.11,
# numpy 2.4, Linux).  The draws are the same bits whatever the chunk.
_CHUNK = 1 << 15

# Cephes ndtri: the central branch covers exp(-2) < y < 1 - exp(-2); the
# tails use P1/Q1 for sqrt(-2 ln y) < 8 (y > exp(-32)), P2/Q2 beyond.
# The Q polynomials have an implicit leading coefficient of 1.
_EXP_M2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


@dataclass
class NormalSampleSet:
    """Frozen draw of n standard normals together with its provenance."""

    values: np.ndarray
    seed: int
    n: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.n,):
            raise ValueError("values shape does not match n")


def draw_standard_normal(n: int, seed: int) -> NormalSampleSet:
    """Draw n standard normals for the given seed, in ascending order."""
    n = int(n)
    if n <= 0:
        raise ValueError("need at least one sample")
    uniforms = np.random.Generator(np.random.Philox(seed)).random(n)
    uniforms.sort()
    values = _ndtri(uniforms + _HALF_ULP)
    if n >= 100_000:
        _moment_guard(values, n)
    return NormalSampleSet(values=values, seed=int(seed), n=n)


def _polevl(x, coef, leading_one=False):
    # Horner's rule in Cephes' order (polevl, or p1evl with the implicit 1)
    ans = x + coef[0] if leading_one else np.full_like(x, coef[0])
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _libm_log(v):
    return np.fromiter(map(math.log, v.tolist()), float, count=v.size)


def _ndtri(p):
    """Inverse standard normal CDF of a 1-d array with entries in [0, 1]."""
    out = np.empty_like(p)
    for start in range(0, p.size, _CHUNK):
        _ndtri_chunk(p[start:start + _CHUNK], out[start:start + _CHUNK])
    return out


def _ndtri_chunk(p, out):
    upper = p > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - p, p)
    central = y > _EXP_M2
    yc = y[central] - 0.5
    y2 = yc * yc
    out[central] = (yc + yc * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0, True))) * _S2PI
    edge = y == 0.0  # p is 0 or 1
    out[edge] = np.where(upper[edge], np.inf, -np.inf)
    tail = ~(central | edge)
    x = np.sqrt(-2.0 * _libm_log(y[tail]))
    x0 = x - _libm_log(x) / x
    z = 1.0 / x
    near = x < 8.0
    x1 = np.empty_like(x)
    for sel, pn, qn in ((near, _P1, _Q1), (~near, _P2, _Q2)):
        zs = z[sel]
        x1[sel] = zs * _polevl(zs, pn) / _polevl(zs, qn, True)
    x = x0 - x1
    out[tail] = np.where(upper[tail], x, -x)


def _moment_guard(values: np.ndarray, n: int) -> None:
    # Loose CLT bounds; a correct generator fails them with probability ~1e-6.
    mean = float(np.mean(values))
    var = float(np.var(values))
    if abs(mean) > 5.0 / np.sqrt(n):
        raise RuntimeError(f"sample mean {mean:.3e} outside generator guard")
    if abs(var - 1.0) > 10.0 / np.sqrt(n):
        raise RuntimeError(f"sample variance {var:.6f} outside generator guard")
