"""Generative log-return models for risk-neutral density extraction.

Three model families map shared standard-normal draws Z to log returns
X = ln(S_T / S_t):

* quantile model: X = mu + sigma * Z * (u^Z / a + v^-Z / a + 1), a single
  maturity, with mu pinned by the martingale constraint
  E[e^X] = e^(r tau) rather than trained;
* network model: X = r tau G_mu(tau) + sigma sqrt(tau) Z (G_Z(Z) + G_tau(tau) + 1)
  with three small softplus networks, X(., 0) = 0 exactly;
* mixture model: a convex combination alpha X_1 + (1 - alpha) X_2, with
  alpha in [0, 1], of two network components sharing the same draws.

The additive structure keeps the maturity derivative of X analytic, which
the no-arbitrage penalties rely on.  It also means G_Z(Z), the only
network term read at all N draws, does not depend on tau: ``bind``
forms it once per (model, draws), off net_z's values and slopes at a
few thousand knots (``nn.KnotPass``), and every maturity of every
consumer, the calibration loop included, reads X and dX/dtau from that
binding, one maturity at a time.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .nn import DenseNetwork, KnotPass, Scratch, init_network
from .numerics import logmeanexp
from .sampling import NormalSampleSet

__all__ = [
    "RnQParams",
    "RnMlpParams",
    "RnDmlpParams",
    "rnq_terms",
    "rnq_mu_from_constraint",
    "BoundModel",
    "bind",
    "init_rnmlp",
    "init_rndmlp",
    "zero_net_rnmlp",
    "model_kind",
    "mixture_components",
    "parameter_fields",
    "parameter_vector",
    "with_parameter_vector",
    "CHECKPOINT_VERSION",
    "checkpoint_document",
    "model_from_checkpoint",
]

DEFAULT_HIDDEN = (32, 32)


def _values(samples):
    if isinstance(samples, NormalSampleSet):
        return samples.values
    return np.asarray(samples, dtype=float)


# ----------------------------------------------------------------------
# quantile model


@dataclasses.dataclass
class RnQParams:
    """Location mu, scale sigma and the two tail-shape bases u, v >= 1."""

    mu: float
    sigma: float
    u: float
    v: float
    a_const: float = 4.0

    def __post_init__(self):
        if self.sigma < 0.0:
            raise ValueError("sigma must be non-negative")
        if self.u < 1.0 or self.v < 1.0:
            raise ValueError("u and v must be >= 1")
        if self.a_const <= 0.0:
            raise ValueError("a_const must be positive")


def rnq_terms(p: RnQParams, z: np.ndarray):
    """u^Z, v^-Z, the shape (u^Z + v^-Z)/a + 1 and t = sigma Z shape.

    The one evaluator of rn-q's shape, so X = mu + t.  u^Z and v^-Z are
    exp(Z ln u) and exp(Z (-ln v)), one multiply and one exp each (a
    power with a scalar base costs about twice as much), and each of the
    four is formed in one new array.  The calibration Jacobian reads u^Z
    and v^-Z back instead of raising u and v to Z again.
    """
    def new():  # keeps every term an array even for a 0-d Z
        return np.empty_like(z)

    uz = np.multiply(z, math.log(p.u), out=new())
    np.exp(uz, out=uz)
    vz = np.multiply(z, -math.log(p.v), out=new())
    np.exp(vz, out=vz)
    shape = np.add(uz, vz, out=new())
    shape /= p.a_const
    shape += 1.0
    t = np.multiply(p.sigma, z, out=new())
    t *= shape
    return uz, vz, shape, t


def rnq_mu_from_constraint(sigma, u, v, a_const, samples, rate, tau) -> float:
    """Location implied by the martingale constraint on the given draws.

    mu = r tau - ln( (1/N) sum_n exp(sigma Z_n (u^Z_n/a + v^-Z_n/a + 1)) ),
    evaluated with a log-sum-exp shift so large sigma stays finite.
    """
    t = rnq_terms(RnQParams(0.0, sigma, u, v, a_const), _values(samples))[3]
    mu = rate * tau - logmeanexp(t)
    if not np.isfinite(mu):
        raise FloatingPointError("martingale constraint produced a non-finite location")
    return float(mu)


# ----------------------------------------------------------------------
# network model


@dataclasses.dataclass
class RnMlpParams:
    sigma: float
    net_mu: DenseNetwork
    net_z: DenseNetwork
    net_tau: DenseNetwork

    def __post_init__(self):
        if self.sigma < 0.0:
            raise ValueError("sigma must be non-negative")
        for name in ("net_mu", "net_z", "net_tau"):
            net = getattr(self, name)
            if net.layer_dims[0] != 1 or net.layer_dims[-1] != 1:
                raise ValueError(f"{name} must map a scalar to a scalar")


# ----------------------------------------------------------------------
# mixture model


@dataclasses.dataclass
class RnDmlpParams:
    """Convex mixture alpha X_1 + (1 - alpha) X_2 of two network components."""

    alpha: float
    comp1: RnMlpParams
    comp2: RnMlpParams

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:  # a NaN fails too
            raise ValueError(f"alpha must be within [0, 1], got {self.alpha!r}")


# ----------------------------------------------------------------------
# dispatch helpers


_MODEL_CLASSES = {"rn-q": RnQParams, "rn-mlp": RnMlpParams, "rn-dmlp": RnDmlpParams}


def model_kind(model) -> str:
    for kind, cls in _MODEL_CLASSES.items():
        if isinstance(model, cls):
            return kind
    raise TypeError(f"not a model: {type(model)!r}")


def mixture_components(model) -> tuple:
    """(coefficient, network component) pairs, in mixture order.

    rn-mlp is the one-component case ``((1.0, model),)``, rn-dmlp gives
    ``((alpha, comp1), (1 - alpha, comp2))`` and the quantile model, which
    has no network, gives ``()``.
    """
    if isinstance(model, RnMlpParams):
        return ((1.0, model),)
    if isinstance(model, RnDmlpParams):
        return ((model.alpha, model.comp1), (1.0 - model.alpha, model.comp2))
    return ()


class BoundModel:
    """A model bound to one draw vector: the one evaluator of X and dX/dtau.

    G_Z, the only network term read at all N draws, does not depend on
    tau, so each ``net_z`` runs once, here, through an ``nn.KnotPass`` (M
    knots, M well under N for N >= 8,192).  A mixture's X is then affine
    in two draw vectors, Z and Z H with H = sum_c coef_c sigma_c G_Z,c,
    which the binding forms once: a maturity costs two one-row passes
    (``net_mu``, ``net_tau``) per component for the scalar coefficients and
    a few N-long passes for X and dX/dtau, and its values depend only on
    (model, draws, tau, rate).  Calibration, pricing, penalties, the audit
    and the density all read X and dX/dtau here.  Build it with ``bind``;
    it never changes afterwards.
    An analysis binding keeps H alone, formed one component at a time
    through one N-long G_Z buffer.  The calibration loop binds with
    its fit's ``nn.Scratch``, which then holds the knot lattices, network
    buffers, each component's G_Z and H; the draws are read in place, and
    the binding keeps for the gradient per component its knot pass, whose
    cache sits in buffers of its own, and a (G_mu, G_mu', G_tau, G_tau',
    caches) row per maturity.
    """

    __slots__ = ("model", "kind", "z", "passes", "_h", "_rows")

    def __init__(self, model, z, scratch=None):
        self.model = model
        self.kind = model_kind(model)
        if scratch is None:
            # Private read-only copy: ``bind`` compares draws against it, so
            # a caller mutating its own array cannot leave G_Z stale.
            z = np.array(z, dtype=float)
            z.setflags(write=False)
        self.z = z
        components = mixture_components(model)
        work = Scratch() if scratch is None else scratch
        train = scratch is not None
        # H first, so the passes' temporaries free from the top of the heap.
        # A training binding keeps each component's G_Z for the gradient;
        # an analysis binding forms one component's at a time in one buffer
        self._h = work.take("h", z.size) if components else None
        passes = []
        for c, (coef, comp) in enumerate(components):
            gz = work.take(("g_z", c if train else 0), z.size)
            passes.append(KnotPass(comp.net_z, z, work.lattices, work, gz, c if train else None))
            if c == 0:
                np.multiply(gz, coef * comp.sigma, out=self._h)
            else:
                self._h += np.multiply(gz, coef * comp.sigma, out=None if train else gz)
        # for the gradient: each component's knot pass, whose values are its G_Z(Z)
        self.passes = passes if train else None
        self._rows = tuple([] for _ in passes)

    def log_returns(self, tau, rate) -> np.ndarray:
        """Log-return vector X(Z, tau) on the bound draws.

        tau = 0 returns the zero vector for every model kind (degenerate
        distribution at no elapsed time), so prices collapse to intrinsic.
        The quantile model's X = mu + sigma Z (u^Z/a + v^-Z/a + 1) ignores
        tau and rate.  This is the one log-return entry point.
        """
        if tau < 0.0:
            raise ValueError("tau must be non-negative")
        if tau == 0.0:
            return np.zeros_like(self.z)
        if self.kind == "rn-q":
            x = rnq_terms(self.model, self.z)[3]
            x += self.model.mu
            return x
        root, a, b, _, _ = self._scalars(tau, rate)
        return self._affine(root, b, a)

    def columns(self, tau, rate):
        """(X, dX/dtau) at one maturity.  Per network component

        X = r tau G_mu + sigma sqrt(tau) Z (G_Z + G_tau + 1),
        dX/dtau = r G_mu + r tau G_mu' + sigma Z [ (G_Z + G_tau + 1) / (2 sqrt(tau))
                                                   + sqrt(tau) G_tau' ],
        and a mixture sums c_1 (X_1, X_1') + c_2 (X_2, X_2') + ...  With H
        the binding's sum_c coef_c sigma_c G_Z,c that is
        X = a + Z (b + sqrt(tau) H) and dX/dtau = a' + Z (b' + H / (2 sqrt(tau))),
        whose scalars a, b, a', b' come from the one-row passes.  For the
        quantile model the location tracks the martingale constraint
        mu(tau) = r tau - const, so dX/dtau is the constant rate.
        """
        if self.kind == "rn-q":
            return self.log_returns(tau, rate), np.full_like(self.z, float(rate))
        if tau <= 0.0:
            raise ValueError("maturity derivative needs tau > 0")
        root, a, b, da, db = self._scalars(tau, rate)
        return self._affine(root, b, a), self._affine(0.5 / root, db, da)

    def _scalars(self, tau, rate):
        # (sqrt(tau), a, b, a', b') from each component's one-row passes; a
        # training binding keeps each pass's row for the gradient
        t, root, keep = np.array([tau]), np.sqrt(tau), self.passes is not None
        a = b = da = db = 0.0
        for (coef, comp), rows in zip(mixture_components(self.model), self._rows):
            gmu, gmu_s, cache_mu = comp.net_mu.scalar_batch(t, want_slope=True, keep_cache=keep)
            gtau, gtau_s, cache_tau = comp.net_tau.scalar_batch(t, want_slope=True, keep_cache=keep)
            gmu, gmu_s, gtau, gtau_s = float(gmu[0]), float(gmu_s[0]), float(gtau[0]), float(gtau_s[0])
            if keep:
                rows.append((gmu, gmu_s, gtau, gtau_s, cache_mu, cache_tau))
            a += coef * rate * tau * gmu
            b += coef * comp.sigma * root * (gtau + 1.0)
            da += coef * (rate * gmu + rate * tau * gmu_s)
            db += coef * comp.sigma * ((gtau + 1.0) / (2.0 * root) + root * gtau_s)
        return root, a, b, da, db

    def _affine(self, scale, b, a):
        # a + Z (b + scale H), in one new array
        out = np.multiply(self._h, scale)
        out += b
        out *= self.z
        out += a
        return out


def bind(model, samples) -> BoundModel:
    """Bind a model (or rebind a bound one) to a draw set.

    A model already bound to bit-identical draws is returned unchanged,
    so consumers can call ``bind`` at their top and callers can pass a
    binding through many of them; a binding to other draws is rebuilt
    from its model.
    """
    z = _values(samples)
    if isinstance(model, BoundModel):
        if np.array_equal(model.z.view(np.int64), z.view(np.int64)):
            return model
        model = model.model
    return BoundModel(model, z)


# ----------------------------------------------------------------------
# constructors


def _init_component(seq, sigma, hidden) -> RnMlpParams:
    """Component whose three Glorot-initialized networks draw from ``seq``'s three spawns."""
    dims = [1, *hidden, 1]
    return RnMlpParams(sigma, *(init_network(dims, child) for child in seq.spawn(3)))


def init_rnmlp(seed: int, sigma: float = 0.2, hidden=DEFAULT_HIDDEN) -> RnMlpParams:
    """Fresh network model with Glorot-initialized 1->hidden->1 networks."""
    return _init_component(np.random.SeedSequence(seed), sigma, hidden)


def init_rndmlp(seed: int, sigma: float = 0.2, alpha: float = 0.5, hidden=DEFAULT_HIDDEN) -> RnDmlpParams:
    """Fresh mixture model; the two components get independent draws."""
    return RnDmlpParams(alpha, *(_init_component(child, sigma, hidden)
                                 for child in np.random.SeedSequence(seed).spawn(2)))


def zero_net_rnmlp(sigma: float = 0.2, hidden=DEFAULT_HIDDEN) -> RnMlpParams:
    """Network model with all-zero networks: X = sigma sqrt(tau) Z exactly.

    Useful as a driftless lognormal reference in tests and demos.
    """
    dims = [1, *hidden, 1]
    def zero_net():
        ws = [np.zeros((dims[l + 1], dims[l])) for l in range(len(dims) - 1)]
        bs = [np.zeros(dims[l + 1]) for l in range(len(dims) - 1)]
        return DenseNetwork(list(dims), ws, bs)
    return RnMlpParams(sigma=sigma, net_mu=zero_net(), net_z=zero_net(), net_tau=zero_net())


# ----------------------------------------------------------------------
# parameter layout

_UNTRAINED = ("mu", "a_const")  # rn-q's pinned location and fixed constant
_COMPONENTS = ("comp1", "comp2")  # a mixture's component fields


def parameter_fields(model) -> list:
    """Ordered (name, value) pairs of a model's parameters, each value a
    float or a ``DenseNetwork``: the one layout the checkpoint (names as
    keys) and the optimizer's flat vector (in order) share.

    The dataclass fields in declaration order, a mixture's components
    expanded in place under the prefixes comp1_ and comp2_: rn-q gives
    mu, sigma, u, v, a_const; rn-mlp sigma, net_mu, net_z, net_tau;
    rn-dmlp alpha, comp1_sigma ... comp1_net_tau, comp2_sigma ... .
    """
    fields = []
    for f in dataclasses.fields(model):
        value = getattr(model, f.name)
        fields += ([(f"{f.name}_{name}", v) for name, v in parameter_fields(value)]
                   if f.name in _COMPONENTS else [(f.name, value)])
    return fields


def _model_of(kind: str, value, prefix=""):
    """The model of ``kind`` whose field ``name`` is ``value(name)``."""
    cls = _MODEL_CLASSES[kind]
    return cls(*(_model_of("rn-mlp", value, f"{prefix}{f.name}_") if f.name in _COMPONENTS
                 else value(prefix + f.name) for f in dataclasses.fields(cls)))


def parameter_vector(model) -> np.ndarray:
    """The optimizer's flat vector: the trained fields in layout order,
    each network flattened by ``DenseNetwork.to_vector``."""
    return np.concatenate([value.to_vector() if isinstance(value, DenseNetwork) else [value]
                           for name, value in parameter_fields(model) if name not in _UNTRAINED])


def with_parameter_vector(template, vec):
    """``template`` with its trained fields read from a ``parameter_vector``;
    network geometry and rn-q's mu and a_const come from the template."""
    vec = np.asarray(vec, dtype=float)
    fields = parameter_fields(template)
    sizes = [v.n_params if isinstance(v, DenseNetwork) else int(n not in _UNTRAINED) for n, v in fields]
    if sum(sizes) != vec.size:
        raise ValueError(f"parameter vector length {vec.size} does not match the model's {sum(sizes)}")
    values, pos = {}, 0
    for (name, value), size in zip(fields, sizes):
        if isinstance(value, DenseNetwork):
            value = DenseNetwork.from_vector(value.layer_dims, vec[pos:pos + size])
        elif size:
            value = float(vec[pos])
        values[name], pos = value, pos + size
    return _model_of(model_kind(template), values.__getitem__)


# ----------------------------------------------------------------------
# checkpoints
#
# A checkpoint is a plain dict of the parameter layout; the CLI's one JSON
# writer renders it, and json writes each float by repr, which reads back
# bit for bit.

CHECKPOINT_VERSION = 1


def checkpoint_document(model) -> dict:
    """Checkpoint fields: format_version, model_type, scalars, networks."""
    fields = parameter_fields(model)
    return {"format_version": CHECKPOINT_VERSION, "model_type": model_kind(model),
            "scalars": {name: v for name, v in fields if not isinstance(v, DenseNetwork)},
            "networks": {name: v.to_jsonable() for name, v in fields if isinstance(v, DenseNetwork)}}


def model_from_checkpoint(doc: dict):
    """Rebuild a model from checkpoint fields; extra fields are ignored."""
    try:
        version = int(doc["format_version"])
        kind = doc["model_type"]
        scalars = doc["scalars"]
        networks = doc["networks"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed checkpoint: {exc}") from exc
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint format_version {version} is not readable "
                         f"by this build (expects {CHECKPOINT_VERSION})")
    if not isinstance(kind, str) or kind not in _MODEL_CLASSES:
        raise ValueError(f"unsupported model type {kind!r}")

    def value(name):
        if name.endswith(("net_mu", "net_z", "net_tau")):
            return DenseNetwork.from_jsonable(networks[name])
        return float(scalars[name])

    try:
        return _model_of(kind, value)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed checkpoint: {exc}") from exc
