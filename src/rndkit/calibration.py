"""Penalized calibration of the generative models to option prices.

The training objective is

    L(theta) = MSE_C + MSE_P + lambda * J(theta)

where the MSE terms average squared call and put errors separately and
J is the hinged static-arbitrage penalty evaluated on a synthetic
(maturity, strike) grid.  Gradients are exact reverse-mode through the
Monte Carlo payoffs, with the payoff hinge and the penalty indicator
sets treated as locally constant (piecewise-smooth convention).

What differs between model kinds lives in one adapter per kind: the
initial model, the step rule and the coordinates it works in, chain
validation, whether the penalty applies, the maturity tables, the
gradient and finalisation.  The flat parameter vector is the one the
checkpoint writes (``models.parameter_fields``).  The objective, the
loop and the final metrics never test the kind.  ``_NetworkAdapter``
serves rn-mlp and rn-dmlp alike and reads X and dX/dtau from
``models.BoundModel`` like every analysis consumer; they step by Adam.
``_QuantileAdapter`` holds every rn-q difference: the location is
eliminated through the martingale constraint at every evaluation and
recomputed on the final parameters, the chain is single-maturity, and
the penalty is omitted (the pinned location zeroes its martingale term;
at a positive rate its calendar terms are constants of the data).  The
loss is a sum of squared residuals in three parameters, which
Levenberg-Marquardt fits, a deviation from the paper's Adam.
"""

from __future__ import annotations

import dataclasses
import time
from collections import namedtuple
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .arbitrage import (
    PenaltyReport,
    PriceSurface,
    aggregate_penalties,
    build_synthetic_grid,
    price_surface,
)
from .models import (
    BoundModel,
    RnQParams,
    bind,
    checkpoint_document,
    init_rndmlp,
    init_rnmlp,
    mixture_components,
    model_kind,
    parameter_vector,
    rnq_mu_from_constraint,
    rnq_terms,
    with_parameter_vector,
)
from .nn import Scratch, softplus, softplus_prime, stack_caches
from .numerics import logmeanexp
from .pricing import (
    MaturitySlice,
    block_sums,
    block_totals,
    price_chain,
    quote_groups,
    quote_prices,
    range_sums,
)
from .sampling import draw_standard_normal


__all__ = [
    "CalibrationConfig",
    "CalibrationResult",
    "CalibrationDivergence",
    "AdamState",
    "adam_step",
    "mse",
    "relative_mse",
    "calibrate",
]

LOSS_KINDS = ("absolute-MSE", "relative-MSE")

CONVERGENCE_WINDOW = 100


@dataclass
class CalibrationConfig:
    learning_rate: float = 0.01
    iterations: int = 5000
    lam: float = 1.0
    n_samples: int = 1_000_000
    seed: int = 0
    loss_kind: str = "absolute-MSE"
    convergence_tol: float = 1e-10
    relative_mse_floor: float = 0.05

    def __post_init__(self):
        for name in ("learning_rate", "lam", "relative_mse_floor"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if np.isnan(self.convergence_tol):  # -inf switches the stopping rule off
            raise ValueError("convergence_tol must not be NaN")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if self.lam < 0.0:
            raise ValueError("lambda must be non-negative")
        if self.n_samples < 1:
            raise ValueError("need at least one sample")
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"loss_kind must be one of {LOSS_KINDS}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


class CalibrationDivergence(RuntimeError):
    """Objective went non-finite; carries the iteration index."""

    def __init__(self, iteration: int, message: str):
        super().__init__(f"iteration {iteration}: {message}")
        self.iteration = iteration


@dataclass
class CalibrationResult:
    kind: str
    params: object
    loss_trajectory: np.ndarray
    penalty_trajectory: np.ndarray
    final_train_mse: float
    final_relative_mse: float
    n_excluded_relative: int
    final_penalty: PenaltyReport
    iterations_run: int
    converged: bool
    wall_time: float
    seed: int
    # the penalty grid's surface on the fit's draws; not serialized
    surface: PriceSurface = dataclasses.field(default=None, repr=False, compare=False)

    def to_jsonable(self) -> dict:
        return {
            "kind": self.kind,
            "params": checkpoint_document(self.params),
            "loss_trajectory": [float(v) for v in self.loss_trajectory],
            "penalty_trajectory": [float(v) for v in self.penalty_trajectory],
            "final_train_mse": self.final_train_mse,
            "final_relative_mse": self.final_relative_mse,
            "n_excluded_relative": self.n_excluded_relative,
            "final_penalty": self.final_penalty.to_jsonable(),
            "iterations_run": self.iterations_run,
            "converged": self.converged,
            "wall_time": self.wall_time,
            "seed": self.seed,
        }


# ----------------------------------------------------------------------
# loss functions


def _checked(observed, fitted, sides):
    """Observed and fitted prices as arrays, and the call mask of ``sides``."""
    observed = np.asarray(observed, dtype=float)
    fitted = np.asarray(fitted, dtype=float)
    if observed.size == 0 or observed.shape != fitted.shape:
        raise ValueError("observed and fitted must be equal-length and nonempty")
    sides = list(sides)
    if not all(s in ("call", "put") for s in sides):
        raise ValueError("sides must be 'call' or 'put'")
    calls = np.array([s == "call" for s in sides], dtype=bool)
    if calls.size != observed.size:
        raise ValueError("sides length mismatch")
    return observed, fitted, calls


def _side_mean(observed, fitted, calls, keep=None):
    """Squared errors (relative ones on ``keep`` when given) averaged per side:
    the calls' mean plus the puts', a side with no kept quote adding nothing."""
    if keep is None:
        err, keep = (fitted - observed) ** 2, True
    else:
        err = np.zeros_like(observed)
        err[keep] = (fitted[keep] / observed[keep] - 1.0) ** 2
    total = 0.0
    for mask in (calls & keep, ~calls & keep):
        if np.any(mask):
            total += float(np.mean(err[mask]))
    return total


def mse(observed, fitted, sides) -> float:
    """Squared errors averaged per side, call and put averages summed."""
    observed, fitted, calls = _checked(observed, fitted, sides)
    return _side_mean(observed, fitted, calls)


def relative_mse(observed, fitted, sides, floor: float = 0.05):
    """Mean squared relative error per side; returns (value, n_excluded).

    Observed prices below ``floor`` are excluded to keep the ratio loss
    away from near-zero denominators.
    """
    observed, fitted, calls = _checked(observed, fitted, sides)
    keep = observed >= floor
    return _side_mean(observed, fitted, calls, keep), int(np.sum(~keep))


# ----------------------------------------------------------------------
# step rules: Adam, and Levenberg-Marquardt for a least-squares loss


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # decay rates and denominator guard


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n))


def adam_step(state: AdamState, params: np.ndarray, grad: np.ndarray, learning_rate: float) -> np.ndarray:
    """One bias-corrected Adam update; mutates ``state``, returns new params."""
    grad = np.asarray(grad, dtype=float)
    if grad.shape != state.m.shape or grad.shape != np.shape(params):
        raise ValueError("gradient shape does not match optimizer state")
    state.t += 1
    state.m = BETA1 * state.m + (1.0 - BETA1) * grad
    state.v = BETA2 * state.v + (1.0 - BETA2) * grad * grad
    mhat = state.m / (1.0 - BETA1 ** state.t)
    vhat = state.v / (1.0 - BETA2 ** state.t)
    return params - learning_rate * mhat / (np.sqrt(vhat) + EPS)


class _Adam:
    """Full-batch Adam: every evaluation is accepted, a failed one diverges, and the
    fit has converged once the loss gained under convergence_tol in CONVERGENCE_WINDOW."""

    descent, errors = False, {}  # numpy's floating-point handling is left as it is

    def __init__(self, config, state):
        self.config, self.moments = config, AdamState.zeros(state.size)

    def converged(self, loss, trajectory):  # the loss is not yet in the trajectory
        it = len(trajectory)
        return it >= CONVERGENCE_WINDOW and \
            trajectory[it - CONVERGENCE_WINDOW] - loss < self.config.convergence_tol

    def step(self, state, grad, jacobian):
        return adam_step(self.moments, state, grad, self.config.learning_rate)


LM_DAMPING, LM_FACTOR, LM_MAX_DAMPING = 10.0, 10.0, 1e10  # first lam, its step, its cap


class _LevenbergMarquardt:
    """Levenberg-Marquardt (Marquardt 1963; Nocedal and Wright 2006, ch. 10):
    from an accepted evaluation's J a trial solves (J^T J + lam D) d = -J^T r,
    D the running maximum of diag(J^T J) (More), regular when a column
    vanishes (u -> 1).  A trial that lowers the loss is accepted and lam
    falls; else, or when it fails, lam rises.  The fit has converged once a
    step gains less than convergence_tol, or lam passes LM_MAX_DAMPING."""

    descent, errors = True, {"over": "raise", "invalid": "raise"}  # a rejection, not a warning

    def __init__(self, config, state):
        self.tol, self.lam, self.scale = config.convergence_tol, None, np.zeros(state.size)

    def converged(self, loss, trajectory):
        return bool(trajectory) and trajectory[-1] - loss < self.tol

    def step(self, state, grad, jacobian):
        self.state, self.jtr = state, 0.5 * grad
        self.jtj = np.einsum("qi,qj->ij", jacobian, jacobian)
        self.scale = np.maximum(self.scale, np.diag(self.jtj))
        self.lam = LM_DAMPING if self.lam is None else self.lam / LM_FACTOR
        return self.retry(1.0)

    def retry(self, factor=LM_FACTOR):  # the trial after lam *= factor; None: no step left
        self.lam *= factor
        m = self.jtj + self.lam * np.diag(self.scale)
        # by the adjugate of the symmetric 3 x 3 m: a LAPACK solve's first call adds 0.3 MB RSS
        r1, r2 = m[[1, 2, 0]], m[[2, 0, 1]]
        adj = r1[:, [1, 2, 0]] * r2[:, [2, 0, 1]] - r1[:, [2, 0, 1]] * r2[:, [1, 2, 0]]
        det = float(np.sum(m[0] * adj[0]))  # 0 when a column of J is zero from the start
        if self.lam <= LM_MAX_DAMPING and det > 0.0:
            return self.state - np.sum(adj * self.jtr, axis=1) / det


# ----------------------------------------------------------------------
# objective evaluation
#
# Everything below works on one shared draw of N normals.  Per maturity
# the growth factors are sorted once into a ``pricing.MaturitySlice``,
# the class every pricing and penalty consumer reads; option prices and
# penalty values are its array lookups, read off block sums
# (``pricing.range_sums``), the penalty total is the surface's own
# (``arbitrage.aggregate_penalties``), and the per-sample adjoint weights
# are step sums of coefficients added at the lookups' positions, formed
# in place over the slice's sorted arrays (rn-q's Jacobian is three
# columns' block sums read there), so past any sort an evaluation costs
# O(N) plus one weighted backward pass per network, nearly independent
# of the number of quotes and grid points.
# On the ascending pool a maturity whose growth is monotone in Z needs
# no sort at all; any other takes one stable sort, and no order outlives
# its evaluation.


def _times_step_sums(totals, values):
    """``values`` times the step sums, in place: at sorted index k, the sum
    of the ``totals`` (position: coefficient sum) at positions <= k, in
    position order, and 0.0 below the first.  Each product has the bits of
    the step sum's own times the value, as with an N-long accumulator's
    cumsum (adding 0.0 leaves a sum begun at 0.0 unchanged)."""
    at = sorted(p for p in totals if p < values.size)
    values[:at[0] if at else values.size] *= 0.0
    for lo, hi, total in zip(at, at[1:] + [values.size], accumulate(totals[p] for p in at)):
        values[lo:hi] *= total
    return values


class _TauTable(MaturitySlice):
    """A maturity slice plus the adjoint terms of one evaluation.

    ``terms`` sums each weight's terms, data and penalty, by position; a
    slice that records no penalty term (a fit with ``lam = 0``, a market
    maturity off the penalty grid) skips the penalty half of the
    adjoint.  The terms sit at a few quote and hinge positions, so no
    N-long accumulator is formed (``_times_step_sums``).
    """

    __slots__ = ("terms",)

    def __init__(self, tau, rate, x, slope):
        super().__init__(tau, rate, x, slope)
        self.terms = {"data": {}, "pen": {}}

    def add(self, which, positions, coeffs):
        """Weight sorted indices >= each position by its coefficient, in order."""
        totals = self.terms[which]
        for pos, coeff in zip(np.asarray(positions).tolist(), np.asarray(coeffs, float).tolist()):
            totals[pos] = totals.get(pos, 0.0) + coeff

    def adjoint_weights(self):
        """Per-sample weights (wx on dX, wd on d slope) in draw order.

        This spends the slice: its sorted arrays are released as soon as
        they are read, and the weights are formed in place over them (wx
        over the sorted growth, a penalty term over ``a_sorted``), so only
        wd takes a new array.  With a slice ``order`` the weights are views
        of the sorted ones; an index order scatters ``wx`` into the spent
        ``a_sorted``.  With no penalty term ``wd`` is None and ``wx`` the
        data term alone.
        """
        order, gs, a_sorted, terms = self.order, self.gs, self.a_sorted, self.terms
        self.a_sorted = self.gs = self.terms = None
        wd = None
        if terms["pen"]:
            wd = _in_draw_order(order, _times_step_sums(terms["pen"], gs.copy()))
        data = _times_step_sums(terms["data"], gs)
        if terms["pen"] and a_sorted is not None:
            data += _times_step_sums(terms["pen"], a_sorted)  # pen * a_sorted + data * gs
        return _in_draw_order(order, data, a_sorted), wd


def _in_draw_order(order, values, out=None):
    """Sorted ``values`` in draw order: a view for a slice ``order``, else
    scattered into ``out`` (a new array when None)."""
    if isinstance(order, slice):
        return values[order]
    out = np.empty_like(values) if out is None else out
    out[order] = values
    return out


def _side_terms(positions, coeffs, calls):
    """The suffix terms, in order, of weights on sorted indices >= position
    (calls) or < position (puts): a put is a full-range term followed by a
    negative suffix at its position."""
    starts = np.stack([np.where(calls, positions, 0), positions], axis=-1)
    values = np.stack([coeffs, -coeffs], axis=-1)
    keep = np.stack([np.ones_like(calls), ~calls], axis=-1)
    return starts[keep], values[keep]


def _loss_weights(observed, fitted, calls, loss_kind, floor):
    """The loss value, per-option dL/dfitted, and the residual weights s
    with loss = sum (s (fitted - observed))^2 (0 on dropped quotes)."""
    absolute = loss_kind == "absolute-MSE"
    keep = np.ones_like(calls) if absolute else observed >= floor
    n_call = max(int(np.sum(calls & keep)), 1)
    n_put = max(int(np.sum(~calls & keep)), 1)
    per_side = np.where(calls, n_call, n_put).astype(float)
    weights = np.where(keep, 1.0 / np.sqrt(per_side), 0.0)
    if absolute:
        return _side_mean(observed, fitted, calls), 2.0 * (fitted - observed) / per_side, weights
    grad = np.zeros_like(observed)
    ratio = fitted[keep] / observed[keep] - 1.0
    grad[keep] = 2.0 * ratio / (observed[keep] * per_side[keep])
    weights[keep] /= observed[keep]
    return _side_mean(observed, fitted, calls, keep), grad, weights


# ----------------------------------------------------------------------
# per-kind adapters


class _Adapter:
    """Defaults: Adam works on the natural vector, the penalty applies."""

    penalized = True
    step_rule = _Adam

    def check_chain(self, chain):
        pass

    def to_state(self, model):
        return parameter_vector(model)

    def from_state(self, template, state):
        return with_parameter_vector(template, state)

    def state_gradient(self, state, nat_grad):
        return nat_grad

    def finalize(self, model, chain, samples):
        return model


class _QuantileAdapter(_Adapter):
    """rn-q: one maturity, location pinned by the martingale constraint.

    Levenberg-Marquardt works in unconstrained coordinates sigma =
    softplus(s), u = 1 + softplus(b), v = 1 + softplus(c); no penalty is
    applied, so the loss is a sum of squared weighted residuals.
    """

    penalized = False
    step_rule = _LevenbergMarquardt

    def init_model(self, seed):
        return RnQParams(mu=0.0, sigma=0.2, u=1.1, v=1.1)

    def to_state(self, model):
        # the softplus coordinates reach sigma > 0 and u, v > 1 only
        for name, floor in (("sigma", 0.0), ("u", 1.0), ("v", 1.0)):
            if not getattr(model, name) > floor:
                raise ValueError(f"the rn-q fit starts from sigma > 0 and u, v > 1; "
                                 f"the initial {name} is {getattr(model, name)!r}")
        # softplus^-1 is log(expm1(x)), and x + log(-expm1(-x)) above 30: no
        # branch takes expm1 of a large x, which overflows past about 710
        x = np.array([model.sigma, model.u - 1.0, model.v - 1.0])
        return np.where(x > 30.0, x + np.log(-np.expm1(-x)), np.log(np.expm1(np.minimum(x, 30.0))))

    def from_state(self, template, state):
        return with_parameter_vector(template, softplus(state) + [0.0, 1.0, 1.0])

    def state_gradient(self, state, nat_grad):
        return nat_grad * softplus_prime(np.asarray(state))

    def check_chain(self, chain):
        n_taus = len({q.tau for q in chain.quotes})
        if n_taus > 1:
            raise ValueError("the quantile model is single-maturity; "
                             f"the chain has {n_taus} maturities")

    def build_tables(self, model, taus, chain_rate, z, scratch=None):
        """The one maturity's table, plus u^Z, v^-Z and the shape for the Jacobian.

        X = (r tau - logmeanexp(t)) + t is formed over t in place.  Every
        array is new: the fit's ``scratch`` serves the networks' binding only.
        """
        tau = float(taus[0])
        rate = chain_rate(tau)
        uz, vz, shape, x = rnq_terms(model, z)
        x += rate * tau - logmeanexp(x)
        table = _TauTable(tau, rate, x, None)
        return {tau: table}, (uz, vz, shape)

    def gradient(self, model, tables, terms, z, fit):
        """2 J^T r and J, the Jacobian in (sigma, u, v) of the residuals r
        (``fit``: the quotes' positions, call mask, S s and r).  The pinned
        location gives dX = dt - sum g dt / sum g (g = e^X): a call moves by
        e^(-r tau) (S / N) sum_{g > k} g dX, a put by minus that over g < k.
        Each column g dt (dt/dsigma = Z shape, dt/du = sigma Z^2 u^Z / (u a),
        dt/dv = -sigma Z^2 v^-Z / (v a)) is taken in sorted order (with a
        slice order ``rnq_terms``' own array, else a gather), multiplied by
        g Z (formed over the spent sorted growth) and by Z, and summed at
        the quotes' positions from its block sums (``pricing.range_sums``)."""
        (table,), (uz, vz, shape) = tables.values(), terms
        order, positions, calls = table.order, fit.positions, fit.calls
        signs = np.where(calls, 1.0, -1.0)

        def sided(values, sums):  # sum_{g > k} of a call's values, -sum_{g < k} of a put's
            return signs * range_sums(values, sums, positions, calls)

        g_sides, g_total = sided(table.gs, table.blocks_g), table.blocks_g[0, -1]
        zs = z[order]
        zg = np.multiply(table.gs, zs, out=table.gs)
        jac, scale = np.empty((positions.size, 3)), model.sigma / model.a_const
        for j, (col, factor) in enumerate(((shape, 1.0), (uz, scale / model.u),
                                           (vz, -scale / model.v))):
            col_s = col[order]
            col_s *= zg
            if j:
                col_s *= zs
            sums = block_sums(block_totals(col_s))
            jac[:, j] = factor * (sided(col_s, sums) - g_sides * (sums[0, -1] / g_total))
        table.gs = None  # spent
        jac *= (np.exp(-table.rate * table.tau) / z.size * fit.spot_weights)[:, None]
        return 2.0 * np.einsum("qi,q->i", jac, fit.residuals), jac

    def finalize(self, model, chain, samples):
        """Pin the location on the final parameters."""
        tau = chain.quotes[0].tau
        mu = rnq_mu_from_constraint(model.sigma, model.u, model.v, model.a_const,
                                    samples, chain.rate(tau), tau)
        return dataclasses.replace(model, mu=mu)


class _NetworkAdapter(_Adapter):
    """rn-mlp and rn-dmlp: a mixture of one or two network components.

    The tables come from the loop's binding, which keeps G_Z, each
    net_z's knot pass and one-row net_mu and net_tau caches per maturity.
    The tau-net caches are stacked so one backward pass per network serves
    every maturity at once; net_z's is the exact gradient of G_Z's
    interpolant, one float64 backward pass over the knot pass's M rows.
    """

    def __init__(self, init_model):
        self.init_model = init_model

    def build_tables(self, model, taus, chain_rate, z, scratch=None):
        """X, growth and d/dtau tables per maturity, plus the loop's binding."""
        bound = BoundModel(model, z, Scratch() if scratch is None else scratch)
        tables = {}
        for tau in taus:
            tau = float(tau)
            rate = chain_rate(tau)
            tables[tau] = _TauTable(tau, rate, *bound.columns(tau, rate))
        return tables, bound

    def gradient(self, model, tables, bound, z, fit):  # no Jacobian
        """The quotes' data terms go on their tables, then each maturity's
        weights are read and spent: their sums, alone and with Z, and their
        share of W = sum_tau (sqrt(tau) wx + wd / (2 sqrt(tau))).  G_Z enters
        X only through Z G_Z and in that combination, so every component's
        net_z gradient is coef sigma times that of the weights Z W, and
        its scale adjoint has the G_Z part G_Z . Z W."""
        n = z.size
        for tau, table in tables.items():
            on = fit.taus == tau
            if on.any():
                coeff = fit.dl_dfit[on] * np.exp(-table.rate * tau) * fit.spot / n
                calls = fit.calls[on]
                table.add("data", *_side_terms(fit.positions[on], np.where(calls, coeff, -coeff),
                                               calls))
        sums, zw = [], None
        for table in tables.values():
            wx, wd = table.adjoint_weights()
            root = np.sqrt(table.tau)
            d_sums = (0.0, 0.0) if wd is None else (float(np.sum(wd)), float(np.dot(wd, z)))
            sums.append((float(np.sum(wx)), float(np.dot(wx, z)), *d_sums))
            for w, factor in ((wx, root), (wd, 0.5 / root)):
                if w is not None:
                    w *= factor
                    zw = w if zw is None else np.add(zw, w, out=zw)
        zw *= z
        parts, comp_proj = [], []  # comp_proj: sum over (tau, n) of wx dX_comp + wd dslope_comp
        for (coef, comp), rows, net_z in zip(mixture_components(model), bound._rows,
                                             bound.passes):
            gmu, gmu_s, gtau, gtau_s, caches_mu, caches_tau = zip(*rows)
            wv_mu, ws_mu, wv_tau, ws_tau = np.zeros((4, len(tables)))
            # adjoints against the scale direction z (G_Z + G_tau + 1): the
            # G_Z part of every maturity at once, then the rest maturity by maturity
            scale_adj = float(np.dot(net_z.values, zw))
            proj = 0.0
            # tables, sums and rows all follow build_tables' maturity order
            for i, (table, (sx, sxz, sd, sdz)) in enumerate(zip(tables.values(), sums)):
                tau, rate, root = table.tau, table.rate, np.sqrt(table.tau)
                base = gtau[i] + 1.0
                wv_mu[i] = coef * rate * (tau * sx + sd)
                ws_mu[i] = coef * rate * tau * sd
                wv_tau[i] = coef * comp.sigma * (root * sxz + sdz / (2.0 * root))
                ws_tau[i] = coef * comp.sigma * root * sdz
                scale_adj += root * base * sxz + base * sdz / (2.0 * root) + root * gtau_s[i] * sdz
                # adjoints against the full component map (for d/dalpha), the scale part below
                proj += rate * tau * gmu[i] * sx + rate * (gmu[i] + tau * gmu_s[i]) * sd
            comp_proj.append(proj + comp.sigma * scale_adj)
            g_mu = comp.net_mu.weighted_value_slope_param_gradient(
                stack_caches(caches_mu), wv_mu, ws_mu)
            g_z = net_z.param_gradient(zw).to_vector()
            g_z *= coef * comp.sigma  # the gradient is linear in the weights
            g_tau = comp.net_tau.weighted_value_slope_param_gradient(
                stack_caches(caches_tau), wv_tau, ws_tau)
            parts += [[coef * scale_adj], g_mu.to_vector(), g_z, g_tau.to_vector()]
        # a mixture's alpha leads the vector
        head = [[comp_proj[0] - comp_proj[1]]] if len(comp_proj) > 1 else []
        return np.concatenate(head + parts), None


_ADAPTERS = {
    "rn-q": _QuantileAdapter(),
    "rn-mlp": _NetworkAdapter(init_rnmlp),
    "rn-dmlp": _NetworkAdapter(init_rndmlp),
}


def _adapter(kind: str):
    try:
        return _ADAPTERS[kind]
    except KeyError:
        raise ValueError(f"unknown model kind {kind!r}") from None


def _adapter_of(model):
    return _ADAPTERS[model_kind(model)]


# the quotes of one evaluation, in quote_groups' order, for the gradients:
# each quote's maturity, slice position, call flag and dL/dfitted, the spot,
# and rn-q's residual weights S s and residuals r
_Fit = namedtuple("_Fit", "taus positions calls dl_dfit spot spot_weights residuals")


def _objective_parts(adapter, model, chain, grid, config, samples, scratch=None,
                     needs_gradient=None):
    """Loss, natural-parameter gradient, and the penalty and the residuals'
    Jacobian (rn-q's; None for the networks).

    ``scratch`` is the fit's ``nn.Scratch`` (see ``calibrate``), which
    the networks' binding reads; without it the binding makes its own.
    When ``needs_gradient(loss)`` is false the gradient and Jacobian are
    None and their passes do not run; without it they are formed.
    """
    z = samples.values
    n = z.size
    groups = quote_groups(chain)
    taus = {tau for tau, *_ in groups}
    use_penalty = adapter.penalized and config.lam > 0.0 and grid is not None
    if use_penalty:
        taus |= {float(t) for t in grid.taus}
    tables, aux = adapter.build_tables(model, sorted(taus), chain.rate, z, scratch)

    # pass 1: price every quote, maturity by maturity and then in chain order
    quote_taus, _, calls, moneyness, mids = zip(*groups)
    priced = [quote_prices(tables[tau], c, m, chain.spot)
              for tau, c, m in zip(quote_taus, calls, moneyness)]
    fitted = np.concatenate([prices for prices, _ in priced])

    # pass 2: per-side averaging over the whole chain fixes the weights
    observed, is_call = np.concatenate(mids), np.concatenate(calls)
    data_loss, dl_dfit, weights = _loss_weights(observed, fitted, is_call, config.loss_kind,
                                                config.relative_mse_floor)

    penalty = 0.0
    if use_penalty:
        grid_m = grid.strikes / chain.spot
        grid_tables = [tables[float(tau)] for tau in grid.taus]
        jc, pos_c, jp, pos_p = map(np.array, zip(*(t.calendars(grid_m) for t in grid_tables)))
        defects = np.array([t.defect for t in grid_tables])
        penalty = aggregate_penalties(jc, jp, defects)
        # per maturity, each violated hinge weights its calendar term by
        # -lam / N, strike by strike and a call before a put
        active = np.stack([jc, jp], axis=-1).reshape(len(grid_tables), -1) < 0.0
        positions = np.stack([pos_c, pos_p], axis=-1).reshape(active.shape)
        grid_calls = np.tile([True, False], grid_m.size)
        lam_n = config.lam / n
        for table, on, pos, defect in zip(grid_tables, active, positions, defects):
            coeffs = np.where(grid_calls[on], -lam_n, lam_n)
            table.add("pen", *_side_terms(pos[on], coeffs, grid_calls[on]))
            table.add("data", [0], [config.lam * 2.0 * defect / (n * table.mean_growth)])

    loss = data_loss + config.lam * penalty
    if not np.isfinite(loss):
        raise FloatingPointError("objective is not finite")

    grad = jacobian = None
    if needs_gradient is None or needs_gradient(loss):
        fit = _Fit(np.repeat(quote_taus, [c.size for c in calls]),
                   np.concatenate([positions for _, positions in priced]), is_call, dl_dfit,
                   chain.spot, chain.spot * weights, weights * (fitted - observed))
        grad, jacobian = adapter.gradient(model, tables, aux, z, fit)
    return loss, grad, {"penalty": penalty, "jacobian": jacobian}


# ----------------------------------------------------------------------
# optimization loop


def calibrate(kind: str, train_chain, config: CalibrationConfig,
              init_model=None, samples=None) -> CalibrationResult:
    """Fit a model of the given kind to the chain by its adapter's step
    rule: full-batch Adam for the networks, Levenberg-Marquardt for rn-q
    (which ignores ``learning_rate``).

    The synthetic penalty grid comes from the chain's own maturities and
    strikes; the samples are drawn once from config.seed, or are the
    caller's ``NormalSampleSet`` of config.n_samples draws, so that
    several fits on one pool draw it once.  A caller's pool that is not
    ascending is sorted once, into a new array (the caller's is left as
    it is), so a fit on any permutation of a pool is the fit on the
    ascending pool, bit for bit.  The trajectory holds the
    first loss and one per accepted step, at most config.iterations
    entries; the fit stops early once the rule has converged.  The
    returned parameters are the last accepted ones and reproduce the last
    entry exactly; the evaluation that ends the fit forms no gradient.
    Only one ``nn.Scratch`` is kept between evaluations.  It holds the
    draws' knot lattices, the knot passes' buffers, each component's G_Z
    and their combination H (rn-q leaves it empty); it is dropped before
    the final metrics.  These price the returned model on the loop's
    draws; the penalty grid's price surface, which gives the final
    penalty, is returned as ``surface``.
    """
    t0 = time.perf_counter()
    if not train_chain.quotes:
        raise ValueError("empty chain")
    adapter = _adapter(kind)
    adapter.check_chain(train_chain)
    model = adapter.init_model(config.seed) if init_model is None else init_model
    if _adapter_of(model) is not adapter:
        raise ValueError("init_model kind does not match model_kind")
    if samples is None:
        samples = draw_standard_normal(config.n_samples, config.seed)
    elif samples.values.size != config.n_samples:
        raise ValueError(f"{samples.values.size} samples for n_samples = {config.n_samples}")
    elif np.any(samples.values[1:] < samples.values[:-1]):
        samples = dataclasses.replace(samples, values=np.sort(samples.values))
    grid = build_synthetic_grid([q.tau for q in train_chain.quotes],
                                [q.strike for q in train_chain.quotes])

    state = trial = adapter.to_state(model)
    rule = adapter.step_rule(config, state)
    current = candidate = adapter.from_state(model, state)
    trajectory, penalties, converged, scratch = [], [], False, Scratch()

    def accepts(loss):  # a descent rule accepts the first loss and then only lower ones
        return not (trajectory and rule.descent) or loss < trajectory[-1]

    def steps_after(loss):
        # a step follows every accepted evaluation but the converged and the last one
        return accepts(loss) and len(trajectory) < config.iterations - 1 \
            and not rule.converged(loss, trajectory)

    while len(trajectory) < config.iterations:
        try:
            with np.errstate(**rule.errors):
                loss, nat_grad, parts = _objective_parts(adapter, candidate, train_chain, grid,
                                                         config, samples, scratch, steps_after)
        except FloatingPointError as exc:
            if not (trajectory and rule.descent):  # a descent rule rejects a failed trial
                raise CalibrationDivergence(len(trajectory), str(exc)) from exc
            loss = None
        if loss is None or not accepts(loss):
            trial = rule.retry()
        else:
            converged = rule.converged(loss, trajectory)
            trajectory.append(loss)
            penalties.append(parts["penalty"])
            state, current = trial, candidate
            if nat_grad is None:
                break
            trial = rule.step(state, *(adapter.state_gradient(state, d)  # Adam's J is None
                                       for d in (nat_grad, parts["jacobian"])))
        if trial is None:  # no step left to try
            converged = True
            break
        try:
            candidate = adapter.from_state(model, trial)
        except ValueError as exc:
            # the step left the model's domain (e.g. sigma < 0), before the next evaluation
            raise CalibrationDivergence(len(trajectory), str(exc)) from exc

    del scratch
    final = adapter.finalize(current, train_chain, samples)

    # a maturity's X and dX/dtau depend only on (model, draws, tau, rate),
    # so the final metrics reproduce the last evaluation bit for bit
    bound = bind(final, samples)
    prices = price_chain(bound, train_chain, samples)
    observed = np.array([q.mid for q in train_chain.quotes])
    sides = [q.side for q in train_chain.quotes]
    final_mse = mse(observed, prices, sides)
    final_rel, n_excl = relative_mse(observed, prices, sides, config.relative_mse_floor)
    surface = price_surface(bound, grid.taus, grid.strikes, train_chain.spot,
                            train_chain.rate, samples)

    return CalibrationResult(
        kind=kind,
        params=final,
        loss_trajectory=np.asarray(trajectory),
        penalty_trajectory=np.asarray(penalties),
        final_train_mse=float(final_mse),
        final_relative_mse=float(final_rel),
        n_excluded_relative=int(n_excl),
        final_penalty=surface.penalty(),
        iterations_run=len(trajectory),
        converged=converged,
        wall_time=time.perf_counter() - t0,
        seed=config.seed,
        surface=surface,
    )
