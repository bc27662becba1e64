"""Subcommand front end: simulate, calibrate, evaluate, perturb, report, audit.

Every command writes its artifacts into ``--out`` plus a run manifest
(``<command>_manifest.json``) listing each artifact with a SHA-256 digest,
the effective configuration, the seed and the wall time.  Wall time is the
only field that differs between two runs with identical inputs and seed.

Exit codes: 0 success, 2 data or usage error (including a checkpoint whose
growth factors overflow or draws too large for memory), 3 calibration divergence.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import re
import sys
import time
from pathlib import Path

import numpy as np

from .arbitrage import audit_price_surface, build_synthetic_grid, price_surface
from .calibration import (
    CalibrationConfig,
    CalibrationDivergence,
    calibrate,
    mse,
    relative_mse,
)
from .data_io import (
    DataError,
    check_distinct_tenors,
    interpolate_rate,
    load_chain,
    save_chain,
    save_rates,
    split_train_test,
)
from .density import RndCharacteristics, characteristics, price_density, \
    pushforward_density, term_structure
from .heston import SCENARIOS, generate_simulated_chain, heston_rnd, heston_true_moments
from .models import (
    bind,
    checkpoint_document,
    checkpoint_json,
    model_from_checkpoint,
    model_kind,
    sample_log_returns,
)
from .pricing import growth_factors, price_chain
from .sampling import draw_standard_normal

_TENOR_DAYS = {"d": 1, "w": 7, "m": 30, "y": 365}

# CalibrationConfig field -> type; the module's postponed annotations make
# field.type a string, so the default's type stands in for it
_CONFIG_FIELDS = {f.name: type(f.default) for f in dataclasses.fields(CalibrationConfig)}
# flags named differently from their field
_FLAG_ATTRS = {"n_samples": "samples"}


# ----------------------------------------------------------------------
# deterministic serialization helpers

def _coerce(obj):
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()  # numpy scalars become Python scalars
    raise TypeError(f"not JSON-serializable: {type(obj)!r}")


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_coerce)
        fh.write("\n")


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(out_dir, name, args, config, seed, inputs, outputs,
                    t_start, checks=None):
    """Reproducibility record; every artifact is listed with its digest."""
    manifest = {
        "command": [name] + [f"{k}={v}" for k, v in sorted(vars(args).items())
                             if v is not None and k != "func"],
        "config": config,
        "seed": seed,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(p): _sha256(p) for p in outputs},
        "checks": checks or {},
        "wall_time": time.perf_counter() - t_start,
    }
    path = Path(out_dir) / f"{name}_manifest.json"
    write_json(path, manifest)
    return path


# ----------------------------------------------------------------------
# configuration plumbing

def read_config_file(path) -> dict:
    """key = value lines, '#' comments; unknown keys are data errors."""
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read config file: {exc}") from exc
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"bad config line {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_FIELDS:
            raise DataError(f"unknown config key {key!r}")
        values[key] = val
    return values


def _convert(key, value):
    caster = _CONFIG_FIELDS[key]
    try:
        if caster is int:
            number = value if isinstance(value, int) else float(value)
            if number != int(number):
                raise ValueError("not an integer")
            return int(number)
        return caster(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"bad value for {key}: {value!r}") from exc


def build_calibration_config(args) -> CalibrationConfig:
    """File values first, then flags on top; flags win."""
    values = {}
    if getattr(args, "config", None):
        for key, text in read_config_file(args.config).items():
            values[key] = _convert(key, text)
    for key in _CONFIG_FIELDS:
        val = getattr(args, _FLAG_ATTRS.get(key, key))
        if val is not None:
            values[key] = _convert(key, val)
    try:
        return CalibrationConfig(**values)
    except ValueError as exc:
        raise DataError(str(exc)) from exc


def parse_tau_grid(text) -> list:
    """'1w,1m,3m,6m,9m,1y' -> sorted unique day counts."""
    days = set()
    for token in text.split(","):
        token = token.strip().lower()
        match = re.fullmatch(r"(\d+)([dwmy]?)", token)
        if match is None:
            raise DataError(f"bad maturity token {token!r}")
        days.add(int(match.group(1)) * _TENOR_DAYS[match.group(2) or "d"])
    if not days or 0 in days:
        raise DataError("maturity grid must be positive")
    return sorted(days)


def _is_number(value, finite=True) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and (not finite or math.isfinite(value)))


def _load_checkpoint(path):
    """Read a checkpoint file; returns (context dict, model)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read checkpoint: {exc}") from exc
    try:
        model = model_from_checkpoint(doc)
    except ValueError as exc:
        raise DataError(f"bad checkpoint: {exc}") from exc
    ctx = doc.get("context")
    if not isinstance(ctx, dict):
        raise DataError("checkpoint has no context block")
    for key in ("config", "spot", "rate_curve", "train_days", "train_strikes"):
        if key not in ctx:
            raise DataError(f"checkpoint context is missing field {key!r}")
    config = ctx["config"]
    if not (isinstance(config, dict)
            and all(_is_number(config.get(key), finite=False) for key in ("n_samples", "seed"))):
        raise DataError("checkpoint context config needs numeric n_samples and seed")
    if "relative_mse_floor" in config and not _is_number(config["relative_mse_floor"]):
        raise DataError("checkpoint context config relative_mse_floor must be a finite number")
    if not (_is_number(ctx["spot"]) and ctx["spot"] > 0.0):
        raise DataError("checkpoint context spot must be a positive finite number")
    for key in ("train_days", "train_strikes"):
        if not (isinstance(ctx[key], list) and all(map(_is_number, ctx[key]))):
            raise DataError(f"checkpoint context {key} must be a list of finite numbers")
    curve = ctx["rate_curve"]
    if not (isinstance(curve, list)
            and all(isinstance(pair, list) and len(pair) == 2
                    and all(map(_is_number, pair)) for pair in curve)):
        raise DataError("checkpoint context rate_curve must be a list of "
                        "[tenor, rate] pairs of finite numbers")
    check_distinct_tenors(curve, "checkpoint context rate_curve")
    return ctx, model


def _checkpoint_samples(args, ctx):
    n = args.samples if args.samples is not None else ctx["config"]["n_samples"]
    seed = _convert("seed", args.seed if args.seed is not None else ctx["config"]["seed"])
    return draw_standard_normal(_convert("n_samples", n), seed), seed


def _rate_fn(curve):
    return lambda tau: interpolate_rate(curve, tau)


# ----------------------------------------------------------------------
# subcommands

def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    days = [int(d) for d in args.days.split(",")] if args.days else None
    cf_tables = {}  # one damped-CF table per maturity, for the chain and the density
    chain = generate_simulated_chain(args.scenario, spot=args.spot,
                                     rate=args.rate, days=days, cf_tables=cf_tables)
    chain_path = out / f"{args.scenario}_chain.csv"
    rates_path = chain_path.with_suffix(".rates.csv")
    save_chain(chain, chain_path)
    save_rates(chain.rate_curve, rates_path)

    params, _ = SCENARIOS[args.scenario]
    outputs = [chain_path, rates_path]
    moment_rows = []
    maturities = chain.maturities()
    for tau in maturities:
        rate = chain.rate(tau)
        var, skew, kurt = heston_true_moments(params, tau)
        moment_rows.append((tau, np.sqrt(var), skew, kurt))
        width = 12.0 * np.sqrt(var)
        log_grid = np.linspace(np.log(chain.spot) + rate * tau - width,
                               np.log(chain.spot) + rate * tau + width, 1501)
        rnd = heston_rnd(params, chain.spot, tau, rate, np.exp(log_grid), cf_tables)
        suffix = f"_{int(round(tau * 365.0))}d" if maturities.size > 1 else ""
        rnd_path = out / f"{args.scenario}_true_rnd{suffix}.csv"
        write_csv(rnd_path, ["grid", "value"], zip(rnd.grid, rnd.values))
        outputs.append(rnd_path)
    moments_path = out / f"{args.scenario}_true_moments.csv"
    write_csv(moments_path, ["tau", "rnm2", "rnm3", "rnm4"], moment_rows)
    outputs.append(moments_path)

    _write_manifest(out, "simulate", args,
                    {"scenario": args.scenario, "spot": args.spot,
                     "rate": args.rate, "days": days},
                    None, [], outputs, t0)
    print(f"wrote {len(chain.quotes)}-quote {args.scenario} chain to {chain_path}")
    return 0


def cmd_calibrate(args) -> int:
    t0 = time.perf_counter()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    chain = load_chain(args.chain, spot=args.spot)
    split = split_train_test(chain)
    train = split.train
    if not train.quotes:
        raise DataError("empty training set after the moneyness split")
    config = build_calibration_config(args)
    result = calibrate(args.kind, train, config)

    train_days = sorted({q.days_to_maturity for q in train.quotes})
    train_strikes = sorted({float(q.strike) for q in train.quotes})
    checkpoint = checkpoint_document(result.params)
    checkpoint["context"] = {
        "config": dataclasses.asdict(config),
        "seed": config.seed,
        "spot": train.spot,
        "rate_curve": [[float(t), float(r)] for t, r in train.rate_curve],
        "observation_date": str(train.observation_date),
        "train_days": train_days,
        "train_strikes": train_strikes,
    }
    ck_path = out / "checkpoint.json"
    ck_path.write_bytes(checkpoint_json(checkpoint).encode("utf-8"))
    result_path = out / "calibration_result.json"
    write_json(result_path, result.to_jsonable())

    # the fit's penalty grid holds the training maturities and strikes
    audit = audit_price_surface(result.surface.at([d / 365.0 for d in train_days],
                                                  train_strikes))
    report_path = out / "audit_report.json"
    write_json(report_path, {"penalty": result.final_penalty.to_jsonable(),
                             "audit": audit})

    _write_manifest(out, "calibrate", args, dataclasses.asdict(config),
                    config.seed, [args.chain], [ck_path, result_path, report_path],
                    t0)
    print(f"{args.kind}: {result.iterations_run} iterations, "
          f"converged={result.converged}, train MSE {result.final_train_mse:.6g}, "
          f"penalty {result.final_penalty.total:.6g}")
    return 0


def _set_metrics(subchain, price_of, floor):
    observed = np.array([q.mid for q in subchain.quotes])
    sides = [q.side for q in subchain.quotes]
    fitted = np.array([price_of[id(q)] for q in subchain.quotes])
    value = mse(observed, fitted, sides)
    rel, n_excl = relative_mse(observed, fitted, sides, floor=floor)
    return {"n_quotes": len(subchain.quotes), "mse": value,
            "relative_mse": rel, "n_excluded_relative": n_excl}


def cmd_evaluate(args) -> int:
    t0 = time.perf_counter()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ctx, model = _load_checkpoint(args.checkpoint)
    chain = load_chain(args.chain, spot=args.spot)
    if abs(chain.spot - ctx["spot"]) > 1e-12 * ctx["spot"]:
        print(f"warning: chain spot {chain.spot} differs from checkpoint "
              f"spot {ctx['spot']}", file=sys.stderr)
    split = split_train_test(chain)
    samples, seed = _checkpoint_samples(args, ctx)
    floor = ctx["config"].get("relative_mse_floor", 0.05)
    # one slice per maturity prices every quote; the sets share its quote objects
    prices = price_chain(model, chain, samples)
    price_of = {id(q): p for q, p in zip(chain.quotes, prices)}

    metrics = {"checkpoint_kind": model_kind(model)}
    for name, sub in (("train", split.train), ("test", split.test),
                      ("extreme", split.extreme)):
        if sub.quotes:
            metrics[name] = _set_metrics(sub, price_of, floor)
        else:
            print(f"warning: {name} set is empty", file=sys.stderr)
            metrics[name] = {"n_quotes": 0, "mse": None,
                             "relative_mse": None, "n_excluded_relative": None}
    metrics_path = out / "metrics.json"
    write_json(metrics_path, metrics)
    _write_manifest(out, "evaluate", args, {"n_samples": samples.values.size},
                    seed, [args.checkpoint, args.chain], [metrics_path], t0)
    for name in ("test", "extreme"):
        cell = metrics[name]
        print(f"{name:8s} mse={_fmt(cell['mse'])} "
              f"relative_mse={_fmt(cell['relative_mse'])} "
              f"(n={cell['n_quotes']})")
    return 0


def cmd_perturb(args) -> int:
    t0 = time.perf_counter()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    chain = load_chain(args.chain, spot=args.spot)
    train = split_train_test(chain).train
    if not train.quotes:
        raise DataError("empty training set after the moneyness split")
    config = build_calibration_config(args)
    eval_samples = draw_standard_normal(config.n_samples, config.seed)
    tau_star = (args.tau_days / 365.0 if args.tau_days is not None
                else float(max(q.tau for q in train.quotes)))
    rate_star = train.rate(tau_star)

    header = ["trial", "diverged", "train_mse"] + list(RndCharacteristics.FIELD_ORDER)
    rows = []
    kept = []
    for trial in range(args.trials):
        rng = np.random.default_rng([args.perturb_seed, trial])
        signs = rng.integers(0, 2, size=len(train.quotes)) * 2.0 - 1.0
        quotes = [dataclasses.replace(q, bid=q.bid + args.tick * s,
                                      ask=q.ask + args.tick * s)
                  for q, s in zip(train.quotes, signs)]
        perturbed = train.with_quotes(quotes)
        try:
            result = calibrate(args.kind, perturbed, config, samples=eval_samples)
        except CalibrationDivergence as exc:
            print(f"trial {trial}: diverged at iteration {exc.iteration}",
                  file=sys.stderr)
            rows.append([trial, 1, np.nan] + [np.nan] * 10)
            continue
        values = chain.spot * np.exp(sample_log_returns(
            result.params, tau_star, eval_samples, rate_star))
        ch = characteristics(values)
        row = [trial, 0, result.final_train_mse]
        row += [getattr(ch, name) for name in RndCharacteristics.FIELD_ORDER]
        rows.append(row)
        kept.append(row)
        print(f"trial {trial}: train MSE {result.final_train_mse:.6g}", flush=True)

    std_row = ["std", args.trials - len(kept)]
    for col in range(2, len(header)):
        values = np.array([row[col] for row in kept])
        # center on the first trial so identical trials give exactly 0.0
        std_row.append(float(np.std(values - values[0], ddof=1))
                       if values.size >= 2 else np.nan)
    rows.append(std_row)

    csv_path = out / "stability.csv"
    write_csv(csv_path, header, rows)
    _write_manifest(out, "perturb", args,
                    dict(dataclasses.asdict(config), trials=args.trials,
                         tick=args.tick, tau_days=args.tau_days),
                    args.perturb_seed, [args.chain], [csv_path], t0)
    print(f"{len(kept)} of {args.trials} trials kept; wrote {csv_path}")
    return 0


def cmd_report(args) -> int:
    """Densities, characteristics and the moment term structure at one maturity.

    The density grid spans the pool's log-returns.  The manifest's integral
    check reads the density's integral, which is the normal mass of the
    pool's Z range (about 0.9999 at 6e4 draws): its shortfall from 1 is
    the mass that range leaves out.
    """
    t0 = time.perf_counter()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ctx, model = _load_checkpoint(args.checkpoint)
    spot = args.spot if args.spot is not None else float(ctx["spot"])
    curve = [(float(t), float(r)) for t, r in ctx["rate_curve"]]
    samples, seed = _checkpoint_samples(args, ctx)
    tau_days = (args.tau_days if args.tau_days is not None
                else max(ctx["train_days"]))
    tau = tau_days / 365.0
    rate = interpolate_rate(curve, tau)
    bound = bind(model, samples)

    log_returns = bound.log_returns(tau, rate)
    growth = growth_factors(log_returns, tau)
    grid = np.linspace(log_returns.min(), log_returns.max(), 1001)
    est = pushforward_density(bound, tau, samples, grid, rate)
    log_density_path = out / "density_log_return.csv"
    write_csv(log_density_path, ["grid", "value"], zip(est.grid, est.values))
    price_est = price_density(est, spot)
    price_density_path = out / "density_price.csv"
    write_csv(price_density_path, ["grid", "value"],
              zip(price_est.grid, price_est.values))

    ch = characteristics(spot * growth)
    char_path = out / "characteristics.json"
    write_json(char_path, dataclasses.asdict(ch))

    term_rows = term_structure(bound, [d / 365.0 for d in parse_tau_grid(args.tau_grid)],
                               samples, _rate_fn(curve))
    term_path = out / "term_structure.csv"
    write_csv(term_path, ["tau", "rnm2", "rnm3", "rnm4"], term_rows)

    integral = est.integral()
    checks = {"log_return_density_integral": integral,
              "density_integral_within_1pct": bool(abs(integral - 1.0) < 0.01)}
    _write_manifest(out, "report", args,
                    {"tau_days": tau_days, "tau_grid": args.tau_grid,
                     "n_samples": samples.values.size, "spot": spot},
                    seed, [args.checkpoint],
                    [log_density_path, price_density_path, char_path, term_path],
                    t0, checks=checks)
    print(f"density integral {integral:.6f}; wrote 4 artifacts to {out}")
    return 0


def cmd_audit(args) -> int:
    t0 = time.perf_counter()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ctx, model = _load_checkpoint(args.checkpoint)
    inputs = [args.checkpoint]
    if args.chain:
        chain = load_chain(args.chain, spot=args.spot)
        spot, rate_fn = chain.spot, chain.rate
        taus = [float(t) for t in chain.maturities()]
        strikes = [float(k) for k in chain.strikes()]
        inputs.append(args.chain)
    else:
        spot = args.spot if args.spot is not None else float(ctx["spot"])
        curve = [(float(t), float(r)) for t, r in ctx["rate_curve"]]
        rate_fn = _rate_fn(curve)
        taus = [d / 365.0 for d in ctx["train_days"]]
        strikes = [float(k) for k in ctx["train_strikes"]]
    samples, seed = _checkpoint_samples(args, ctx)

    # the penalty grid holds every audited maturity and strike, so one
    # surface on it serves both
    grid = build_synthetic_grid(taus, strikes)
    surface = price_surface(model, grid.taus, grid.strikes, spot, rate_fn, samples)
    audit = audit_price_surface(surface.at(taus, strikes))
    penalty = surface.penalty()
    audit_path = out / "audit.json"
    write_json(audit_path, {"audit": audit, "penalty": penalty.to_jsonable()})
    _write_manifest(out, "audit", args,
                    {"n_samples": samples.values.size, "spot": spot},
                    seed, inputs, [audit_path], t0)
    status = "PASS" if audit["passed"] else "FAIL"
    print(f"audit {status}")
    print(f"penalty grid: total {penalty.total:.6g}, "
          f"{penalty.n_violations} active hinges")
    for name, check in sorted(audit["checks"].items()):
        print(f"  {name}: {'ok' if check['passed'] else 'VIOLATED'} "
              f"(n={check['n_violations']})")
    return 0


# ----------------------------------------------------------------------
# parser

def _add_common(parser):
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--samples", type=float, default=None,
                        help="Monte Carlo sample count")
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted and ignored: every command runs on one thread")
    parser.add_argument("--spot", type=float, default=None)


def _add_config_flags(parser):
    parser.add_argument("--config", default=None,
                        help="key=value file; flags take precedence")
    parser.add_argument("--learning-rate", type=float, default=None,
                        help="Adam's step size; rn-q, fitted by Levenberg-Marquardt, ignores it")
    parser.add_argument("--iterations", type=int, default=None)
    parser.add_argument("--lam", type=float, default=None,
                        help="no-arbitrage penalty weight")
    parser.add_argument("--loss-kind", choices=("absolute-MSE", "relative-MSE"),
                        default=None)
    parser.add_argument("--convergence-tol", type=float, default=None)
    parser.add_argument("--relative-mse-floor", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rndkit",
        description="Risk-neutral density extraction from option prices.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write a Heston test chain")
    p.add_argument("--scenario", required=True, choices=sorted(SCENARIOS))
    p.add_argument("--rate", type=float, default=0.04)
    p.add_argument("--days", default=None,
                   help="comma-separated maturities in days")
    _add_common(p)
    p.set_defaults(func=cmd_simulate, spot=1000.0)

    p = sub.add_parser("calibrate", help="fit a model to a chain")
    p.add_argument("--chain", required=True)
    p.add_argument("--kind", required=True, choices=("rn-q", "rn-mlp", "rn-dmlp"))
    _add_common(p)
    _add_config_flags(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("evaluate", help="price the test and extreme sets")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--chain", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("perturb", help="tick-perturbation stability study")
    p.add_argument("--chain", required=True)
    p.add_argument("--kind", required=True, choices=("rn-q", "rn-mlp", "rn-dmlp"))
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--tick", type=float, default=0.25)
    p.add_argument("--perturb-seed", type=int, default=0,
                   help="seed for the tick signs (calibration seed comes "
                        "from the config)")
    p.add_argument("--tau-days", type=int, default=None,
                   help="maturity for the characteristics (default: "
                        "largest training maturity)")
    _add_common(p)
    _add_config_flags(p)
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("report", help="densities, characteristics, moments")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--tau-grid", default="1w,1m,3m,6m,9m,1y",
                   help="comma-separated maturities (e.g. 1w,1m,3m,6m,9m,1y)")
    p.add_argument("--tau-days", type=int, default=None,
                   help="maturity for the density plots")
    _add_common(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("audit", help="static no-arbitrage audit")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--chain", default=None,
                   help="grid source (default: checkpoint training grid)")
    _add_common(p)
    p.set_defaults(func=cmd_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag in ("spot", "rate", "tick"):  # None where the command has no such flag
        if not math.isfinite(getattr(args, flag, None) or 0.0):
            parser.error(f"--{flag} must be finite")
    if getattr(args, "spot", None) is not None and args.spot <= 0.0:
        parser.error("--spot must be positive")
    if args.command == "perturb":
        if args.trials < 2:
            parser.error("--trials must be at least 2")
        if args.tick < 0.0:
            parser.error("--tick must be non-negative")
    if getattr(args, "tau_days", None) is not None and args.tau_days < 1:  # perturb, report
        parser.error("--tau-days must be at least 1")
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CalibrationDivergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, FloatingPointError, MemoryError) as exc:
        # FloatingPointError: a model whose growth factors e^X overflow;
        # MemoryError: a sample count too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
