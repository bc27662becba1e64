"""End-to-end checks of the command-line front end."""

import json
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import oracles
import rndkit
from rndkit import calibration, cli, density, heston, models, pricing
from rndkit.cli import main, parse_tau_grid, read_config_file
from rndkit.data_io import DataError, load_chain, save_chain, save_rates
from rndkit.heston import generate_simulated_chain
from rndkit.models import model_from_checkpoint
from rndkit.nn import DenseNetwork
from rndkit.pricing import MaturitySlice


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    rc = main(["simulate", "--scenario", "left-skew", "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def fit_dir(tmp_path_factory, sim_dir):
    out = tmp_path_factory.mktemp("fit")
    rc = main(["calibrate", "--chain", str(sim_dir / "left-skew_chain.csv"),
               "--kind", "rn-q", "--out", str(out),
               "--samples", "4000", "--iterations", "120", "--seed", "1"])
    assert rc == 0
    return out


DMLP_SAMPLES = 2000


@pytest.fixture(scope="module")
def dmlp_dir(tmp_path_factory):
    """A two-maturity chain and a short rn-dmlp fit on it."""
    out = tmp_path_factory.mktemp("dmlp")
    assert main(["simulate", "--scenario", "left-skew", "--days", "30,91",
                 "--out", str(out / "sim")]) == 0
    assert main(["calibrate", "--chain", str(out / "sim" / "left-skew_chain.csv"),
                 "--kind", "rn-dmlp", "--out", str(out / "fit"),
                 "--samples", str(DMLP_SAMPLES), "--iterations", "3",
                 "--seed", "2"]) == 0
    return out


def _network_commands(dmlp_dir, out, threads):
    ck = str(dmlp_dir / "fit" / "checkpoint.json")
    chain = str(dmlp_dir / "sim" / "left-skew_chain.csv")
    common = ["--threads", str(threads)]
    return {
        "evaluate": ["evaluate", "--checkpoint", ck, "--chain", chain,
                     "--out", str(out / "evaluate")] + common,
        "audit": ["audit", "--checkpoint", ck, "--out", str(out / "audit")] + common,
        "report": ["report", "--checkpoint", ck, "--tau-grid", "1w,1m,3m",
                   "--out", str(out / "report")] + common,
    }


def test_simulate_writes_chain_and_sidecars(sim_dir):
    chain = load_chain(sim_dir / "left-skew_chain.csv")
    assert chain.spot == 1000.0
    assert all(q.side == "call" for q in chain.quotes)
    manifest = json.loads((sim_dir / "simulate_manifest.json").read_text())
    assert len(manifest["outputs"]) == 4
    assert all(len(h) == 64 for h in manifest["outputs"].values())
    moments = (sim_dir / "left-skew_true_moments.csv").read_text().splitlines()
    assert moments[0] == "tau,rnm2,rnm3,rnm4"
    tau, rnm2, rnm3, rnm4 = map(float, moments[1].split(","))
    assert rnm3 < -0.5 and rnm4 > 3.0 and 0.05 < rnm2 < 0.3
    rnd_rows = (sim_dir / "left-skew_true_rnd.csv").read_text().splitlines()[1:]
    grid, values = np.array([list(map(float, r.split(","))) for r in rnd_rows]).T
    assert abs(np.trapezoid(values, grid) - 1.0) < 1e-3


def test_simulate_builds_one_cf_table_per_maturity(tmp_path, monkeypatch):
    # the chain's strikes and the true density's share each maturity's table
    taus = []
    table = heston._damped_cf_table

    def spy(p, spot, tau, rate, *args, **kwargs):
        taus.append(tau)
        return table(p, spot, tau, rate, *args, **kwargs)

    monkeypatch.setattr(heston, "_damped_cf_table", spy)
    assert main(["simulate", "--scenario", "left-skew", "--days", "30,91,182",
                 "--out", str(tmp_path)]) == 0
    assert taus == [30 / 365, 91 / 365, 182 / 365]


def test_simulate_unknown_scenario_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "--scenario", "nope", "--out", str(tmp_path)])
    assert excinfo.value.code == 2


def test_calibrate_writes_checkpoint_result_and_audit(fit_dir):
    ck = json.loads((fit_dir / "checkpoint.json").read_bytes())
    model = model_from_checkpoint(ck)
    assert model.sigma > 0.0
    assert ck["format_version"] == 1
    assert ck["model_type"] == "rn-q"
    assert ck["context"]["train_days"] == [91]
    result = json.loads((fit_dir / "calibration_result.json").read_text())
    # Levenberg-Marquardt converges well before the 120 allowed steps
    assert result["converged"] and 1 < result["iterations_run"] < 120
    assert len(result["loss_trajectory"]) == result["iterations_run"]
    report = json.loads((fit_dir / "audit_report.json").read_text())
    assert set(report) == {"penalty", "audit"}
    assert isinstance(report["audit"]["passed"], bool)


def test_calibrate_rnq_on_multi_maturity_chain_exits_2(tmp_path, capsys):
    rc = main(["simulate", "--scenario", "left-skew", "--days", "91,182",
               "--out", str(tmp_path)])
    assert rc == 0
    rc = main(["calibrate", "--chain", str(tmp_path / "left-skew_chain.csv"),
               "--kind", "rn-q", "--out", str(tmp_path / "fit"),
               "--samples", "1000", "--iterations", "5"])
    assert rc == 2
    assert "single-maturity" in capsys.readouterr().err


def test_calibrate_divergence_exits_3(sim_dir, tmp_path, capsys):
    rc = main(["calibrate", "--chain", str(sim_dir / "left-skew_chain.csv"),
               "--kind", "rn-mlp", "--out", str(tmp_path),
               "--samples", "1000", "--iterations", "50",
               "--learning-rate", "1e8"])
    assert rc == 3
    # a first step that drives sigma below zero is a divergence too
    capsys.readouterr()
    rc = main(["calibrate", "--chain", str(sim_dir / "left-skew_chain.csv"),
               "--kind", "rn-mlp", "--out", str(tmp_path), "--seed", "1",
               "--samples", "1000", "--iterations", "20",
               "--learning-rate", "1"])
    assert rc == 3
    assert "iteration 1: sigma must be non-negative" in capsys.readouterr().err


def test_calibrate_missing_chain_exits_2(tmp_path, capsys):
    rc = main(["calibrate", "--chain", str(tmp_path / "absent.csv"),
               "--kind", "rn-q", "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_calibrate_same_seed_twice_is_deterministic(sim_dir, tmp_path):
    args = ["calibrate", "--chain", str(sim_dir / "left-skew_chain.csv"),
            "--kind", "rn-q", "--samples", "3000", "--iterations", "40",
            "--seed", "7"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    ra = json.loads((tmp_path / "a" / "calibration_result.json").read_text())
    rb = json.loads((tmp_path / "b" / "calibration_result.json").read_text())
    ra.pop("wall_time"), rb.pop("wall_time")
    assert ra == rb
    ca = (tmp_path / "a" / "checkpoint.json").read_bytes()
    cb = (tmp_path / "b" / "checkpoint.json").read_bytes()
    assert ca == cb


def test_config_file_provides_defaults_and_flags_win(sim_dir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("iterations = 25\nseed = 11  # comment\nn_samples = 2000\n")
    rc = main(["calibrate", "--chain", str(sim_dir / "left-skew_chain.csv"),
               "--kind", "rn-q", "--out", str(tmp_path),
               "--config", str(cfg), "--iterations", "30"])
    assert rc == 0
    ck = json.loads((tmp_path / "checkpoint.json").read_text())
    assert ck["context"]["config"]["iterations"] == 30
    assert ck["context"]["config"]["seed"] == 11
    assert ck["context"]["config"]["n_samples"] == 2000


@pytest.mark.parametrize("flags", [
    ["--lam", "nan"], ["--lam", "inf"], ["--learning-rate", "nan"],
    ["--learning-rate", "inf"], ["--convergence-tol", "nan"],
    ["--loss-kind", "relative-MSE", "--relative-mse-floor", "nan"],
    ["--relative-mse-floor", "inf"],
], ids=lambda flags: " ".join(flags))
@pytest.mark.parametrize("source", ["flag", "config"])
def test_non_finite_settings_exit_2(sim_dir, tmp_path, capsys, flags, source):
    if source == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{flag[2:].replace('-', '_')} = {value}\n"
                               for flag, value in zip(flags[::2], flags[1::2])))
        flags = ["--config", str(cfg)]
    out = tmp_path / "out"
    assert main(["calibrate", "--chain", str(sim_dir / "left-skew_chain.csv"),
                 "--kind", "rn-q", "--samples", "2000", "--iterations", "5",
                 "--out", str(out)] + flags) == 2
    assert "error:" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["calibrate", "perturb", "evaluate", "report", "audit"])
def test_infinite_samples_exit_2(sim_dir, fit_dir, tmp_path, capsys, command):
    chain = str(sim_dir / "left-skew_chain.csv")
    ck = str(fit_dir / "checkpoint.json")
    out = tmp_path / "out"
    argv = {
        "calibrate": ["calibrate", "--chain", chain, "--kind", "rn-q"],
        "perturb": ["perturb", "--chain", chain, "--kind", "rn-q", "--trials", "2"],
        "evaluate": ["evaluate", "--checkpoint", ck, "--chain", chain],
        "report": ["report", "--checkpoint", ck],
        "audit": ["audit", "--checkpoint", ck],
    }[command]
    assert main(argv + ["--samples", "inf", "--out", str(out)]) == 2
    assert "bad value for n_samples" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("key", ["n_samples", "seed"])
def test_checkpoint_with_infinite_samples_or_seed_exits_2(fit_dir, tmp_path, capsys, key):
    doc = json.loads((fit_dir / "checkpoint.json").read_text())
    doc["context"]["config"][key] = float("inf")
    bad = tmp_path / "inf.json"
    bad.write_text(json.dumps(doc))  # written as Infinity, which json.load reads back
    out = tmp_path / "out"
    assert main(["audit", "--checkpoint", str(bad), "--out", str(out)]) == 2
    assert f"bad value for {key}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["calibrate", "perturb", "evaluate", "report", "audit"])
def test_fractional_samples_exit_2(sim_dir, fit_dir, tmp_path, capsys, command):
    chain = str(sim_dir / "left-skew_chain.csv")
    ck = str(fit_dir / "checkpoint.json")
    out = tmp_path / "out"
    argv = {
        "calibrate": ["calibrate", "--chain", chain, "--kind", "rn-q", "--iterations", "1"],
        "perturb": ["perturb", "--chain", chain, "--kind", "rn-q", "--trials", "2",
                    "--iterations", "1"],
        "evaluate": ["evaluate", "--checkpoint", ck, "--chain", chain],
        "report": ["report", "--checkpoint", ck],
        "audit": ["audit", "--checkpoint", ck],
    }[command]
    assert main(argv + ["--samples", "2000.7", "--out", str(out)]) == 2
    assert "bad value for n_samples" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("line, key", [("iterations = 3.9", "iterations"),
                                       ("seed = 1.5", "seed"),
                                       ("n_samples = 2000.5", "n_samples")])
def test_fractional_integer_settings_in_a_config_file_exit_2(sim_dir, tmp_path, capsys,
                                                             line, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "out"
    assert main(["calibrate", "--chain", str(sim_dir / "left-skew_chain.csv"),
                 "--kind", "rn-q", "--samples", "2000", "--config", str(cfg),
                 "--out", str(out)]) == 2
    assert f"bad value for {key}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_allocation_failure_exits_2(fit_dir, tmp_path, capsys, monkeypatch):
    def refuse(n, seed):
        raise MemoryError(f"Unable to allocate {8 * n} bytes")

    monkeypatch.setattr(cli, "draw_standard_normal", refuse)
    assert main(["audit", "--checkpoint", str(fit_dir / "checkpoint.json"),
                 "--samples", "1e12", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Unable to allocate" in err


def test_read_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("learning_rate = 0.01\nwarp_speed = 9\n")
    with pytest.raises(DataError, match="warp_speed"):
        read_config_file(cfg)


def test_evaluate_train_mse_matches_calibration_result(sim_dir, fit_dir, tmp_path):
    rc = main(["evaluate", "--checkpoint", str(fit_dir / "checkpoint.json"),
               "--chain", str(sim_dir / "left-skew_chain.csv"),
               "--out", str(tmp_path)])
    assert rc == 0
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    result = json.loads((fit_dir / "calibration_result.json").read_text())
    assert metrics["train"]["mse"] == result["final_train_mse"]
    for name in ("test", "extreme"):
        assert metrics[name]["mse"] is not None
        assert metrics[name]["relative_mse"] is not None


def test_evaluate_train_mse_matches_network_calibration_result(dmlp_dir, tmp_path):
    assert main(_network_commands(dmlp_dir, tmp_path, 2)["evaluate"]) == 0
    metrics = json.loads((tmp_path / "evaluate" / "metrics.json").read_text())
    result = json.loads((dmlp_dir / "fit" / "calibration_result.json").read_text())
    assert result["kind"] == "rn-dmlp"
    assert metrics["train"]["mse"] == result["final_train_mse"]


def _net_z_row_spy(monkeypatch, rows):
    """Count the rows of every net_z pass into ``rows``, keyed by whether
    it forms slopes.

    net_z passes run over many knots; the tau nets run one row at a time.
    """
    scalar_batch = DenseNetwork.scalar_batch

    def spy(self, x, want_slope=False, **kwargs):
        if np.size(x) > 1:
            rows["slopes" if want_slope else "values"] += np.size(x)
        return scalar_batch(self, x, want_slope=want_slope, **kwargs)

    monkeypatch.setattr(DenseNetwork, "scalar_batch", spy)


@pytest.mark.parametrize("kind, iterations, tol", [
    pytest.param("rn-q", 3, None, id="rn-q"),
    pytest.param("rn-dmlp", 3, None, id="rn-dmlp"),
    # the window test stops the fit at its first chance, iteration 100
    pytest.param("rn-dmlp", 150, 1e12, id="rn-dmlp-converged"),
])
def test_calibrate_draws_once_and_binds_once(sim_dir, tmp_path, monkeypatch, kind,
                                             iterations, tol):
    draws = []
    steps = []
    rows = {"slopes": 0, "values": 0}
    real_draw = calibration.draw_standard_normal

    def draw_spy(*args, **kwargs):
        draws.append(args)
        return real_draw(*args, **kwargs)

    def step_spy(rule):
        real_step = rule.step

        def step(*args, **kwargs):
            steps.append(rule.__name__)
            return real_step(*args, **kwargs)
        return step

    monkeypatch.setattr(calibration, "draw_standard_normal", draw_spy)
    monkeypatch.setattr(cli, "draw_standard_normal", draw_spy)
    for rule in (calibration._Adam, calibration._LevenbergMarquardt):
        monkeypatch.setattr(rule, "step", step_spy(rule))
    _net_z_row_spy(monkeypatch, rows)
    n = 2000
    argv = ["calibrate", "--chain", str(sim_dir / "left-skew_chain.csv"),
            "--kind", kind, "--out", str(tmp_path), "--samples", str(n),
            "--iterations", str(iterations), "--seed", "3"]
    if tol is not None:
        argv += ["--convergence-tol", str(tol)]
    assert main(argv) == 0
    result = json.loads((tmp_path / "calibration_result.json").read_text())
    run = result["iterations_run"]
    assert result["converged"] == (tol is not None)
    assert run == (calibration.CONVERGENCE_WINDOW + 1 if tol is not None else iterations)
    assert len(draws) == 1
    # one knot pass per component per evaluation, plus the final binding,
    # which the audit reuses; at 2000 draws the knots are the draws, with
    # no midpoint check.  An evaluation's pass forms slopes and keeps its
    # cache for the gradient, formed only for an evaluation that a step
    # follows (not the last one), which runs no net_z pass of its own; the
    # final binding reads the knots without slopes.  rn-q steps by
    # Levenberg-Marquardt, the networks by Adam
    n_components = {"rn-q": 0, "rn-dmlp": 2}[kind]
    rule = {"rn-q": "_LevenbergMarquardt", "rn-dmlp": "_Adam"}[kind]
    assert steps == [rule] * (run - 1)
    assert rows == {"values": n_components * n, "slopes": n_components * run * n}


def _run_child(code, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)


def test_importing_the_cli_leaves_scipy_unimported():
    run = _run_child("import sys, rndkit.cli\n"
                     "print(sorted(m for m in sys.modules\n"
                     "             if m.split('.')[0] in ('scipy', 'mpmath')))")
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


_PIPELINE_WITHOUT_SCIPY_OR_MPMATH = """
import sys
sys.modules["scipy"] = None  # every import of scipy now raises ImportError
sys.modules["mpmath"] = None  # and so does every import of mpmath
from rndkit.cli import main
out = sys.argv[1]
assert main(["simulate", "--scenario", "left-skew", "--out", out + "/sim"]) == 0
assert main(["calibrate", "--chain", out + "/sim/left-skew_chain.csv", "--kind", "rn-q",
             "--samples", "2000", "--iterations", "3", "--out", out + "/fit"]) == 0
print("ok")
"""


def test_simulate_and_calibrate_run_without_scipy_or_mpmath(tmp_path):
    run = _run_child(_PIPELINE_WITHOUT_SCIPY_OR_MPMATH, str(tmp_path))
    assert run.returncode == 0 and run.stdout.splitlines()[-1] == "ok", run.stderr
    assert (tmp_path / "fit" / "checkpoint.json").is_file()


_PIPELINE_WITHOUT_NUMPY_MA = """
import sys
from rndkit.cli import main
out = sys.argv[1]
chain = out + "/sim/left-skew_chain.csv"
assert main(["simulate", "--scenario", "left-skew", "--days", "30,91", "--out", out + "/sim"]) == 0
assert main(["calibrate", "--chain", chain, "--kind", "rn-dmlp", "--samples", "2000",
             "--iterations", "2", "--out", out + "/fit"]) == 0
ck = out + "/fit/checkpoint.json"
assert main(["evaluate", "--checkpoint", ck, "--chain", chain, "--out", out + "/eval"]) == 0
assert main(["audit", "--checkpoint", ck, "--out", out + "/audit"]) == 0
assert main(["report", "--checkpoint", ck, "--out", out + "/report"]) == 0
print("numpy.ma" in sys.modules)
"""


def test_pipeline_leaves_numpy_ma_unimported(tmp_path):
    # numpy's np.unique imports numpy.ma on its first call, and so does
    # np.quantile's interpolating path
    run = _run_child(_PIPELINE_WITHOUT_NUMPY_MA, str(tmp_path))
    assert run.returncode == 0 and run.stdout.splitlines()[-1] == "False", run.stderr


def test_importing_the_cli_loads_every_module():
    # perfbench/spans.py rebinds its traced functions only in the rndkit
    # modules that `import rndkit.cli` loaded: a module the CLI imported
    # later would run untraced
    run = _run_child("import sys, rndkit.cli\n"
                     "print(sorted(m for m in sys.modules if m.startswith('rndkit.')))")
    assert run.returncode == 0, run.stderr
    modules = sorted(f"rndkit.{m.name}" for m in pkgutil.iter_modules(rndkit.__path__))
    assert run.stdout.strip() == str(modules)


_LOADED_MODULES = """
import json, sys
from rndkit.cli import main
assert main(sys.argv[1:]) == 0
print(json.dumps(["logging" in sys.modules, "numpy.polynomial" in sys.modules]))
"""


@pytest.mark.parametrize(
    "command", ["simulate", "calibrate", "perturb", "evaluate", "audit", "report"])
def test_only_simulate_loads_numpy_polynomial(sim_dir, fit_dir, tmp_path, command):
    chain, ck = str(sim_dir / "left-skew_chain.csv"), str(fit_dir / "checkpoint.json")
    fit = ["--chain", chain, "--kind", "rn-q", "--samples", "2000", "--iterations", "2"]
    argv = {"simulate": ["--scenario", "left-skew", "--days", "30"],
            "calibrate": fit,
            "perturb": fit + ["--trials", "2"],
            "evaluate": ["--checkpoint", ck, "--chain", chain, "--samples", "2000"],
            "audit": ["--checkpoint", ck, "--samples", "2000"],
            "report": ["--checkpoint", ck, "--samples", "2000"]}[command]
    run = _run_child(_LOADED_MODULES, command, *argv, "--out", str(tmp_path))
    assert run.returncode == 0, run.stderr
    # heston's quadrature nodes; and no command loads logging
    assert json.loads(run.stdout.splitlines()[-1]) == [False, command == "simulate"]


def test_evaluate_empty_extreme_set_gives_nulls_and_warning(
        fit_dir, tmp_path, capsys):
    chain = generate_simulated_chain("left-skew",
                                     strikes=np.arange(850.0, 1151.0, 50.0))
    path = tmp_path / "narrow.csv"
    save_chain(chain, path)
    save_rates(chain.rate_curve, path.with_suffix(".rates.csv"))
    rc = main(["evaluate", "--checkpoint", str(fit_dir / "checkpoint.json"),
               "--chain", str(path), "--out", str(tmp_path)])
    assert rc == 0
    assert "extreme set is empty" in capsys.readouterr().err
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics["extreme"]["mse"] is None
    assert metrics["extreme"]["n_quotes"] == 0


def test_evaluate_bad_checkpoint_exits_2(sim_dir, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "rn-q"}')
    rc = main(["evaluate", "--checkpoint", str(bad),
               "--chain", str(sim_dir / "left-skew_chain.csv"),
               "--out", str(tmp_path)])
    assert rc == 2


def test_evaluate_truncated_checkpoint_exits_2(sim_dir, fit_dir, tmp_path, capsys):
    raw = (fit_dir / "checkpoint.json").read_bytes()
    bad = tmp_path / "truncated.json"
    bad.write_bytes(raw[: len(raw) // 2])
    rc = main(["evaluate", "--checkpoint", str(bad),
               "--chain", str(sim_dir / "left-skew_chain.csv"),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "cannot read checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("command, edit", [
    ("evaluate", lambda ctx: ctx["config"].pop("n_samples")),
    ("evaluate", lambda ctx: ctx.update(config="oops")),
    ("audit", lambda ctx: ctx.pop("train_strikes")),
    ("audit", lambda ctx: ctx.update(rate_curve=5)),
    ("report", lambda ctx: ctx.update(rate_curve=5)),
    ("evaluate", lambda ctx: ctx.update(spot="1000")),
    ("report", lambda ctx: ctx.update(train_days=91)),
    # non-finite numbers, written as NaN and Infinity, which json.load reads back
    ("audit", lambda ctx: ctx.update(spot=float("nan"))),
    ("report", lambda ctx: ctx.update(spot=float("inf"))),
    # a spot of 0 divided by zero and passed the audit; a negative one failed every check
    ("audit", lambda ctx: ctx.update(spot=0.0)),
    ("report", lambda ctx: ctx.update(spot=-100.0)),
    ("audit", lambda ctx: ctx["rate_curve"][0].__setitem__(1, float("nan"))),
    ("report", lambda ctx: ctx["rate_curve"][0].__setitem__(0, float("nan"))),
    ("audit", lambda ctx: ctx["train_days"].append(float("nan"))),
    ("audit", lambda ctx: ctx["train_strikes"].append(float("inf"))),
    # evaluate reads the floor; a string or null broke its numpy comparison, a list passed
    ("evaluate", lambda ctx: ctx["config"].update(relative_mse_floor="abc")),
    ("evaluate", lambda ctx: ctx["config"].update(relative_mse_floor=None)),
    ("evaluate", lambda ctx: ctx["config"].update(relative_mse_floor=[1])),
], ids=["config-without-n_samples", "config-not-an-object", "no-train_strikes",
        "audit-rate_curve-not-a-list", "report-rate_curve-not-a-list",
        "spot-not-a-number", "train_days-not-a-list", "nan-spot", "inf-spot",
        "zero-spot", "negative-spot",
        "nan-rate", "nan-tenor", "nan-train_days", "inf-train_strikes",
        "string-floor", "null-floor", "list-floor"])
def test_malformed_checkpoint_context_exits_2(sim_dir, fit_dir, tmp_path, capsys,
                                              command, edit):
    doc = json.loads((fit_dir / "checkpoint.json").read_text())
    edit(doc["context"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = [command, "--checkpoint", str(bad), "--out", str(tmp_path / "out")]
    if command == "evaluate":
        argv += ["--chain", str(sim_dir / "left-skew_chain.csv")]
    assert main(argv) == 2
    assert "error: checkpoint context" in capsys.readouterr().err


def test_rates_file_listing_a_tenor_twice_exits_2(sim_dir, tmp_path, capsys):
    chain = tmp_path / "chain.csv"
    chain.write_bytes((sim_dir / "left-skew_chain.csv").read_bytes())
    (tmp_path / "chain.rates.csv").write_text("tenor_days,rate\n91,0.04\n91,0.09\n")
    out = tmp_path / "out"
    assert main(["calibrate", "--chain", str(chain), "--kind", "rn-q", "--samples", "2000",
                 "--out", str(out)]) == 2
    assert "tenor 91 days twice" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["evaluate", "audit", "report"])
def test_checkpoint_rate_curve_listing_a_tenor_twice_exits_2(sim_dir, fit_dir, tmp_path,
                                                             capsys, command):
    doc = json.loads((fit_dir / "checkpoint.json").read_text())
    curve = doc["context"]["rate_curve"]
    curve.append([curve[0][0], curve[0][1] + 0.05])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = [command, "--checkpoint", str(bad), "--out", str(tmp_path / "out")]
    if command == "evaluate":
        argv += ["--chain", str(sim_dir / "left-skew_chain.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"rate_curve lists tenor {curve[0][0]:g} days twice" in err


@pytest.mark.parametrize("command", ["calibrate", "evaluate"])
def test_non_finite_quote_in_the_chain_exits_2(sim_dir, fit_dir, tmp_path, capsys, command):
    lines = (sim_dir / "left-skew_chain.csv").read_text().splitlines(True)
    row = next(i for i, line in enumerate(lines) if ",call,1000.0," in line)
    cells = lines[row].split(",")
    cells[4] = "nan"  # the at-the-money call's bid, a training quote
    lines[row] = ",".join(cells)
    chain = tmp_path / "chain.csv"
    chain.write_text("".join(lines))
    (tmp_path / "chain.rates.csv").write_bytes(
        (sim_dir / "left-skew_chain.rates.csv").read_bytes())
    argv = {"calibrate": ["calibrate", "--kind", "rn-q", "--samples", "2000"],
            "evaluate": ["evaluate", "--checkpoint", str(fit_dir / "checkpoint.json")]}[command]
    out = tmp_path / "out"
    assert main(argv + ["--chain", str(chain), "--out", str(out)]) == 2
    assert "column 'bid' is not finite" in capsys.readouterr().err
    assert list(out.iterdir()) == []


_MINIMAL_ARGV = {
    "simulate": ["--scenario", "left-skew"],
    "calibrate": ["--chain", "c.csv", "--kind", "rn-q"],
    "evaluate": ["--checkpoint", "ck.json", "--chain", "c.csv"],
    "perturb": ["--chain", "c.csv", "--kind", "rn-q", "--trials", "2"],
    "report": ["--checkpoint", "ck.json"],
    "audit": ["--checkpoint", "ck.json"],
}


@pytest.mark.parametrize("command", sorted(_MINIMAL_ARGV))
def test_every_command_accepts_threads(command):
    args = cli.build_parser().parse_args([command, *_MINIMAL_ARGV[command], "--threads", "3"])
    assert args.threads == 3 and args.func is getattr(cli, f"cmd_{command}")


# a spot of 0 divided by zero and passed the audit; a negative one failed every check
_FLAG_ERROR = {"nan": "must be finite", "inf": "must be finite",
               "0": "must be positive", "-1": "must be positive"}


@pytest.mark.parametrize("command, flag, value", [
    *((command, "--spot", "nan") for command in sorted(_MINIMAL_ARGV)),
    ("simulate", "--rate", "nan"), ("perturb", "--tick", "inf"),
    *((command, "--spot", spot) for command in sorted(_MINIMAL_ARGV) for spot in ("0", "-1")),
])
def test_non_finite_market_flags_are_usage_errors(tmp_path, capsys, command, flag, value):
    with pytest.raises(SystemExit) as excinfo:
        main([command, *_MINIMAL_ARGV[command], flag, value, "--out", str(tmp_path)])
    assert excinfo.value.code == 2
    assert f"{flag} {_FLAG_ERROR[value]}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["evaluate", "audit", "report"])
def test_overflowing_checkpoint_exits_2(dmlp_dir, tmp_path, capsys, command):
    doc = json.loads((dmlp_dir / "fit" / "checkpoint.json").read_text())
    doc["scalars"]["comp1_sigma"] = 4000.0  # e^X overflows on the draws
    bad = tmp_path / "overflow.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = [command, "--checkpoint", str(bad), "--out", str(out)]
    if command == "evaluate":
        argv += ["--chain", str(dmlp_dir / "sim" / "left-skew_chain.csv")]
    assert main(argv) == 2
    assert "non-finite growth factors" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("alpha", [1.8, -0.2])
@pytest.mark.parametrize("command", ["evaluate", "audit", "report"])
def test_checkpoint_with_alpha_outside_the_unit_interval_exits_2(dmlp_dir, tmp_path, capsys,
                                                                 command, alpha):
    # weights alpha and 1 - alpha of a convex mixture; 1.8 would give -0.8
    doc = json.loads((dmlp_dir / "fit" / "checkpoint.json").read_text())
    doc["scalars"]["alpha"] = alpha
    bad = tmp_path / "alpha.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = [command, "--checkpoint", str(bad), "--out", str(out)]
    if command == "evaluate":
        argv += ["--chain", str(dmlp_dir / "sim" / "left-skew_chain.csv")]
    assert main(argv) == 2
    assert "alpha must be within [0, 1]" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_perturb_tick_zero_gives_identical_rows_and_zero_stds(sim_dir, tmp_path):
    rc = main(["perturb", "--chain", str(sim_dir / "left-skew_chain.csv"),
               "--kind", "rn-q", "--trials", "3", "--tick", "0",
               "--samples", "2000", "--iterations", "30",
               "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "stability.csv").read_text().splitlines()
    assert len(lines) == 5
    data = [line.split(",", 2)[2] for line in lines[1:4]]
    assert data[0] == data[1] == data[2]
    std_cells = [float(x) for x in lines[4].split(",")[2:]]
    assert std_cells == [0.0] * len(std_cells)


def test_perturb_writes_one_row_per_trial_plus_std(sim_dir, tmp_path, monkeypatch):
    # every trial's fit runs on the one pool the command draws
    draws = []
    real_draw = cli.draw_standard_normal

    def draw_spy(*args, **kwargs):
        draws.append(args)
        return real_draw(*args, **kwargs)

    monkeypatch.setattr(cli, "draw_standard_normal", draw_spy)
    monkeypatch.setattr(calibration, "draw_standard_normal", draw_spy)
    rc = main(["perturb", "--chain", str(sim_dir / "left-skew_chain.csv"),
               "--kind", "rn-q", "--trials", "2", "--tick", "0.25",
               "--samples", "2000", "--iterations", "30",
               "--out", str(tmp_path)])
    assert rc == 0
    assert len(draws) == 1
    lines = (tmp_path / "stability.csv").read_text().splitlines()
    assert lines[0].startswith("trial,diverged,train_mse,mean,std")
    assert len(lines) == 4
    assert lines[3].startswith("std,0,")
    stds = [float(x) for x in lines[3].split(",")[2:]]
    assert all(np.isfinite(stds))


def test_perturb_rejects_single_trial(sim_dir, tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["perturb", "--chain", str(sim_dir / "left-skew_chain.csv"),
              "--kind", "rn-q", "--trials", "1", "--out", str(tmp_path)])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("tau_days", ["0", "-30"])
@pytest.mark.parametrize("command", ["perturb", "report"])
def test_nonpositive_tau_days_is_a_usage_error_before_any_work(sim_dir, fit_dir, tmp_path,
                                                               capsys, command, tau_days):
    # checked with the other flags, before a chain or checkpoint is read,
    # so perturb runs no trial
    inputs = {"perturb": ["--chain", str(sim_dir / "left-skew_chain.csv"), "--kind", "rn-q",
                          "--trials", "2", "--iterations", "30"],
              "report": ["--checkpoint", str(fit_dir / "checkpoint.json")]}
    with pytest.raises(SystemExit) as excinfo:
        main([command, *inputs[command], "--samples", "2000", "--tau-days", tau_days,
              "--out", str(tmp_path)])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert "--tau-days must be at least 1" in captured.err
    assert "trial 0" not in captured.out + captured.err
    assert list(tmp_path.iterdir()) == []


def test_report_artifacts_and_idempotency(fit_dir, tmp_path):
    args = ["report", "--checkpoint", str(fit_dir / "checkpoint.json"),
            "--samples", "4000"]
    rc = main(args + ["--out", str(tmp_path / "r1")])
    assert rc == 0
    term = (tmp_path / "r1" / "term_structure.csv").read_text().splitlines()
    assert term[0] == "tau,rnm2,rnm3,rnm4"
    assert len(term) == 7
    ch = json.loads((tmp_path / "r1" / "characteristics.json").read_text())
    assert set(ch) == {"mean", "std", "skewness", "skew_pm", "skew_am",
                       "kurtosis", "x01", "x05", "x95", "x99"}
    manifest = json.loads((tmp_path / "r1" / "report_manifest.json").read_text())
    assert manifest["checks"]["density_integral_within_1pct"] is True
    rc = main(args + ["--out", str(tmp_path / "r2")])
    assert rc == 0
    for name in ("density_log_return.csv", "density_price.csv",
                 "characteristics.json", "term_structure.csv"):
        assert (tmp_path / "r1" / name).read_bytes() == \
            (tmp_path / "r2" / name).read_bytes()


@pytest.mark.parametrize("case, message", [("one-draw", "degenerate pool"),
                                           ("zero-sigma", "zero-range X")])
def test_report_without_a_density_exits_2(fit_dir, tmp_path, capsys, case, message):
    # one draw spans no Z range; rn-q with sigma 0 maps every draw to mu
    ck = fit_dir / "checkpoint.json"
    argv = ["report", "--out", str(tmp_path / "out")]
    if case == "one-draw":
        argv += ["--checkpoint", str(ck), "--samples", "1"]
    else:
        doc = json.loads(ck.read_text())
        doc["scalars"]["sigma"] = 0.0
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps(doc))
        argv += ["--checkpoint", str(flat)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert list((tmp_path / "out").glob("density_*.csv")) == []


def test_parse_tau_grid():
    assert parse_tau_grid("1w,1m,3m,6m,9m,1y") == [7, 30, 90, 180, 270, 365]
    assert parse_tau_grid("30") == [30]
    assert parse_tau_grid("2w,14d") == [14]
    with pytest.raises(DataError):
        parse_tau_grid("1q")
    with pytest.raises(DataError):
        parse_tau_grid("")


def test_audit_reports_checks_and_penalty(fit_dir, tmp_path):
    rc = main(["audit", "--checkpoint", str(fit_dir / "checkpoint.json"),
               "--samples", "4000", "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "audit.json").read_text())
    assert isinstance(doc["audit"]["passed"], bool)
    assert set(doc["audit"]["checks"]) == {
        "monotone_in_strike", "convex_in_strike", "calendar_in_tau", "parity_and_bounds"}
    assert doc["penalty"]["total"] >= 0.0


def test_network_checkpoint_artifacts_do_not_depend_on_threads(dmlp_dir, tmp_path):
    for threads in (1, 2):
        for argv in _network_commands(dmlp_dir, tmp_path / f"t{threads}", threads).values():
            assert main(argv) == 0
    artifacts = sorted(p.relative_to(tmp_path / "t1")
                       for p in (tmp_path / "t1").rglob("*")
                       if p.is_file() and not p.name.endswith("_manifest.json"))
    assert len(artifacts) == 6  # metrics, audit and four report files
    for rel in artifacts:
        assert (tmp_path / "t1" / rel).read_bytes() == (tmp_path / "t2" / rel).read_bytes()


def test_network_checkpoint_commands_pass_draws_once_per_component(
        dmlp_dir, tmp_path, monkeypatch):
    rows = {"slopes": 0, "values": 0}
    _net_z_row_spy(monkeypatch, rows)
    for name, argv in _network_commands(dmlp_dir, tmp_path, 2).items():
        rows.update(slopes=0, values=0)
        assert main(argv) == 0
        # one knot pass per mixture component, its knots the draws at this
        # pool size; report adds one at the density's fixed Z nodes
        nodes = density.DENSITY_NODES if name == "report" else 0
        assert rows["slopes"] == 0, name
        assert 0 < rows["values"] <= 2 * (DMLP_SAMPLES + nodes), name


def test_evaluate_sorts_each_maturity_once(dmlp_dir, tmp_path, monkeypatch):
    # the train, test and extreme sets are priced off one slice per maturity
    taus = []
    init = MaturitySlice.__init__

    def spy(self, tau, *args, **kwargs):
        taus.append(tau)
        init(self, tau, *args, **kwargs)

    monkeypatch.setattr(MaturitySlice, "__init__", spy)
    assert main(_network_commands(dmlp_dir, tmp_path, 2)["evaluate"]) == 0
    assert len(taus) == 2 and len(set(taus)) == 2


def test_audit_sorts_each_maturity_cold_once(dmlp_dir, tmp_path, monkeypatch):
    # the audit and the penalty read one surface on the penalty grid: the
    # 2 training maturities and their midpoint, one slice each.  On the
    # ascending pool every maturity's growth is monotone in storage order,
    # so its order is a slice and nothing is sorted; on a shuffled pool
    # each maturity is sorted once
    slices = []
    stable_order = pricing._stable_order
    real_draw = cli.draw_standard_normal

    def spy(growth):
        order, gs = stable_order(growth)
        slices.append((growth.tobytes(), order))
        return order, gs

    monkeypatch.setattr(pricing, "_stable_order", spy)
    for shuffle in (False, True):
        def draw(n, seed):
            samples = real_draw(n, seed)
            if shuffle:
                samples.values = np.random.Generator(np.random.Philox(5)).permutation(samples.values)
            return samples

        monkeypatch.setattr(cli, "draw_standard_normal", draw)
        slices.clear()
        assert main(_network_commands(dmlp_dir, tmp_path, 2)["audit"]) == 0
        assert len(slices) == len({growth for growth, _ in slices}) == 3
        assert all(isinstance(order, np.ndarray if shuffle else slice) for _, order in slices)


@pytest.mark.parametrize("fit", ["fit_dir", "dmlp_dir"])
def test_calibrate_audit_report_equals_the_audit_command(fit, request, tmp_path):
    # the fit audits its final surface; ``audit`` prices the checkpoint afresh
    fit_out = request.getfixturevalue(fit)
    fit_out = fit_out / "fit" if fit == "dmlp_dir" else fit_out
    assert main(["audit", "--checkpoint", str(fit_out / "checkpoint.json"),
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "audit.json").read_bytes() == \
        (fit_out / "audit_report.json").read_bytes()


def test_calibrate_builds_no_slice_after_the_fit(dmlp_dir, tmp_path, monkeypatch):
    # the audit report reads the surface of the fit's final penalty
    slices = []
    init = MaturitySlice.__init__
    fit = calibration.calibrate

    def spy(self, *args, **kwargs):
        slices.append(self)
        init(self, *args, **kwargs)

    def fit_spy(*args, **kwargs):
        result = fit(*args, **kwargs)
        slices.clear()
        return result

    monkeypatch.setattr(MaturitySlice, "__init__", spy)
    monkeypatch.setattr(cli, "calibrate", fit_spy)
    assert main(["calibrate", "--chain", str(dmlp_dir / "sim" / "left-skew_chain.csv"),
                 "--kind", "rn-dmlp", "--samples", "2000", "--iterations", "2",
                 "--out", str(tmp_path)]) == 0
    assert slices == []
    report = json.loads((tmp_path / "audit_report.json").read_text())
    assert len(report["audit"]["martingale_defects"]) == 2


PINNED = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "data", "rn-dmlp-left-skew.checkpoint.json")


def _numbers(path):
    """Every number of a JSON or CSV artifact, in file order."""
    if path.suffix == ".json":
        doc = json.loads(path.read_text())
        out = []

        def walk(v):
            if isinstance(v, dict):
                for key in sorted(v):
                    walk(v[key])
            elif isinstance(v, list):
                for x in v:
                    walk(x)
            elif isinstance(v, (int, float)) and not isinstance(v, bool):
                out.append(float(v))
        walk(doc)
        return np.array(out)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    return np.array([float(x) for row in rows for x in row])


def test_pinned_checkpoint_artifacts_match_the_exact_blocked_passes(sim_dir, tmp_path, monkeypatch):
    # evaluate, audit and report on the benchmark's pinned rn-dmlp
    # checkpoint at 2e4 draws, where G_Z comes off 1024 knots, against
    # net_z run exactly at every draw in row blocks
    chain = str(sim_dir / "left-skew_chain.csv")
    argv = {"evaluate": ["evaluate", "--checkpoint", PINNED, "--chain", chain],
            "audit": ["audit", "--checkpoint", PINNED],
            "report": ["report", "--checkpoint", PINNED, "--tau-grid", "1w,1m,3m,6m"]}
    for side in ("knots", "exact"):
        if side == "exact":
            monkeypatch.setattr(models, "KnotPass", oracles.BlockedPass)
        for name, args in argv.items():
            assert main(args + ["--samples", "2e4", "--out", str(tmp_path / side / name)]) == 0
    files = sorted(p.relative_to(tmp_path / "knots") for p in (tmp_path / "knots").rglob("*")
                   if p.is_file() and not p.name.endswith("_manifest.json"))
    assert len(files) == 6  # metrics, audit and four report files
    for rel in files:
        got, want = _numbers(tmp_path / "knots" / rel), _numbers(tmp_path / "exact" / rel)
        assert got.shape == want.shape, rel
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), rel
