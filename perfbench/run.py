"""Closed-loop benchmark of the rndkit command line.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload fit-dmlp --seed 1 --seconds 30 --trace 0

One benchmark process runs the workload's ``rndkit`` commands one at a time
(one client, closed loop) and repeats the sequence until ``--seconds``
is used up.  ``--trace 0`` runs each command as its own process and
reports the end-to-end metrics; ``--trace 1`` runs the same commands in
one process through ``rndkit.cli.main`` with the span tracer of
``spans.py`` installed and reports the per-layer metrics.  Every run
checks the commands' outputs.  The last line of standard output is one
JSON object; a result file with the environment and every figure is
written under ``perfbench/out/``.  See ``perfbench/README.md``.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent

ROOT = Path.cwd()
OUT = BENCH / "out"
CHECKPOINT = BENCH / "data" / "rn-dmlp-left-skew.checkpoint.json"
CHECKPOINT_SHA256 = "53b50d560cc8cdbff8fbae35f40b2d7e8eb1b946d5871f138271dc4eb2ffbc3a"
THREADS = "2"
TAU_GRID = "1w,1m,3m,6m,9m,1y"
SETUP_REPEATS = 5
HARD_LIMIT_S = 170.0
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

WORKLOADS = ("fit-dmlp", "analyse-dmlp", "pipeline-rnq")

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

PER_LAYER = (
    "nn.scalar_batch.calls", "nn.scalar_batch.self_s", "nn.scalar_batch.rows",
    "nn.backward.calls", "nn.backward.self_s",
    "nn.forward_batch.calls", "nn.forward_batch.self_s", "nn.forward_batch.rows",
    "calibration.calibrate.self_s", "calibration.calibrate.total_s",
    "calibration.adam_step.calls", "calibration.finalize_s",
    "models.sample_log_returns.calls", "models.sample_log_returns.total_s",
    "models.dtau_log_returns.calls", "models.dtau_log_returns.total_s",
    "pricing.price_chain.calls", "pricing.price_chain.self_s",
    "arbitrage.total_penalty.self_s", "arbitrage.price_surface.self_s",
    "arbitrage.audit_price_surface.self_s",
    "numerics.kahan_sum.calls", "numerics.kahan_sum.elements", "numerics.kahan_sum.self_s",
    "numerics.logmeanexp.self_s", "numerics.parallel_map.calls",
    "numerics.parallel_map.wait_s",
    "density.kde_log_return.self_s", "density.risk_neutral_moments.self_s",
    "density.characteristics.self_s",
    "sampling.draw_standard_normal.calls", "sampling.draw_standard_normal.self_s",
    "heston.generate_simulated_chain.self_s", "heston.heston_rnd.self_s",
    "heston.heston_true_moments.self_s",
    "data_io.load_chain.self_s",
    "cli.simulate.self_s", "cli.calibrate.self_s", "cli.evaluate.self_s",
    "cli.audit.self_s", "cli.report.self_s",
    "cli.simulate.total_s", "cli.calibrate.total_s", "cli.evaluate.total_s",
    "cli.audit.total_s", "cli.report.total_s",
    "cli.import_s", "cli.artifact_bytes",
    "trace.overhead_pct", "trace.unattributed_s",
)

# artifacts every command must leave in its --out directory
ARTIFACTS = {
    "simulate": ("left-skew_chain.csv", "left-skew_chain.rates.csv", "simulate_manifest.json"),
    "calibrate": ("checkpoint.json", "calibration_result.json", "audit_report.json",
                  "calibrate_manifest.json"),
    "evaluate": ("metrics.json", "evaluate_manifest.json"),
    "report": ("density_log_return.csv", "density_price.csv", "characteristics.json",
               "term_structure.csv", "report_manifest.json"),
    "audit": ("audit.json", "audit_manifest.json"),
}
# outputs the README promises are byte-identical when a command is rerun
DETERMINISTIC = ("checkpoint.json", "metrics.json", "audit.json")


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


# ----------------------------------------------------------------------
# workloads: set-up command and repeated command sequence


def setup_argv(workload, inp):
    """The command that writes a workload's input chain into ``inp``."""
    days = [] if workload == "pipeline-rnq" else ["--days", "30,91,182"]
    return ["simulate", "--scenario", "left-skew", *days, "--threads", THREADS,
            "--out", str(inp)]


def workload_commands(workload, inp, rep, seed):
    """One pass of the workload; each entry is (command, argv, out dir)."""
    chain = str(inp / "left-skew_chain.csv")
    common = ["--seed", str(seed), "--threads", THREADS]

    def cmd(name, *args):
        out = rep / name
        return name, [name, *args, *common, "--out", str(out)], out

    if workload == "fit-dmlp":
        return [cmd("calibrate", "--chain", chain, "--kind", "rn-dmlp",
                    "--samples", "2e4", "--iterations", "30")]
    if workload == "analyse-dmlp":
        ck = str(inp / "checkpoint.json")
        n = ["--samples", "6e4"]
        return [cmd("evaluate", "--checkpoint", ck, "--chain", chain, *n),
                cmd("audit", "--checkpoint", ck, *n),
                cmd("report", "--checkpoint", ck, "--tau-grid", TAU_GRID, *n)]
    data = rep / "simulate"
    chain = str(data / "left-skew_chain.csv")
    ck = str(rep / "calibrate" / "checkpoint.json")
    return [cmd("simulate", "--scenario", "left-skew"),
            cmd("calibrate", "--chain", chain, "--kind", "rn-q",
                "--samples", "4e4", "--iterations", "400"),
            cmd("evaluate", "--checkpoint", ck, "--chain", chain),
            cmd("report", "--checkpoint", ck, "--tau-grid", TAU_GRID),
            cmd("audit", "--checkpoint", ck)]


# ----------------------------------------------------------------------
# child processes


class Deadline:
    """--seconds counts from the end of set-up; the hard limit from launch."""

    def __init__(self, seconds):
        self.launch = self.start = time.perf_counter()
        self.seconds = seconds

    def elapsed(self):
        return time.perf_counter() - self.start

    def hard_left(self):
        return HARD_LIMIT_S - (time.perf_counter() - self.launch)


def child_env():
    env = dict(os.environ, **CHILD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, log, deadline):
    """Run one process; returns (exit code, wall s, cpu s, peak RSS MB).

    Timing and resource use come from os.wait4 on this child alone.  A
    child still running at the hard limit is killed and reported as -9.
    """
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), stdout=subprocess.DEVNULL,
                                stderr=err, cwd=ROOT)
        timer = threading.Timer(max(deadline.hard_left(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, wall, cpu, usage.ru_maxrss * 1024 / 1e6


def rndkit_argv(args):
    return [sys.executable, "-m", "rndkit.cli", *args]


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def probe_environment():
    """Versions of the toolchain; fails unless rndkit comes from ./src."""
    code = ("import json, platform, numpy, scipy, rndkit.cli as c;"
            "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas'];"
            "print(json.dumps({'python': platform.python_version(),"
            " 'numpy': numpy.__version__, 'scipy': scipy.__version__,"
            " 'blas': '%s %s' % (blas.get('name'), blas.get('version')),"
            " 'rndkit_file': c.__file__}))")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: cannot import rndkit from {ROOT / 'src'}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    env = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(env["rndkit_file"]).resolve().is_relative_to((ROOT / "src").resolve()):
        raise SystemExit(f"perfbench: rndkit was imported from {env['rndkit_file']}, "
                         f"not from {ROOT / 'src'}")
    env.update(nproc=os.cpu_count(), cpu_model=cpu_model(), machine=platform.machine(),
               threads=int(THREADS), child_env=CHILD_ENV)
    return env


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# ----------------------------------------------------------------------
# output checks


class Checker:
    """Counts commands attempted and failed; remembers first digests."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}
        self.quality = {}
        self.setup_chain = None

    def command(self, name, code, out, log):
        """Check one finished command; returns True when it passed."""
        self.attempted += 1
        problems = []
        if code != 0:
            tail = Path(log).read_text(errors="replace").strip()[-400:] if Path(log).exists() else ""
            problems.append(f"{name} exited {code}: {tail}")
        else:
            problems += [f"{name} left no {f}" for f in ARTIFACTS[name]
                         if not (out / f).is_file()]
        if not problems:
            problems += self._content(name, out)
        if problems:
            self.failed += 1
            self.problems += problems
        return not problems

    def _content(self, name, out):
        problems = []
        for fname in DETERMINISTIC:
            path = out / fname
            if path.is_file():
                key = (name, fname)
                digest = sha256(path)
                first = self.digests.setdefault(key, digest)
                if digest != first:
                    problems.append(f"{name}: {fname} differs from the first repetition")
        q = self.quality
        if name == "calibrate":
            res = json.loads((out / "calibration_result.json").read_text())
            q["train_mse"] = res["final_train_mse"]
            q["penalty_total"] = res["final_penalty"]["total"]
            q["iterations_run"] = res["iterations_run"]
            audit = json.loads((out / "audit_report.json").read_text())["audit"]
            q["audit_failed_checks"] = sum(not c["passed"] for c in audit["checks"].values())
        elif name == "evaluate":
            metrics = json.loads((out / "metrics.json").read_text())
            q["test_mse"] = metrics["test"]["mse"]
            q.setdefault("train_mse", metrics["train"]["mse"])
        elif name == "audit":
            doc = json.loads((out / "audit.json").read_text())
            q["audit_failed_checks"] = sum(not c["passed"] for c in doc["audit"]["checks"].values())
            q.setdefault("penalty_total", doc["penalty"]["total"])
        elif name == "report":
            checks = json.loads((out / "report_manifest.json").read_text())["checks"]
            q["density_integral_err"] = abs(checks["log_return_density_integral"] - 1.0)
            if not checks["density_integral_within_1pct"]:
                problems.append("report: density integral is not within 1% of 1")
        elif name == "simulate" and sha256(out / "left-skew_chain.csv") != self.setup_chain:
            problems.append("simulate: chain differs from the set-up chain")
        for key in ("train_mse", "test_mse", "penalty_total"):
            if key in q and not math.isfinite(q[key]):
                problems.append(f"{name}: {key} is not finite")
        return problems


# ----------------------------------------------------------------------
# runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_setup(workload, work, checker, deadline):
    """Prepare the inputs SETUP_REPEATS times; returns (input dir, times)."""
    times = []
    for i in range(SETUP_REPEATS):
        inp = work / f"input{i}"
        log = work / f"setup{i}.log"
        start = time.perf_counter()
        code, *_ = run_child(rndkit_argv(setup_argv(workload, inp)), log, deadline)
        if code != 0 or not (inp / "left-skew_chain.csv").is_file():
            raise SystemExit(f"perfbench: setup failed:\n{log.read_text()[-2000:]}")
        if workload == "analyse-dmlp":
            shutil.copyfile(CHECKPOINT, inp / "checkpoint.json")
            if sha256(inp / "checkpoint.json") != CHECKPOINT_SHA256:
                raise SystemExit(f"perfbench: {CHECKPOINT} is not the pinned checkpoint")
        times.append(time.perf_counter() - start)
    checker.setup_chain = sha256(inp / "left-skew_chain.csv")
    return inp, times


def keep_going(deadline, durations):
    """Start another repetition only if it should end within --seconds."""
    return deadline.elapsed() + statistics.median(durations) <= deadline.seconds \
        and deadline.hard_left() > 2 * max(durations)


def check_pass(checker, commands, codes, rep):
    ok = True
    for (name, _argv, out), code in zip(commands, codes):
        ok &= checker.command(name, code, out, rep / f"{name}.log")
    return ok


def measure(workload, seed, work, inp, checker, deadline):
    """Untraced repetitions, one process per command."""
    reps = []
    while True:
        rep = work / f"rep{len(reps)}"
        commands = workload_commands(workload, inp, rep, seed)
        rep.mkdir(parents=True)
        per_cmd, codes = {}, []
        start = time.perf_counter()
        for name, argv, out in commands:
            code, wall, cpu, rss = run_child(rndkit_argv(argv), rep / f"{name}.log", deadline)
            per_cmd[name] = (wall, cpu, rss)
            codes.append(code)
            if code != 0:
                break
        duration = time.perf_counter() - start
        ok = check_pass(checker, commands, codes, rep)
        reps.append({"duration": duration, "commands": per_cmd})
        if not ok or not keep_going(deadline, [r["duration"] for r in reps]):
            return reps


def measure_traced(workload, seed, work, inp, checker, deadline):
    """Pairs of untraced and traced in-process passes, alternating which runs first."""
    plain, traced = [], []
    while True:
        order = (True, False) if len(plain) % 2 == 0 else (False, True)
        for off in order:
            k = len(plain) + len(traced)
            rep = work / f"rep{k}"
            rep.mkdir(parents=True)
            commands = workload_commands(workload, inp, rep, seed)
            cmd_file = rep / "commands.json"
            cmd_file.write_text(json.dumps([argv for _, argv, _ in commands]))
            result = rep / "spans.json"
            argv = [sys.executable, str(BENCH / "spans.py"), "--commands", str(cmd_file),
                    "--out", str(result)] + (["--off"] if off else [])
            start = time.perf_counter()
            code, *_ = run_child(argv, rep / "child.log", deadline)
            duration = time.perf_counter() - start
            doc = json.loads(result.read_text()) if code == 0 and result.is_file() else None
            codes = doc["codes"] if doc else [code] * len(commands)
            ok = check_pass(checker, commands, codes, rep)
            if not ok and doc is None:
                checker.problems.append((rep / "child.log").read_text()[-2000:])
            (plain if off else traced).append({"duration": duration, "doc": doc,
                                               "commands": commands})
            if not ok:
                return plain, traced
        durations = [p["duration"] + t["duration"] for p, t in zip(plain, traced)]
        if not keep_going(deadline, durations):
            return plain, traced


def end_to_end_metrics(reps, setup_times):
    walls = [sum(c[0] for c in r["commands"].values()) for r in reps]
    cpus = [sum(c[1] for c in r["commands"].values()) for r in reps]
    rss = [max(c[2] for c in r["commands"].values()) for r in reps]
    values = {"wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus),
              "peak_rss_mb": statistics.median(rss), "setup_s": statistics.median(setup_times)}
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def traced_pass_metrics(doc, commands):
    """Per-layer figures of one traced pass, keyed by PER_LAYER names."""
    stats, derived = spans.aggregate([tuple(s) for s in doc["spans"]])
    values = dict(derived)
    values["cli.import_s"] = doc["import_s"]
    values["cli.artifact_bytes"] = sum(
        f.stat().st_size for _, _, out in commands for f in out.iterdir()
        if f.is_file() and not f.name.endswith("_manifest.json"))
    for name in PER_LAYER:
        if name in values:
            continue
        layer, stat = name.rsplit(".", 1)
        st = stats.get(layer, {})
        values[name] = st.get("work", 0) if stat in ("rows", "elements") else st.get(stat, 0)
    return values


def per_layer_metrics(plain, traced):
    passes = [traced_pass_metrics(t["doc"], t["commands"]) for t in traced if t["doc"]]
    plain_s = statistics.median(sum(p["doc"]["wall_s"]) for p in plain if p["doc"])
    traced_s = statistics.median(sum(t["doc"]["wall_s"]) for t in traced if t["doc"])
    metrics = {}
    for name in PER_LAYER:
        if name == "trace.overhead_pct":
            value = 100.0 * (traced_s / plain_s - 1.0)
        else:
            value = statistics.median(p[name] for p in passes)
        metrics[name] = {"value": value, "unit": unit_of(name)}
    return metrics


def summary_lines(reps, setup_times, quality):
    lines = []
    series = {"setup_s": setup_times,
              "wall_s": [sum(c[0] for c in r["commands"].values()) for r in reps]}
    for r in reps:
        for name, (wall, _cpu, _rss) in r["commands"].items():
            series.setdefault(f"{name}_s", []).append(wall)
    stats = {}
    for name, values in series.items():
        q1, med, q3 = quartiles(values)
        stats[name] = {"median": med, "q1": q1, "q3": q3, "n": len(values)}
        lines.append(f"{name:>24s}  median {med:9.4f} s  q1 {q1:9.4f}  q3 {q3:9.4f}  n={len(values)}")
    for name in ("train_mse", "test_mse", "penalty_total", "audit_failed_checks",
                 "density_integral_err"):
        if name in quality:
            lines.append(f"{name:>24s}  {quality[name]:.6g}")
    return lines, stats


def main(argv=None):
    parser = argparse.ArgumentParser(description="Closed-loop benchmark of the rndkit CLI.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "rndkit" / "cli.py").is_file():
        print(f"perfbench: no rndkit sources under {ROOT / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2

    deadline = Deadline(args.seconds)
    env = probe_environment()
    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    checker = Checker()
    inp, setup_times = run_setup(args.workload, work, checker, deadline)
    deadline.start = time.perf_counter()

    if args.trace:
        plain, traced = measure_traced(args.workload, args.seed, work, inp, checker, deadline)
        metrics = per_layer_metrics(plain, traced) if checker.failed == 0 else {}
        missing = sorted({m for t in traced if t["doc"] for m in t["doc"]["missing"]})
        lines = [f"# traced passes {len(traced)}, untraced passes {len(plain)}"]
        lines += [f"# layer not found, reported as 0: {m}" for m in missing]
        lines += [f"{name:>40s}  {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
        stats = {}
    else:
        reps = measure(args.workload, args.seed, work, inp, checker, deadline)
        metrics = end_to_end_metrics(reps, setup_times) if checker.failed == 0 else {}
        lines, stats = summary_lines(reps, setup_times, checker.quality)

    correct = checker.failed == 0
    print(f"# perfbench {args.workload}: python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, {env['blas']}, nproc {env['nproc']}, "
          f"{env['cpu_model']}, --threads {THREADS}")
    for line in lines:
        print(line)
    print(f"{'failed_ops':>24s}  {checker.failed}/{checker.attempted}")
    for problem in checker.problems:
        print(f"# FAILED: {problem}")
    result = {"correct": correct, "attempted": checker.attempted,
              "failed": checker.failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env, timings=stats,
                  quality=checker.quality, problems=checker.problems)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    if correct:
        shutil.rmtree(work)     # keep the artifacts only when a check failed
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
