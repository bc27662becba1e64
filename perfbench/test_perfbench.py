"""Fast self-check of the benchmark code (metric names and span arithmetic).

Runs in well under a second and never imports rndkit, so the plain
``pytest`` run from the repository root can collect it.
"""

import importlib.util
import json
import re
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(name, BENCH / filename)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


spans = _load("spans", "spans.py")
run = _load("perfbench_run", "run.py")
BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
TASK, ROOT = spans.TASK, spans.ROOT


def test_metric_names_and_units_are_well_formed():
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m["unit"]), m["unit"]
    for w in BENCHMARK["workloads"]:
        assert NAME.fullmatch(w["name"])
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_benchmark_json_matches_emitted_names(tmp_path):
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == \
        [(n, run.unit_of(n)) for n in run.PER_LAYER]

    reps = [{"commands": {"calibrate": (2.0, 1.9, 150.0)}},
            {"commands": {"calibrate": (2.2, 2.0, 151.0)}}]
    e2e = run.end_to_end_metrics(reps, [0.5, 0.6, 0.7])
    assert list(e2e) == [n for n, _ in run.END_TO_END]
    assert e2e["wall_s"]["value"] == pytest.approx(2.1)
    assert e2e["peak_rss_mb"]["value"] == pytest.approx(150.5)
    assert e2e["setup_s"]["value"] == 0.6

    out = tmp_path / "audit"
    out.mkdir()
    (out / "audit.json").write_text("{}")
    (out / "audit_manifest.json").write_text("{}")
    commands = [("audit", [], out)]
    doc = {"spans": _tree(), "import_s": 0.3, "wall_s": [10.0]}
    plain = {"spans": [], "import_s": 0.3, "wall_s": [8.0]}
    layer = run.per_layer_metrics([{"doc": plain}],
                                  [{"doc": doc, "commands": commands}])
    assert list(layer) == list(run.PER_LAYER)
    assert layer["trace.overhead_pct"]["value"] == pytest.approx(25.0)
    assert layer["cli.artifact_bytes"]["value"] == 2     # manifests are not counted
    assert layer["numerics.kahan_sum.elements"]["value"] == 300


def _tree():
    """A command whose penalty maps two items over two pool threads.

    ROOT [0,10] > cli.audit [0.5,9.5] > arbitrage.total_penalty [1,9]
      > numerics.parallel_map [2,8] > item A [2,6] > kahan_sum [3,5]
                                    > item B [2.5,7.5] > kahan_sum [4,7]
    """
    main, a, b = 1, 2, 3
    return [
        (7, 5, "numerics.kahan_sum", 3.0, 5.0, a, 100),
        (5, 4, TASK, 2.0, 6.0, a, 0),
        (8, 6, "numerics.kahan_sum", 4.0, 7.0, b, 200),
        (6, 4, TASK, 2.5, 7.5, b, 0),
        (4, 3, "numerics.parallel_map", 2.0, 8.0, main, 0),
        (3, 2, "arbitrage.total_penalty", 1.0, 9.0, main, 0),
        (2, 1, "cli.audit", 0.5, 9.5, main, 0),
        (1, None, ROOT, 0.0, 10.0, main, 0),
    ]


def test_self_time_uses_union_of_parallel_children():
    stats, derived = spans.aggregate(_tree())
    # overlapping items: 6 s minus their union [2, 7.5], not minus 4 + 5 s
    assert stats["numerics.parallel_map"]["self_s"] == pytest.approx(0.5)
    assert stats["numerics.kahan_sum"]["self_s"] == pytest.approx(5.0)
    assert stats["numerics.kahan_sum"]["calls"] == 2
    assert stats["numerics.kahan_sum"]["work"] == 300
    # own main-thread time 2 s plus each item's time outside kahan_sum
    assert stats["arbitrage.total_penalty"]["self_s"] == pytest.approx(2.0 + 2.0 + 2.0)
    assert stats["arbitrage.total_penalty"]["total_s"] == pytest.approx(8.0)
    assert stats["cli.audit"]["self_s"] == pytest.approx(1.0)
    assert TASK not in stats and ROOT not in stats
    assert derived["trace.unattributed_s"] == pytest.approx(1.0)
    assert derived["numerics.parallel_map.wait_s"] == pytest.approx(0.5)
    assert derived["calibration.finalize_s"] == 0.0
    assert all(st["self_s"] >= 0.0 for st in stats.values())


def test_total_skips_nested_same_name_and_finalize_counts_direct_calls():
    tree = [
        (1, None, "calibration.calibrate", 0.0, 10.0, 1, 0),
        (2, 1, "pricing.price_chain", 8.0, 9.0, 1, 0),
        (3, 1, "arbitrage.total_penalty", 9.0, 10.0, 1, 0),
        (4, 3, "numerics.logmeanexp", 9.1, 9.5, 1, 0),
        (5, 4, "numerics.logmeanexp", 9.2, 9.3, 1, 0),
    ]
    stats, derived = spans.aggregate(tree)
    assert derived["calibration.finalize_s"] == pytest.approx(2.0)
    assert stats["numerics.logmeanexp"]["total_s"] == pytest.approx(0.4)
    assert stats["numerics.logmeanexp"]["self_s"] == pytest.approx(0.4)
    assert stats["calibration.calibrate"]["self_s"] == pytest.approx(8.0)


def test_union_length():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0, 1), (2, 3)]) == 2.0
    assert spans.union_length([(0, 2), (1, 3), (5, 5), (4, 4.5)]) == 3.5


def test_tracer_carries_parent_into_pool_threads():
    tracer = spans.Tracer()

    def leaf(x):
        time.sleep(0.02)
        return x

    def parallel_map(fn, items, threads=None):
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))

    leaf_t = tracer.wrap("numerics.kahan_sum", leaf, lambda args: args[0])
    pmap = tracer.wrap_parallel_map("numerics.parallel_map", parallel_map)

    def caller():
        return pmap(lambda item: leaf_t(item) + 1, [1, 2, 3, 4], 2)

    result = tracer.wrap("arbitrage.total_penalty", caller)()
    assert result == [2, 3, 4, 5]

    by_id = {s[0]: s for s in tracer.spans}
    main = threading.get_ident()
    leaves = [s for s in tracer.spans if s[2] == "numerics.kahan_sum"]
    assert len(leaves) == 4 and {s[6] for s in leaves} == {1, 2, 3, 4}
    for s in leaves:
        task = by_id[s[1]]
        assert task[2] == TASK and task[5] == s[5] != main
        assert by_id[task[1]][2] == "numerics.parallel_map"
    stats, derived = spans.aggregate(tracer.spans)
    assert all(st["self_s"] >= 0.0 for st in stats.values())
    assert stats["numerics.kahan_sum"]["self_s"] >= 0.07
    assert derived["numerics.parallel_map.wait_s"] > 0.0
