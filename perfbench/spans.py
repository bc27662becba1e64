"""Span tracing of rndkit's public functions, installed from outside the program.

The tracer rebinds each function in ``LAYERS`` at every name it is bound
to inside the ``rndkit`` package (methods are wrapped on their class), so
the program itself is not edited.  Spans are kept in memory and written
out at the end.

Threads: every thread keeps its own span stack, and ``parallel_map``
carries the caller's span into the pool, where each work item runs as a
``numerics.parallel_map.task`` span.  A span's self time is its duration
minus the *union* of its children's intervals, so children running at
the same time on two pool threads are not subtracted twice; a pool
item's own time is credited to the layer that called ``parallel_map``.

Run as a script, it executes rndkit command lines in one process through
``rndkit.cli.main(argv)`` and writes the spans as JSON::

    python3 perfbench/spans.py --commands cmds.json --out spans.json [--off]

``cmds.json`` holds a list of argument lists; ``--off`` runs the same
commands without tracing, to measure the tracing overhead.
"""

import argparse
import functools
import importlib
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

TASK = "numerics.parallel_map.task"
ROOT = "cli.main"


def _rows(args):
    import numpy as np
    return int(np.shape(args[1])[0]) if np.ndim(args[1]) > 1 else int(np.size(args[1]))


def _elements(args):
    import numpy as np
    return int(np.size(args[0]))


# (span name, module, attribute, work counter).  Methods are "Class.method".
LAYERS = (
    ("nn.scalar_batch", "rndkit.nn", "DenseNetwork.scalar_batch", _rows),
    ("nn.forward_batch", "rndkit.nn", "DenseNetwork.forward_batch", _rows),
    ("nn.backward", "rndkit.nn", "DenseNetwork.weighted_param_gradient", None),
    ("nn.backward", "rndkit.nn", "DenseNetwork.weighted_value_slope_param_gradient", None),
    ("calibration.calibrate", "rndkit.calibration", "calibrate", None),
    ("calibration.adam_step", "rndkit.calibration", "adam_step", None),
    ("models.sample_log_returns", "rndkit.models", "sample_log_returns", None),
    ("models.dtau_log_returns", "rndkit.models", "dtau_log_returns", None),
    ("pricing.price_chain", "rndkit.pricing", "price_chain", None),
    ("arbitrage.total_penalty", "rndkit.arbitrage", "total_penalty", None),
    ("arbitrage.price_surface", "rndkit.arbitrage", "price_surface", None),
    ("arbitrage.audit_price_surface", "rndkit.arbitrage", "audit_price_surface", None),
    ("numerics.kahan_sum", "rndkit.numerics", "kahan_sum", _elements),
    ("numerics.logmeanexp", "rndkit.numerics", "logmeanexp", _elements),
    ("numerics.parallel_map", "rndkit.numerics", "parallel_map", None),
    ("density.kde_log_return", "rndkit.density", "kde_log_return", None),
    ("density.risk_neutral_moments", "rndkit.density", "risk_neutral_moments", None),
    ("density.characteristics", "rndkit.density", "characteristics", None),
    ("sampling.draw_standard_normal", "rndkit.sampling", "draw_standard_normal", None),
    ("heston.generate_simulated_chain", "rndkit.heston", "generate_simulated_chain", None),
    ("heston.heston_rnd", "rndkit.heston", "heston_rnd", None),
    ("heston.heston_true_moments", "rndkit.heston", "heston_true_moments", None),
    ("data_io.load_chain", "rndkit.data_io", "load_chain", None),
    ("cli.simulate", "rndkit.cli", "cmd_simulate", None),
    ("cli.calibrate", "rndkit.cli", "cmd_calibrate", None),
    ("cli.evaluate", "rndkit.cli", "cmd_evaluate", None),
    ("cli.audit", "rndkit.cli", "cmd_audit", None),
    ("cli.report", "rndkit.cli", "cmd_report", None),
)


class Tracer:
    """Records (id, parent, name, start, end, thread, work) spans in memory."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, count=None):
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            work = count(args) if count is not None else 0
            stack = stack_of()
            parent = stack[-1] if stack else None
            sid = next(ids)
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end, threading.get_ident(), work))
        return traced

    def wrap_parallel_map(self, name, parallel_map):
        """Run each work item as a TASK span under the parallel_map span."""

        def carried_map(fn, items, threads=None):
            parent = self._stack()[-1]
            task = self.wrap(TASK, fn)

            def carried(item):
                stack = self._stack()
                stack.append(parent)
                try:
                    return task(item)
                finally:
                    stack.pop()
            return parallel_map(carried, items, threads)
        return self.wrap(name, carried_map)


def install(tracer):
    """Wrap every function in LAYERS; returns the layers that were not found."""
    missing = []
    packages = [m for n, m in sys.modules.items() if n == "rndkit" or n.startswith("rndkit.")]
    for name, module, attr, count in LAYERS:
        try:
            owner = importlib.import_module(module)
        except ImportError:
            missing.append(name)
            continue
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            if cls is None or meth not in vars(cls):
                missing.append(name)
                continue
            setattr(cls, meth, tracer.wrap(name, vars(cls)[meth], count))
            continue
        original = getattr(owner, attr, None)
        if original is None:
            missing.append(name)
            continue
        if name == "numerics.parallel_map":
            wrapped = tracer.wrap_parallel_map(name, original)
        else:
            wrapped = tracer.wrap(name, original, count)
        for mod in packages:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    return missing


# ----------------------------------------------------------------------
# aggregation


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def aggregate(spans):
    """Per span name: calls, total_s, self_s and work; plus derived figures.

    A span's self time is its duration minus the union of its children's
    intervals.  A pool item's self time is the code of the function that
    called ``parallel_map``, so it is credited to that caller's layer;
    self times are therefore thread-seconds and may exceed wall time.
    ``total_s`` skips spans nested in a span of the same name.  Derived:
    ``calibration.finalize_s`` (pricing and penalty called directly by
    calibrate), ``numerics.parallel_map.wait_s`` (summed delay from a
    parallel_map call to the start of each of its items) and
    ``trace.unattributed_s`` (time under a command root that no traced
    function covers).
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            children[s[1]].append((s[3], s[4]))
    stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
    derived = {"calibration.finalize_s": 0.0, "numerics.parallel_map.wait_s": 0.0,
               "trace.unattributed_s": 0.0}
    for sid, parent, name, start, end, _thread, work in spans:
        covered = union_length((max(a, start), min(b, end)) for a, b in children[sid])
        self_s = (end - start) - covered
        up = by_id.get(parent)
        if name == TASK:
            derived["numerics.parallel_map.wait_s"] += start - up[3]
            caller = by_id.get(up[1])
            if caller is None or caller[2] == ROOT:
                derived["trace.unattributed_s"] += self_s
            else:
                stats[caller[2]]["self_s"] += self_s
            continue
        if name == ROOT:
            derived["trace.unattributed_s"] += self_s
            continue
        st = stats[name]
        st["calls"] += 1
        st["work"] += work
        st["self_s"] += self_s
        if not _has_ancestor(by_id, parent, name):
            st["total_s"] += end - start
        if name in ("pricing.price_chain", "arbitrage.total_penalty") \
                and up is not None and up[2] == "calibration.calibrate":
            derived["calibration.finalize_s"] += end - start
    return dict(stats), derived


def _has_ancestor(by_id, parent, name):
    while parent is not None:
        span = by_id.get(parent)
        if span is None:
            return False
        if span[2] == name:
            return True
        parent = span[1]
    return False


# ----------------------------------------------------------------------
# child process entry


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--commands", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--off", action="store_true", help="run without tracing")
    args = parser.parse_args(argv)
    with open(args.commands, encoding="utf-8") as fh:
        commands = json.load(fh)

    start = perf_counter()
    cli = importlib.import_module("rndkit.cli")
    import_s = perf_counter() - start

    tracer = Tracer()
    missing = [] if args.off else install(tracer)
    run = cli.main if args.off else tracer.wrap(ROOT, cli.main)
    codes, walls = [], []
    for command in commands:
        start = perf_counter()
        codes.append(run(command))
        walls.append(perf_counter() - start)

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "codes": codes, "wall_s": walls,
                   "missing": missing, "spans": tracer.spans}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
