"""The traced run: per-layer metrics for one workload.

The workload's ops run in this one process (CLI ops through
``sfckit.cli.main``), first untraced and then with a span recorded around
every public entry point of each module, called from this file's wrappers;
the two alternate TRACE_PAIRS times.  Each span records its name, start,
end, parent span and a count taken from the returned report or the
arguments (instances checked, table size, file bytes).  Spans stay in
memory until the run ends.  A span's self time is its duration minus the
time its child spans cover.  The tracing overhead is the median traced
batch wall time minus the median untraced one.

Two more passes, apart from the traced one, give the scalar layer:
``probe.count_scalar_ops`` (a counting pass over the batch) and
``probe.time_scalar_ops`` (a micro-probe on the workload's own values).
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import subprocess
import sys
import time

import probe
from libop import invertibility
from ops import matches, op_env, outcome, parse_report
from sfckit import catalog, cli, cocycles, envelope, fusion, grothendieck, reporting, serialize, superfusion
from workloads import build_plan, settle_oracles

TRACED = {
    serialize: ("load_file", "save_file"),
    fusion: ("validate_fusion", "validate_sixj", "check_pentagon", "check_6j_invertibility"),
    superfusion: ("validate_superfusion", "check_support", "check_super_pentagon"),
    envelope: ("underlying_fusion_rules", "lift_6j", "verify_lift"),
    cocycles: (
        "validate_group", "check_2cocycle", "check_3cocycle", "check_supercocycle",
        "central_extension", "lift_supercocycle",
    ),
    grothendieck: ("build_sgr", "relations_text"),
    catalog: ("build_entry",),
}
TRACED_METHODS = {reporting.CheckReport: ("to_json",), reporting.ValidationReport: ("to_json",)}

STARTUP_REPS = 5
# Untraced and traced batches alternate this many times; per-layer values
# and the tracing overhead are medians over them (an odd count keeps the
# median of a count a whole number).
TRACE_PAIRS = 3

PER_LAYER = {
    "scalars.mul_ns": "ns",
    "scalars.add_ns": "ns",
    "scalars.eq_ns": "ns",
    "scalars.canonical_us": "us",
    "scalars.inverse_us": "us",
    "scalars.mul_calls": "count",
    "scalars.add_calls": "count",
    "scalars.canonical_calls": "count",
    "scalars.mixed_order_ratio": "ratio",
    "fusion.pentagon_s": "s",
    "fusion.pentagon_scans": "count",
    "fusion.pentagon_instances": "count",
    "fusion.pentagon_us_per_instance": "us",
    "fusion.validate_fusion_s": "s",
    "fusion.validate_sixj_s": "s",
    "fusion.invertibility_blocks": "count",
    "fusion.jobs2_speedup": "ratio",
    "superfusion.super_pentagon_s": "s",
    "superfusion.super_pentagon_scans": "count",
    "superfusion.super_pentagon_instances": "count",
    "superfusion.check_support_s": "s",
    "superfusion.validate_s": "s",
    "envelope.lift_6j_self_s": "s",
    "envelope.underlying_rules_s": "s",
    "envelope.lifted_entries": "count",
    "cocycles.check_3cocycle_s": "s",
    "cocycles.check_supercocycle_s": "s",
    "cocycles.quadruples": "count",
    "cocycles.us_per_quadruple": "us",
    "cocycles.lift_supercocycle_self_s": "s",
    "cocycles.validate_group_s": "s",
    "grothendieck.build_sgr_s": "s",
    "grothendieck.relations_text_s": "s",
    "serialize.load_s": "s",
    "serialize.save_s": "s",
    "serialize.bytes_read": "bytes",
    "serialize.bytes_written": "bytes",
    "reporting.render_s": "s",
    "catalog.build_entry_s": "s",
    "cli.startup_s": "s",
    "cli.unattributed_s": "s",
    "bench.trace_overhead_s": "s",
    "bench.scan_self_share": "ratio",
    "bench.cocycles_sgr_share": "ratio",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "count", "child_s")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.count = 0
        self.child_s = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s


def _count(name: str, args, result) -> int:
    """Work count of one call, from its returned report or its arguments."""
    if name in ("serialize.load_file", "serialize.save_file"):
        return os.path.getsize(args[0])
    if isinstance(result, reporting.CheckReport):
        return result.checked
    if name == "envelope.lift_6j":
        return len(result)
    return 0


class Tracer:
    """Records spans around the wrapped calls while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._restore: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, time.perf_counter(), parent)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.end = time.perf_counter()
            if parent is not None:
                parent.child_s += sp.seconds

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            sp.count = _count(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every binding of a traced function, in every loaded module."""
        wrappers = {}
        for module, names in TRACED.items():
            short = module.__name__.rsplit(".", 1)[-1]
            for fname in names:
                fn = getattr(module, fname)
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{fname}", fn))
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, value))
        for cls, names in TRACED_METHODS.items():
            for fname in names:
                fn = cls.__dict__[fname]
                setattr(cls, fname, self._wrap("reporting.render", fn))
                self._restore.append((cls, fname, fn))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


def run_inprocess(op) -> dict:
    """Run one op in this process; return its outcome."""
    if op.output and os.path.exists(op.output):
        os.remove(op.output)
    if op.kind == "lib":
        code, doc = invertibility(*op.args)
        return outcome(code, doc, op.output)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(op.args)
    return outcome(code, parse_report(buf.getvalue()), op.output)


def run_batch(plan, tracer: Tracer | None, skip=()) -> tuple[float, dict, list]:
    """Run the batch once; return wall time, per-op seconds, outcomes."""
    per_op = {}
    outcomes = []
    start = time.perf_counter()
    for op in plan.ops:
        if op.metric in skip:
            continue
        t0 = time.perf_counter()
        if tracer is None:
            got = run_inprocess(op)
        else:
            with tracer.span(f"op.{op.metric}"):
                got = run_inprocess(op)
        per_op[op.metric] = time.perf_counter() - t0
        outcomes.append((op, got))
    return time.perf_counter() - start, per_op, outcomes


def cli_startup_s(src_dir: str) -> float:
    env = op_env(src_dir)
    times = []
    for _ in range(STARTUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import sfckit.cli"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def layer_metrics(spans: list[Span]) -> dict:
    """Aggregate the traced batch's spans into per-layer metrics."""

    def spans_named(name):
        return [sp for sp in spans if sp.name == name]

    def self_s(name):
        return sum(sp.self_s for sp in spans_named(name))

    def count(name):
        return sum(sp.count for sp in spans_named(name))

    ops = [sp for sp in spans if sp.parent is None]
    op_s = sum(sp.seconds for sp in ops)
    pent_s, pent_n = self_s("fusion.check_pentagon"), count("fusion.check_pentagon")
    quad_s = self_s("cocycles.check_3cocycle") + self_s("cocycles.check_supercocycle")
    quad_n = count("cocycles.check_3cocycle") + count("cocycles.check_supercocycle")
    scan_s = pent_s + self_s("superfusion.check_super_pentagon")
    structural_s = sum(sp.self_s for sp in spans if sp.name.startswith(("cocycles.", "grothendieck.")))
    return {
        "fusion.pentagon_s": pent_s,
        "fusion.pentagon_scans": len(spans_named("fusion.check_pentagon")),
        "fusion.pentagon_instances": pent_n,
        "fusion.pentagon_us_per_instance": 1e6 * pent_s / pent_n if pent_n else 0.0,
        "fusion.validate_fusion_s": self_s("fusion.validate_fusion"),
        "fusion.validate_sixj_s": self_s("fusion.validate_sixj"),
        "fusion.invertibility_blocks": count("fusion.check_6j_invertibility"),
        "superfusion.super_pentagon_s": self_s("superfusion.check_super_pentagon"),
        "superfusion.super_pentagon_scans": len(spans_named("superfusion.check_super_pentagon")),
        "superfusion.super_pentagon_instances": count("superfusion.check_super_pentagon"),
        "superfusion.check_support_s": self_s("superfusion.check_support"),
        "superfusion.validate_s": self_s("superfusion.validate_superfusion"),
        "envelope.lift_6j_self_s": self_s("envelope.lift_6j"),
        "envelope.underlying_rules_s": self_s("envelope.underlying_fusion_rules"),
        "envelope.lifted_entries": count("envelope.lift_6j"),
        "cocycles.check_3cocycle_s": self_s("cocycles.check_3cocycle"),
        "cocycles.check_supercocycle_s": self_s("cocycles.check_supercocycle"),
        "cocycles.quadruples": quad_n,
        "cocycles.us_per_quadruple": 1e6 * quad_s / quad_n if quad_n else 0.0,
        "cocycles.lift_supercocycle_self_s": self_s("cocycles.lift_supercocycle"),
        "cocycles.validate_group_s": self_s("cocycles.validate_group"),
        "grothendieck.build_sgr_s": self_s("grothendieck.build_sgr"),
        "grothendieck.relations_text_s": self_s("grothendieck.relations_text"),
        "serialize.load_s": self_s("serialize.load_file"),
        "serialize.save_s": self_s("serialize.save_file"),
        "serialize.bytes_read": count("serialize.load_file"),
        "serialize.bytes_written": count("serialize.save_file"),
        "reporting.render_s": self_s("reporting.render"),
        "cli.unattributed_s": sum(sp.self_s for sp in ops),
        "bench.scan_self_share": scan_s / op_s,
        "bench.cocycles_sgr_share": structural_s / op_s,
    }


def traced_run(name: str, seed: int, workdir: str, src_dir: str, sizes: dict | None = None) -> dict:
    setup_tracer = Tracer()
    setup_tracer.install()
    try:
        plan = build_plan(name, workdir, seed, sizes)
    finally:
        setup_tracer.uninstall()
    settle_oracles(plan)

    # The counting pass goes first and also warms the in-process caches for
    # the timed passes.  It skips the --jobs 2 op, whose worker processes
    # would count in their own memory.
    counts, results = probe.count_scalar_ops(lambda: run_batch(plan, None, skip=("check_jobs2_s",))[2])
    plain_walls, traced_walls, speedups, layers = [], [], [], []
    for _ in range(TRACE_PAIRS):
        wall, per_op, outcomes = run_batch(plan, None)
        plain_walls.append(wall)
        speedups.append(per_op["check_s"] / per_op["check_jobs2_s"])
        results += outcomes
        tracer = Tracer()
        tracer.install()
        try:
            wall, _, outcomes = run_batch(plan, tracer)
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        layers.append(layer_metrics(tracer.spans))
        results += outcomes

    values = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
    values.update(counts)
    values.update(probe.time_scalar_ops(plan))
    values["fusion.jobs2_speedup"] = statistics.median(speedups)
    values["catalog.build_entry_s"] = sum(
        sp.seconds for sp in setup_tracer.spans if sp.name == "catalog.build_entry"
    )
    values["cli.startup_s"] = cli_startup_s(src_dir)
    values["bench.trace_overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)

    failed = sum(1 for op, got in results if not matches(op.expect, got))
    return {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in PER_LAYER.items()},
    }
