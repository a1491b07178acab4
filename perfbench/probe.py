"""The scalar layer, measured from outside ``sfckit.scalars``.

``count_scalar_ops`` runs a callable with ``Cyclotomic`` addition,
multiplication and ``canonical`` wrapped by counters; ``mixed_order_ratio``
is the share of additions and multiplications whose operands have different
orders (and so are promoted before the operation).  ``time_scalar_ops`` is a
micro-probe: it times mul, add, eq, canonical and inverse on values taken
from the workload's own input file.  Neither runs inside a timed or traced
pass.
"""

from __future__ import annotations

import statistics
import time

from sfckit.scalars import Cyclotomic
from sfckit.serialize import load_file

SAMPLE_VALUES = 48
PROBE_ROUNDS = 7


def count_scalar_ops(fn):
    """Run fn() with counters on Cyclotomic arithmetic; return (metrics, fn())."""
    counts = {"mul": 0, "add": 0, "canonical": 0, "mixed": 0}
    originals = {name: Cyclotomic.__dict__[name] for name in ("__add__", "__radd__", "__mul__", "__rmul__", "canonical")}

    def counted(kind, fn_):
        def wrapper(self, *args):
            counts[kind] += 1
            if args and isinstance(args[0], Cyclotomic) and args[0].order != self.order:
                counts["mixed"] += 1
            return fn_(self, *args)

        return wrapper

    for name, kind in (("__add__", "add"), ("__radd__", "add"), ("__mul__", "mul"), ("__rmul__", "mul"),
                       ("canonical", "canonical")):
        setattr(Cyclotomic, name, counted(kind, originals[name]))
    try:
        result = fn()
    finally:
        for name, original in originals.items():
            setattr(Cyclotomic, name, original)
    binary = counts["mul"] + counts["add"]
    metrics = {
        "scalars.mul_calls": counts["mul"],
        "scalars.add_calls": counts["add"],
        "scalars.canonical_calls": counts["canonical"],
        "scalars.mixed_order_ratio": counts["mixed"] / binary if binary else 0.0,
    }
    return metrics, result


def workload_values(plan) -> list:
    """Up to SAMPLE_VALUES scalars from the input of the workload's check op."""
    op = next(op for op in plan.ops if op.metric == "check_s")
    cf = load_file(op.args[1])
    if cf.sixj is not None:
        values = [v for _, v in sorted(cf.sixj.entries.items())]
    else:
        values = [x for table in (cf.cocycle, cf.supercocycle) if table is not None
                  for plane in table.values for row in plane for x in row]
    step = max(1, len(values) // SAMPLE_VALUES)
    return values[::step][:SAMPLE_VALUES]


def _per_call(fn, items) -> float:
    """Median over PROBE_ROUNDS of the mean time of fn(item), in seconds."""
    rounds = []
    for _ in range(PROBE_ROUNDS):
        start = time.perf_counter()
        for item in items:
            fn(item)
        rounds.append((time.perf_counter() - start) / len(items))
    return statistics.median(rounds)


def time_scalar_ops(plan) -> dict:
    values = workload_values(plan)
    pairs = list(zip(values, values[1:] + values[:1]))
    products = [x * y for x, y in pairs]
    return {
        "scalars.mul_ns": 1e9 * _per_call(lambda p: p[0] * p[1], pairs),
        "scalars.add_ns": 1e9 * _per_call(lambda p: p[0] + p[1], pairs),
        "scalars.eq_ns": 1e9 * _per_call(lambda p: p[0] == p[1], pairs),
        "scalars.canonical_us": 1e6 * _per_call(Cyclotomic.canonical, products),
        "scalars.inverse_us": 1e6 * _per_call(Cyclotomic.inverse, values),
    }
