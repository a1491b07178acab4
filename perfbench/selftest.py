"""Self-test of the benchmark at tiny sizes.

Usage, from the root of a checkout:  python3 perfbench/selftest.py

For every workload it
- runs every op once in a fresh process and requires every outcome to match;
- requires each of a set of deliberately wrong expected values (exit code,
  ``ok``, a violation total, a written file's digest) to be caught, so that
  ``op_ok_ratio`` drops below 1 and the outcome check is not vacuous;
- runs the timed and the traced run and requires every metric to be present.
It also requires the two mutant oracles to agree: on the pointed mutant the
parity count over G^4 equals ``check_3cocycle``'s total.

Exit code 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import copy
import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, HERE]

import gen  # noqa: E402
import workloads  # noqa: E402
from ops import matches, op_env, run_process  # noqa: E402
from run import END_TO_END, timed_run  # noqa: E402
from sfckit.catalog import build_entry  # noqa: E402
from sfckit.cocycles import ThreeCocycle, check_3cocycle  # noqa: E402
from trace_run import PER_LAYER, traced_run  # noqa: E402

SEED = 7


def wrong_expectations(expect: dict) -> list[dict]:
    """Variants of expect that a correct outcome must not match."""
    variants = []
    for key, bad in (("exit", expect["exit"] + 1), ("ok", not expect["ok"])):
        variants.append(dict(expect, **{key: bad}))
    for name, total in expect["totals"].items():
        variants.append(dict(expect, totals=dict(expect["totals"], **{name: total + 1})))
    if "digest" in expect:
        variants.append(dict(expect, digest="0" * 64))
    return variants


def check(cond: bool, message: str, failures: list) -> None:
    print(("ok    " if cond else "FAIL  ") + message, flush=True)
    if not cond:
        failures.append(message)


def check_workload(name: str, failures: list) -> None:
    sizes = workloads.TINY_SIZES[name]
    with tempfile.TemporaryDirectory() as workdir:
        plan = workloads.build_plan(name, workdir, SEED, sizes)
        workloads.settle_oracles(plan)
        env = op_env(SRC)
        results = [(op, run_process(op, HERE, env, workdir)) for op in plan.ops]
        for op, res in results:
            check(matches(op.expect, res.outcome), f"{name} {op.metric}: outcome {res.outcome}", failures)
        caught = 0
        tried = 0
        for i, (op, res) in enumerate(results):
            for wrong in wrong_expectations(op.expect):
                tried += 1
                altered = copy.copy(op)
                altered.expect = wrong
                batch = [(altered if j == i else o, r) for j, (o, r) in enumerate(results)]
                failed = sum(1 for o, r in batch if not matches(o.expect, r.outcome))
                op_ok_ratio = (len(batch) - failed) / len(batch)
                caught += op_ok_ratio < 1
        check(caught == tried, f"{name}: {caught}/{tried} wrong expected values raise the failure ratio", failures)

    with tempfile.TemporaryDirectory() as workdir:
        result = timed_run(name, SEED, 0.1, workdir, sizes)
    check(result["correct"] and set(result["metrics"]) == set(END_TO_END),
          f"{name}: timed run correct with every end-to-end metric", failures)
    with tempfile.TemporaryDirectory() as workdir:
        result = traced_run(name, SEED, workdir, SRC, sizes)
    metrics = result["metrics"]
    check(result["correct"] and set(metrics) == set(PER_LAYER),
          f"{name}: traced run correct with every per-layer metric", failures)
    if name == "structural":
        check(metrics["fusion.pentagon_scans"]["value"] == 0, "structural: no pentagon scan", failures)


def check_pointed_oracles(failures: list) -> None:
    rng = random.Random(SEED)
    entry = build_entry("vec-zn", 4)
    group, tau = entry.source["group"], entry.source["cocycle"]
    for _ in range(8):
        triple = tuple(rng.randrange(4) for _ in range(3))
        flipped = ThreeCocycle(gen.flip_cube(tau.values, triple))
        parity = workloads.cube_flip_parity_count(group, triple)
        total = check_3cocycle(group, flipped, max_violations=0).total_violations
        check(parity == total > 0, f"pointed oracle at {triple}: parity count {parity}, 3-cocycle {total}", failures)


def main() -> int:
    failures: list[str] = []
    check_pointed_oracles(failures)
    for name in workloads.WORKLOADS:
        check_workload(name, failures)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
