"""sfckit benchmark: end-to-end metrics (``--trace 0``) or per-layer metrics
(``--trace 1``) for one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pointed --seed 1 --seconds 38 --trace 0

Workloads: ``pointed``, ``general``, ``structural`` (see workloads.py).  The
seed picks the mutated entry and the gauge factors.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

A timed run generates the inputs at least SETUP_MIN_REPS times and until
SETUP_MIN_S seconds are spent (``setup_s`` is the median).  It then runs the
workload's batch of ops, each in a fresh process, for about ``--seconds``
seconds.  A batch runs each op once, or ``workloads.REPEATS`` times.
Every ``*_s`` op metric is the median over the run's executions of that op;
``wall_s`` is the median over batches of the sum of the batch's op process
times.  Every time is calibrated: a fixed piece of reference work is timed
right before and after each measurement, in the same process, and the time
is scaled to the reference's nominal speed (``ops.calibrate``), so the
values are seconds at that speed and the host's speed drift cancels.  An
op's time runs from before its process imports sfckit to the end of the
call (``opmain.py``); interpreter start-up counts only in ``wall_s``.
Every outcome is checked after the timing loop.  Scratch files live under
``.perfbench_work/`` in the checkout and are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

SETUP_MIN_REPS = 5
SETUP_MAX_REPS = 9
SETUP_MIN_S = 1.0
# A hung op is killed so that the whole run ends this long after --seconds.
OVERRUN_S = 60.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_ok_ratio": "ratio",
    "check_s": "s",
    "check_fail_s": "s",
    "check_jobs2_s": "s",
    "underlying_s": "s",
    "lift_cocycle_s": "s",
    "sgr_s": "s",
    "invertibility_s": "s",
}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(name: str, seed: int, seconds: float, workdir: str, sizes: dict | None = None) -> dict:
    from ops import OP_TIMEOUT_S, calibrate, matches, op_env, reference, run_process
    from workloads import REPEATS, build_plan, settle_oracles

    setup_times = []
    while len(setup_times) < SETUP_MAX_REPS and (
        len(setup_times) < SETUP_MIN_REPS or sum(setup_times) < SETUP_MIN_S
    ):
        ref_before = reference()
        start = time.perf_counter()
        plan = build_plan(name, workdir, seed, sizes)
        elapsed = time.perf_counter() - start
        setup_times.append(calibrate(elapsed, [ref_before, reference()]))

    env = op_env(SRC)
    samples: dict[str, list[float]] = {op.metric: [] for op in plan.ops}
    results = []
    batches = []
    begin = time.perf_counter()
    hard_end = begin + seconds + OVERRUN_S
    while True:
        batch = 0.0
        for op in plan.ops:
            for _ in range(REPEATS[name].get(op.metric, 1)):
                timeout = max(1.0, min(OP_TIMEOUT_S, hard_end - time.perf_counter()))
                res = run_process(op, HERE, env, workdir, timeout)
                samples[op.metric].append(calibrate(res.seconds, res.ref_s))
                batch += calibrate(res.wall, res.ref_s)
                results.append((op, res))
        batches.append(batch)
        # Start another batch only if it is expected to end by half a batch
        # after the deadline, so runs last ``seconds`` on average.
        elapsed = time.perf_counter() - begin
        if elapsed + elapsed / len(batches) / 2 > seconds:
            break

    settle_oracles(plan)
    failed = sum(1 for op, res in results if not matches(op.expect, res.outcome))
    attempted = len(results)
    values = {
        "wall_s": statistics.median(batches),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": max(res.rss_mb for _, res in results),
        "op_ok_ratio": (attempted - failed) / attempted,
    }
    for key in END_TO_END:
        if key not in values:
            values[key] = statistics.median(samples[key])
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: metric(values[key], unit) for key, unit in END_TO_END.items()},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "sfckit", "cli.py")):
        return _fail(f"no sfckit sources under {SRC}; run from the root of an sfckit checkout")
    sys.path[:0] = [SRC, HERE]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        if args.trace:
            from trace_run import traced_run

            result = traced_run(args.workload, args.seed, workdir, SRC)
        else:
            result = timed_run(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
