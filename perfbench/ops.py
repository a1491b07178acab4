"""Executing ops and checking their outcomes.

``run_process`` runs an op the way a user does, in a fresh interpreter, and
returns its times and the reference times around it (see ``calibrate``),
its peak resident set and its outcome.  ``outcome`` reduces an op's exit code, JSON report and written
file to the parts that are compared: exit code, top-level ``ok``, each
check's ``total_violations`` and the sha256 of the written file.  Report layout and
timings are never compared.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction

OP_TIMEOUT_S = 60.0
KILLED_EXIT = -1  # stands for a crash by signal or a timeout

# The reference work: a fixed amount of plain Python (no sfckit) that each
# op's process times before and after the op.  REF_NOMINAL_S, the fixed
# scale of every reported time, is its time on a quiet 2-vCPU KVM guest with
# Python 3.11.7.
REF_STEPS = 4000
REF_NOMINAL_S = 0.024


def reference() -> float:
    """Time one pass of the reference work."""
    start = time.perf_counter()
    table = {}
    x = Fraction(1, 3)
    for i in range(REF_STEPS):
        x = (x * 7 + Fraction(i % 13, 5)) % 11
        table[i % 97, i % 89] = x
    return time.perf_counter() - start


def calibrate(seconds: float, ref_s) -> float:
    """A measured time in seconds at the reference work's nominal speed.

    On a shared host the machine's speed drifts by tens of percent over
    minutes, and every program slows down alike, so a time t measured
    between reference times r0 and r1 is reported as
    t * REF_NOMINAL_S / ((r0 + r1) / 2), which cancels the drift.
    """
    return seconds * REF_NOMINAL_S / (sum(ref_s) / len(ref_s))


@dataclass
class OpResult:
    seconds: float  # the op's metric time: import and call, or the library call alone
    wall: float  # process wall time
    ref_s: list  # the reference times before and after the op
    rss_mb: float
    outcome: dict


def file_digest(path: str | None) -> str | None:
    if not path or not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def parse_report(stdout: str) -> dict | None:
    """An op's JSON report, or None when its output is not one."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return None
    return doc if isinstance(doc, dict) else None


def outcome(exit_code: int, doc: dict | None, output: str | None) -> dict:
    """The comparable part of one op's result."""
    ok = None
    totals: dict[str, list[int]] = {}
    if doc is not None:
        ok = doc.get("ok")
        for check in doc.get("checks", []):
            if "total_violations" in check:
                totals.setdefault(check.get("name"), []).append(check["total_violations"])
    return {"exit": exit_code, "ok": ok, "totals": totals, "digest": file_digest(output)}


def matches(expect: dict, got: dict) -> bool:
    if got["exit"] != expect["exit"] or got["ok"] is not expect["ok"]:
        return False
    for name, total in expect["totals"].items():
        seen = got["totals"].get(name)
        if not seen or any(t != total for t in seen):
            return False
    return "digest" not in expect or got["digest"] == expect["digest"]


def op_env(src_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir
    env.pop("SFCKIT_JOBS", None)
    return env


def run_process(op, here: str, env: dict, workdir: str, timeout: float = OP_TIMEOUT_S) -> OpResult:
    """Run one op in a fresh interpreter through opmain.py.

    The op is killed after ``timeout`` seconds and then counts as failed.
    Its stdout and timings go through files in workdir.
    """
    if op.output and os.path.exists(op.output):
        os.remove(op.output)
    log_path = os.path.join(workdir, "op-stdout.txt")
    times_path = os.path.join(workdir, "op-times.json")
    if os.path.exists(times_path):
        os.remove(times_path)
    argv = [sys.executable, os.path.join(here, "opmain.py"), times_path, op.kind, *op.args]
    with open(log_path, "w+b") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.DEVNULL, env=env)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        log.seek(0)
        stdout = log.read().decode("utf-8", "replace")
    code = proc.returncode if proc.returncode >= 0 else KILLED_EXIT
    times = {"op_s": elapsed, "ref_s": [REF_NOMINAL_S]}  # a crashed op wrote none
    if os.path.exists(times_path):
        with open(times_path, encoding="utf-8") as fh:
            times = json.load(fh)
    return OpResult(
        times.get("call_s", times["op_s"]),
        elapsed,
        times["ref_s"],
        usage.ru_maxrss / 1024.0,
        outcome(code, parse_report(stdout), op.output),
    )
