"""The library op: one public library call, timed around the call only."""

from __future__ import annotations

import time


def invertibility(path: str) -> tuple[int, dict]:
    """Load path and run ``check_6j_invertibility`` on it.

    Returns the exit code (0 when the check passes, 1 otherwise) and a report
    document: the report (as ``checks``), top-level ``ok`` and the call's
    wall time ``call_s``.
    """
    from sfckit.fusion import check_6j_invertibility
    from sfckit.serialize import load_file

    cf = load_file(path)
    start = time.perf_counter()
    report = check_6j_invertibility(cf.fusion, cf.sixj)
    elapsed = time.perf_counter() - start
    doc = {"ok": report.ok, "checks": [dict(report.to_json(), ok=report.ok)], "call_s": elapsed}
    return (0 if report.ok else 1), doc
