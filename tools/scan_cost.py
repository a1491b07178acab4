"""Time the (super) pentagon scan per checked instance and the 6j
invertibility check per block, in process.

Usage: python tools/scan_cost.py [--src SRC] [--repeat N] [--tiny]

SRC is the directory that holds the ``sfckit`` package (default: this
checkout's ``src``), so the same script times any tree.  Each input is
scanned by ``fusion._run_scan`` with the default ``--max-violations``
(25) (and one job, in older trees whose scans take a job count), N times (default 7); the script prints one JSON
object that maps each input to the best time in seconds, its instance and
violation counts, and ``us_per_instance``, the best time over the
instances checked.  ``path`` names the engine that ran: ``group`` where
``_run_scan`` hands the rules of a group to the G^4 kernel
(``_cube.pentagon_scan``), else ``row``.  The same scan by the row engine
alone gives ``row_best_s`` and ``row_us_per_instance``, and ``row_engine``
names the function timed: ``sfckit._rowscan.row_scan``, or in older trees
``fusion._row_scan`` or, before that, ``fusion._run_scan``.
``modulus_bits`` is the size of the row engine's modulus m
(``_rowscan._compile``), and ``reducer`` says how its scan reduces mod m:
``"int"`` by ``x % m``, ``"fold"`` by ``_rowscan._Fold``; both are
``null`` in trees without ``_rowscan._compile``.  Each input's
table is also checked by ``fusion.check_6j_invertibility``, N times:
``invertibility_best_s`` is the best time, ``blocks`` the blocks checked
and ``us_per_block`` the best time over the blocks.  The inputs:

- ``vec-zn 8`` and ``vec-zn 12``: catalog tables, one term per side, and
  ``vec-zn 8 flipped``, with one entry negated
  (``tests/test_kernel.flip``), so the time includes the exact sides of
  the kept violations;
- ``lifted super-zn-even 4``: the lift (``envelope.lift_6j``) of that
  catalog table, on its underlying rules;
- ``gauged ising x z2``: the ``general`` benchmark table
  (``perfbench/gen``, seed 1), generic values in Q(zeta_8) and two-term
  sides;
- ``gauged ising x z3 flipped``: the same construction over Z/3 with one
  entry negated (``tests/test_kernel.flip``), so the time includes the
  exact witness pass on the kept violations.

``--tiny`` scans the same families at their smallest sizes (Z/2, Z/3,
``super-zn-even 2``, Ising alone) for a quick smoke run.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = {"vec": (8, 12), "super": 4, "general": 2, "flipped": 3}
TINY = {"vec": (2, 3), "super": 2, "general": 1, "flipped": 1}


def inputs(sizes) -> dict:
    """label -> (FusionData, table entries, parities)."""
    from sfckit.catalog import build_entry
    from sfckit.envelope import lift_6j, underlying_fusion_rules
    from tests.test_kernel import flip

    import gen

    cases = {}
    for n in sizes["vec"]:
        entry = build_entry("vec-zn", n)
        cases[f"vec-zn {n}"] = (entry.data, entry.sixj.entries, None)
    entry = build_entry("vec-zn", sizes["vec"][0])
    cases[f"vec-zn {sizes['vec'][0]} flipped"] = (entry.data, flip(entry.sixj).entries, None)
    entry = build_entry("super-zn-even", sizes["super"])
    lifted = lift_6j(entry.data, entry.sixj)
    cases[f"lifted super-zn-even {sizes['super']}"] = (underlying_fusion_rules(entry.data), lifted.entries, None)
    for key, n, mutate in (("general", sizes["general"], False), ("flipped", sizes["flipped"], True)):
        data, table = gen.ising_times_zn(n)
        gauged = gen.gauge(data, table, seed=1)
        label = f"gauged ising x z{n}" + (" flipped" if mutate else "")
        cases[label] = (data, (flip(gauged) if mutate else gauged).entries, None)
    return cases


def best_of(repeat: int, call):
    """(the least time of repeat calls, the last call's result)."""
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def dispatched_path(scan) -> str:
    """"group" if the call scan() runs the G^4 kernel, else "row"."""
    try:
        from sfckit import _cube
    except ImportError:  # a tree from before group rules went to the kernel
        return "row"
    real, ran = _cube.pentagon_scan, []
    _cube.pentagon_scan = lambda *args: ran.append(1) or real(*args)
    try:
        scan()
    finally:
        _cube.pentagon_scan = real
    return "group" if ran else "row"


def row_engine():
    """The row engine's scan, in this tree or an older one."""
    try:
        from sfckit._rowscan import row_scan
    except ImportError:  # a tree from before the row engine left fusion
        from sfckit import fusion

        return getattr(fusion, "_row_scan", fusion._run_scan)
    return row_scan


def one_job(scan):
    """scan(data, entries, parities, max_violations), passing jobs = 1 on in
    an older tree whose scan also takes a job count."""
    if len(inspect.signature(scan).parameters) > 4:
        return lambda *args: scan(*args, 1)
    return scan


def compiled_modulus(data, entries):
    """(the bits of m, "int" or "fold") of the row engine's compiled table,
    or (None, None) in a tree without _rowscan._compile."""
    try:
        from sfckit._rowscan import _compile
    except ImportError:
        return None, None
    modulus = _compile(data, entries)[0]
    if isinstance(modulus, int):
        return modulus.bit_length(), "int"
    return modulus.m.bit_length(), "fold"


def measure(cases, repeat: int) -> dict:
    from sfckit import fusion
    from sfckit.reporting import DEFAULT_MAX_VIOLATIONS

    row_scan = row_engine()
    run_scan, run_row_scan = one_job(fusion._run_scan), one_job(row_scan)
    out = {}
    for label, (data, entries, parities) in cases.items():
        args = (data, entries, parities, DEFAULT_MAX_VIOLATIONS)
        best, (_, total, checked) = best_of(repeat, lambda: run_scan(*args))
        row_best, _ = best_of(repeat, lambda: run_row_scan(*args))
        table = fusion.SixJTable(entries)
        inv_best, report = best_of(repeat, lambda: fusion.check_6j_invertibility(data, table))
        bits, reducer = compiled_modulus(data, entries)
        out[label] = {
            "path": dispatched_path(lambda: run_scan(*args)),
            "best_s": round(best, 6),
            "instances": checked,
            "violations": total,
            "us_per_instance": round(best / checked * 1e6, 3),
            "row_engine": f"{row_scan.__module__}.{row_scan.__name__}",
            "row_best_s": round(row_best, 6),
            "row_us_per_instance": round(row_best / checked * 1e6, 3),
            "modulus_bits": bits,
            "reducer": reducer,
            "invertibility_best_s": round(inv_best, 6),
            "blocks": report.checked,
            "us_per_block": round(inv_best / report.checked * 1e6, 3),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tools/scan_cost.py", description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("--repeat", type=int, default=7)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    sys.path[:0] = [os.path.abspath(args.src), ROOT, os.path.join(ROOT, "perfbench")]
    result = measure(inputs(TINY if args.tiny else SIZES), args.repeat)
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
