"""Time the sfc-1 writer and reader per record, in process.

Usage: python tools/codec_cost.py [--src SRC] [--repeat N] [--tiny]

SRC is the directory that holds the ``sfckit`` package (default: this
checkout's ``src``), so the same script times any tree.  Each input is
written by ``serialize.dumps_file`` and read back from a file by
``serialize.load_file``, N times each (default 7).  The script prints one
JSON object that maps each input to its record count, its size in bytes,
the best write and read times in seconds, and ``dump_us_per_record`` and
``load_us_per_record``, the best times over the records.  A record is one
``mult``, ``sixj`` or ``parities`` entry of a fusion or superfusion file,
or one cube entry of a group file.  The inputs:

- ``vec-zn 8``: the catalog table, root-of-unity values;
- ``super-zn-even 4``: the catalog superfusion table;
- ``ck 22``: the catalog rules with no table (the ``structural`` benchmark
  input of ``underlying`` and ``sgr``);
- ``gauged ising x z2``: the ``general`` benchmark table
  (``perfbench/gen``, seed 1), generic values in Q(zeta_8), nearly all
  distinct;
- ``carry z6 group``: the ``structural`` benchmark group file, an omega
  table and two Z/6 cubes (``perfbench/gen.carry_group_parts``).

``--tiny`` times the same families at their smallest sizes (``vec-zn 2``,
``super-zn-even 2``, ``ck 6``, Ising alone, Z/3) for a quick smoke run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = {"vec": 8, "super": 4, "ck": 22, "general": 2, "group": 6}
TINY = {"vec": 2, "super": 2, "ck": 6, "general": 1, "group": 3}


def inputs(sizes) -> dict:
    """label -> CategoryFile."""
    from sfckit.catalog import build_entry
    from sfckit.serialize import fusion_file, group_file, superfusion_file

    import gen

    vec = build_entry("vec-zn", sizes["vec"])
    sup = build_entry("super-zn-even", sizes["super"])
    data, table = gen.ising_times_zn(sizes["general"])
    return {
        f"vec-zn {sizes['vec']}": fusion_file(vec.data, vec.sixj),
        f"super-zn-even {sizes['super']}": superfusion_file(sup.data, sup.sixj),
        f"ck {sizes['ck']}": superfusion_file(build_entry("ck", sizes["ck"]).data),
        f"gauged ising x z{sizes['general']}": fusion_file(data, gen.gauge(data, table, seed=1)),
        f"carry z{sizes['group']} group": group_file(*gen.carry_group_parts(sizes["group"])),
    }


def records(cf) -> int:
    if cf.kind == "group+cocycles":
        return sum(cf.group.order**3 for cube in (cf.cocycle, cf.supercocycle) if cube is not None)
    data = cf.fusion if cf.superfusion is None else cf.superfusion.base
    count = len(data.mult) + (len(cf.sixj.entries) if cf.sixj is not None else 0)
    return count + (len(cf.superfusion.parities) if cf.superfusion is not None else 0)


def best_of(repeat: int, call):
    """(the least time of repeat calls, the last call's result)."""
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def measure(cases, repeat: int, workdir: str) -> dict:
    from sfckit.serialize import dumps_file, load_file

    out = {}
    for pos, (label, cf) in enumerate(cases.items()):
        dump_best, text = best_of(repeat, lambda: dumps_file(cf))
        path = os.path.join(workdir, f"{pos}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        load_best, _ = best_of(repeat, lambda: load_file(path))
        count = records(cf)
        out[label] = {
            "records": count,
            "bytes": len(text.encode("utf-8")),
            "dump_best_s": round(dump_best, 6),
            "load_best_s": round(load_best, 6),
            "dump_us_per_record": round(dump_best / count * 1e6, 3),
            "load_us_per_record": round(load_best / count * 1e6, 3),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tools/codec_cost.py", description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("--repeat", type=int, default=7)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    sys.path[:0] = [os.path.abspath(args.src), os.path.join(ROOT, "perfbench")]
    with tempfile.TemporaryDirectory() as workdir:
        result = measure(inputs(TINY if args.tiny else SIZES), args.repeat, workdir)
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
