"""Regenerate pins.json: the expected values the outcome check compares
against where no independent oracle exists.

Usage, from the root of a checkout:  python3 perfbench/pin.py

- ``general_flip_totals``: for every entry of the (ungauged) Ising x
  Vec(Z/n) table, the pentagon violation total after negating that entry.
  A gauge transform multiplies both sides of every pentagon instance by the
  same nonzero factor, so the total holds for every seeded gauge.
- ``digests``: sha256 of each file the construction ops write.  Those
  inputs do not depend on the seed.

Pins are taken for the benchmark sizes and for the self-test sizes.  Run
this only when the expected outputs are meant to change, and say so.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import gen  # noqa: E402
import workloads  # noqa: E402
from ops import file_digest  # noqa: E402
from sfckit import cli  # noqa: E402
from sfckit.fusion import check_pentagon  # noqa: E402


def flip_totals(n: int) -> dict:
    data, table = gen.ising_times_zn(n)
    return {
        workloads.key_text(key): check_pentagon(data, gen.flip_entry(table, key), max_violations=0).total_violations
        for key in sorted(table.entries)
    }


def main() -> int:
    pins = {"digests": {}, "general_flip_totals": {}}
    for sizes in (workloads.SIZES, workloads.TINY_SIZES):
        general = sizes["general"]
        pins["general_flip_totals"][workloads.size_tag(general)] = flip_totals(general["n"])
        for name in workloads.WORKLOADS:
            with tempfile.TemporaryDirectory() as workdir:
                plan = workloads.build_plan(name, workdir, 0, sizes[name], pins)
                for op in plan.ops:
                    if op.output:
                        with contextlib.redirect_stdout(io.StringIO()):
                            cli.main(op.args)
                        key = workloads.digest_key(name, sizes[name], op.metric)
                        pins["digests"][key] = file_digest(op.output)
                        print(key, pins["digests"][key], flush=True)
    with open(workloads.PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
