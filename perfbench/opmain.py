"""Entry point of one op's process.

Usage: python opmain.py TIMES_FILE cli ARG...   (runs ``sfckit check ...`` etc.)
       python opmain.py TIMES_FILE lib FILE     (library check_6j_invertibility)

The op runs as a user runs it: a fresh interpreter that imports sfckit and
makes one call, its report on standard output and its exit code as the
process's.  Around the op, the process times the reference work
(``ops.reference``) once before the import and once after the call, and
writes to TIMES_FILE, as JSON, the op's time from before the import to the
end of the call (``op_s``), the library call's own time (``call_s``, lib
ops only) and the two reference times (``ref_s``).  Standing right before
and after the op in the same process, the reference times show how fast the
machine ran during the op.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from ops import reference  # noqa: E402


def main(argv: list[str]) -> int:
    times_path, kind, args = argv[0], argv[1], argv[2:]
    ref_before = reference()
    start = time.perf_counter()
    times = {}
    if kind == "cli":
        from sfckit.cli import main as cli_main

        code = cli_main(args)
    else:
        from libop import invertibility

        code, doc = invertibility(*args)
        times["call_s"] = doc["call_s"]
        print(json.dumps(doc, sort_keys=True))
    sys.stdout.flush()
    times["op_s"] = time.perf_counter() - start
    times["ref_s"] = [ref_before, reference()]
    with open(times_path, "w", encoding="utf-8") as fh:
        json.dump(times, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
