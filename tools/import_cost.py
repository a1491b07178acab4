"""Time the sfckit modules each command imports, in fresh interpreters.

Usage: python tools/import_cost.py [--src SRC] [--repeat N] [--tiny]

SRC is the directory that holds the ``sfckit`` package (default: this
checkout's ``src``), so the same script times any tree.  Each command runs
N times (default 7), each time as ``sfckit.cli.main`` in a fresh
interpreter under ``-X importtime`` with ``PYTHONDONTWRITEBYTECODE=1``, so
every sfckit module is compiled from source, as a user's command without a
bytecode cache does.  The runs of the commands alternate.  The script
prints one JSON object that maps each command to its input, ``modules``
(each sfckit module loaded and the median of its self time in
microseconds, import order) and ``total_us``, the median over the runs of
the summed sfckit self times.  The inputs are catalog entries shaped like
the benchmark's:

- ``check``: ``vec-zn 8`` with its table (``pointed``);
- ``underlying``: ``super-zn-even 4`` with its table, written with ``-o``
  (``pointed``);
- ``lift-cocycle``: the group file of that entry's supercocycle, written
  with ``-o`` (``pointed``);
- ``sgr``: the rules of ``ck 22``, no table (``structural``);
- ``underlying-rules``: ``underlying`` on the same rules, written with
  ``-o`` (``structural``).

``--tiny`` runs on ``vec-zn 3``, ``super-zn-even 2`` and ``ck 6`` for a
quick smoke run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = {"vec": 8, "super": 4, "ck": 22}
TINY = {"vec": 3, "super": 2, "ck": 6}
CHILD = "import sys\nfrom sfckit.cli import main\nraise SystemExit(main(sys.argv[1:]))"


def commands(sizes, workdir: str) -> dict:
    """command -> (input label, argv), with the inputs written to workdir."""
    from sfckit.catalog import build_entry
    from sfckit.serialize import fusion_file, group_file, save_file, superfusion_file

    vec = build_entry("vec-zn", sizes["vec"])
    sup = build_entry("super-zn-even", sizes["super"])
    files = {
        "vec": fusion_file(vec.data, vec.sixj),
        "super": superfusion_file(sup.data, sup.sixj),
        "group": group_file(sup.source["group"], supercocycle=sup.source["supercocycle"]),
        "ck": superfusion_file(build_entry("ck", sizes["ck"]).data),
    }
    path = {name: os.path.join(workdir, f"{name}.json") for name in files}
    for name, cf in files.items():
        save_file(path[name], cf)
    out = os.path.join(workdir, "out.json")
    return {
        "check": (f"vec-zn {sizes['vec']}", ["check", path["vec"]]),
        "underlying": (f"super-zn-even {sizes['super']}", ["underlying", path["super"], "-o", out]),
        "lift-cocycle": (f"super-zn-even {sizes['super']} group", ["lift-cocycle", path["group"], "-o", out]),
        "sgr": (f"ck {sizes['ck']}", ["sgr", path["ck"]]),
        "underlying-rules": (f"ck {sizes['ck']}", ["underlying", path["ck"], "-o", out]),
    }


def sfckit_self_us(stderr: str) -> dict:
    """module -> self time in microseconds, for each sfckit module in the
    -X importtime lines of stderr ("import time: self | cumulative | name")."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        name = fields[-1].strip()
        if fields[0].strip().isdigit() and name.split(".")[0] == "sfckit":
            out[name] = int(fields[0])
    return out


def run(src: str, argv: list) -> dict:
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", CHILD, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"sfckit {' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return sfckit_self_us(proc.stderr)


def measure(src: str, cases: dict, repeat: int) -> dict:
    runs = {name: [] for name in cases}
    for _ in range(repeat):
        for name, (_, argv) in cases.items():
            runs[name].append(run(src, argv))
    out = {}
    for name, (label, _) in cases.items():
        modules = {module: statistics.median(r.get(module, 0) for r in runs[name]) for module in runs[name][0]}
        out[name] = {
            "input": label,
            "modules": modules,
            "total_us": statistics.median(sum(r.values()) for r in runs[name]),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tools/import_cost.py", description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("--repeat", type=int, default=7)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    with tempfile.TemporaryDirectory() as workdir:
        result = measure(src, commands(TINY if args.tiny else SIZES, workdir), args.repeat)
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
