"""Run the command line of one source tree on a fixed set of inputs and
record every outcome, so that two trees can be compared report by report.

Usage: python tools/report_identity.py SRC OUT.json

SRC is the directory that holds the ``sfckit`` package (a checkout's
``src``).  The inputs are built from this checkout's ``tests/cases.py``
(example tables, public sfckit names only) and ``perfbench/gen.py``
(seeded generators), and written by SRC's own serializer.  They are:

- every entry of ``tests/cases.CATALOG`` and, where it has a table, a
  mutant with its middle entry in key order negated
  (``perfbench/gen.flip_entry`` at ``cases.middle_key``);
- for an entry built from a group, its group file (``cocycle`` or
  ``supercocycle`` with its omega) and a mutant with one cube value negated;
- the inputs of the three benchmark workloads
  (``perfbench/workloads.build_plan``, seed 1);
- large moduli, where a violation's sides are rendered from big
  denominators: the gauged Ising x Vec(Z/3) table (``perfbench/gen``, N = 24)
  and its sign-flip mutant, and the gauged ``vec-zn 4`` 3-cocycle and
  ``super-zn-even 4`` 3-supercocycle cubes with their mutants;
- the ``general`` workload's all-even Ising superfusion table
  (``perfbench/gen.even_superfusion``) with one entry negated, where some
  outer quadruples hold two super pentagon violations;
- mixed conductors, where the witness sides are products across orders and
  print through ``canonical``: ``vec-zn 2`` with its first entries set to
  ``zeta_11`` and ``zeta_13`` (N = 286) and to ``zeta_3``, ``zeta_5`` and
  ``zeta_7`` (N = 210) (``cases.mixed_order_file``);
- pointed tables off the catalog: the rules of S3 (``cases.s3``) with a
  gauged trivial cocycle (``perfbench/gen.gauge_cube``) and one entry
  negated, ``vec-zn 4`` with every ninth entry left out, and one-product
  rules of rank 3 whose product is not associative, where ``(ij)k = i(jk)``
  fails and the scans of a group's rules do not apply;
- a Majorana object with a table: ``ising`` with the 29 base entries that
  the Kitaev Ising table determines (``cases.descended_ising_table``),
  whose super pentagon fails on the odd-odd entries the lift drops;
- superfusion rules whose ring laws fail: ``cases.z3_parity_broken``,
  whose pi-Grothendieck ring is not associative, and ``ck 10`` with its middle
  multiplicity raised by one odd basis vector, which breaks the
  associativity law of ``validate_superfusion``;
- malformed files (``MALFORMED``): one field of a ``vec-zn 4`` file, a
  ``super-zn-even 4`` file or a Z/6 3-cocycle file replaced or one record
  duplicated, in the last ``mult``, ``sixj`` and ``parities`` records and a
  deep cube entry: bad, boolean and integer labels, zero denominators, wrong
  coefficient counts, and a malformed scalar after an equal-looking
  well-formed one.

Every input runs under ``check --jobs 1``, ``check --jobs 2``,
``check --max-violations 1`` (a truncated witness list),
``underlying -o``, ``lift-cocycle -o``, ``extend-group -o`` and ``sgr``,
each with ``--json``, in this process.  OUT.json holds, per run, the exit
code, the JSON report without its run-dependent ``elapsed_s`` and
``input`` fields, stderr and the sha256 of the written file.

Three more runs per input pin the stream contract: ``underlying``,
``lift-cocycle`` and ``extend-group`` with ``--json`` and no ``-o`` record
the sha256 of stdout (the written document) and the report read from
stderr.  One more, ``check`` in text mode, records the text report with
the time in its ``result:`` line masked.  Two trees behave alike on these
inputs when their OUT files are byte-identical:

    python tools/report_identity.py OLD/src old.json
    python tools/report_identity.py src new.json
    cmp old.json new.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# name, command line, and the stream that carries the report
COMMANDS = (
    ("check --jobs 1", ["check", "{input}", "--jobs", "1", "--json"], "stdout"),
    ("check --jobs 2", ["check", "{input}", "--jobs", "2", "--json"], "stdout"),
    ("check --max-violations 1", ["check", "{input}", "--max-violations", "1", "--json"], "stdout"),
    ("underlying -o", ["underlying", "{input}", "-o", "{output}", "--json"], "stdout"),
    ("lift-cocycle -o", ["lift-cocycle", "{input}", "-o", "{output}", "--json"], "stdout"),
    ("extend-group -o", ["extend-group", "{input}", "-o", "{output}", "--json"], "stdout"),
    ("sgr", ["sgr", "{input}", "--json"], "stdout"),
    ("underlying to stdout", ["underlying", "{input}", "--json"], "stderr"),
    ("lift-cocycle to stdout", ["lift-cocycle", "{input}", "--json"], "stderr"),
    ("extend-group to stdout", ["extend-group", "{input}", "--json"], "stderr"),
    ("check text", ["check", "{input}"], "stdout"),
)

# (source, path into its payload, value put there): a path ending in "+"
# appends a copy of the record it names.  Earlier entries of the sixj list
# and of cube row [5][4] hold 1 and {"order": 3, "coeffs": [[0, 1], [-1, 1]]},
# equal-looking to the malformed True, 1.0 and [-1, 1.0] put after them.
MALFORMED = (
    ("vec-zn 4", ("mult", 15, 1), "nope"),
    ("vec-zn 4", ("mult", 15, 1), True),
    ("vec-zn 4", ("mult", 15, 1), 0),
    ("vec-zn 4", ("mult", 15, 3), 0),
    ("vec-zn 4", ("mult", 15, "+"), None),
    ("vec-zn 4", ("sixj", 63, 4), "nope"),
    ("vec-zn 4", ("sixj", 63, 4), True),
    ("vec-zn 4", ("sixj", 63, 4), 0),
    ("vec-zn 4", ("sixj", 63, 8), True),
    ("vec-zn 4", ("sixj", 63, 8), 0),
    ("vec-zn 4", ("sixj", 63, "+"), None),
    ("vec-zn 4", ("sixj", 63, 10), {"order": 4, "coeffs": [[0, 1], [-1, 0]]}),
    ("vec-zn 4", ("sixj", 63, 10), {"order": 4, "coeffs": [[0, 1], [-1, 1], [0, 1]]}),
    ("vec-zn 4", ("sixj", 63, 10), {"order": 4, "coeffs": [0, [1]]}),
    ("vec-zn 4", ("sixj", 63, 10), True),
    ("vec-zn 4", ("sixj", 63, 10), 1.0),
    ("super-zn-even 4", ("parities", 15, 2), "nope"),
    ("super-zn-even 4", ("parities", 15, 2), True),
    ("super-zn-even 4", ("parities", 15, 2), 0),
    ("super-zn-even 4", ("parities", 15, 3), True),
    ("super-zn-even 4", ("parities", 15, "+"), None),
    ("z6 cocycle", ("cocycle", 5, 4, 3), True),
    ("z6 cocycle", ("cocycle", 5, 4, 3), "1"),
    ("z6 cocycle", ("cocycle", 5, 4, 3), 0),
    ("z6 cocycle", ("cocycle", 5, 4, 3), {"order": 3, "coeffs": [[0, 1], [-1, 0]]}),
    ("z6 cocycle", ("cocycle", 5, 4, 3), {"order": 3, "coeffs": [[0, 1], [-1, 1], [1, 1]]}),
    ("z6 cocycle", ("cocycle", 5, 4, 3), {"order": 3, "coeffs": [[0, 1], [-1, 1.0]]}),
    ("z6 cocycle", ("cocycle", 5, 4, 3), {"order": 3, "coeffs": [[0, True], [-1, 1]]}),
    ("z6 cocycle", ("cocycle", 5, 4, 3), {"order": 3.0, "coeffs": [[0, 1], [-1, 1]]}),
    ("z6 cocycle", ("cocycle", 5, 4, 3), {"order": 3, "coeffs": [[0, 1], [-1, 1]], "x": 0}),
    ("z6 cocycle", ("cocycle", 5, 4), [1] * 5),
)

RESULT_TIME = re.compile(r"^(result: \w+) \([0-9.]+s, ", re.MULTILINE)


def _negate_middle(values):
    """A copy of a G^3 cube with its middle value, in row-major order, negated."""
    from gen import flip_cube

    n = len(values)
    middle = n**3 // 2
    return flip_cube(values, (middle // n**2, middle // n % n, middle % n))


def write_inputs(work: str) -> dict[str, str]:
    """Write every input into work; returns label -> path, in a fixed order."""
    from sfckit.catalog import build_entry, ising_super, pointed_fusion_data, standard_three_cocycle
    from sfckit.cocycles import SuperCocycle, ThreeCocycle, cyclic_group
    from sfckit.fusion import FusionData, SixJTable, admissible_decuples
    from sfckit.scalars import MINUS_ONE, ONE
    from sfckit.serialize import dumps_file, fusion_file, group_file, save_file, superfusion_file
    from sfckit.superfusion import SuperFusionData
    from tests.cases import CATALOG, descended_ising_table, middle_key, mixed_order_file, s3, z3_parity_broken
    from workloads import WORKLOADS, build_plan

    import gen

    inputs = {}

    def save(label, cf):
        path = os.path.join(work, f"input-{len(inputs)}.json")
        save_file(path, cf)
        inputs[label] = path

    for name, params in CATALOG:
        label = " ".join([name, *map(str, params)])
        entry = build_entry(name, *params)
        make = fusion_file if entry.kind == "fusion" else superfusion_file
        save(label, make(entry.data, entry.sixj))
        if entry.sixj is not None and entry.sixj.entries:
            save(f"{label} flipped", make(entry.data, gen.flip_entry(entry.sixj, middle_key(entry.sixj))))
        group = entry.source.get("group")
        tau, sc = entry.source.get("cocycle"), entry.source.get("supercocycle")
        if tau is not None:
            save(f"{label} group", group_file(group, cocycle=tau))
            save(f"{label} group flipped", group_file(group, cocycle=ThreeCocycle(_negate_middle(tau.values))))
        if sc is not None:
            save(f"{label} group", group_file(group, supercocycle=sc))
            flipped = SuperCocycle(sc.omega, _negate_middle(sc.values))
            save(f"{label} group flipped", group_file(group, supercocycle=flipped))
    data, table = gen.ising_times_zn(3)
    gauged = gen.gauge(data, table, seed=1)
    save("gauged ising x z3", fusion_file(data, gauged))
    save("gauged ising x z3 flipped", fusion_file(data, gen.flip_entry(gauged, middle_key(gauged))))
    source = build_entry("vec-zn", 4).source
    cube = gen.gauge_cube(source["group"], source["cocycle"].values, seed=1)
    save("gauged vec-zn 4 group", group_file(source["group"], cocycle=ThreeCocycle(cube)))
    save("gauged vec-zn 4 group flipped", group_file(source["group"], cocycle=ThreeCocycle(_negate_middle(cube))))
    source = build_entry("super-zn-even", 4).source
    omega, cube = source["supercocycle"].omega, gen.gauge_cube(source["group"], source["supercocycle"].values, seed=1)
    save("gauged super-zn-even 4 group", group_file(source["group"], supercocycle=SuperCocycle(omega, cube)))
    flipped = SuperCocycle(omega, _negate_middle(cube))
    save("gauged super-zn-even 4 group flipped", group_file(source["group"], supercocycle=flipped))
    sdata, stable = gen.even_superfusion(*gen.ising_fusion())
    save("even ising superfusion flipped", superfusion_file(sdata, gen.flip_entry(stable, middle_key(stable))))
    for orders in ((11, 13), (3, 5, 7)):
        save(" ".join(["vec-zn 2 zeta", *map(str, orders)]), mixed_order_file(*orders))
    data, table = pointed_fusion_data(s3(), ThreeCocycle(gen.gauge_cube(s3(), [[[ONE] * 6] * 6] * 6, seed=1)))
    save("s3 gauged flipped", fusion_file(data, gen.flip_entry(table, middle_key(table))))
    vec = build_entry("vec-zn", 4)
    sparse = SixJTable({key: v for at, (key, v) in enumerate(sorted(vec.sixj.entries.items())) if at % 9})
    save("vec-zn 4 missing entries", fusion_file(vec.data, sparse))
    product = [[0, 1, 2], [2, 0, 1], [2, 1, 0]]
    rules = FusionData(["0", "1", "2"], 0, {(a, b, product[a][b]): 1 for a in range(3) for b in range(3)})
    table = SixJTable({key: ONE if at % 2 else MINUS_ONE for at, key in enumerate(admissible_decuples(rules))})
    save("non-associative pointed rules", fusion_file(rules, table))
    save("descended ising superfusion", superfusion_file(ising_super(), descended_ising_table()))
    save("z3 parity broken", superfusion_file(z3_parity_broken()))
    ck = build_entry("ck", 10).data
    key = sorted(ck.base.mult)[len(ck.base.mult) // 2]
    mult = {**ck.base.mult, key: ck.base.mult[key] + 1}
    parities = {**ck.parities, (*key, mult[key]): 1}
    bumped = SuperFusionData(FusionData(ck.labels, ck.base.unit, mult), parities, ck.object_type)
    save("ck 10 bumped multiplicity", superfusion_file(bumped))
    vec, sup = build_entry("vec-zn", 4), build_entry("super-zn-even", 4)
    sources = {
        "vec-zn 4": fusion_file(vec.data, vec.sixj),
        "super-zn-even 4": superfusion_file(sup.data, sup.sixj),
        "z6 cocycle": group_file(cyclic_group(6), cocycle=standard_three_cocycle(6)),
    }
    for source, where, value in MALFORMED:
        doc = json.loads(dumps_file(sources[source]))
        target = doc["payload"]
        for step in where[:-1]:
            target = target[step]
        if where[-1] == "+":
            target = doc["payload"][where[0]]
            target.append(list(target[where[1]]))
        else:
            target[where[-1]] = value
        path = os.path.join(work, f"input-{len(inputs)}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        inputs[f"malformed {source} {where} = {value!r}"] = path
    for workload in WORKLOADS:
        bench = os.path.join(work, f"bench-{workload}")
        build_plan(workload, bench, seed=1)
        for name in sorted(os.listdir(bench)):
            inputs[f"bench {workload} {name}"] = os.path.join(bench, name)
    return inputs


def comparable(text: str):
    """A JSON report without its run-dependent fields, or other text with
    the time of its ``result:`` line masked."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return RESULT_TIME.sub(r"\1 (<time>, ", text)
    if isinstance(report, dict):
        report.pop("elapsed_s", None)
        report.pop("input", None)
    return report


def run(argv: list[str], work: str, stream: str) -> dict:
    """One command in this process: exit code, the report read from stream,
    and the other stream (stderr as text, stdout as a sha256)."""
    from sfckit.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # a usage error on the command line
            code = exc.code
    stdout, stderr = out.getvalue(), err.getvalue().replace(work, "<work>")
    if stream == "stderr":
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        return {"exit": code, "report": comparable(stderr), "stdout_sha256": digest}
    return {"exit": code, "report": comparable(stdout), "stderr": stderr}


def main(src: str, out_path: str) -> int:
    sys.path[:0] = [os.path.abspath(src), ROOT, os.path.join(ROOT, "perfbench")]
    runs = {}
    with tempfile.TemporaryDirectory() as work:
        written = os.path.join(work, "written.json")
        for label, path in write_inputs(work).items():
            for name, template, stream in COMMANDS:
                argv = [part.format(input=path, output=written) for part in template]
                result = run(argv, work, stream)
                digest = None
                if os.path.exists(written):
                    with open(written, "rb") as fh:
                        digest = hashlib.sha256(fh.read()).hexdigest()
                    os.remove(written)
                result["written_sha256"] = digest
                runs[f"{label} :: {name}"] = result
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(runs, fh, sort_keys=True, indent=1)
        fh.write("\n")
    failed = sum(1 for r in runs.values() if r["exit"] != 0)
    print(f"{len(runs)} runs ({failed} with a nonzero exit) -> {out_path}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
