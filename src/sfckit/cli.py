"""Command-line front end.

Commands: check, underlying, lift-cocycle, extend-group, sgr, catalog.
Exit codes: 0 = all requested checks passed, 1 = a check or verification
failed, 2 = the input could not be parsed or is schema-invalid, or the
output could not be written, 3 = an internal error.

A command that writes a document to stdout (no -o) prints its report on
stderr, so stdout carries that document alone.

Each command imports the engines it runs inside its handler, so a command
compiles and loads only those modules.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .reporting import DEFAULT_MAX_VIOLATIONS, CatalogError, CheckReport, CocycleError, FusionError, Violation
from .serialize import (
    CategoryFile,
    SchemaError,
    dumps_file,
    fusion_file,
    group_file,
    load_file,
    read_document,
    save_file,
    sha256_digest,
    superfusion_file,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3

CHECK_KINDS = ("pentagon", "super-pentagon", "cocycle2", "cocycle3", "supercocycle", "all")


class _Run:
    """Collects check reports and prints them, each by its own renderer."""

    def __init__(self, command: str, args):
        self.command = command
        self.args = args
        self.reports: list = []
        self.notes: list[str] = []
        self.input_digest = None
        self.input_path = None
        self.started = time.perf_counter()

    def read_input(self, path: str) -> CategoryFile:
        self.input_path = path
        raw, cf = read_document(path)
        self.input_digest = sha256_digest(raw)
        return cf

    def add(self, report) -> bool:
        self.reports.append(report)
        return report.ok

    def note(self, text: str) -> None:
        self.notes.append(text)

    def finish(self, ok: bool, extra: dict | None = None) -> int:
        elapsed = time.perf_counter() - self.started
        doc = {
            "command": self.command,
            "input": self.input_path,
            "digest": self.input_digest,
            "ok": ok,
            "checks": [report.to_json() for report in self.reports],
            "notes": self.notes,
            "elapsed_s": round(elapsed, 6),
        }
        if extra:
            doc.update(extra)
        # without -o, stdout carries the written document alone
        out = sys.stderr if getattr(self.args, "output", "") is None else sys.stdout
        if getattr(self.args, "json", False):
            print(json.dumps(doc, sort_keys=True, indent=2), file=out)
        else:
            for report in self.reports:
                print(report.summary(), file=out)
            for note in self.notes:
                print(f"note: {note}", file=out)
            print(f"result: {'pass' if ok else 'FAIL'} ({elapsed:.3f}s, input {self.input_digest})", file=out)
        return EXIT_OK if ok else EXIT_CHECK_FAILED


def _write_output(args, cf: CategoryFile) -> None:
    if args.output:
        save_file(args.output, cf)
    else:
        sys.stdout.write(dumps_file(cf))


# -- commands -------------------------------------------------------------------


def _cmd_check(args) -> int:
    run = _Run("check", args)
    cf = run.read_input(args.file)
    which = args.which
    ok = True
    mv = args.max_violations
    jobs = args.jobs

    if cf.kind == "fusion":
        from .fusion import SixJTable, _check_pentagon, _require_on_support, validate_fusion, validate_sixj

        if which not in ("pentagon", "all"):
            raise SchemaError(f"check {which!r} does not apply to a fusion file")
        table = cf.sixj if cf.sixj is not None else SixJTable({})
        sixj = validate_sixj(cf.fusion, table)
        _require_on_support(sixj.law("support").violations)
        ok &= run.add(validate_fusion(cf.fusion))
        ok &= run.add(sixj)
        if ok:
            if cf.sixj is None:
                run.note("no 6j table in input; pentagon runs against the empty table")
            ok &= run.add(_check_pentagon(cf.fusion, table, sixj, mv, jobs))
    elif cf.kind == "superfusion":
        from .fusion import SixJTable
        from .superfusion import check_super_pentagon, check_support, validate_superfusion

        if which not in ("super-pentagon", "all"):
            raise SchemaError(f"check {which!r} does not apply to a superfusion file")
        ok &= run.add(validate_superfusion(cf.superfusion))
        table = cf.sixj if cf.sixj is not None else SixJTable({})
        if cf.sixj is None:
            run.note("no fermionic 6j table in input; super pentagon runs against the empty table")
        support = check_support(cf.superfusion, table)
        ok &= run.add(support)
        if ok:
            ok &= run.add(
                check_super_pentagon(cf.superfusion, table, max_violations=mv, jobs=jobs, support=support)
            )
    else:
        from .cocycles import check_2cocycle, check_3cocycle, check_supercocycle, validate_group

        applicable = {
            "cocycle2": cf.omega is not None,
            "cocycle3": cf.cocycle is not None,
            "supercocycle": cf.supercocycle is not None,
        }
        if which != "all":
            if which not in applicable:
                raise SchemaError(f"check {which!r} does not apply to a group+cocycles file")
            if not applicable[which]:
                raise SchemaError(f"input carries no data for check {which!r}")
        ok &= run.add(validate_group(cf.group))
        if ok:
            if applicable["cocycle2"] and which in ("cocycle2", "all"):
                ok &= run.add(check_2cocycle(cf.group, cf.omega, max_violations=mv))
            if applicable["cocycle3"] and which in ("cocycle3", "all"):
                ok &= run.add(check_3cocycle(cf.group, cf.cocycle, max_violations=mv))
            if applicable["supercocycle"] and which in ("supercocycle", "all"):
                ok &= run.add(check_supercocycle(cf.group, cf.supercocycle, max_violations=mv))
    return run.finish(ok)


def _cmd_underlying(args) -> int:
    run = _Run("underlying", args)
    cf = run.read_input(args.file)
    if cf.kind != "superfusion":
        raise SchemaError(f"underlying needs a superfusion file, got kind {cf.kind!r}")
    from .envelope import underlying_fusion_rules, verify_lift
    from .superfusion import validate_superfusion

    data = cf.superfusion
    ok = run.add(validate_superfusion(data))
    if not ok:
        return run.finish(False)
    if cf.sixj is None:
        run.note("no fermionic 6j table: emitting graded labels and fusion rules only")
        out = fusion_file(underlying_fusion_rules(data))
    else:
        result = verify_lift(data, cf.sixj, max_violations=args.max_violations, jobs=args.jobs)
        ok &= run.add(result.super_pentagon)
        if not ok:
            run.note("input fails the super pentagon; refusing to lift")
            return run.finish(False)
        ok &= run.add(result.fusion_validation)
        ok &= run.add(result.pentagon)
        out = fusion_file(result.underlying, result.sixj)
    _write_output(args, out)
    if args.output and out.sixj is not None:
        ok &= run.add(_check_written(args.output, out, args.max_violations))
    return run.finish(ok)


def _check_written(path: str, cf: CategoryFile, max_violations: int | None) -> CheckReport:
    """Reload a written fusion file and compare its labels, unit,
    multiplicities and every 6j entry exactly with the in-memory data.

    Equal data has an equal pentagon verdict, so this guards the written file
    as well as a second pentagon scan would.
    """
    violations = []
    checked = 0
    try:
        back = load_file(path)
    except SchemaError as exc:
        violations.append(Violation(instance=(), detail=str(exc)))
    else:
        for attr in ("labels", "unit", "mult"):
            checked += 1
            if getattr(back.fusion, attr, None) != getattr(cf.fusion, attr):
                violations.append(Violation(instance=(attr,), detail="reloaded value differs from the written one"))
        want = cf.sixj.entries
        got = getattr(back.sixj, "entries", {})
        for key in sorted(want.keys() | got.keys()):
            checked += 1
            if want.get(key) != got.get(key):
                violations.append(Violation(instance=key, lhs=got.get(key), rhs=want.get(key)))
    return CheckReport(
        name="written file round trip",
        ok=not violations,
        checked=checked,
        violations=violations[:max_violations],
        total_violations=len(violations),
    )


def _cmd_lift_cocycle(args) -> int:
    run = _Run("lift-cocycle", args)
    cf = run.read_input(args.file)
    if cf.kind != "group+cocycles" or cf.supercocycle is None:
        raise SchemaError("lift-cocycle needs a group+cocycles file with a supercocycle table")
    from .cocycles import check_3cocycle, check_supercocycle, lift_supercocycle, validate_group

    ok = run.add(validate_group(cf.group))
    if ok:
        supercocycle = check_supercocycle(cf.group, cf.supercocycle, max_violations=args.max_violations)
        ok &= run.add(supercocycle)
    if not ok:
        return run.finish(False)
    try:
        ext, lifted = lift_supercocycle(cf.group, cf.supercocycle, report=supercocycle)
    except CocycleError as exc:
        run.note(str(exc))
        return run.finish(False)
    recheck = check_3cocycle(ext, lifted, max_violations=args.max_violations)
    recheck.name = "3-cocycle (on the central extension)"
    ok &= run.add(recheck)
    _write_output(args, group_file(ext, cocycle=lifted))
    return run.finish(ok)


def _cmd_extend_group(args) -> int:
    run = _Run("extend-group", args)
    cf = run.read_input(args.file)
    if cf.kind != "group+cocycles" or cf.omega is None:
        raise SchemaError("extend-group needs a group+cocycles file with an omega table")
    from .cocycles import central_extension, check_2cocycle, validate_group

    ok = run.add(validate_group(cf.group))
    if ok:
        ok &= run.add(check_2cocycle(cf.group, cf.omega, max_violations=args.max_violations))
    if not ok:
        return run.finish(False)
    try:
        ext = central_extension(cf.group, cf.omega, normalize=args.normalize)
    except CocycleError as exc:
        run.note(str(exc))
        return run.finish(False)
    ext_check = validate_group(ext)
    ext_check.subject = "extended group"
    ok &= run.add(ext_check)
    _write_output(args, group_file(ext))
    return run.finish(ok)


def _cmd_sgr(args) -> int:
    run = _Run("sgr", args)
    cf = run.read_input(args.file)
    if cf.kind != "superfusion":
        raise SchemaError(f"sgr needs a superfusion file, got kind {cf.kind!r}")
    from .grothendieck import GrothendieckError, build_sgr, relations_text
    from .superfusion import validate_superfusion

    data = cf.superfusion
    ok = run.add(validate_superfusion(data))
    if not ok:
        return run.finish(False)
    try:
        ring = build_sgr(data)
    except GrothendieckError as exc:
        run.note(f"associativity/unit failure: {exc}")
        return run.finish(False)
    constants = {
        f"[{ring.labels[i]}][{ring.labels[j]}] -> [{ring.labels[m]}]": str(c)
        for (i, j, m), c in sorted(ring.constants.items())
    }
    extra = {
        "basis": list(ring.labels),
        "majorana": sorted(ring.labels[i] for i in ring.majorana),
        "constants": constants,
        "relations": relations_text(ring),
    }
    if not args.json:
        print("basis:", ", ".join(f"[{lab}]" for lab in ring.labels))
        print("majorana:", ", ".join(extra["majorana"]) or "(none)")
        print("structure constants:")
        for key, value in constants.items():
            print(f"  {key}: {value}")
        for line in extra["relations"]:
            print(line)
    return run.finish(True, extra=extra)


def _cmd_catalog(args) -> int:
    from .catalog import CATALOG, build_entry, catalog_names

    if args.list:
        for name in catalog_names():
            spec, _ = CATALOG[name]
            params = " ".join(spec)
            print(f"{name} {params}".strip())
        return EXIT_OK
    if not args.name:
        raise CatalogError("catalog needs an entry name (or --list)")
    entry = build_entry(args.name, *args.params)
    if entry.kind == "fusion":
        out = fusion_file(entry.data, entry.sixj)
    else:
        out = superfusion_file(entry.data, entry.sixj)
    _write_output(args, out)
    for note in entry.notes:
        print(f"note: {note}", file=sys.stderr)
    return EXIT_OK


# -- argument parsing --------------------------------------------------------------


_FLAGS = {
    "which": (("--which",), {"choices": CHECK_KINDS, "default": "all"}),
    "normalize": (("--normalize",), {"action": "store_true",
                                     "help": "apply the constant-coboundary normalization pre-pass to omega"}),
    "json": (("--json",), {"action": "store_true", "help": "emit a machine-readable report"}),
    "jobs": (("--jobs",), {"type": int, "default": 1,
                           "help": "worker processes for the (super) pentagon scans (default: 1)"}),
    "max-violations": (("--max-violations",), {"type": int, "default": DEFAULT_MAX_VIOLATIONS,
                                               "help": "bound on violations listed per check"}),
    "output": (("-o", "--output"), {"default": None, "help": "write the result to this file"}),
}

# Each command with the handler that runs it, its help text, and the flags
# that handler reads; a command accepts no other flag.
_COMMANDS = {
    "check": (_cmd_check, "run verification checks on a category file",
              ("which", "json", "jobs", "max-violations")),
    "underlying": (_cmd_underlying, "construct the underlying fusion category",
                   ("json", "jobs", "max-violations", "output")),
    "lift-cocycle": (_cmd_lift_cocycle, "lift a 3-supercocycle to the central extension",
                     ("json", "max-violations", "output")),
    "extend-group": (_cmd_extend_group, "build the Z/2 central extension of a group",
                     ("normalize", "json", "max-violations", "output")),
    "sgr": (_cmd_sgr, "print the pi-Grothendieck ring of a superfusion file", ("json",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfckit",
        description="Exact verification toolkit for fusion and superfusion category data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, (handler, text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.add_argument("file")
        for flag in flags:
            names, options = _FLAGS[flag]
            p.add_argument(*names, **options)
        p.set_defaults(handler=handler)

    p = sub.add_parser("catalog", help="emit a built-in example as a category file")
    p.add_argument("name", nargs="?")
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("--list", action="store_true", help="list available entries")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(handler=_cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (SchemaError, CatalogError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except FusionError as exc:
        print(f"error: structurally invalid data: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except CocycleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
