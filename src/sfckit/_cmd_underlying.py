"""sfckit underlying: the underlying fusion category of a superfusion file."""

from .cli import _Run, _write_output
from .reporting import CheckReport, Violation
from .serialize import CategoryFile, SchemaError, fusion_file, load_file


def handle(args) -> int:
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
        result = verify_lift(data, cf.sixj, max_violations=args.max_violations)
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
