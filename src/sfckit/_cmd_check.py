"""sfckit check: the checks that apply to the kind of the input file."""

from .serialize import SchemaError


def handle(run, cf) -> bool:
    which, mv = run.args.which, run.args.max_violations
    ok = True

    if cf.kind == "fusion":
        from .fusion import SixJTable, _require_on_support, _scan_report, validate_fusion, validate_sixj

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
            missing = sixj.law("completeness").violations
            ok &= run.add(_scan_report("pentagon", cf.fusion, table, None, missing, mv))
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
            ok &= run.add(check_super_pentagon(cf.superfusion, table, max_violations=mv, support=support))
    else:
        from .cocycles import check_2cocycle, check_3cocycle, check_supercocycle, validate_group

        checks = {
            "cocycle2": (cf.omega, check_2cocycle),
            "cocycle3": (cf.cocycle, check_3cocycle),
            "supercocycle": (cf.supercocycle, check_supercocycle),
        }
        if which != "all":
            if which not in checks:
                raise SchemaError(f"check {which!r} does not apply to a group+cocycles file")
            if checks[which][0] is None:
                raise SchemaError(f"input carries no data for check {which!r}")
        ok &= run.add(validate_group(cf.group))
        reports = {}
        if ok:
            for kind, (data, check) in checks.items():
                if data is not None and which in (kind, "all"):
                    shared = {"omega_report": reports.get("cocycle2")} if kind == "supercocycle" else {}
                    reports[kind] = check(cf.group, data, max_violations=mv, **shared)
                    ok &= run.add(reports[kind])
    return ok
