"""sfckit lift-cocycle: a 3-supercocycle lifted to the central extension."""

from .reporting import CocycleError
from .serialize import SchemaError, group_file


def handle(run, cf) -> bool:
    args = run.args
    if cf.kind != "group+cocycles" or cf.supercocycle is None:
        raise SchemaError("lift-cocycle needs a group+cocycles file with a supercocycle table")
    from .cocycles import check_2cocycle, check_3cocycle, check_supercocycle, lift_supercocycle, validate_group

    ok = run.add(validate_group(cf.group))
    if ok:
        omega = check_2cocycle(cf.group, cf.omega, max_violations=1)
        supercocycle = check_supercocycle(
            cf.group, cf.supercocycle, max_violations=args.max_violations, omega_report=omega
        )
        ok &= run.add(supercocycle)
    if not ok:
        return False
    try:
        ext, lifted = lift_supercocycle(cf.group, cf.supercocycle, report=supercocycle, omega_report=omega)
    except CocycleError as exc:
        run.note(str(exc))
        return False
    recheck = check_3cocycle(ext, lifted, max_violations=args.max_violations)
    recheck.name = "3-cocycle (on the central extension)"
    ok &= run.add(recheck)
    run.write(group_file(ext, cocycle=lifted))
    return ok
