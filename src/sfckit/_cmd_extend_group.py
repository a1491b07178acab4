"""sfckit extend-group: the Z/2 central extension of a group."""

from .reporting import CocycleError
from .serialize import SchemaError, group_file


def handle(run, cf) -> bool:
    args = run.args
    if cf.kind != "group+cocycles" or cf.omega is None:
        raise SchemaError("extend-group needs a group+cocycles file with an omega table")
    from .cocycles import _extension, check_2cocycle, validate_group

    ok = run.add(validate_group(cf.group))
    if ok:
        omega = check_2cocycle(cf.group, cf.omega, max_violations=args.max_violations)
        ok &= run.add(omega)
    if not ok:
        return False
    try:
        ext, ext_check = _extension(cf.group, cf.omega, args.normalize, omega)
    except CocycleError as exc:
        run.note(str(exc))
        return False
    ext_check.subject = "extended group"
    ok &= run.add(ext_check)
    run.write(group_file(ext))
    return ok
