"""sfckit extend-group: the Z/2 central extension of a group."""

from .cli import _Run, _write_output
from .reporting import CocycleError
from .serialize import SchemaError, group_file


def handle(args) -> int:
    run = _Run("extend-group", args)
    cf = run.read_input(args.file)
    if cf.kind != "group+cocycles" or cf.omega is None:
        raise SchemaError("extend-group needs a group+cocycles file with an omega table")
    from .cocycles import _extension, check_2cocycle, validate_group

    ok = run.add(validate_group(cf.group))
    if ok:
        omega = check_2cocycle(cf.group, cf.omega, max_violations=args.max_violations)
        ok &= run.add(omega)
    if not ok:
        return run.finish(False)
    try:
        ext, ext_check = _extension(cf.group, cf.omega, args.normalize, omega)
    except CocycleError as exc:
        run.note(str(exc))
        return run.finish(False)
    ext_check.subject = "extended group"
    ok &= run.add(ext_check)
    _write_output(args, group_file(ext))
    return run.finish(ok)
