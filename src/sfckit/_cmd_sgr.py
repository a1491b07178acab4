"""sfckit sgr: the pi-Grothendieck ring of a superfusion file."""

from .serialize import SchemaError


def handle(run, cf) -> bool:
    if cf.kind != "superfusion":
        raise SchemaError(f"sgr needs a superfusion file, got kind {cf.kind!r}")
    from .grothendieck import GrothendieckError, build_sgr, relations_text
    from .superfusion import validate_superfusion

    data = cf.superfusion
    ok = run.add(validate_superfusion(data))
    if not ok:
        return False
    try:
        ring = build_sgr(data)
    except GrothendieckError as exc:
        run.note(f"associativity/unit failure: {exc}")
        return False
    constants = {
        f"[{ring.labels[i]}][{ring.labels[j]}] -> [{ring.labels[m]}]": str(c)
        for (i, j, m), c in sorted(ring.constants.items())
    }
    extra = run.extra = {
        "basis": list(ring.labels),
        "majorana": sorted(ring.labels[i] for i in ring.majorana),
        "constants": constants,
        "relations": relations_text(ring),
    }
    if not run.args.json:
        print("basis:", ", ".join(f"[{lab}]" for lab in ring.labels))
        print("majorana:", ", ".join(extra["majorana"]) or "(none)")
        print("structure constants:")
        for key, value in constants.items():
            print(f"  {key}: {value}")
        for line in extra["relations"]:
            print(line)
    return True
