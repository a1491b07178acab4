"""sfckit catalog: a built-in example as a category file."""

import sys

from .cli import EXIT_OK, _write_output
from .reporting import CatalogError
from .serialize import fusion_file, superfusion_file


def handle(args) -> int:
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
