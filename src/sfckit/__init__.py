"""Exact-arithmetic toolkit for fusion and superfusion category data.

Submodules:

- scalars: the ground field, exact cyclotomic arithmetic; a command loads
  it only to read a 6j table or a group's 3-(super)cocycle or to run a
  pentagon scan
- fusion: fusion rules, 6j tables, pentagon verification; 6j invertibility
  (determinant, check_6j_invertibility) from _invertibility on first access
- superfusion: parities, Bosonic/Majorana objects, super pentagon
- envelope: the underlying fusion category and the sign-twisted 6j lift
- cocycles: finite groups, 2-/3-/super-cocycles, central extensions
- grothendieck: Z[pi]/(pi^2-1) and pi-Grothendieck rings
- catalog: built-in example families
- serialize: the "sfc-1" JSON container
- cli: the sfckit command-line tool, each command's handler in its own
  private module (_cmd_check, _cmd_underlying, ...)

Importing the package loads no submodule: each public name below is imported
from its submodule on first access, so a command pays only for what it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "cocycles": (
        "CocycleError", "GroupTable", "SuperCocycle", "ThreeCocycle", "TwoCocycleZ2", "central_extension",
        "check_2cocycle", "check_3cocycle", "check_supercocycle", "cyclic_group", "lift_supercocycle",
        "normalize_two_cocycle", "validate_group",
    ),
    "envelope": ("UnderlyingLabel", "build_label_set", "lift_6j", "underlying_fusion_rules", "verify_lift"),
    "fusion": (
        "FusionData", "FusionError", "SixJTable", "admissible_decuples", "admissible_triples",
        "check_6j_invertibility", "check_pentagon", "determinant", "validate_fusion", "validate_sixj",
    ),
    "grothendieck": (
        "PI", "GrothendieckError", "SGrRing", "ZPi", "build_sgr", "multiplicity", "relations_text", "sgr_multiply",
    ),
    "scalars": ("Cyclotomic", "minus_one_pow", "root_of_unity"),
    "superfusion": (
        "BOSONIC", "MAJORANA", "FermionicSixJTable", "SuperFusionData", "SuperFusionError",
        "check_super_pentagon", "check_support", "classify_objects", "is_parity_admissible",
        "validate_superfusion",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted(globals().keys() | _SOURCE.keys())
