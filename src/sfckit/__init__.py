"""Exact-arithmetic toolkit for fusion and superfusion category data.

Submodules:

- scalars: the ground field, exact cyclotomic arithmetic
- fusion: fusion rules, 6j tables, pentagon verification, invertibility
- superfusion: parities, Bosonic/Majorana objects, super pentagon
- envelope: the underlying fusion category and the sign-twisted 6j lift
- cocycles: finite groups, 2-/3-/super-cocycles, central extensions
- grothendieck: Z[pi]/(pi^2-1) and pi-Grothendieck rings
- catalog: built-in example families
- serialize: the "sfc-1" JSON container
- cli: the sfckit command-line tool
"""

from .cocycles import (
    CocycleError,
    GroupTable,
    SuperCocycle,
    ThreeCocycle,
    TwoCocycleZ2,
    central_extension,
    check_2cocycle,
    check_3cocycle,
    check_supercocycle,
    cyclic_group,
    lift_supercocycle,
    normalize_two_cocycle,
    validate_group,
)
from .envelope import (
    UnderlyingLabel,
    build_label_set,
    lift_6j,
    underlying_fusion_rules,
    verify_lift,
)
from .fusion import (
    FusionData,
    FusionError,
    SixJTable,
    admissible_decuples,
    admissible_triples,
    check_6j_invertibility,
    check_pentagon,
    determinant,
    validate_fusion,
    validate_sixj,
)
from .grothendieck import (
    PI,
    GrothendieckError,
    SGrRing,
    ZPi,
    build_sgr,
    multiplicity,
    relations_text,
    sgr_multiply,
)
from .scalars import Cyclotomic, minus_one_pow, root_of_unity
from .superfusion import (
    BOSONIC,
    MAJORANA,
    FermionicSixJTable,
    SuperFusionData,
    SuperFusionError,
    check_super_pentagon,
    check_support,
    classify_objects,
    is_parity_admissible,
    validate_superfusion,
)

__version__ = "0.1.0"

__all__ = [
    "BOSONIC",
    "MAJORANA",
    "PI",
    "CocycleError",
    "Cyclotomic",
    "FermionicSixJTable",
    "FusionData",
    "FusionError",
    "GroupTable",
    "GrothendieckError",
    "SGrRing",
    "SixJTable",
    "SuperCocycle",
    "SuperFusionData",
    "SuperFusionError",
    "ThreeCocycle",
    "TwoCocycleZ2",
    "UnderlyingLabel",
    "ZPi",
    "admissible_decuples",
    "admissible_triples",
    "build_label_set",
    "build_sgr",
    "central_extension",
    "check_2cocycle",
    "check_3cocycle",
    "check_6j_invertibility",
    "check_pentagon",
    "check_super_pentagon",
    "check_supercocycle",
    "check_support",
    "classify_objects",
    "cyclic_group",
    "determinant",
    "is_parity_admissible",
    "lift_6j",
    "lift_supercocycle",
    "minus_one_pow",
    "multiplicity",
    "normalize_two_cocycle",
    "relations_text",
    "root_of_unity",
    "sgr_multiply",
    "underlying_fusion_rules",
    "validate_fusion",
    "validate_group",
    "validate_sixj",
    "validate_superfusion",
    "verify_lift",
]
