"""Built-in constructors for the example families: pointed categories from
group cocycles, the folded Ising superfusion rules, and the level-k truncated
Clebsch-Gordan families.

Entries validate themselves on construction.  The Ising and C_k entries carry
no 6j tables, so they exercise classification, graded-label, and Grothendieck
paths only.  Exact Ising values exist as test data: the Kitaev table
(tests/cases.ising_exact_table) and its folded table
(tests/cases.descended_ising_table), which fails today's super pentagon
until ROADMAP item 1 gives the ising entry a table.
"""

from __future__ import annotations

from .cocycles import (
    CocycleError,
    GroupTable,
    SuperCocycle,
    ThreeCocycle,
    TwoCocycleZ2,
    check_3cocycle,
    check_supercocycle,
    cyclic_group,
)
from .fusion import FusionData, SixJTable, _products_of, check_pentagon, validate_fusion
from .reporting import CatalogError, _unchecked
from .scalars import ONE, root_of_unity
from .superfusion import (
    BOSONIC,
    MAJORANA,
    FermionicSixJTable,
    SuperFusionData,
    check_super_pentagon,
    validate_superfusion,
)


# -- cocycle material ---------------------------------------------------------


def standard_three_cocycle(n: int, power: int = 1) -> ThreeCocycle:
    """The standard generator (to the given power) of 3-cocycles on Z/n:
    tau(a,b,c) = zeta_n^(p * a * ((b + c) // n))."""
    values = [
        [
            [root_of_unity(n, power * a * ((b + c) // n)) for c in range(n)]
            for b in range(n)
        ]
        for a in range(n)
    ]
    return ThreeCocycle(values)


def omega_zero(n: int) -> TwoCocycleZ2:
    return TwoCocycleZ2([[0] * n for _ in range(n)])


def omega_product_z2() -> TwoCocycleZ2:
    """omega(g,h) = g*h on Z/2, the nontrivial 2-cocycle class."""
    return TwoCocycleZ2(((0, 0), (0, 1)))


def z2_supercocycle(power: int = 1) -> SuperCocycle:
    """F~(1,1,1) = zeta_4^power, all other values 1, with omega(g,h) = gh.

    The supercocycle identity at (1,1,1,1) forces F~(1,1,1)^2 = -1, so only
    odd powers give a valid 3-supercocycle.
    """
    values = [[[ONE for _ in range(2)] for _ in range(2)] for _ in range(2)]
    values[1][1][1] = root_of_unity(4, power)
    return SuperCocycle(omega_product_z2(), values)


# -- pointed constructors ------------------------------------------------------


def pointed_fusion_data(group: GroupTable, values) -> tuple[FusionData, SixJTable]:
    """Pointed fusion data with table entries from a raw scalar cube.

    No cocycle condition is checked here; pointed_fusion is the checked
    constructor.  Useful for installing deliberately broken tables.
    """
    f = (values if isinstance(values, ThreeCocycle) else ThreeCocycle(values)).values
    mul, n = group.product, range(group.order)
    mult = {(a, b, mul[a][b]): 1 for a in n for b in n}
    products = _products_of(group.order, mult)
    data = _unchecked(FusionData, labels=group.labels, unit=group.identity, mult=mult, _products=products)
    entries = {
        (a, b, mul[a][b], c, mul[mul[a][b]][c], mul[b][c], 1, 1, 1, 1): f[a][b][c] for a in n for b in n for c in n
    }
    return data, _unchecked(SixJTable, entries=entries)


def pointed_fusion(group: GroupTable, tau: ThreeCocycle) -> tuple[FusionData, SixJTable]:
    """Pointed fusion category of a finite group with associator tau."""
    report = check_3cocycle(group, tau, max_violations=1)
    if not report.ok:
        raise CocycleError(
            f"tau is not a 3-cocycle; witness quadruple {report.violations[0].instance}"
        )
    return pointed_fusion_data(group, tau)


def pointed_superfusion_data(
    group: GroupTable, omega: TwoCocycleZ2, values
) -> tuple[SuperFusionData, FermionicSixJTable]:
    """Pointed superfusion data from raw (omega, F~); no cocycle checks.
    values goes to pointed_fusion_data as it is: a cocycle is not coerced again."""
    base, table = pointed_fusion_data(group, values)
    parities = {(a, b, ab, 1): omega.values[a][b] for (a, b, ab) in base.mult}
    return SuperFusionData(base, parities, [BOSONIC] * group.order), table


def pointed_superfusion(
    group: GroupTable, sc: SuperCocycle
) -> tuple[SuperFusionData, FermionicSixJTable]:
    """All-Bosonic pointed superfusion data with parities omega and table F~."""
    if sc.omega.values[group.identity][group.identity] != 0:
        raise CocycleError(
            "omega is not normalized at the identity; the unit Hom space of a "
            "Bosonic object is purely even (apply normalize_two_cocycle first)"
        )
    report = check_supercocycle(group, sc, max_violations=1)
    if not report.ok:
        raise CocycleError(
            f"not a 3-supercocycle; witness quadruple {report.violations[0].instance}"
        )
    return pointed_superfusion_data(group, sc.omega, sc)


# -- folded families -----------------------------------------------------------


def ising_super() -> SuperFusionData:
    """Folded Ising rules: one Bosonic object 1, one Majorana object X,
    with the two-dimensional parity-balanced Hom spaces the folding forces."""
    base = FusionData(
        labels=("1", "X"),
        unit=0,
        mult={(0, 0, 0): 1, (0, 1, 1): 2, (1, 0, 1): 2, (1, 1, 0): 2},
    )
    parities = {
        (0, 0, 0, 1): 0,
        (0, 1, 1, 1): 0,
        (0, 1, 1, 2): 1,
        (1, 0, 1, 1): 0,
        (1, 0, 1, 2): 1,
        (1, 1, 0, 1): 0,
        (1, 1, 0, 2): 1,
    }
    return SuperFusionData(base, parities, (BOSONIC, MAJORANA))


def _truncated_clebsch_gordan(i: int, j: int, k: int) -> list[int]:
    """Summand indices of V_i (x) V_j at level k, largest first."""
    return [i + j - 2 * l for l in range(max(i + j - k, 0), min(i, j) + 1)]


def ck_super(k: int) -> SuperFusionData:
    """Folded level-k family: representatives V_0..V_{k/2}, V_{k/2} Majorana.

    A summand V_l folds onto V_l (even) for l < k/2, onto V_{k-l} (odd) for
    l > k/2, and contributes one even and one odd vector to the Majorana
    representative when l = k/2.
    """
    if k < 2 or k % 4 != 2:
        raise CatalogError(f"take k = 2 (mod 4); got {k}")
    half = k // 2
    labels = tuple(f"V{i}" for i in range(half + 1))
    mult: dict[tuple[int, int, int], int] = {}
    parities: dict[tuple[int, int, int, int], int] = {}
    for i in range(half + 1):
        for j in range(half + 1):
            folded: dict[int, list[int]] = {}
            for l in _truncated_clebsch_gordan(i, j, k):
                if l < half:
                    folded.setdefault(l, []).append(0)
                elif l > half:
                    folded.setdefault(k - l, []).append(1)
                else:
                    folded.setdefault(half, []).extend((0, 1))
            for m, bits in folded.items():
                bits.sort()
                mult[(i, j, m)] = len(bits)
                for alpha, bit in enumerate(bits, start=1):
                    parities[(i, j, m, alpha)] = bit
    object_type = [BOSONIC] * half + [MAJORANA]
    return SuperFusionData(FusionData(labels, 0, mult), parities, object_type)


def trivial_fusion() -> tuple[FusionData, SixJTable]:
    data = FusionData(labels=("1",), unit=0, mult={(0, 0, 0): 1})
    table = SixJTable({(0, 0, 0, 0, 0, 0, 1, 1, 1, 1): ONE})
    return data, table


def trivial_super() -> SuperFusionData:
    data, _ = trivial_fusion()
    return SuperFusionData(data, {(0, 0, 0, 1): 0}, (BOSONIC,))


# -- the catalog ----------------------------------------------------------------


class CatalogEntry:
    __slots__ = ("name", "params", "kind", "data", "sixj", "source", "notes")

    def __init__(
        self,
        name: str,
        params: dict,
        kind: str,  # "fusion" | "superfusion"
        data: object,
        sixj: object = None,
        source: dict | None = None,
        notes: list[str] | None = None,
    ):
        self.name = name
        self.params = params
        self.kind = kind
        self.data = data
        self.sixj = sixj
        self.source = {} if source is None else source
        self.notes = [] if notes is None else notes

    def describe(self) -> str:
        params = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.name}({params})" if params else self.name


def _entry_trivial() -> CatalogEntry:
    data, table = trivial_fusion()
    return CatalogEntry("trivial", {}, "fusion", data, table)


def _entry_trivial_super() -> CatalogEntry:
    return CatalogEntry("trivial-super", {}, "superfusion", trivial_super())


def _entry_vec_zn(n: int, p: int = 1) -> CatalogEntry:
    group = cyclic_group(n)
    tau = standard_three_cocycle(n, p)
    # valid for every p, so no cocycle scan: _validate_entry scans the pentagon
    data, table = pointed_fusion_data(group, tau)
    return CatalogEntry(
        "vec-zn",
        {"n": n, "p": p},
        "fusion",
        data,
        table,
        source={"group": group, "cocycle": tau},
    )


def _entry_super_z2(p: int = 1) -> CatalogEntry:
    group = cyclic_group(2)
    sc = z2_supercocycle(p)
    data, table = pointed_superfusion(group, sc)
    return CatalogEntry(
        "super-z2",
        {"p": p},
        "superfusion",
        data,
        table,
        source={"group": group, "supercocycle": sc},
    )


def _entry_super_zn_even(n: int, p: int = 1) -> CatalogEntry:
    group = cyclic_group(n)
    sc = SuperCocycle(omega_zero(n), standard_three_cocycle(n, p).values)
    data, table = pointed_superfusion_data(group, sc.omega, sc)
    return CatalogEntry(
        "super-zn-even",
        {"n": n, "p": p},
        "superfusion",
        data,
        table,
        source={"group": group, "supercocycle": sc},
        notes=["omega = 0: all parities even, the super pentagon reduces to the plain one"],
    )


def _entry_ising() -> CatalogEntry:
    return CatalogEntry(
        "ising",
        {},
        "superfusion",
        ising_super(),
        notes=[
            "no 6j table: the exact values are test data (tests/cases.ising_exact_table, "
            "descended_ising_table) until ROADMAP item 1",
            "folded multiplicities derived from Hom-space dimension and parity counting",
        ],
    )


def _entry_ck(k: int) -> CatalogEntry:
    return CatalogEntry(
        "ck",
        {"k": k},
        "superfusion",
        ck_super(k),
        notes=["no 6j table: no exact fermionic 6j values are carried for this family"],
    )


CATALOG = {
    "trivial": ((), _entry_trivial),
    "trivial-super": ((), _entry_trivial_super),
    "vec-zn": (("n", "p?"), _entry_vec_zn),
    "super-z2": (("p?",), _entry_super_z2),
    "super-zn-even": (("n", "p?"), _entry_super_zn_even),
    "ising": ((), _entry_ising),
    "ck": (("k",), _entry_ck),
}


def catalog_names() -> list[str]:
    return sorted(CATALOG)


def build_entry(name: str, *params: int) -> CatalogEntry:
    """Build and fully validate a catalog entry."""
    if name not in CATALOG:
        raise CatalogError(f"unknown catalog entry {name!r}; known: {', '.join(catalog_names())}")
    spec, builder = CATALOG[name]
    required = [p for p in spec if not p.endswith("?")]
    if len(params) < len(required) or len(params) > len(spec):
        raise CatalogError(
            f"{name} takes parameters ({', '.join(spec) or 'none'}); got {len(params)}"
        )
    try:
        entry = builder(*params)
    except CocycleError as exc:  # an invalid parameter is bad input, not a failed check
        raise CatalogError(str(exc)) from None
    _validate_entry(entry)
    return entry


def _validate_entry(entry: CatalogEntry) -> None:
    if entry.kind == "fusion":
        validate, check = validate_fusion, check_pentagon
    else:
        validate, check = validate_superfusion, check_super_pentagon
    report = validate(entry.data)
    if report.ok and entry.sixj is not None:
        report = check(entry.data, entry.sixj, max_violations=1)
    if not report.ok:
        raise CatalogError(f"{entry.describe()}: {report.summary()}")
