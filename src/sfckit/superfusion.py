"""Superfusion-category data: parities, object types, super pentagon checks.

A superfusion datum is ordinary fusion data together with a parity bit for
every basis vector of every fusion Hom space and a Bosonic/Majorana type for
every object.  Multiplicities count full superspace dimensions, so the unit,
duality and associativity laws differ from the plain fusion ones by the
endomorphism dimension d = 1 (Bosonic) or 2 (Majorana); validate_superfusion
checks the corrected laws.
"""

from __future__ import annotations

from .fusion import (
    FusionData,
    FusionError,
    SixJTable,
    associativity_defects,
    decuple_is_admissible,
    _duality_law,
    _missing_entries,
    _off_support,
    _require_on_support,
    _scan_report,
    _unit_law,
)
from .reporting import DEFAULT_MAX_VIOLATIONS, CheckReport, LawResult, ValidationReport, Violation

BOSONIC = "bosonic"
MAJORANA = "majorana"


class SuperFusionError(FusionError):
    """Structurally invalid superfusion data."""


class SuperFusionData:
    """Superfusion rules: fusion data, basis parities, and object types.

    parities must assign a bit to every admissible quadruple (a homogeneous
    basis is part of the data, not derived); object_type is aligned with the
    label list.  Immutable after construction.

    Each Hom(X_i x X_j, X_m) is a superspace: _parity_classes maps (i, j, m)
    to its (even, odd) basis vectors, 1-based alphas in ascending order.
    """

    __slots__ = ("base", "parities", "object_type", "_parity_classes")

    def __init__(self, base: FusionData, parities, object_type):
        if isinstance(object_type, dict):
            unknown = [lab for lab in object_type if lab not in base.labels]
            if unknown:
                raise SuperFusionError(f"object_type has unknown label {unknown[0]!r}")
            try:
                object_type = [object_type[lab] for lab in base.labels]
            except KeyError as exc:
                raise SuperFusionError(f"object_type missing label {exc.args[0]!r}") from None
        object_type = tuple(str(x).lower() for x in object_type)
        if len(object_type) != base.rank:
            raise SuperFusionError(
                f"object_type has {len(object_type)} entries for {base.rank} labels"
            )
        for x in object_type:
            if x not in (BOSONIC, MAJORANA):
                raise SuperFusionError(f"unknown object type {x!r}")
        clean: dict[tuple[int, int, int, int], int] = {}
        for key, bit in parities.items():
            if not isinstance(key, tuple) or len(key) != 4:
                raise SuperFusionError(f"parity key {key!r} is not an index quadruple")
            i, j, m, alpha = key
            if not (type(i) is int and type(j) is int and type(m) is int and type(alpha) is int):
                raise SuperFusionError(f"parity key {key!r} is not an index quadruple")
            if not (0 <= i < base.rank and 0 <= j < base.rank and 0 <= m < base.rank):
                raise SuperFusionError(f"parity key {key} out of range")
            if not 1 <= alpha <= base.n(i, j, m):
                raise SuperFusionError(f"parity key {key} is not an admissible quadruple")
            if type(bit) is not int or bit not in (0, 1):
                raise SuperFusionError(f"parity s{key} = {bit!r} is not a bit")
            clean[key] = bit
        self.base = base
        self.parities = clean
        self.object_type = object_type
        self._parity_classes = _split_parities(base.mult, clean)

    @property
    def labels(self):
        return self.base.labels

    @property
    def rank(self) -> int:
        return self.base.rank

    def is_majorana(self, i: int) -> bool:
        return self.object_type[i] == MAJORANA

    def endo_dim(self, i: int) -> int:
        """dim End(X_i): 1 for Bosonic, 2 for Majorana objects."""
        return 2 if self.is_majorana(i) else 1

    def parity(self, i: int, j: int, m: int, alpha: int) -> int:
        return self.parities[(i, j, m, alpha)]

    def parity_counts(self, i: int, j: int, m: int) -> tuple[int, int]:
        """(#even, #odd) basis vectors of Hom(X_i x X_j, X_m)."""
        even, odd = self._parity_classes.get((i, j, m), ((), ()))
        return len(even), len(odd)


def _split_parities(mult, parities) -> dict:
    """SuperFusionData._parity_classes of the rules mult under the bits
    parities of their quadruples; a quadruple with no bit raises."""
    classes = {}
    for (i, j, m), nijm in mult.items():
        split = ([], [])
        for alpha in range(1, nijm + 1):
            bit = parities.get((i, j, m, alpha))
            if bit is None:
                raise SuperFusionError(f"no parity assigned to quadruple {(i, j, m, alpha)}")
            split[bit].append(alpha)
        classes[(i, j, m)] = (tuple(split[0]), tuple(split[1]))
    return classes


# A fermionic 6j table has the plain table's form; check_support checks that
# its nonzero entries sit on parity-admissible decuples.
FermionicSixJTable = SixJTable


class ClassificationReport:
    __slots__ = ("object_type", "n_bosonic", "n_majorana", "mismatches")

    def __init__(self, object_type: tuple, n_bosonic: int, n_majorana: int, mismatches: list | None = None):
        self.object_type = object_type
        self.n_bosonic = n_bosonic
        self.n_majorana = n_majorana
        self.mismatches = [] if mismatches is None else mismatches

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        head = f"objects: {self.n_bosonic} bosonic, {self.n_majorana} majorana"
        if self.mismatches:
            return head + "; MISMATCHES: " + "; ".join(map(str, self.mismatches))
        return head


def classify_objects(data: SuperFusionData) -> ClassificationReport:
    """Echo the declared object types, cross-checked against unit Hom spaces."""
    unit = data.base.unit
    if data.is_majorana(unit):
        raise SuperFusionError("the unit object is always Bosonic")
    mismatches = []
    for i in range(data.rank):
        dim = data.base.n(unit, i, i)
        if dim == 0:
            continue  # structurally broken unit row; validate_superfusion reports it
        expected = MAJORANA if dim == 2 else BOSONIC if dim == 1 else None
        if expected is None or expected != data.object_type[i]:
            mismatches.append((data.labels[i], data.object_type[i], f"End dim {dim}"))
    n_maj = sum(1 for i in range(data.rank) if data.is_majorana(i))
    return ClassificationReport(
        object_type=data.object_type,
        n_bosonic=data.rank - n_maj,
        n_majorana=n_maj,
        mismatches=mismatches,
    )


def _parity_pattern(parities, key) -> tuple[tuple[int, int, int, int], bool]:
    """The parities (s_m, s_n, s_t, s_f) of the basis vectors of an
    admissible decuple's four Hom quadruples (i,j,m,alpha), (m,k,n,beta),
    (j,k,t,eta), (i,t,n,phi), and whether they cancel: s_m + s_n = s_t + s_f
    mod 2.  The one statement of the parity rule of the fermionic 6j support.
    """
    i, j, m, k, n, t, alpha, beta, eta, phi = key
    pattern = (parities[(i, j, m, alpha)], parities[(m, k, n, beta)],
               parities[(j, k, t, eta)], parities[(i, t, n, phi)])
    return pattern, sum(pattern) % 2 == 0


def is_parity_admissible(data: SuperFusionData, decuple: tuple) -> bool:
    """Whether the four basis-vector parities of an admissible decuple cancel."""
    if not decuple_is_admissible(data.base, tuple(decuple)):
        raise SuperFusionError(f"decuple {tuple(decuple)} is not admissible")
    return _parity_pattern(data.parities, decuple)[1]


def validate_superfusion(data: SuperFusionData) -> ValidationReport:
    """Check the superfusion laws (d-corrected unit/duality/associativity,
    Majorana parity balance, Bosonic unit parities)."""
    base = data.base
    rank = base.rank
    u = base.unit
    dims = [data.endo_dim(i) for i in range(rank)]
    report = ValidationReport(subject="superfusion data")

    report.laws.append(
        LawResult("unit-bosonic", not data.is_majorana(u), [] if not data.is_majorana(u) else [(u,)])
    )

    report.laws.append(_unit_law(base, dims))

    # Hom(1 x X_j, X_j) = End(X_j) is purely even for Bosonic j
    unit_parity_violations = []
    for j in range(rank):
        if data.is_majorana(j):
            continue
        for key in ((u, j, j, 1), (j, u, j, 1)):
            if data.parities.get(key, 0) != 0:
                unit_parity_violations.append(key)
    report.laws.append(
        LawResult("unit-parity", not unit_parity_violations, unit_parity_violations)
    )

    balance_violations = []
    for (i, j, m) in sorted(base.mult):
        if data.is_majorana(i) or data.is_majorana(j) or data.is_majorana(m):
            even, odd = data.parity_counts(i, j, m)
            if even != odd:
                balance_violations.append((i, j, m, even, odd))
    report.laws.append(LawResult("majorana-balance", not balance_violations, balance_violations))

    # associativity of the superfusion ring, corrected by dim End of the middle
    # object: sum_m N^ij_m N^mk_n / d_m = sum_t N^jk_t N^it_n / d_t
    # (both sides scaled by 2 to stay in integers)
    assoc_violations = associativity_defects(base._products, [2 // d for d in dims])
    report.laws.append(LawResult("associativity", not assoc_violations, assoc_violations))

    report.laws.append(_duality_law(base, dims))

    return report


def check_support(data: SuperFusionData, table: FermionicSixJTable) -> CheckReport:
    """Every nonzero entry must sit on a parity-admissible decuple."""
    _require_on_support(_off_support(data.base, table))
    violations = []
    for key in sorted(table.entries):
        if table.entries[key].is_zero():
            continue
        pattern, cancels = _parity_pattern(data.parities, key)
        if not cancels:
            violations.append(
                Violation(instance=key, detail=f"parity pattern {pattern} does not cancel")
            )
    return CheckReport(
        name="fermionic 6j support",
        ok=not violations,
        checked=len(table.entries),
        violations=violations,
        total_violations=len(violations),
    )


def check_super_pentagon(
    data: SuperFusionData,
    table: FermionicSixJTable,
    *,
    max_violations: int | None = DEFAULT_MAX_VIOLATIONS,
    jobs: int = 1,
    support: CheckReport | None = None,
) -> CheckReport:
    """Verify the super pentagon identity; the right-hand side carries the
    sign (-1)**(s^{ij}_m(alpha) * s^{kl}_q(delta)).

    Raises SuperFusionError off the parity-admissible support.  A caller that
    already holds check_support(data, table) passes it as ``support``, and the
    support pass is not repeated.  Missing entries (the completeness list of
    validate_sixj on data.base) count as 0 and are named in one warning.
    ``jobs`` is accepted and ignored: every scan runs in the calling process.
    """
    if support is None:
        support = check_support(data, table)
    if not support.ok:
        first = support.violations[0]
        raise SuperFusionError(
            f"{support.total_violations} nonzero entries on non-parity-admissible "
            f"decuples, e.g. {first.instance}"
        )
    return _scan_report(
        "super pentagon", data.base, table, data.parities, _missing_entries(data.base, table), max_violations
    )
