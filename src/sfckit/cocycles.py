"""The pointed case: finite groups, Z/2-valued 2-cocycles, 3-cocycles,
3-supercocycles, central extensions, and the supercocycle lift.

Every check visits the whole G^3 or G^4 index space and reads its tables by
index.  The G^4 identities run in _cube.scan, on the cube compiled to one
int per value (scalars.kronecker_form); the (super) pentagon of a group's
fusion rules runs in the same kernel.  A command that already holds the
2-cocycle report of omega hands it to check_supercocycle and, through
lift_supercocycle, to central_extension, so omega is checked once.  The
central extension G_omega stores (g, a), g in G and a in Z/2, at index
2g + a, and reads an index x as (x >> 1, x & 1).
"""

from __future__ import annotations

from .reporting import (DEFAULT_MAX_VIOLATIONS, CheckReport, CocycleError, LawResult, ValidationReport, Violation,
                        _unchecked)

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotation name only: ThreeCocycle imports the field arithmetic when it is built
    from .scalars import Cyclotomic


def _rows(table, what: str) -> tuple:
    """table as a tuple of row tuples, refused unless it is a sequence of sequences."""
    try:
        return tuple(map(tuple, table))
    except TypeError:
        raise CocycleError(f"{what} is not a sequence of rows") from None


class GroupTable:
    """A finite group as a full multiplication table over indices 0..n-1."""

    __slots__ = ("order", "product", "identity", "labels")

    def __init__(self, product, identity: int, labels=None):
        product = _rows(product, "group table")
        order = len(product)
        if order == 0:
            raise CocycleError("group table must be non-empty")
        for r, row in enumerate(product):
            if len(row) != order:
                raise CocycleError("group table must be square")
            for c, x in enumerate(row):
                if type(x) is not int:
                    raise CocycleError(f"group table entry {x!r} at {(r, c)} is not an integer")
                if not 0 <= x < order:
                    raise CocycleError(f"group table entry {x} out of range")
        if type(identity) is not int:
            raise CocycleError(f"identity index {identity!r} is not an integer")
        if not 0 <= identity < order:
            raise CocycleError(f"identity index {identity} out of range")
        if labels is None:
            labels = tuple(str(i) for i in range(order))
        else:
            labels = tuple(str(x) for x in labels)
            if len(labels) != order or len(set(labels)) != order:
                raise CocycleError("labels must be distinct and match the group order")
        self.order = order
        self.product = product
        self.identity = identity
        self.labels = labels

    def mul(self, a: int, b: int) -> int:
        return self.product[a][b]

    def elements(self) -> range:
        return range(self.order)


def validate_group(g: GroupTable) -> ValidationReport:
    report = ValidationReport(subject="group table")
    mul, n = g.product, range(g.order)
    assoc = [(a, b, c) for a, row in enumerate(mul) for b in n for c in n if mul[row[b]][c] != row[mul[b][c]]]
    report.laws.append(LawResult("associativity", not assoc, assoc))
    e = g.identity
    ident = [a for a in n if mul[e][a] != a or mul[a][e] != a]
    report.laws.append(LawResult("identity", not ident, ident))
    inverses = [a for a, row in enumerate(mul) if not any(x == e and mul[b][a] == e for b, x in enumerate(row))]
    report.laws.append(LawResult("inverses", not inverses, inverses))
    return report


def cyclic_group(n: int) -> GroupTable:
    if n < 1:
        raise CocycleError(f"cyclic group order must be >= 1, got {n}")
    product = [[(a + b) % n for b in range(n)] for a in range(n)]
    return GroupTable(product, identity=0)


class TwoCocycleZ2:
    """omega: G x G -> Z/2 as a full bit table."""

    __slots__ = ("values",)

    def __init__(self, values):
        values = _rows(values, "omega table")
        n = len(values)
        for r, row in enumerate(values):
            if len(row) != n:
                raise CocycleError("omega table must be square")
            for c, x in enumerate(row):
                if type(x) is not int or x not in (0, 1):
                    raise CocycleError(f"omega value {x!r} at {(r, c)} is not a bit")
        self.values = values

    def __call__(self, g: int, h: int) -> int:
        return self.values[g][h]


class ThreeCocycle:
    """F: G^3 -> k^x as a dense table of nonzero exact scalars."""

    __slots__ = ("values",)

    def __init__(self, values):
        from .scalars import Cyclotomic

        values = _rows(values, "cocycle table")
        n = len(values)
        coerced = []
        for g, plane in enumerate(values):
            plane = _rows(plane, f"cocycle plane {g}")
            if len(plane) != n:
                raise CocycleError("cocycle table must be order^3")
            rows = []
            for h, row in enumerate(plane):
                if len(row) != n:
                    raise CocycleError("cocycle table must be order^3")
                out = []
                for k, value in enumerate(row):
                    x = Cyclotomic._coerce(value)
                    if x is None:
                        raise CocycleError(f"cocycle value at {(g, h, k)} is not an exact scalar")
                    if x.is_zero():
                        raise CocycleError(f"cocycle value at {(g, h, k)} is zero; values must lie in k^x")
                    out.append(x)
                rows.append(tuple(out))
            coerced.append(tuple(rows))
        self.values = tuple(coerced)

    def __call__(self, g: int, h: int, k: int) -> Cyclotomic:
        return self.values[g][h][k]


class SuperCocycle(ThreeCocycle):
    """A 3-supercocycle: the scalar table F~ of a ThreeCocycle together with
    its 2-cocycle omega."""

    __slots__ = ("omega",)

    def __init__(self, omega: TwoCocycleZ2, values):
        super().__init__(values)
        if len(omega.values) != len(self.values):
            raise CocycleError("omega and supercocycle tables disagree on the group order")
        self.omega = omega


def _check_sizes(g: GroupTable, n: int, what: str) -> None:
    if n != g.order:
        raise CocycleError(f"{what} table is for order {n}, group has order {g.order}")


def check_2cocycle(
    g: GroupTable, w: TwoCocycleZ2, *, max_violations: int | None = DEFAULT_MAX_VIOLATIONS
) -> CheckReport:
    """omega(g,h) + omega(gh,k) = omega(h,k) + omega(g,hk) mod 2, over G^3."""
    _check_sizes(g, len(w.values), "omega")
    mul, omega, n = g.product, w.values, range(g.order)
    violations = []
    total = 0
    for a in n:
        wa, ma = omega[a], mul[a]
        for b in n:
            wab, w_ab, wb, mb = wa[b], omega[ma[b]], omega[b], mul[b]
            for c in n:
                lhs = (wab + w_ab[c]) % 2
                rhs = (wb[c] + wa[mb[c]]) % 2
                if lhs != rhs:
                    total += 1
                    if max_violations is None or len(violations) < max_violations:
                        violations.append(Violation(instance=(a, b, c), lhs=lhs, rhs=rhs))
    return CheckReport("2-cocycle", total == 0, g.order**3, violations, total)


def _cube_report(name: str, g: GroupTable, values, omega, max_violations, warnings=None) -> CheckReport:
    """The report of the _cube.scan of the identity over G^4 (omega None: plain)."""
    from ._cube import scan  # here, so that extend-group does not compile it

    failing, total = scan(g.product, values, omega, max_violations)
    return CheckReport(name, total == 0, g.order**4, [Violation(*hit) for hit in failing], total, warnings)


def check_3cocycle(
    g: GroupTable, f: ThreeCocycle, *, max_violations: int | None = DEFAULT_MAX_VIOLATIONS
) -> CheckReport:
    """F(g,h,k) F(g,hk,l) F(h,k,l) = F(gh,k,l) F(g,h,kl), over G^4."""
    _check_sizes(g, len(f.values), "cocycle")
    return _cube_report("3-cocycle", g, f.values, None, max_violations)


def check_supercocycle(
    g: GroupTable,
    sc: SuperCocycle,
    *,
    max_violations: int | None = DEFAULT_MAX_VIOLATIONS,
    omega_report: CheckReport | None = None,
) -> CheckReport:
    """F~(g,h,k) F~(g,hk,l) F~(h,k,l) = (-1)^(omega(g,h) omega(k,l)) F~(gh,k,l) F~(g,h,kl).

    A caller that already holds check_2cocycle(g, sc.omega) passes it as
    ``omega_report``, and the G^3 pass is not repeated.
    """
    _check_sizes(g, len(sc.values), "supercocycle")
    w = sc.omega
    warnings = []
    if omega_report is None:
        omega_report = check_2cocycle(g, w, max_violations=0)
    if not omega_report.ok:
        warnings.append(
            f"omega is not a 2-cocycle ({omega_report.total_violations} violating triples); "
            "the supercocycle identity below is checked on the raw data"
        )
    return _cube_report("3-supercocycle", g, sc.values, w.values, max_violations, warnings)


def normalize_two_cocycle(g: GroupTable, w: TwoCocycleZ2) -> TwoCocycleZ2:
    """Shift omega by the coboundary of the constant 1-cochain if needed, so
    that omega(e,e) = 0 (which forces omega(e,.) = omega(.,e) = 0)."""
    _check_sizes(g, len(w.values), "omega")
    if w(g.identity, g.identity) == 0:
        return w
    return TwoCocycleZ2(tuple(tuple(1 - x for x in row) for row in w.values))


def extension_labels(g: GroupTable) -> tuple[str, ...]:
    return tuple(f"{g.labels[x >> 1]}^{x & 1}" for x in range(2 * g.order))


def central_extension(
    g: GroupTable, w: TwoCocycleZ2, *, normalize: bool = False, report: CheckReport | None = None
) -> GroupTable:
    """The group on Z/2 x G with product g^a . h^b = (gh)^(a+b+omega(g,h)).

    omega must be a 2-cocycle (else the product is not associative; refused
    with a witness) and must be normalized at the identity; normalize=True
    applies the constant-coboundary pre-pass first.  A caller that already
    holds check_2cocycle(g, w) with max_violations >= 1 passes it as
    ``report``, and the G^3 pass is not repeated.
    """
    return _extension(g, w, normalize, report)[0]


def _extension(g: GroupTable, w: TwoCocycleZ2, normalize: bool, report) -> tuple[GroupTable, ValidationReport]:
    """central_extension and its validate_group report (ok), which
    extend-group prints: the group is validated once."""
    if report is None:
        report = check_2cocycle(g, w, max_violations=1)
    if not report.ok:
        witness = report.violations[0].instance
        raise CocycleError(f"omega is not a 2-cocycle; witness triple {witness}")
    if w(g.identity, g.identity) != 0:
        if not normalize:
            raise CocycleError(
                "omega is not normalized at the identity; pass normalize=True or "
                "apply normalize_two_cocycle first"
            )
        w = normalize_two_cocycle(g, w)
    mul, omega, n = g.product, w.values, range(2 * g.order)
    # unchecked: each product 2gh + bit is below 2 |G|, and the labels "g^a" are distinct as the labels g are
    product = tuple(tuple(2 * mul[x >> 1][y >> 1] + ((x + y + omega[x >> 1][y >> 1]) & 1) for y in n) for x in n)
    ext = _unchecked(GroupTable, order=len(n), product=product, identity=2 * g.identity, labels=extension_labels(g))
    check = validate_group(ext)
    if not check.ok:
        raise CocycleError(f"central extension is not a group: {check.summary()}")
    return ext, check


def lift_supercocycle(
    g: GroupTable,
    sc: SuperCocycle,
    *,
    report: CheckReport | None = None,
    omega_report: CheckReport | None = None,
) -> tuple[GroupTable, ThreeCocycle]:
    """Lift a 3-supercocycle to a genuine 3-cocycle on the central extension.

    F(g^a, h^b, k^c) = (-1)^(c * omega(g,h)) F~(g,h,k); the restriction to
    grade-0 arguments is F~ itself.  Raises CocycleError when sc fails the
    supercocycle identity.  A caller that already holds
    check_supercocycle(g, sc) passes it as ``report``, and the G^4 scan is
    not repeated; one that holds check_2cocycle(g, sc.omega) with
    max_violations >= 1 passes it as ``omega_report``, for both checks.
    """
    if report is None:
        report = check_supercocycle(g, sc, max_violations=1, omega_report=omega_report)
    if not report.ok:
        witness = report.violations[0].instance
        raise CocycleError(f"not a 3-supercocycle; witness quadruple {witness}")
    ext = central_extension(g, sc.omega, report=omega_report)
    f, omega, n = sc.values, sc.omega.values, range(ext.order)
    cube = [[[-f[x >> 1][y >> 1][z >> 1] if z & 1 and omega[x >> 1][y >> 1] else f[x >> 1][y >> 1][z >> 1]
              for z in n] for y in n] for x in n]
    return ext, _unchecked(ThreeCocycle, values=tuple(tuple(map(tuple, plane)) for plane in cube))
