"""The pointed case: finite groups, Z/2-valued 2-cocycles, 3-cocycles,
3-supercocycles, central extensions, and the supercocycle lift.

All checks brute-force the full G^3 or G^4 index space; group orders here are
tiny and transparency beats cleverness.  The G^4 scans run on the cube
compiled to one int per value (see scalars.kronecker_form).
"""

from __future__ import annotations

from .reporting import DEFAULT_MAX_VIOLATIONS, CheckReport, CocycleError, LawResult, ValidationReport, Violation
from .scalars import Cyclotomic, kronecker_form


class GroupTable:
    """A finite group as a full multiplication table over indices 0..n-1."""

    __slots__ = ("order", "product", "identity", "labels")

    def __init__(self, product, identity: int, labels=None):
        product = tuple(tuple(row) for row in product)
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
    assoc = [
        (a, b, c)
        for a in g.elements()
        for b in g.elements()
        for c in g.elements()
        if g.mul(g.mul(a, b), c) != g.mul(a, g.mul(b, c))
    ]
    report.laws.append(LawResult("associativity", not assoc, assoc))
    e = g.identity
    ident = [a for a in g.elements() if g.mul(e, a) != a or g.mul(a, e) != a]
    report.laws.append(LawResult("identity", not ident, ident))
    inverses = [a for a in g.elements() if not any(g.mul(a, b) == e and g.mul(b, a) == e for b in g.elements())]
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
        values = tuple(tuple(row) for row in values)
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
        coerced = []
        n = len(values)
        for g, plane in enumerate(values):
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


class SuperCocycle:
    """A 3-supercocycle: scalar table F~ together with its 2-cocycle omega."""

    __slots__ = ("omega", "values")

    def __init__(self, omega: TwoCocycleZ2, values):
        table = ThreeCocycle(values)
        if len(omega.values) != len(table.values):
            raise CocycleError("omega and supercocycle tables disagree on the group order")
        self.omega = omega
        self.values = table.values

    def __call__(self, g: int, h: int, k: int) -> Cyclotomic:
        return self.values[g][h][k]


def _check_sizes(g: GroupTable, n: int, what: str) -> None:
    if n != g.order:
        raise CocycleError(f"{what} table is for order {n}, group has order {g.order}")


def check_2cocycle(
    g: GroupTable, w: TwoCocycleZ2, *, max_violations: int | None = DEFAULT_MAX_VIOLATIONS
) -> CheckReport:
    """omega(g,h) + omega(gh,k) = omega(h,k) + omega(g,hk) mod 2, over G^3."""
    _check_sizes(g, len(w.values), "omega")
    violations = []
    total = 0
    checked = 0
    for a in g.elements():
        for b in g.elements():
            for c in g.elements():
                checked += 1
                lhs = (w(a, b) + w(g.mul(a, b), c)) % 2
                rhs = (w(b, c) + w(a, g.mul(b, c))) % 2
                if lhs != rhs:
                    total += 1
                    if max_violations is None or len(violations) < max_violations:
                        violations.append(Violation(instance=(a, b, c), lhs=lhs, rhs=rhs))
    return CheckReport("2-cocycle", total == 0, checked, violations, total)


def _cube_scan(g: GroupTable, values, omega, max_violations):
    """The 3-cocycle identity over G^4, on the cube compiled to one int per
    value mod m (see scalars.kronecker_form): a quadruple fails iff its two
    sides differ mod m, and a reported one is recomputed from the values.
    omega is None for the plain identity; otherwise the right side takes
    the sign (-1)^(omega(a,b) omega(c,d)).
    """
    n = g.order
    m, flat = kronecker_form((x for plane in values for row in plane for x in row), 1, 1)
    f = [[flat[(a * n + b) * n : (a * n + b + 1) * n] for b in range(n)] for a in range(n)]
    mul = g.product
    violations = []
    total = 0
    for a in range(n):
        fa = f[a]
        for b in range(n):
            fab = fa[b]
            f_ab = f[mul[a][b]]
            sign_ab = omega is not None and omega(a, b)
            for c in range(n):
                x1 = fab[c]
                x2 = fa[mul[b][c]]
                x3 = f[b][c]
                y1 = f_ab[c]
                mc = mul[c]
                for d in range(n):
                    lhs = x1 * x2[d] % m * x3[d]
                    rhs = y1[d] * fab[mc[d]]
                    negate = sign_ab and omega(c, d)
                    if (lhs + rhs if negate else lhs - rhs) % m:
                        total += 1
                        if max_violations is None or len(violations) < max_violations:
                            bc, ab, cd = mul[b][c], mul[a][b], mc[d]
                            lhs = values[a][b][c] * values[a][bc][d] * values[b][c][d]
                            rhs = values[ab][c][d] * values[a][b][cd]
                            violations.append(Violation((a, b, c, d), lhs, -rhs if negate else rhs))
    return violations, total, n**4


def check_3cocycle(
    g: GroupTable, f: ThreeCocycle, *, max_violations: int | None = DEFAULT_MAX_VIOLATIONS
) -> CheckReport:
    """F(g,h,k) F(g,hk,l) F(h,k,l) = F(gh,k,l) F(g,h,kl), over G^4."""
    _check_sizes(g, len(f.values), "cocycle")
    violations, total, checked = _cube_scan(g, f.values, None, max_violations)
    return CheckReport("3-cocycle", total == 0, checked, violations, total)


def check_supercocycle(
    g: GroupTable, sc: SuperCocycle, *, max_violations: int | None = DEFAULT_MAX_VIOLATIONS
) -> CheckReport:
    """F~(g,h,k) F~(g,hk,l) F~(h,k,l) = (-1)^(omega(g,h) omega(k,l)) F~(gh,k,l) F~(g,h,kl)."""
    _check_sizes(g, len(sc.values), "supercocycle")
    w = sc.omega
    warnings = []
    omega_report = check_2cocycle(g, w, max_violations=max_violations)
    if not omega_report.ok:
        warnings.append(
            f"omega is not a 2-cocycle ({omega_report.total_violations} violating triples); "
            "the supercocycle identity below is checked on the raw data"
        )
    violations, total, checked = _cube_scan(g, sc.values, w, max_violations)
    return CheckReport("3-supercocycle", total == 0, checked, violations, total, warnings)


def normalize_two_cocycle(g: GroupTable, w: TwoCocycleZ2) -> TwoCocycleZ2:
    """Shift omega by the coboundary of the constant 1-cochain if needed, so
    that omega(e,e) = 0 (which forces omega(e,.) = omega(.,e) = 0)."""
    _check_sizes(g, len(w.values), "omega")
    if w(g.identity, g.identity) == 0:
        return w
    return TwoCocycleZ2(tuple(tuple(1 - x for x in row) for row in w.values))


def extension_labels(g: GroupTable) -> tuple[str, ...]:
    return tuple(f"{g.labels[a]}^{bit}" for a in g.elements() for bit in (0, 1))


def central_extension(g: GroupTable, w: TwoCocycleZ2, *, normalize: bool = False) -> GroupTable:
    """The group on Z/2 x G with product g^a . h^b = (gh)^(a+b+omega(g,h)).

    Elements (g, a) are encoded at index 2*g + a.  omega must be a 2-cocycle
    (else the product is not associative; refused with a witness) and must be
    normalized at the identity; normalize=True applies the constant-coboundary
    pre-pass first.
    """
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
    order = 2 * g.order
    product = [[0] * order for _ in range(order)]
    for a in g.elements():
        for abit in (0, 1):
            for b in g.elements():
                for bbit in (0, 1):
                    c = g.mul(a, b)
                    cbit = (abit + bbit + w(a, b)) % 2
                    product[2 * a + abit][2 * b + bbit] = 2 * c + cbit
    ext = GroupTable(product, identity=2 * g.identity, labels=extension_labels(g))
    check = validate_group(ext)
    if not check.ok:
        raise CocycleError(f"central extension is not a group: {check.summary()}")
    return ext


def lift_supercocycle(
    g: GroupTable, sc: SuperCocycle, *, report: CheckReport | None = None
) -> tuple[GroupTable, ThreeCocycle]:
    """Lift a 3-supercocycle to a genuine 3-cocycle on the central extension.

    F(g^a, h^b, k^c) = (-1)^(c * omega(g,h)) F~(g,h,k); the restriction to
    grade-0 arguments is F~ itself.  Raises CocycleError when sc fails the
    supercocycle identity.  A caller that already holds
    check_supercocycle(g, sc) passes it as ``report``, and the G^4 scan is
    not repeated.
    """
    if report is None:
        report = check_supercocycle(g, sc, max_violations=1)
    if not report.ok:
        witness = report.violations[0].instance
        raise CocycleError(f"not a 3-supercocycle; witness quadruple {witness}")
    ext = central_extension(g, sc.omega)
    n = ext.order
    values = [[[None] * n for _ in range(n)] for _ in range(n)]
    for a in g.elements():
        for abit in (0, 1):
            for b in g.elements():
                for bbit in (0, 1):
                    for c in g.elements():
                        for cbit in (0, 1):
                            v = sc(a, b, c)
                            if cbit and sc.omega(a, b):
                                v = -v
                            values[2 * a + abit][2 * b + bbit][2 * c + cbit] = v
    return ext, ThreeCocycle(values)
