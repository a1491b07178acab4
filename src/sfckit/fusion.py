"""Fusion-ring data, 6j-symbol tables, and pentagon-equation verification.

Multiplicity tensors are stored sparsely as (i, j, m) -> N with zero entries
omitted.  6j tables are sparse maps from index decuples to exact cyclotomic
scalars.  A decuple (i, j, m, k, n, t, alpha, beta, eta, phi) is admissible
when each of its four Hom-space quadruples (i,j,m,alpha), (m,k,n,beta),
(j,k,t,eta), (i,t,n,phi) has 1 <= label <= N; every table key must be one.
An admissible decuple with no key in the table is a missing entry: it counts
as the scalar 0 during verification, and the list of missing entries
(_missing_entries) is surfaced as a completeness warning, never silently
required.

Fusion rules need no field arithmetic: scalars is imported where a table is
built, by SixJTable, and 6j invertibility (determinant,
check_6j_invertibility) lives in _invertibility, loaded on first access.
"""

from __future__ import annotations

from .reporting import DEFAULT_MAX_VIOLATIONS, CheckReport, FusionError, LawResult, ValidationReport

MISSING_ENTRY_PREVIEW = 5


class FusionData:
    """Label set, unit label, and sparse multiplicity tensor N^{ij}_m.

    Immutable after construction; all verification routines are pure.
    """

    __slots__ = ("labels", "unit", "mult", "_products")

    def __init__(self, labels, unit, mult):
        labels = tuple(str(x) for x in labels)
        if not labels:
            raise FusionError("label set must be non-empty")
        if len(set(labels)) != len(labels):
            raise FusionError("labels must be distinct")
        if type(unit) is not int:
            raise FusionError(f"unit index {unit!r} is not an integer")
        if not 0 <= unit < len(labels):
            raise FusionError(f"unit index {unit} out of range")
        rank = len(labels)
        clean: dict[tuple[int, int, int], int] = {}
        for key, value in mult.items():
            if not (isinstance(key, tuple) and len(key) == 3 and all(type(x) is int for x in key)):
                raise FusionError(f"multiplicity key {key!r} is not an index triple")
            i, j, m = key
            if not (0 <= i < rank and 0 <= j < rank and 0 <= m < rank):
                raise FusionError(f"multiplicity key {key} out of range for rank {rank}")
            if type(value) is not int or value < 0:
                raise FusionError(f"multiplicity N{key} = {value!r} must be a non-negative integer")
            if value:
                clean[(i, j, m)] = value
        self.labels = labels
        self.unit = unit
        self.mult = clean
        self._products = _products_of(rank, clean)

    @property
    def rank(self) -> int:
        return len(self.labels)

    def n(self, i: int, j: int, m: int) -> int:
        """Multiplicity N^{ij}_m."""
        return self.mult.get((i, j, m), 0)

    def summands(self, i: int, j: int):
        """All (m, N^{ij}_m) with positive multiplicity, in index order."""
        return self._products[i][j]


def _products_of(rank: int, mult) -> tuple:
    """FusionData._products of the rules mult: products[i][j] lists the
    summands (m, N^ij_m) of X_i x X_j, in index order."""
    products = [[[] for _ in range(rank)] for _ in range(rank)]
    for (i, j, m), value in sorted(mult.items()):
        products[i][j].append((m, value))
    return tuple(tuple(tuple(cell) for cell in row) for row in products)


class SixJTable:
    """Sparse map from admissible decuples to exact scalars.

    Keys are (i, j, m, k, n, t, alpha, beta, eta, phi) with the four Hom-space
    labels 1-based: (i,j,m,alpha), (m,k,n,beta), (j,k,t,eta), (i,t,n,phi).
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        from .scalars import Cyclotomic

        clean = {}
        for key, value in entries.items():
            if not (isinstance(key, tuple) and len(key) == 10 and all(type(x) is int for x in key)):
                raise FusionError(f"6j key {key!r} is not an index decuple")
            coerced = Cyclotomic._coerce(value)
            if coerced is None:
                raise FusionError(f"6j value for {key} is not an exact scalar: {value!r}")
            clean[key] = coerced
        self.entries = clean

    def __len__(self):
        return len(self.entries)

    def get(self, key: tuple):
        return self.entries.get(key)


# -- structural validation ---------------------------------------------------


def _unit_law(data: FusionData, dims) -> LawResult:
    """N^{1j}_m = N^{j1}_m = d_j if j == m else 0, with d_j = dims[j]."""
    u = data.unit
    violations = []
    for j in range(data.rank):
        for m in range(data.rank):
            want = dims[j] if j == m else 0
            left = data.n(u, j, m)
            if left != want:
                violations.append(("left", j, m, left, want))
            right = data.n(j, u, m)
            if right != want:
                violations.append(("right", j, m, right, want))
    return LawResult("unit", not violations, violations)


def _duality_law(data: FusionData, dims) -> LawResult:
    """Each X_i has exactly one partner j with N^{ij}_1 = d_i."""
    u = data.unit
    violations = []
    for i in range(data.rank):
        partners = [(j, data.n(i, j, u)) for j in range(data.rank) if data.n(i, j, u)]
        if len(partners) != 1 or partners[0][1] != dims[i]:
            violations.append((i, tuple(partners)))
    return LawResult("duality", not violations, violations)


def associativity_defects(products, weights, skip=()) -> list[tuple[int, int, int, int, int, int]]:
    """Every (i, j, k, n, lhs, rhs) with lhs != rhs and n not in skip, in
    index order, where

        lhs = sum_m N^ij_m N^mk_n w_m,   rhs = sum_t N^jk_t N^it_n w_t.

    products[i][j] lists the summands (m, N^ij_m) of X_i x X_j (the shape of
    FusionData._products; the values may be any ints) and w_m = weights[m].

    Each pair (i, j) is compared as one int.  In base 2**shift, the signed
    digit of packed[m][k] at n is N^mk_n, and with row_bits = rank * shift,
    whole[m] = w_m sum_k packed[m][k] << (k * row_bits) and right[j][t] =
    sum_k N^jk_t w_t << (k * row_bits), so both sides of (i, j) have the
    signed digits lhs and rhs at k * rank + n:

        sum_m N^ij_m whole[m],   sum_t packed[i][t] right[j][t].

    Why it is exact: a digit of either side is a sum of at most width
    products N N w (width the longest summand list), so its size is at most
    bound = width * big**2 * wmax, big the largest |N| and wmax the largest
    |w|.  shift = (2 * bound).bit_length() + 1 gives 2**shift > 4 * bound.
    The digits of the difference of the sides are then less than
    2**(shift - 1) in size, and its lowest nonzero digit would leave a
    nonzero residue mod 2**shift: the sides are equal iff every digit is.
    Adding 2**(shift - 1) at every digit makes each digit non-negative and
    less than 2**shift, with no carry, so the digits of a differing pair are
    read off its two ints by shift and mask, from the lowest set bit of
    their xor up.  Digits at outputs n in skip are left out of packed, hence
    of both sides.  This is Kronecker substitution, as in
    scalars.kronecker_form.
    """
    rank = len(products)
    width = max((len(cell) for row in products for cell in row), default=0)
    big = max((abs(x) for row in products for cell in row for _, x in cell), default=0)
    wmax = max(map(abs, weights), default=0)
    shift = (2 * width * big**2 * wmax).bit_length() + 1
    row_bits = rank * shift
    packed = [[sum(x << (n * shift) for n, x in cell if n not in skip) for cell in row] for row in products]
    whole = [w * sum(p << (k * row_bits) for k, p in enumerate(row)) for w, row in zip(weights, packed)]
    right = []
    for row in products:
        acc: dict[int, int] = {}
        for k, cell in enumerate(row):
            for t, x in cell:
                acc[t] = acc.get(t, 0) + (x * weights[t] << (k * row_bits))
        right.append(list(acc.items()))
    half = 1 << (shift - 1)
    mask = (1 << shift) - 1
    cells = rank * rank
    bias = half * (((1 << (cells * shift)) - 1) // mask)
    defects = []
    for i in range(rank):
        prod_i = products[i]
        packed_i = packed[i]
        for j in range(rank):
            lhs = sum(x * whole[m] for m, x in prod_i[j])
            rhs = sum(packed_i[t] * y for t, y in right[j])
            if lhs != rhs:
                lhs += bias
                rhs += bias
                at = 0
                # at < cells: a shift below the proof's fails the tests instead of looping
                while at < cells and lhs != rhs:
                    diff = lhs ^ rhs
                    gap = ((diff & -diff).bit_length() - 1) // shift
                    lhs >>= gap * shift
                    rhs >>= gap * shift
                    at += gap
                    k, n = divmod(at, rank)
                    defects.append((i, j, k, n, (lhs & mask) - half, (rhs & mask) - half))
                    lhs >>= shift
                    rhs >>= shift
                    at += 1
    return defects


def validate_fusion(data: FusionData) -> ValidationReport:
    """Check the fusion-ring laws: unit, associativity, duality."""
    ones = (1,) * data.rank
    report = ValidationReport(subject="fusion data")
    report.laws.append(_unit_law(data, ones))
    assoc_violations = associativity_defects(data._products, ones)
    report.laws.append(LawResult("associativity", not assoc_violations, assoc_violations))
    report.laws.append(_duality_law(data, ones))
    return report


def admissible_triples(data: FusionData) -> list[tuple[int, int, int]]:
    """All (i, j, m) with N^{ij}_m > 0, in index order."""
    return sorted(data.mult)


def admissible_decuples(data: FusionData):
    """Yield every admissible decuple, in index order."""
    rank = data.rank
    for i in range(rank):
        for j in range(rank):
            for m, nijm in data.summands(i, j):
                for k in range(rank):
                    for n, nmkn in data.summands(m, k):
                        for t, njkt in data.summands(j, k):
                            nitn = data.n(i, t, n)
                            if not nitn:
                                continue
                            for alpha in range(1, nijm + 1):
                                for beta in range(1, nmkn + 1):
                                    for eta in range(1, njkt + 1):
                                        for phi in range(1, nitn + 1):
                                            yield (i, j, m, k, n, t, alpha, beta, eta, phi)


def _on_support(mult, key) -> bool:
    """Whether the four Hom-space quadruples of an int decuple are admissible;
    mult is FusionData.mult, whose keys are exactly the in-range triples."""
    i, j, m, k, n, t, alpha, beta, eta, phi = key
    return (
        0 < alpha <= mult.get((i, j, m), 0)
        and 0 < beta <= mult.get((m, k, n), 0)
        and 0 < eta <= mult.get((j, k, t), 0)
        and 0 < phi <= mult.get((i, t, n), 0)
    )


def decuple_is_admissible(data: FusionData, key: tuple) -> bool:
    if len(key) != 10 or not all(type(x) is int for x in key):
        return False
    return _on_support(data.mult, key)


def _preview(keys) -> str:
    return ", ".join(map(str, keys[:MISSING_ENTRY_PREVIEW]))


def _off_support(data: FusionData, table: SixJTable) -> list:
    """The table's keys (int decuples, as SixJTable checked) that are not admissible, sorted."""
    mult = data.mult
    return sorted(key for key in table.entries if not _on_support(mult, key))


def _missing_entries(data: FusionData, table: SixJTable) -> list:
    """The admissible decuples with no key in the table, in index order."""
    return [key for key in admissible_decuples(data) if key not in table.entries]


def _require_on_support(bad) -> None:
    """Raise FusionError if the list of off-support keys bad is not empty."""
    if bad:
        raise FusionError(
            f"{len(bad)} 6j entries sit on non-admissible decuples, e.g. {_preview(bad)}"
        )


def validate_sixj(data: FusionData, table: SixJTable) -> ValidationReport:
    """Structural support check plus a completeness warning for absent entries.

    The completeness law lists the missing entries, the admissible decuples
    with no key in the table, in index order; the scan reports name the same.
    """
    report = ValidationReport(subject="6j table")
    bad = _off_support(data, table)
    report.laws.append(LawResult("support", not bad, bad))
    missing = _missing_entries(data, table)
    report.laws.append(LawResult("completeness", True, missing))
    if missing:
        report.warnings.append(
            f"{len(missing)} admissible decuple(s) have no entry and count as 0, e.g. {_preview(missing)}"
        )
    return report


# -- pentagon engine ----------------------------------------------------------


def _hom_index(data: FusionData):
    """(vectors, cells): vectors lists every Hom basis vector (a, b, c, alpha),
    alpha 1-based, in index order, and vector v is vectors[v]; cells[a][b]
    lists the (c, v) of the basis of Hom(X_a x X_b, X_c), in index order."""
    vectors, cells = [], [[[] for _ in row] for row in data._products]
    for a, row in enumerate(data._products):
        for b, cell in enumerate(row):
            for c, n in cell:
                cells[a][b] += [(c, len(vectors) + x) for x in range(n)]
                vectors += [(a, b, c, alpha) for alpha in range(1, n + 1)]
    return vectors, cells


def _run_scan(data, entries, parities, max_violations):
    """(violations, total, checked) of the (super) pentagon scan: _cube.pentagon_scan
    where the rules are a group's (every X_i x X_j one simple X_ij, N = 1, and
    (ij)k = i(jk); a Majorana X has N^{1X}_X = 2), else _rowscan.row_scan.
    Each engine is imported here, so that a command compiles only the one it runs."""
    mul = [[c[0][0] if len(c) == 1 and c[0][1] == 1 else None for c in row] for row in data._products]
    group = all(None not in row for row in mul)
    if group and all(mul[ij][k] == row[mul[j][k]] for row in mul for j, ij in enumerate(row) for k in range(len(row))):
        from ._cube import pentagon_scan

        return pentagon_scan(mul, entries, parities, max_violations)
    from ._rowscan import row_scan

    return row_scan(data, entries, parities, max_violations)


def _missing_warning(missing) -> list[str]:
    """The scan reports' warning about missing entries (any iterable of keys)."""
    missing = sorted(missing)
    if not missing:
        return []
    return [
        f"{len(missing)} admissible decuple(s) had no table entry and were treated as 0, e.g. {_preview(missing)}"
    ]


def check_pentagon(
    data: FusionData,
    table: SixJTable,
    *,
    max_violations: int | None = DEFAULT_MAX_VIOLATIONS,
    jobs: int = 1,
) -> CheckReport:
    """Verify the pentagon identity for every non-trivially-zero instance.

    Raises FusionError off the admissible support.  Missing entries (the
    completeness list of validate_sixj) count as 0 and are named in one
    warning.  ``jobs`` is accepted and ignored: every scan runs in the
    calling process.
    """
    validation = validate_sixj(data, table)
    _require_on_support(validation.law("support").violations)
    return _scan_report("pentagon", data, table, None, validation.law("completeness").violations, max_violations)


def _scan_report(name, data, table, parities, missing, max_violations) -> CheckReport:
    """The report of the (super) pentagon scan of table over data (parities
    as in _scan_chunk), with one warning naming the missing entries."""
    violations, total, checked = _run_scan(data, table.entries, parities, max_violations)
    return CheckReport(
        name=name,
        ok=total == 0,
        checked=checked,
        violations=violations,
        total_violations=total,
        warnings=_missing_warning(missing),
    )


def __getattr__(name):
    """determinant and check_6j_invertibility, from _invertibility on first
    access: no command runs them, so no command compiles them."""
    if name not in ("determinant", "check_6j_invertibility"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import _invertibility

    value = globals()[name] = getattr(_invertibility, name)
    return value
