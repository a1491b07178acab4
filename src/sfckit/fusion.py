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

The pentagon check enumerates only admissible chains and stored nonzeros.
Each scan numbers the Hom basis vectors (_hom_index), and the table is
compiled once to associator rows: rows[v1][v2] lists the (v3, v4, value) of
each nonzero entry on the basis vectors v1..v4 (_rows).  A scan follows
these rows, so it pays for the products it adds, not for the rank**10 index
space.  The values are ints: one int per value mod m
(scalars.kronecker_form).  The same loop, rerun on rows of the table's own
values, gives each reported violation its exact sides.  The number of
instances at each outer quadruple has a closed form in the multiplicities
(_plan.outer_weights); it stands in for the scan of an empty table, and it
cuts the outer quadruple space into contiguous chunks of equal work for
worker processes.  Partial reports are merged in index order, so the result
is identical for any worker count.  Rules that are a group's skip all this:
_run_scan hands them to the 3-(super)cocycle kernel of _cube, in one process.
"""

from __future__ import annotations

import os
from itertools import product

from .reporting import DEFAULT_MAX_VIOLATIONS, CheckReport, FusionError, LawResult, ValidationReport, Violation
from .scalars import Cyclotomic, kronecker_form

MISSING_ENTRY_PREVIEW = 5
# A scan starts a process pool only from this many instances
# (_plan.outer_weights) on.  Measured on a 2-vCPU x86-64 Linux guest with
# CPython 3.11, fresh `sfckit check` processes on vec-zn n (n**4 instances),
# pool forced on vs off, 10 alternating pairs each: two workers side by
# side each run at about 0.55x.  At about 5.5 us per instance the pool won
# 7-9 of 10 from 194 481 instances on; at the row scan's 2.3 us it won 1, 4,
# 2 (2 again) and 3 of 10 at 160 000, 234 256, 331 776 and 614 656.  No
# size gave 9 of 10 either way, so the gate stays.
POOL_MIN_INSTANCES = 200_000


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
        clean: dict[tuple, Cyclotomic] = {}
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


def _rows(data: FusionData, keys, values):
    """The associator rows of a table's decuple keys and values: rows[v1][v2]
    lists (v3, v4, x) for each nonzero x whose decuple has the Hom basis
    vectors (numbered by _hom_index) v1 = (i,j,m,alpha), v2 = (m,k,n,beta),
    v3 = (j,k,t,eta), v4 = (i,t,n,phi), so row (m, alpha, beta) of F^{ijk}_n."""
    number = {x: v for v, x in enumerate(_hom_index(data)[0])}
    rows = [{} for _ in number]
    for (i, j, m, k, n, t, alpha, beta, eta, phi), x in zip(keys, values):
        if x:
            row = rows[number[i, j, m, alpha]].setdefault(number[m, k, n, beta], [])
            row.append((number[j, k, t, eta], number[i, t, n, phi], x))
    return rows


def _scan_chunk(data, entries, parities, outer, max_violations):
    """Check the (super) pentagon identity over one chunk of outer quadruples.

    entries is (modulus, rows), rows as built by _rows: the ints of _compile
    (scalars.kronecker_form), where an instance fails iff its sides differ
    mod m, or for exact sides the table's own values under _EXACT, where
    x % _EXACT is x.  An instance pairs a left path va, vb, vc (basis
    vectors of Hom(i x j, m), Hom(m x k, n), Hom(n x l, p)) with a right
    path vd, ve, vf (of Hom(k x l, q), Hom(j x q, s), Hom(i x s, p)) ending
    at the same p.  Per left path, each side adds its stored nonzero terms
    into a dict keyed by right path: the left side over rows[va][vb],
    rows[vpsi][vc] and rows[vt][vk], the right over rows[vb][vc] and
    rows[va][veps], times (-1)**(s(va) s(vd)) under parities (None for the
    plain pentagon, else the bit of each admissible Hom-space quadruple).
    The right paths at p are then compared in index order, a missing key
    reading 0.  Returns (the first max_violations failing instances, each
    as (instance, lhs, rhs), their total, the instances checked).
    """
    modulus, rows = entries
    vectors, cells = _hom_index(data)
    odd = None if parities is None else [parities[x] for x in vectors]
    failing = []
    total = 0
    checked = 0
    for (i, j, k, l) in outer:
        cells_i, cells_j = cells[i], cells[j]
        ends = {}  # p -> the right paths (vd, ve, vf) ending at p, in index order
        for q, vd in cells[k][l]:
            for s, ve in cells_j[q]:
                for p, vf in cells_i[s]:
                    ends.setdefault(p, []).append((vd, ve, vf))
        for m, va in cells_i[j]:
            row_a = rows[va]
            negate = odd is not None and odd[va]
            for n, vb in cells[m][k]:
                row_ab = row_a.get(vb, ())
                row_b = rows[vb]
                for p, vc in cells[n][l]:
                    paths = ends.get(p)
                    if not paths:
                        continue
                    left = {}
                    for vt, vpsi, f1 in row_ab:
                        row_t = rows[vt]
                        for vk, vf, f2 in rows[vpsi].get(vc, ()):
                            terms = row_t.get(vk)
                            if terms:
                                f12 = f1 * f2 % modulus
                                for vd, ve, f3 in terms:
                                    key = (vd, ve, vf)
                                    left[key] = left.get(key, 0) + f12 * f3
                    right = {}
                    for vd, veps, g1 in row_b.get(vc, ()):
                        if negate and odd[vd]:
                            g1 = -g1
                        for ve, vf, g2 in row_a.get(veps, ()):
                            key = (vd, ve, vf)
                            right[key] = right.get(key, 0) + g1 * g2
                    checked += len(paths)
                    for key in paths:
                        lhs, rhs = left.get(key, 0), right.get(key, 0)
                        if (lhs - rhs) % modulus:
                            total += 1
                            if max_violations is None or len(failing) < max_violations:
                                (_, _, q, delta), (_, _, s, phi) = vectors[key[0]], vectors[key[1]]
                                labels = [vectors[v][3] for v in (va, vb, vc, key[2])]  # alpha, beta, chi, gamma
                                failing.append(((i, j, k, l, m, n, p, q, s, *labels, delta, phi), lhs, rhs))
    return failing, total, checked


class _Exact:
    """The modulus of an exact scan: x % _EXACT is x."""

    def __rmod__(self, x):
        return x


_EXACT = _Exact()


def _term_bounds(data):
    """(M, C): the largest multiplicity N^ab_c and the largest sum_c N^ab_c."""
    cells = [[x for _, x in cell] for row in data._products for cell in row]
    return max(max(cell, default=0) for cell in cells), max(map(sum, cells))


def _compile(data, entries):
    """The scan form (m, rows of ints) of a table's entries.  A left side
    sums at most C M**2 products, a right side M (see _term_bounds)."""
    nmax, widest = _term_bounds(data)
    modulus, ints = kronecker_form(entries.values(), widest * nmax**2, nmax)
    return modulus, _rows(data, entries, ints)


def _scan_worker(args):
    return _scan_chunk(*args)


def _instance_bound(data: FusionData) -> int:
    """An upper bound on the instances of a scan, in one pass over the rules.

    An instance is a term N^ij_m N^mk_n N^nl_p N^kl_q N^jq_s N^is_p; its
    sums over q and s are at most M C**2, with M the largest multiplicity and
    C the largest sum_c N^ab_c, and the rest factor through row sums.  On
    the rules of a group, where M = C = 1, it is exact: rank**4.
    """
    products = data._products
    nmax, widest = _term_bounds(data)
    row = [sum(x for cell in cells for _, x in cell) for cells in products]  # row[a] = sum_{b,c} N^ab_c
    tails = [sum(x * row[c] for cell in cells for c, x in cell) for cells in products]  # sum_{k,n} N^mk_n row[n]
    return nmax * widest**2 * sum(x * tails[c] for cells in products for cell in cells for c, x in cell)


def _usable_cpus() -> int:
    """The CPUs this process may run on: the size of its affinity mask
    (which taskset shrinks; a cgroup CPU quota does not) where the OS has
    one, else the host's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_scan(data, entries, parities, max_violations, jobs):
    """(violations, total, checked) of the (super) pentagon scan: _cube.pentagon_scan
    where the rules are a group's (every X_i x X_j one simple X_ij, N = 1, and
    (ij)k = i(jk); a Majorana X has N^{1X}_X = 2), else _row_scan."""
    mul = [[c[0][0] if len(c) == 1 and c[0][1] == 1 else None for c in row] for row in data._products]
    group = all(None not in row for row in mul)
    if group and all(mul[ij][k] == row[mul[j][k]] for row in mul for j, ij in enumerate(row) for k in range(len(row))):
        from ._cube import pentagon_scan  # here, so that only group rules compile it

        return pentagon_scan(mul, entries, parities, max_violations)
    return _row_scan(data, entries, parities, max_violations, jobs)


def _row_scan(data, entries, parities, max_violations, jobs):
    """(violations, total, checked) of the (super) pentagon scan by _scan_chunk.

    With no entries every instance reads 0 = 0, so the count is returned
    without a scan.  A pool starts only for at least POOL_MIN_INSTANCES
    instances, with one worker per usable CPU at most, each taking one
    contiguous chunk of about equal work; the parts merge in index order.
    The kept violations get their sides from one exact _scan_chunk run on
    their outer quadruples, over the five F-blocks read there, where each
    must fail too (else ArithmeticError).  _instance_bound rules out a small
    scan before _plan is imported and the exact count made, which would
    cost about 4 ms of an 80 ms `sfckit check --jobs 2` on vec-zn 8.
    """
    outer = list(product(range(data.rank), repeat=4))
    jobs = max(1, int(jobs))
    if jobs > 1 and entries and _instance_bound(data) < POOL_MIN_INSTANCES:
        jobs = 1
    chunks = [outer]
    if jobs > 1 or not entries:
        from ._plan import outer_weights, weighted_chunks  # here, so that only a planned scan compiles it

        weights = outer_weights(data)
        if not entries:
            return [], 0, sum(weights)
        if sum(weights) >= POOL_MIN_INSTANCES:
            chunks = weighted_chunks(outer, weights, min(jobs, _usable_cpus()))
    compiled = _compile(data, entries)
    if len(chunks) < 2:
        parts = [_scan_chunk(data, compiled, parities, outer, max_violations)]
    else:
        from concurrent.futures import ProcessPoolExecutor  # here, not at module level: it costs every command ~15 ms

        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            parts = list(
                pool.map(_scan_worker, [(data, compiled, parities, chunk, max_violations) for chunk in chunks])
            )
    hits = [hit for part in parts for hit in part[0]][:max_violations]
    violations = []
    if hits:
        outer = sorted({hit[0][:4] for hit in hits})
        blocks = set()  # the F^{abc} read at the outer quadruples (i, j, k, l) of the hits
        for i, j, k, l in outer:
            blocks |= {(i, j, k), (j, k, l), *((i, j, q) for q, _ in data.summands(k, l))}
            blocks |= {(i, t, l) for t, _ in data.summands(j, k)} | {(m, k, l) for m, _ in data.summands(i, j)}
        kept = [key for key in entries if (key[0], key[1], key[3]) in blocks]
        exact_rows = _rows(data, kept, map(entries.get, kept))
        exact = {hit[0]: hit[1:] for hit in _scan_chunk(data, (_EXACT, exact_rows), parities, outer, None)[0]}
        for instance, _, _ in hits:
            if instance not in exact:
                raise ArithmeticError(f"pentagon instance {instance} fails mod m but holds exactly")
            violations.append(Violation(instance, *map(Cyclotomic._coerce, exact[instance])))
    return violations, sum(part[1] for part in parts), sum(part[2] for part in parts)


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
    warning.
    """
    return _check_pentagon(data, table, validate_sixj(data, table), max_violations, jobs)


def _check_pentagon(data, table, validation, max_violations, jobs) -> CheckReport:
    """check_pentagon with validation = validate_sixj(data, table) already
    made by the caller, whose support and missing-entry lists it reuses."""
    _require_on_support(validation.law("support").violations)
    return _scan_report(
        "pentagon", data, table, None, validation.law("completeness").violations, max_violations, jobs
    )


def _scan_report(name, data, table, parities, missing, max_violations, jobs) -> CheckReport:
    """The report of the (super) pentagon scan of table over data (parities
    as in _scan_chunk), with one warning naming the missing entries."""
    violations, total, checked = _run_scan(data, table.entries, parities, max_violations, jobs)
    return CheckReport(
        name=name,
        ok=total == 0,
        checked=checked,
        violations=violations,
        total_violations=total,
        warnings=_missing_warning(missing),
    )


# -- 6j invertibility ----------------------------------------------------------


def _eliminate(matrix):
    """None if the square matrix of exact scalars (a falsy entry, None
    included, reads 0) is singular, else (sign, pivots, scale), the
    determinant being sign * prod(pivots) / scale.  Below each column's
    first nonzero p from the diagonal down, a row r with a nonzero x there
    becomes p r - x (pivot row): Bareiss (Math. Comp. 22, 1968) without his
    exact division, so no step inverts.  A p that scaled k rows is kept for
    k = 0, cancels for k = 1, else enters scale k - 1 times (1 up to 2x2).
    """
    rows, sign, pivots, scale = list(matrix), 1, [], 1
    while rows:
        for at, top in enumerate(rows):
            if top[0]:
                break
        else:
            return None
        if at:
            rows[at] = rows[0]  # the swap: rows[0] is not read again, top is the pivot row
            sign = -sign
        p, tail, scaled, rest = top[0], top[1:], 0, []
        for x, *row in rows[1:]:
            if x:
                row = [(p * a if a else 0) - (x * b if b else 0) for a, b in zip(row, tail)]
                scaled += 1
            rest.append(row)
        rows = rest
        if not scaled:
            pivots.append(p)
        for _ in range(scaled - 1):
            scale = p * scale
    return sign, pivots, scale


def determinant(matrix) -> Cyclotomic:
    """Exact determinant of a square matrix of int, Fraction or Cyclotomic
    entries (else TypeError) by _eliminate: one inverse at most, for scale."""
    rows = [[Cyclotomic._coerce(x) for x in row] for row in matrix]
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("determinant needs a square matrix")
    bad = [x for row, given in zip(rows, matrix) for y, x in zip(row, given) if y is None]
    if bad:
        raise TypeError(f"determinant entries must be exact scalars, got {bad[0]!r}")
    sign, pivots, scale = _eliminate(rows) or (0, (), 1)  # sign 0: singular
    det = Cyclotomic._coerce(sign)
    for p in pivots:
        det *= p
    return det if scale == 1 else det / scale


def check_6j_invertibility(data: FusionData, table: SixJTable) -> CheckReport:
    """Check that every assembled associator block is square and invertible.

    For each (i, j, k, n) the block F^{ijk}_n has rows (m, alpha, beta) and
    columns (t, eta, phi), read from table.entries (a missing key reads 0).
    A non-square block is a fusion-data inconsistency, a block that
    _eliminate finds singular a failure; no value is inverted.
    """
    _require_on_support(_off_support(data, table))
    vectors, cells = _hom_index(data)
    get = table.entries.get
    violations, checked = [], 0
    for i, j, k in product(range(data.rank), repeat=3):
        blocks: dict[int, tuple[list, list]] = {}
        for m, va in cells[i][j]:
            for n, vb in cells[m][k]:
                blocks.setdefault(n, ([], []))[0].append((m, vectors[va][3], vectors[vb][3]))
        for t, vt in cells[j][k]:
            for n, vphi in cells[i][t]:
                blocks.setdefault(n, ([], []))[1].append((t, vectors[vt][3], vectors[vphi][3]))
        for n, (rows, cols) in sorted(blocks.items()):
            checked += 1
            if len(rows) != len(cols):
                detail = f"block is {len(rows)}x{len(cols)}: fusion-data inconsistency"
            elif _eliminate([[get((i, j, m, k, n, t, a, b, e, f)) for t, e, f in cols] for m, a, b in rows]) is None:
                detail = "block is singular"
            else:
                continue
            violations.append(Violation(instance=(i, j, k, n), detail=detail))
    return CheckReport(
        name="6j invertibility",
        ok=not violations,
        checked=checked,
        violations=violations,
        total_violations=len(violations),
    )
