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

The pentagon check enumerates only admissible chains: for each outer object
quadruple it walks one list of Hom basis vectors (m, alpha) per (i, j),
built once per scan, instead of the full rank**10 index space, which is
what makes exhaustive exact verification instant at the scales this library
targets.  The scan runs on ints only: the table is compiled once to one int
per value mod m (scalars.kronecker_form), and a reported violation's sides
are recomputed exactly from the table's own values (_exact_sides).  The
number of instances at each outer quadruple has a closed form in the
multiplicities (_plan.outer_weights); it stands in for the scan of an empty
table, and it cuts the outer quadruple space into contiguous chunks of
equal work for worker processes.  Partial reports are merged in index
order, so the result is identical for any worker count.
"""

from __future__ import annotations

import os

from .reporting import DEFAULT_MAX_VIOLATIONS, CheckReport, FusionError, LawResult, ValidationReport, Violation
from .scalars import ZERO, Cyclotomic, kronecker_form

MISSING_ENTRY_PREVIEW = 5
# A scan starts a process pool only from this many instances
# (_plan.outer_weights) on.  Measured on a 2-vCPU x86-64 Linux guest with
# CPython 3.11, fresh `sfckit check --jobs 2` processes, pool forced on vs
# off, 10 alternating pairs each: two workers side by side each run at
# about 0.55x, so the pool saves far less than half a scan, and on the
# general Ising table (2176 instances, about 15 us each) it cost 60 ms.  On
# vec-zn n (n**4 instances, about 5.5 us each) it lost 10 and 9 of 10
# pairs at 20 736 and 65 536 instances, tied at 104 976 and 160 000, and
# won 7, 8 and 7-9 of 10 at 194 481, 234 256 and 331 776.  Costlier
# instances pay sooner, so the gate errs towards one process.
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
        if not (0 <= unit < len(labels)):
            raise FusionError(f"unit index {unit} out of range")
        rank = len(labels)
        clean: dict[tuple[int, int, int], int] = {}
        for key, value in mult.items():
            if len(key) != 3 or not all(isinstance(x, int) for x in key):
                raise FusionError(f"multiplicity key {key!r} is not an index triple")
            if not all(0 <= x < rank for x in key):
                raise FusionError(f"multiplicity key {key} out of range for rank {rank}")
            if not isinstance(value, int) or value < 0:
                raise FusionError(f"multiplicity N{key} = {value!r} must be a non-negative integer")
            if value:
                clean[tuple(key)] = value
        self.labels = labels
        self.unit = unit
        self.mult = clean
        products = [[[] for _ in range(rank)] for _ in range(rank)]
        for (i, j, m), value in sorted(clean.items()):
            products[i][j].append((m, value))
        self._products = tuple(tuple(tuple(cell) for cell in row) for row in products)

    def __reduce__(self):
        return (FusionData, (self.labels, self.unit, self.mult))

    @property
    def rank(self) -> int:
        return len(self.labels)

    def n(self, i: int, j: int, m: int) -> int:
        """Multiplicity N^{ij}_m."""
        return self.mult.get((i, j, m), 0)

    def summands(self, i: int, j: int):
        """All (m, N^{ij}_m) with positive multiplicity, in index order."""
        return self._products[i][j]


class SixJTable:
    """Sparse map from admissible decuples to exact scalars.

    Keys are (i, j, m, k, n, t, alpha, beta, eta, phi) with the four Hom-space
    labels 1-based: (i,j,m,alpha), (m,k,n,beta), (j,k,t,eta), (i,t,n,phi).
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        clean: dict[tuple, Cyclotomic] = {}
        for key, value in entries.items():
            key = tuple(key)
            if len(key) != 10 or not all(isinstance(x, int) for x in key):
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


def associativity_defects(products, weights) -> list[tuple[int, int, int, int, int, int]]:
    """Every (i, j, k, n, lhs, rhs) with lhs != rhs, in index order, where

        lhs = sum_m N^ij_m N^mk_n w_m,   rhs = sum_t N^jk_t N^it_n w_t.

    products[i][j] lists the summands (m, N^ij_m) of X_i x X_j (the shape of
    FusionData._products; the values may be any ints) and w_m = weights[m].
    For each triple (i, j, k) both sides are contracted once over the
    summand lists into sparse maps n -> value, so the cost follows the
    nonzero multiplicities instead of rank**4.
    """
    rank = len(products)
    defects = []
    for i in range(rank):
        prod_i = products[i]
        for j in range(rank):
            pij = prod_i[j]
            prod_j = products[j]
            for k in range(rank):
                pjk = prod_j[k]
                if not pij and not pjk:
                    continue
                lhs: dict[int, int] = {}
                for m, nm in pij:
                    nm *= weights[m]
                    for n, x in products[m][k]:
                        lhs[n] = lhs.get(n, 0) + nm * x
                rhs: dict[int, int] = {}
                for t, nt in pjk:
                    nt *= weights[t]
                    for n, x in prod_i[t]:
                        rhs[n] = rhs.get(n, 0) + nt * x
                if lhs != rhs:
                    for n in sorted(lhs.keys() | rhs.keys()):
                        left = lhs.get(n, 0)
                        right = rhs.get(n, 0)
                        if left != right:
                            defects.append((i, j, k, n, left, right))
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
    if len(key) != 10 or not all(isinstance(x, int) for x in key):
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


def require_admissible_support(data: FusionData, table: SixJTable) -> None:
    """Raise FusionError if any table entry sits on a non-admissible decuple."""
    _require_on_support(_off_support(data, table))


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


def _hom_basis(data: FusionData):
    """basis[i][j] lists every basis vector (m, alpha) of Hom(X_i x X_j, X_m),
    alpha 1-based, in index order."""
    return [
        [[(m, alpha) for m, nijm in cell for alpha in range(1, nijm + 1)] for cell in row]
        for row in data._products
    ]


def _scan_chunk(data, entries, parities, outer, max_violations):
    """Check the (super) pentagon identity over one chunk of outer quadruples.

    entries is the table compiled by _compile: (m, ints), where ints maps
    each decuple to its value's int mod m (see scalars.kronecker_form), so
    an instance fails iff its two sides differ mod m.

    parities is None for the plain pentagon; for the super pentagon it maps
    admissible Hom-space quadruples to parity bits, and the right-hand side
    picks up (-1)**(s(i,j,m,alpha) * s(k,l,q,delta)), found once per (q, delta).
    Returns (the first max_violations failing instances, their total, the
    instances checked).
    """
    modulus, ints = entries
    basis = _hom_basis(data)
    nf = data.mult.get
    get = ints.get
    failing = []
    total = 0
    checked = 0
    for (i, j, k, l) in outer:
        for m, alpha in basis[i][j]:
            for n, beta in basis[m][k]:
                for p, chi in basis[n][l]:
                    for q, delta in basis[k][l]:
                        negate = parities is not None and parities[(i, j, m, alpha)] and parities[(k, l, q, delta)]
                        nmqp = nf((m, q, p), 0)
                        for s, phi in basis[j][q]:
                            for gamma in range(1, nf((i, s, p), 0) + 1):
                                lhs = 0
                                for t, eta in basis[j][k]:
                                    nitn = nf((i, t, n), 0)
                                    ntls = nf((t, l, s), 0)
                                    if not ntls:
                                        continue
                                    for psi in range(1, nitn + 1):
                                        f1 = get((i, j, m, k, n, t, alpha, beta, eta, psi))
                                        if not f1:
                                            continue
                                        for kappa in range(1, ntls + 1):
                                            f2 = get((i, t, n, l, p, s, psi, chi, kappa, gamma))
                                            if not f2:
                                                continue
                                            f3 = get((j, k, t, l, s, q, eta, kappa, delta, phi))
                                            if f3:
                                                lhs += f1 * f2 % modulus * f3
                                rhs = 0
                                for eps in range(1, nmqp + 1):
                                    g1 = get((m, k, n, l, p, q, beta, chi, delta, eps))
                                    if g1:
                                        g2 = get((i, j, m, q, p, s, alpha, eps, phi, gamma))
                                        if g2:
                                            rhs += g1 * g2
                                if negate:
                                    rhs = -rhs
                                checked += 1
                                if (lhs - rhs) % modulus:
                                    total += 1
                                    if max_violations is None or len(failing) < max_violations:
                                        failing.append((i, j, k, l, m, n, p, q, s,
                                                        alpha, beta, chi, gamma, delta, phi))
    return failing, total, checked


def _exact_sides(data, entries, parities, instance):
    """The (lhs, rhs) of one _scan_chunk instance, summed in Cyclotomic
    arithmetic from the table's own entries (a missing one is 0)."""
    i, j, k, l, m, n, p, q, s, alpha, beta, chi, gamma, delta, phi = instance
    nf = data.mult.get
    lhs = rhs = ZERO
    for t, njkt in data.summands(j, k):
        for eta in range(1, njkt + 1):
            for psi in range(1, nf((i, t, n), 0) + 1):
                f1 = entries.get((i, j, m, k, n, t, alpha, beta, eta, psi), ZERO)
                for kappa in range(1, nf((t, l, s), 0) + 1):
                    f2 = entries.get((i, t, n, l, p, s, psi, chi, kappa, gamma), ZERO)
                    lhs += f1 * f2 * entries.get((j, k, t, l, s, q, eta, kappa, delta, phi), ZERO)
    for eps in range(1, nf((m, q, p), 0) + 1):
        g1 = entries.get((m, k, n, l, p, q, beta, chi, delta, eps), ZERO)
        rhs += g1 * entries.get((i, j, m, q, p, s, alpha, eps, phi, gamma), ZERO)
    if parities is not None and parities[(i, j, m, alpha)] and parities[(k, l, q, delta)]:
        rhs = -rhs
    return lhs, rhs


def _compile(data, entries):
    """The scan form (m, int by decuple) of a table's entries.  A left side
    sums at most (widest Hom basis row) * Nmax**2 products, a right side
    Nmax, Nmax the largest multiplicity."""
    nmax = max(data.mult.values(), default=0)
    widest = max((sum(x for _, x in cell) for row in data._products for cell in row), default=0)
    modulus, ints = kronecker_form(entries.values(), widest * nmax**2, nmax)
    return modulus, dict(zip(entries, ints))


def _scan_worker(args):
    return _scan_chunk(*args)


def _instance_bound(data: FusionData) -> int:
    """An upper bound on the instances of a scan, in one pass over the rules.

    An instance is a term N^ij_m N^mk_n N^nl_p N^kl_q N^jq_s N^is_p; its
    sums over q and s are at most M C**2, with M the largest multiplicity and
    C the largest sum_c N^ab_c, and the rest factor through row sums.  On
    the rules of a group, where M = C = 1, it is exact: rank**4.
    """
    rank = data.rank
    row = [0] * rank  # row[a] = sum_{b,c} N^ab_c
    widths: dict[tuple[int, int], int] = {}
    for (a, b, c), x in data.mult.items():
        row[a] += x
        widths[a, b] = widths.get((a, b), 0) + x
    tails = [0] * rank  # tails[m] = sum_{k,n} N^mk_n row[n]
    for (a, b, c), x in data.mult.items():
        tails[a] += x * row[c]
    widest = max(widths.values(), default=0)
    return max(data.mult.values(), default=0) * widest**2 * sum(
        x * tails[c] for (a, b, c), x in data.mult.items()
    )


def _usable_cpus() -> int:
    """The CPUs this process may run on: the size of its affinity mask
    (which taskset shrinks; a cgroup CPU quota does not) where the OS has
    one, else the host's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_scan(data, entries, parities, max_violations, jobs):
    """(violations, total, checked) of the (super) pentagon scan.

    With no entries every instance reads 0 = 0, so the count is returned
    without a scan.  A pool starts only for at least POOL_MIN_INSTANCES
    instances, with one worker per usable CPU at most, each taking one
    contiguous chunk of about equal work; the parts merge in index order,
    and the sides of each kept violation are recomputed exactly.
    _instance_bound rules out a small scan before _plan is imported and the
    exact count made, which would cost about 4 ms of an 80 ms
    `sfckit check --jobs 2` on vec-zn 8.
    """
    rank = data.rank
    outer = [
        (i, j, k, l)
        for i in range(rank)
        for j in range(rank)
        for k in range(rank)
        for l in range(rank)
    ]
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
    instances = [instance for part in parts for instance in part[0]][:max_violations]
    violations = [Violation(instance, *_exact_sides(data, entries, parities, instance)) for instance in instances]
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


def determinant(matrix: list[list[Cyclotomic]]) -> Cyclotomic:
    """Exact determinant by Gaussian elimination over the scalar field."""
    size = len(matrix)
    rows = [list(row) for row in matrix]
    for row in rows:
        if len(row) != size:
            raise ValueError("determinant needs a square matrix")
    det = Cyclotomic.rational(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if not rows[r][col].is_zero()), None)
        if pivot is None:
            return ZERO
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        pv = rows[col][col]
        det = det * pv
        below = [r for r in range(col + 1, size) if not rows[r][col].is_zero()]
        if below:
            inv = pv.inverse()
            for r in below:
                factor = rows[r][col] * inv
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return det


def check_6j_invertibility(data: FusionData, table: SixJTable) -> CheckReport:
    """Check that every assembled associator block is square and invertible.

    For each (i, j, k, n) the block has rows (m, alpha, beta) and columns
    (t, eta, phi); a non-square block is reported as a fusion-data
    inconsistency, a singular square block as a failure.
    """
    require_admissible_support(data, table)
    basis = _hom_basis(data)
    rank = data.rank
    violations = []
    checked = 0
    for i in range(rank):
        for j in range(rank):
            for k in range(rank):
                blocks: dict[int, tuple[list, list]] = {}
                for m, alpha in basis[i][j]:
                    for n, beta in basis[m][k]:
                        blocks.setdefault(n, ([], []))[0].append((m, alpha, beta))
                for t, eta in basis[j][k]:
                    for n, phi in basis[i][t]:
                        blocks.setdefault(n, ([], []))[1].append((t, eta, phi))
                for n, (rows, cols) in sorted(blocks.items()):
                    checked += 1
                    if len(rows) != len(cols):
                        violations.append(
                            Violation(
                                instance=(i, j, k, n),
                                detail=f"block is {len(rows)}x{len(cols)}: fusion-data inconsistency",
                            )
                        )
                        continue
                    matrix = [
                        [
                            table.get((i, j, m, k, n, t, alpha, beta, eta, phi)) or ZERO
                            for (t, eta, phi) in cols
                        ]
                        for (m, alpha, beta) in rows
                    ]
                    if determinant(matrix).is_zero():
                        violations.append(
                            Violation(instance=(i, j, k, n), detail="block is singular")
                        )
    return CheckReport(
        name="6j invertibility",
        ok=not violations,
        checked=checked,
        violations=violations,
        total_violations=len(violations),
    )
