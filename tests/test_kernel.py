"""Differential tests: the Kronecker-substitution scan kernel (one int per
value, scalars.kronecker_form) against Cyclotomic reference loops.

The reference loops below evaluate every identity with Cyclotomic
arithmetic, term by term.  The kernel must give identical reports on every
input: verdict, ``checked``, ``total_violations``, missing-entry warnings,
and the ``lhs``/``rhs`` strings of every violation.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perfbench.gen import gauge as gen_gauge
from perfbench.gen import ising_times_zn
# sfckit._rowscan is imported in the functions that use it: tools import this
# module to run on trees from before it.
from sfckit import _plan, fusion
from sfckit.catalog import build_entry, standard_three_cocycle, z2_supercocycle
from sfckit.cli import EXIT_INTERNAL_ERROR, main
from sfckit.cocycles import (
    SuperCocycle,
    ThreeCocycle,
    TwoCocycleZ2,
    check_3cocycle,
    check_supercocycle,
    cyclic_group,
    lift_supercocycle,
)
from sfckit.envelope import underlying_fusion_rules, verify_lift
from sfckit.fusion import (
    FusionData,
    SixJTable,
    admissible_decuples,
    check_6j_invertibility,
    check_pentagon,
    validate_sixj,
)
from sfckit.reporting import CheckReport, Violation
from sfckit.scalars import (
    ONE,
    ZERO,
    Cyclotomic,
    cyclotomic_polynomial,
    euler_phi,
    kronecker_form,
    root_of_unity,
)
from sfckit.serialize import fusion_file, group_file, save_file, superfusion_file
from sfckit.superfusion import BOSONIC, SuperFusionData, check_super_pentagon, is_parity_admissible
from tests.test_fusion import (
    invertibility_oracle,
    ising_exact_table,
    naive_pentagon_violations,
    z2_pointed,
    z2_table,
)

# -- Cyclotomic reference loops --------------------------------------------------------


def reference_pentagon(name, data, entries, parities):
    """The (super) pentagon over every outer quadruple, in Cyclotomic arithmetic."""
    prod = data._products
    nf = data.mult.get
    get = entries.get
    violations = []
    checked = 0
    missing = set()

    def fetch(key):
        v = get(key)
        if v is None:
            missing.add(key)
        return v

    rank = data.rank
    for i in range(rank):
     for j in range(rank):
      for k in range(rank):
       for l in range(rank):
        for m, nijm in prod[i][j]:
         for alpha in range(1, nijm + 1):
          for n, nmkn in prod[m][k]:
           for beta in range(1, nmkn + 1):
            for p, nnlp in prod[n][l]:
             for chi in range(1, nnlp + 1):
              for q, nklq in prod[k][l]:
               for delta in range(1, nklq + 1):
                for s, njqs in prod[j][q]:
                 for phi in range(1, njqs + 1):
                  for gamma in range(1, nf((i, s, p), 0) + 1):
                    lhs = ZERO
                    for t, njkt in prod[j][k]:
                        for eta in range(1, njkt + 1):
                            for psi in range(1, nf((i, t, n), 0) + 1):
                                f1 = fetch((i, j, m, k, n, t, alpha, beta, eta, psi))
                                if f1 is None or f1.is_zero():
                                    continue
                                for kappa in range(1, nf((t, l, s), 0) + 1):
                                    f2 = fetch((i, t, n, l, p, s, psi, chi, kappa, gamma))
                                    if f2 is None or f2.is_zero():
                                        continue
                                    f3 = fetch((j, k, t, l, s, q, eta, kappa, delta, phi))
                                    if f3 is None or f3.is_zero():
                                        continue
                                    lhs = lhs + f1 * f2 * f3
                    rhs = ZERO
                    for eps in range(1, nf((m, q, p), 0) + 1):
                        g1 = fetch((m, k, n, l, p, q, beta, chi, delta, eps))
                        if g1 is None or g1.is_zero():
                            continue
                        g2 = fetch((i, j, m, q, p, s, alpha, eps, phi, gamma))
                        if g2 is None or g2.is_zero():
                            continue
                        rhs = rhs + g1 * g2
                    if parities is not None and parities[(i, j, m, alpha)] and parities[(k, l, q, delta)]:
                        rhs = -rhs
                    checked += 1
                    if lhs != rhs:
                        violations.append(
                            Violation(
                                instance=(i, j, k, l, m, n, p, q, s, alpha, beta, chi, gamma, delta, phi),
                                lhs=lhs,
                                rhs=rhs,
                            )
                        )
    return CheckReport(
        name=name,
        ok=not violations,
        checked=checked,
        violations=violations,
        total_violations=len(violations),
        warnings=fusion._missing_warning(missing),
    )


def reference_cube(name, g, values, omega):
    """The 3-(super)cocycle identity over G^4, in Cyclotomic arithmetic."""
    mul = g.mul
    violations = []
    checked = 0
    for a in g.elements():
        for b in g.elements():
            for c in g.elements():
                for d in g.elements():
                    checked += 1
                    lhs = values[a][b][c] * values[a][mul(b, c)][d] * values[b][c][d]
                    rhs = values[mul(a, b)][c][d] * values[a][b][mul(c, d)]
                    if omega is not None and omega(a, b) and omega(c, d):
                        rhs = -rhs
                    if lhs != rhs:
                        violations.append(Violation(instance=(a, b, c, d), lhs=lhs, rhs=rhs))
    return CheckReport(name, not violations, checked, violations, len(violations))


# -- inputs ---------------------------------------------------------------------------


def generic_factor(rng, order):
    """A nonzero element of Q(zeta_order) with small random rational coefficients."""
    while True:
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(euler_phi(order))]
        if any(coeffs):
            return Cyclotomic(order, coeffs)


def gauge(data, table, seed, orders=(8,)):
    """The table times a coboundary of seeded generic factors: same verdicts."""
    rng = random.Random(seed)
    u = {triple: generic_factor(rng, rng.choice(orders)) for triple in sorted(data.mult)}
    entries = {}
    for key, value in sorted(table.entries.items()):
        i, j, m, k, n, t = key[:6]
        entries[key] = value * u[(i, j, m)] * u[(m, k, n)] / (u[(j, k, t)] * u[(i, t, n)])
    return SixJTable(entries)


def flip(table, position=None):
    keys = sorted(table.entries)
    key = keys[len(keys) // 2 if position is None else position]
    entries = dict(table.entries)
    entries[key] = -entries[key]
    return SixJTable(entries)


CATALOG = [
    ("trivial", ()),
    ("trivial-super", ()),
    ("ising", ()),
    ("ck", (2,)),
    ("ck", (6,)),
    ("vec-zn", (2,)),
    ("vec-zn", (3, 2)),
    ("vec-zn", (4,)),
    ("vec-zn", (6,)),
    ("super-z2", (1,)),
    ("super-z2", (3,)),
    ("super-zn-even", (2,)),
    ("super-zn-even", (3, 2)),
    ("super-zn-even", (4,)),
]


def mixed_order_table():
    """Garbage values of orders 1, 3, 5 and 7 on multiplicity-2 data."""
    mult = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1, (1, 1, 1): 2}
    data = FusionData(labels=("1", "a"), unit=0, mult=mult)
    values = [
        ONE,
        root_of_unity(3, 1),
        -root_of_unity(5, 2),
        root_of_unity(7, 3) + Cyclotomic.rational(Fraction(1, 5)),
        Cyclotomic.rational(Fraction(-2, 3)),
        ZERO,
    ]
    entries = {key: values[(5 * pos + 1) % len(values)] for pos, key in enumerate(admissible_decuples(data))}
    return data, SixJTable(entries)


def multiplicity_two_table(seed):
    """Generic Q(zeta_8) values on the multiplicity-2 rules of
    mixed_order_table, whose block F^{aaa}_a is 5x5."""
    data = mixed_order_table()[0]
    rng = random.Random(seed)
    return data, SixJTable({key: generic_factor(rng, 8) for key in admissible_decuples(data)})


def table_order(values):
    """N, the lcm of the values' orders: the field the scans work in."""
    return lcm(1, *(v.order for v in values))


def assert_same_report(got, want):
    assert got.violations == want.violations
    assert got.to_json() == want.to_json()


def scan_reports(check, data, table, max_violations=None):
    """check(data, table) at jobs 1 and at jobs 2."""
    return [check(data, table, max_violations=max_violations, jobs=jobs) for jobs in (1, 2)]


def truncated(report, k):
    """report with only its first k violations listed (all for k None)."""
    return CheckReport(
        report.name, report.ok, report.checked, report.violations[:k], report.total_violations, report.warnings
    )


def assert_counts(data, checked):
    """The closed-form count is the scan's checked."""
    assert sum(_plan.outer_weights(data)) == checked


def assert_pentagon_matches(data, table):
    want = reference_pentagon("pentagon", data, table.entries, None)
    assert_counts(data, want.checked)
    for got in scan_reports(check_pentagon, data, table):
        assert_same_report(got, want)
    return want


# -- pentagon and super pentagon ------------------------------------------------------------


@pytest.mark.parametrize("name, params", CATALOG)
def test_kernel_matches_reference_on_catalog(name, params):
    # entries without a table are scanned against the empty table, as `check` does
    entry = build_entry(name, *params)
    table = entry.sixj if entry.sixj is not None else SixJTable({})
    cases = [table, flip(table)] if len(table) else [table]
    if entry.kind == "fusion":
        for case in cases:
            assert_pentagon_matches(entry.data, case)
        return
    for case in cases:
        want = reference_pentagon("super pentagon", entry.data.base, case.entries, entry.data.parities)
        assert_counts(entry.data.base, want.checked)
        for got in scan_reports(check_super_pentagon, entry.data, case):
            assert_same_report(got, want)
    lift = verify_lift(entry.data, table)
    for case in [lift.sixj, flip(lift.sixj)] if len(table) else [lift.sixj]:
        assert_pentagon_matches(lift.underlying, case)


def test_kernel_mutants_fail_with_reference_values():
    entry = build_entry("vec-zn", 3)
    report = assert_pentagon_matches(entry.data, flip(entry.sixj))
    assert not report.ok and report.total_violations > 0
    assert all(v.lhs != v.rhs for v in report.violations)


def test_kernel_gauged_table_with_denominators():
    data, table = ising_exact_table()
    gauged = gauge(data, table, seed=3)
    assert table_order(gauged.entries.values()) == 8
    assert max(v.den for v in gauged.entries.values()) > 1
    assert assert_pentagon_matches(data, gauged).ok
    for position in (0, 17, len(gauged) - 1):
        assert not assert_pentagon_matches(data, flip(gauged, position)).ok


def test_kernel_mixed_orders():
    # a valid table over Q(zeta_105): vec-zn 3 gauged by rational factors and
    # a few of orders 5 and 7
    entry = build_entry("vec-zn", 3)
    gauged = gauge(entry.data, entry.sixj, seed=5, orders=(1, 1, 1, 5, 7))
    assert table_order(gauged.entries.values()) == 105
    assert assert_pentagon_matches(entry.data, gauged).ok
    assert not assert_pentagon_matches(entry.data, flip(gauged)).ok

    # garbage values with a zero and missing entries, against both oracles
    data, table = mixed_order_table()
    assert table_order(table.entries.values()) == 105
    sparse = SixJTable({key: v for pos, (key, v) in enumerate(sorted(table.entries.items())) if pos % 4})
    for case in (table, sparse):
        report = assert_pentagon_matches(data, case)
        assert not report.ok
        kernel = check_pentagon(data, case, max_violations=None)
        assert {v.instance for v in kernel.violations} == naive_pentagon_violations(data, case)
    assert check_pentagon(data, sparse).warnings


def test_kernel_z2_against_naive_enumerator():
    data = z2_pointed()
    for value in (ONE, -ONE, Cyclotomic.rational(Fraction(3, 2)), root_of_unity(3, 1)):
        table = z2_table(value)
        assert_pentagon_matches(data, table)
        kernel = check_pentagon(data, table, max_violations=None)
        assert {v.instance for v in kernel.violations} == naive_pentagon_violations(data, table)


ROOTS = [root_of_unity(d, k) for d in (1, 2, 3, 4) for k in range(d)]


@st.composite
def random_rules_and_table(draw):
    """Rules of rank <= 3 with multiplicities 0-2, the unit law kept or not,
    a sparse table over their admissible decuples (roots of unity of orders
    1-4, values of orders 1, 3, 4 and 5 with denominators 1-9, zeros and
    missing entries) and a random parity for every basis vector."""
    rank = draw(st.integers(1, 3))
    mult = {}
    if draw(st.booleans()):
        for j in range(rank):
            mult[(0, j, j)] = mult[(j, 0, j)] = 1
    triples = st.tuples(*[st.integers(0, rank - 1)] * 3)
    mult.update(draw(st.dictionaries(triples, st.integers(0, 2), max_size=5)))
    data = FusionData([str(x) for x in range(rank)], 0, mult)
    rng = draw(st.randoms(use_true_random=False))
    entries = {}
    for key in admissible_decuples(data):
        pick = rng.randrange(len(ROOTS) + 3)
        if pick < len(ROOTS):
            entries[key] = ROOTS[pick]
        elif pick == len(ROOTS):
            entries[key] = ZERO
        elif pick == len(ROOTS) + 1:
            order = rng.choice((1, 3, 4, 5))
            coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 9)) for _ in range(euler_phi(order))]
            entries[key] = Cyclotomic(order, coeffs)
    parities = {(i, j, m, a): rng.randrange(2) for (i, j, m), n in data.mult.items() for a in range(1, n + 1)}
    return data, SixJTable(entries), parities


@settings(max_examples=60, deadline=None)
@given(random_rules_and_table())
def test_kernel_matches_reference_on_random_rules(case):
    # pins the row scan under multiplicities above 1
    data, table, parities = case
    unit_law = fusion._unit_law(data, [1] * data.rank).ok

    def assert_matches(got, want):
        # Off the unit law the reference also lists a missing decuple whose
        # product has no kappa term, which the kernel never fetches; there the
        # warnings are left out of the comparison.
        assert got.violations == want.violations
        if not unit_law:
            got.warnings = want.warnings = []
        assert got.to_json() == want.to_json()

    want = reference_pentagon("pentagon", data, table.entries, None)
    assert_counts(data, want.checked)
    super_data = SuperFusionData(data, parities, [BOSONIC] * data.rank)
    even = SixJTable(
        {key: v for key, v in table.entries.items() if v.is_zero() or is_parity_admissible(super_data, key)}
    )
    super_want = reference_pentagon("super pentagon", data, even.entries, parities)
    # the first k witnesses, where one left path may fail at several right
    # paths, at any jobs
    for k, jobs in ((None, 1), (1, 1), (3, 1), (None, 2), (3, 2)):
        assert_matches(check_pentagon(data, table, max_violations=k, jobs=jobs), truncated(want, k))
        got = check_super_pentagon(super_data, even, max_violations=k, jobs=jobs)
        assert_matches(got, truncated(super_want, k))


# off the unit law: no pentagon instance reads (0, 1, 1, 0, 1, 1, 1, 1, 1, 1)
NO_UNIT = FusionData(["0", "1"], 0, {(0, 1, 1): 1, (1, 0, 1): 1})


@settings(max_examples=60, deadline=None)
@given(random_rules_and_table())
@example((NO_UNIT, SixJTable({}), {(0, 1, 1, 1): 0, (1, 0, 1, 1): 0}))
def test_scan_warnings_name_the_completeness_list(case):
    # with and without the unit law, both scans warn about exactly the
    # missing entries that validate_sixj lists
    data, table, parities = case
    missing = validate_sixj(data, table).law("completeness").violations
    assert check_pentagon(data, table, max_violations=1).warnings == fusion._missing_warning(missing)

    super_data = SuperFusionData(data, parities, [BOSONIC] * data.rank)
    even = SixJTable(
        {key: v for key, v in table.entries.items() if v.is_zero() or is_parity_admissible(super_data, key)}
    )
    missing = validate_sixj(data, even).law("completeness").violations
    assert check_super_pentagon(super_data, even, max_violations=1).warnings == fusion._missing_warning(missing)


# -- the instance count and the scan plan ---------------------------------------------------


def outer_quadruples(data):
    r = range(data.rank)
    return [(i, j, k, l) for i in r for j in r for k in r for l in r]


@pytest.mark.parametrize("k", [None, 2, 6, 10])
def test_empty_table_count_equals_the_scan(k):
    # the empty-table shortcut against a real scan of the empty table, on the
    # folded rules and on the table-less underlying fusion rules
    from sfckit import _rowscan

    entry = build_entry("ising") if k is None else build_entry("ck", k)
    rules = [(entry.data.base, entry.data.parities)]
    if k != 10:  # the underlying rules of ck 10 take 1.5M instances to scan
        rules.append((underlying_fusion_rules(entry.data), None))
    for data, parities in rules:
        scanned = _rowscan._scan_chunk(data, _rowscan._compile(data, {}), parities, outer_quadruples(data), None)
        assert fusion._run_scan(data, {}, parities, None) == scanned


@pytest.mark.parametrize("name, params", [("vec-zn", (n,)) for n in (1, 2, 3, 5, 8)] + [("super-zn-even", (4,))])
def test_outer_weights_count_rank4_on_groups(name, params):
    data = build_entry(name, *params).data
    data = getattr(data, "base", data)
    assert sum(_plan.outer_weights(data)) == data.rank**4


# -- 3-cocycle and 3-supercocycle ----------------------------------------------------------


def gauge_cube(g, values, seed, orders=(8,)):
    """values times the coboundary of a seeded generic 2-cochain."""
    rng = random.Random(seed)
    u = {(a, b): generic_factor(rng, rng.choice(orders)) for a in g.elements() for b in g.elements()}
    mul = g.mul
    return [
        [
            [
                values[a][b][c] * u[(b, c)] * u[(a, mul(b, c))] / (u[(mul(a, b), c)] * u[(a, b)])
                for c in g.elements()
            ]
            for b in g.elements()
        ]
        for a in g.elements()
    ]


def flip_cube(values, spot):
    a, b, c = spot
    cube = [[list(row) for row in plane] for plane in values]
    cube[a][b][c] = -cube[a][b][c]
    return cube


def assert_cube_matches(g, values, omega=None):
    if omega is None:
        got = check_3cocycle(g, ThreeCocycle(values), max_violations=None)
        want = reference_cube("3-cocycle", g, values, None)
    else:
        got = check_supercocycle(g, SuperCocycle(omega, values), max_violations=None)
        want = reference_cube("3-supercocycle", g, values, omega)
        want.warnings = got.warnings
    assert_same_report(got, want)
    return got


def carry(n):
    return TwoCocycleZ2([[1 if a + b >= n else 0 for b in range(n)] for a in range(n)])


def test_kernel_3cocycle_matches_reference():
    for n in (1, 2, 3, 4, 6):
        g = cyclic_group(n)
        for power in range(n):
            values = standard_three_cocycle(n, power).values
            assert assert_cube_matches(g, values).ok
            if n > 1:
                assert not assert_cube_matches(g, flip_cube(values, (1, n - 1, 0))).ok
    g = cyclic_group(4)
    gauged = gauge_cube(g, standard_three_cocycle(4, 1).values, seed=11)
    assert assert_cube_matches(g, gauged).ok
    assert not assert_cube_matches(g, flip_cube(gauged, (3, 2, 1))).ok
    mixed = gauge_cube(cyclic_group(3), standard_three_cocycle(3, 1).values, seed=6, orders=(1, 1, 1, 1, 1, 5, 7))
    flat = [x for plane in mixed for row in plane for x in row]
    assert table_order(flat) == 105
    assert assert_cube_matches(cyclic_group(3), mixed).ok
    assert not assert_cube_matches(cyclic_group(3), flip_cube(mixed, (2, 2, 2))).ok


def test_kernel_supercocycle_matches_reference():
    g2 = cyclic_group(2)
    for power in (1, 2, 3):
        sc = z2_supercocycle(power)
        assert_cube_matches(g2, sc.values, sc.omega)
        assert_cube_matches(g2, flip_cube(sc.values, (0, 1, 1)), sc.omega)
    g6 = cyclic_group(6)
    values = [
        [[root_of_unity(12, a * (1 if b + c >= 6 else 0)) for c in range(6)] for b in range(6)]
        for a in range(6)
    ]
    assert assert_cube_matches(g6, values, carry(6)).ok
    assert not assert_cube_matches(g6, flip_cube(values, (5, 1, 5)), carry(6)).ok
    # omega that is not a 2-cocycle: the identity is still checked on the raw data
    bad_omega = TwoCocycleZ2(((0, 0), (1, 1)))
    assert assert_cube_matches(g2, z2_supercocycle(1).values, bad_omega).warnings


# -- the compiled form -----------------------------------------------------------------


def test_kronecker_form_is_a_ring_map():
    # a value maps to 0 iff it is zero, equal values map equal at any order,
    # and sums and products map to sums and products mod m
    values = [
        ZERO,
        ONE,
        Cyclotomic.rational(Fraction(-5, 6)),
        root_of_unity(4, 1) * Cyclotomic.rational(Fraction(1, 4)),
        root_of_unity(3, 2) + root_of_unity(5, 1),
        generic_factor(random.Random(1), 7),
    ]
    pairs = [(a, b) for a in values for b in values]
    derived = [a * b for a, b in pairs] + [a + b for a, b in pairs] + [values[4].promote(105)]
    m, ints = kronecker_form(values + derived, 1, 1)
    assert table_order(values) == 420
    assert all(isinstance(x, int) and 0 <= x < m for x in ints)
    assert [x == 0 for x in ints] == [v.is_zero() for v in values + derived]
    image = dict(zip(values, ints))
    products, sums, promoted = ints[6:42], ints[42:78], ints[78]
    assert products == [image[a] * image[b] % m for a, b in pairs]
    assert sums == [(image[a] + image[b]) % m for a, b in pairs]
    assert promoted == image[values[4]]
    assert kronecker_form([], 1, 1)[1] == []


def deligne_with_z3(data, table):
    """data x Vec(Z/3) with its standard 3-cocycle (the catalog's vec-zn 3)."""
    z3 = build_entry("vec-zn", 3)
    rz = z3.data.rank
    mult = {
        (a * rz + g, b * rz + h, c * rz + k): x * y
        for (a, b, c), x in data.mult.items()
        for (g, h, k), y in z3.data.mult.items()
    }
    product = FusionData([f"{x}.{y}" for x in data.labels for y in z3.data.labels], data.unit * rz, mult)
    entries = {}
    for key, value in table.entries.items():
        for zkey, zvalue in z3.sixj.entries.items():
            objects = tuple(a * rz + g for a, g in zip(key[:6], zkey[:6]))
            entries[objects + key[6:]] = value * zvalue
    return product, SixJTable(entries)


def step_largest_denominator(values):
    """Where the largest denominator sits, and that value plus 1/den: the
    smallest change to it that keeps its denominator."""
    position = max(range(len(values)), key=lambda pos: values[pos].den)
    value = values[position]
    return position, value + Cyclotomic.rational(Fraction(1, value.den))


def test_kernel_gauged_ising_times_z3():
    # N = 24 and per-value denominators of about 32 bits, a modulus of 2048
    # bits (2816 before the per-term bound), reduced by folding: the table
    # and its sign-flip mutant against the reference at jobs 1 and 2, and a
    # one-step mutant at jobs 1
    data, table = deligne_with_z3(*ising_exact_table())
    gauged = gauge(data, table, seed=2)
    values = list(gauged.entries.values())
    assert table_order(values) == 24
    assert max(v.den for v in values).bit_length() >= 30
    assert assert_pentagon_matches(data, gauged).ok
    assert not assert_pentagon_matches(data, flip(gauged)).ok
    position, stepped = step_largest_denominator(values)
    mutant = SixJTable({**gauged.entries, list(gauged.entries)[position]: stepped})
    report = check_pentagon(data, mutant, max_violations=None)
    assert not report.ok
    assert_same_report(report, reference_pentagon("pentagon", data, mutant.entries, None))


def all_even(data):
    """data as superfusion rules with every object Bosonic and every basis vector even."""
    parities = {(i, j, m, a): 0 for (i, j, m), n in data.mult.items() for a in range(1, n + 1)}
    return SuperFusionData(data, parities, [BOSONIC] * data.rank)


def test_truncated_witnesses_match_the_reference():
    # the first k violations, with their sides, at jobs 1 and 2; the super
    # pentagon's violations come in pairs on one outer quadruple, so k = 1
    # and 3 cut inside one
    data, table = deligne_with_z3(*ising_exact_table())
    mutant = flip(gauge(data, table, seed=2))
    want = reference_pentagon("pentagon", data, mutant.entries, None)
    ising, ising_table = ising_exact_table()
    super_data, super_mutant = all_even(ising), flip(ising_table)
    super_want = reference_pentagon("super pentagon", ising, super_mutant.entries, super_data.parities)
    assert want.total_violations > 25 and super_want.total_violations > 3
    assert super_want.violations[0].instance[:4] == super_want.violations[1].instance[:4]
    for k in (1, 3, 25):
        for got in scan_reports(check_pentagon, data, mutant, max_violations=k):
            assert_same_report(got, truncated(want, k))
        for got in scan_reports(check_super_pentagon, super_data, super_mutant, max_violations=k):
            assert_same_report(got, truncated(super_want, k))


def test_witness_pass_scans_only_the_kept_outer_quadruples(monkeypatch):
    from sfckit import _rowscan

    real_scan = _rowscan._scan_chunk
    calls = []

    def counting_scan(data, entries, parities, outer, max_violations):
        result = real_scan(data, entries, parities, outer, max_violations)
        calls.append(result[2])
        return result

    monkeypatch.setattr(_rowscan, "_scan_chunk", counting_scan)
    data, table = ising_exact_table()
    assert check_pentagon(data, table).ok and len(calls) == 1
    calls.clear()
    report = check_pentagon(data, flip(table), max_violations=2)
    assert report.total_violations > 2 and len(report.violations) == 2
    weights = dict(zip(outer_quadruples(data), _plan.outer_weights(data)))
    kept = {v.instance[:4] for v in report.violations}
    assert len(calls) == 2 and calls[1] == sum(weights[quadruple] for quadruple in kept)
    calls.clear()
    report = check_pentagon(data, flip(table), max_violations=0)
    assert report.total_violations > 0 and report.violations == [] and len(calls) == 1


def not_a_ring_map(values, lhs_terms, rhs_terms):
    """A stand-in for kronecker_form whose ints are not a ring map."""
    return 2**61 - 1, [pos + 2 for pos, _ in enumerate(values)]


def test_int_failure_that_holds_exactly_is_an_internal_error(tmp_path, monkeypatch, capsys):
    # ints that are not a ring map make a valid table fail mod m; the exact
    # run of the same loop finds its sides equal, so no witness is printed.
    # The Ising rules are not a group's, so the row engine scans them.
    from sfckit import _rowscan

    data, table = ising_exact_table()
    path = tmp_path / "ising.json"
    save_file(str(path), fusion_file(data, table))

    monkeypatch.setattr(_rowscan, "kronecker_form", not_a_ring_map)
    with pytest.raises(ArithmeticError, match=r"instance \((\d+, ){14}\d+\)"):
        check_pentagon(data, table)
    capsys.readouterr()
    assert main(["check", str(path)]) == EXIT_INTERNAL_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: internal error: ArithmeticError")


def test_cube_failure_that_holds_exactly_is_an_internal_error(tmp_path, monkeypatch, capsys):
    # the same for the G^4 kernel: the 3-cocycle and 3-supercocycle checks
    # and the (super) pentagon of a group's rules.  (_cube is imported here:
    # tools import this module to run on trees from before it.)
    from sfckit import _cube

    vec, sup = build_entry("vec-zn", 3), build_entry("super-zn-even", 2)
    paths = [tmp_path / name for name in ("vec-z3.json", "z3.json", "super-z4.json", "z4.json")]
    save_file(str(paths[0]), fusion_file(vec.data, vec.sixj))
    save_file(str(paths[1]), group_file(vec.source["group"], cocycle=vec.source["cocycle"]))
    save_file(str(paths[2]), superfusion_file(sup.data, sup.sixj))
    save_file(str(paths[3]), group_file(sup.source["group"], supercocycle=sup.source["supercocycle"]))

    monkeypatch.setattr(_cube, "kronecker_form", not_a_ring_map)
    quadruple = r"quadruple \((\d+, ){3}\d+\) fails mod m but holds exactly"
    with pytest.raises(ArithmeticError, match=quadruple):
        check_3cocycle(vec.source["group"], vec.source["cocycle"])
    with pytest.raises(ArithmeticError, match=quadruple):
        check_supercocycle(sup.source["group"], sup.source["supercocycle"])
    with pytest.raises(ArithmeticError, match=quadruple):
        check_pentagon(vec.data, vec.sixj)
    with pytest.raises(ArithmeticError, match=quadruple):
        check_super_pentagon(sup.data, sup.sixj)
    for path in paths:
        capsys.readouterr()
        assert main(["check", str(path)]) == EXIT_INTERNAL_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: internal error: ArithmeticError"), path


def test_kernel_cube_step_at_largest_denominator():
    g = cyclic_group(4)
    gauged = gauge_cube(g, standard_three_cocycle(4, 1).values, seed=11, orders=(8, 3))
    assert assert_cube_matches(g, gauged).ok
    flat = [x for plane in gauged for row in plane for x in row]
    assert max(v.den for v in flat) > 1
    position, stepped = step_largest_denominator(flat)
    flat[position] = stepped
    mutant = [[flat[(a * 4 + b) * 4 : (a * 4 + b + 1) * 4] for b in range(4)] for a in range(4)]
    assert not assert_cube_matches(g, mutant).ok


def test_kronecker_modulus_skips_a_shared_factor():
    # one value 5/3 with one term a side: L1 <= 5**2 * (5 + 3) = 200, so the
    # first candidate is m = 2**8 - 1 = 3 * 5 * 17, which 3 divides; the next,
    # 2**9 - 1 = 7 * 73, is prime to it
    value = Cyclotomic.rational(Fraction(5, 3))
    m, (x,) = kronecker_form([value], 1, 1)
    assert gcd(2**8 - 1, 3) == 3 and m == 2**9 - 1
    assert x * 3 % m == 5
    # the rank-1 pentagon F**3 = F**2 and the Z/1 cocycle identity, both failing
    data = FusionData(["1"], 0, {(0, 0, 0): 1})
    assert not assert_pentagon_matches(data, SixJTable({(0,) * 6 + (1,) * 4: value})).ok
    assert not assert_cube_matches(cyclic_group(1), [[[value]]]).ok


def test_kronecker_bound_counts_denominators():
    # F = 1/4 on one object: 64 (F**3 - F**2) = 1 - 4 = -3.  A bound from the
    # numerators alone, L1 <= 1 + 1, would take m = 2**2 - 1 = 3, which
    # divides -3, so both failing identities would pass; the bound with
    # c = D**3 is 1 + 4 = 5, so m = 2**3 - 1
    value = Cyclotomic.rational(Fraction(1, 4))
    assert kronecker_form([value], 1, 1)[0] == 7
    data = FusionData(["1"], 0, {(0, 0, 0): 1})
    assert not assert_pentagon_matches(data, SixJTable({(0,) * 6 + (1,) * 4: value})).ok
    assert not assert_cube_matches(cyclic_group(1), [[[value]]]).ok


def row_scan_matches_reference(data, entries, parities=None):
    """_rowscan.row_scan against reference_pentagon, at every violation:
    the same instances, sides, total and checked; returns the reference."""
    from sfckit import _rowscan

    want = reference_pentagon("pentagon", data, entries, parities)
    violations, total, checked = _rowscan.row_scan(data, entries, parities, None)
    assert violations == want.violations
    assert (total, checked) == (want.total_violations, want.checked)
    return want


def test_kronecker_bound_is_per_term():
    # one object, F = a/d = -2/3.  Cleared by its instance's own five
    # denominators, F**3 - F**2 is y = d**2 a**3 - d**3 a**2, whose L1 is the
    # per-term bound d**2 |a|**3 + d**3 a**2 = 180 exactly.  D**3 clears it to
    # a**3 - d a**2, again exactly its bound |a|**3 + d a**2 = 20, and m comes
    # from the smaller: 2**5 - 1 > 20.  The row engine (called directly: rank
    # 1 is a group's rules) and the G^4 kernel both still fail it
    a, d = -2, 3
    value = Cyclotomic.rational(Fraction(a, d))
    assert d**5 * (value**3 - value**2) == d**2 * a**3 - d**3 * a**2 == -(d**2 * abs(a) ** 3 + d**3 * a**2)
    assert d**3 * (value**3 - value**2) == a**3 - d * a**2 == -(abs(a) ** 3 + d * a**2)
    assert kronecker_form([value], 1, 1)[0] == 2**5 - 1
    data = FusionData(["1"], 0, {(0, 0, 0): 1})
    entries = {(0,) * 6 + (1,) * 4: value}
    assert not row_scan_matches_reference(data, entries).ok
    assert not assert_pentagon_matches(data, SixJTable(entries)).ok
    assert not assert_cube_matches(cyclic_group(1), [[[value]]]).ok
    # on Z/2 (N = 2) with values 1, -1, 1/3 and -1/5, the per-term bound is
    # the smaller: 5**2 + 5**3 = 150 against 15**3 + 15 * 15**2 = 6750, so
    # m = 2**8 + 1.  Over all five denominators the bound was 2 * 5**5 =
    # 6250, and m = 2**16 + 1, the first Phi_2(2**shift) from 2**13 + 1 on
    # that is prime to 15
    entry = build_entry("vec-zn", 2)
    keys = sorted(entry.sixj.entries)
    third, fifth = Cyclotomic.rational(Fraction(1, 3)), Cyclotomic.rational(Fraction(-1, 5))
    entries = {**entry.sixj.entries, keys[3]: third, keys[6]: fifth}
    assert kronecker_form(entries.values(), 1, 1)[0] == 2**8 + 1
    assert row_scan_matches_reference(entry.data, entries).total_violations > 0
    assert not assert_pentagon_matches(entry.data, SixJTable(entries)).ok


def per_value_kronecker_form(values, lhs_terms, rhs_terms):
    """The reference for kronecker_form: its bound statistics and its ints
    taken value by value, with no sharing between equal values."""
    values = list(values)
    order = lcm(1, *(v.order for v in values))
    scale = lcm(1, *(v.den for v in values))
    peak = max((sum(map(abs, v.nums)) for v in values), default=0)
    top = max((scale // v.den * sum(map(abs, v.nums)) for v in values), default=0)
    dmax = max((v.den for v in values), default=1)
    terms = 3 * lhs_terms + 2 * rhs_terms
    per_term = lhs_terms * dmax ** (terms - 3) * peak**3 + rhs_terms * dmax ** (terms - 2) * peak**2
    bound = min(lhs_terms * top**3 + rhs_terms * scale * top**2, per_term)
    shift = (bound + 1).bit_length()
    poly = cyclotomic_polynomial(order)
    while True:
        m = sum(c << (i * shift) for i, c in enumerate(poly))
        if gcd(m, scale) == 1:
            break
        shift += 1
    ints = []
    for v in values:
        step = order // v.order * shift
        ints.append(sum(c << (k * step) for k, c in enumerate(v.nums) if c) * pow(v.den, -1, m) % m)
    return m, ints


def kronecker_inputs():
    """label -> the values of every catalog table and cube, of their lifts,
    and of the gauged tables."""
    cases = {}
    for name, params in CATALOG:
        entry = build_entry(name, *params)
        if entry.sixj is not None:
            cases[f"{name} {params}"] = list(entry.sixj.entries.values())
            if entry.kind == "superfusion":
                cases[f"lifted {name} {params}"] = list(verify_lift(entry.data, entry.sixj).sixj.entries.values())
        for kind in ("cocycle", "supercocycle"):
            if kind in entry.source:
                cube = entry.source[kind]
                cases[f"{kind} of {name} {params}"] = [x for plane in cube.values for row in plane for x in row]
                if kind == "supercocycle":
                    lifted = lift_supercocycle(entry.source["group"], cube)[1]
                    cases[f"lifted {kind} of {name} {params}"] = [x for plane in lifted.values for row in plane for x in row]
    data, table = deligne_with_z3(*ising_exact_table())
    cases["gauged ising x z3"] = list(gauge(data, table, seed=2).entries.values())
    data, table = ising_times_zn(2)
    cases["gauged ising x z2"] = list(gen_gauge(data, table, seed=1).entries.values())
    return cases


def test_kronecker_form_equals_the_per_value_map():
    # equal values share one int; the modulus and every int are those of the
    # value-by-value map, also when the values come from a generator
    cases = kronecker_inputs()
    assert any(len(set(values)) < len(values) for values in cases.values())
    for label, values in cases.items():
        for terms in ((1, 1), (4, 2)):
            want = per_value_kronecker_form(values, *terms)
            assert kronecker_form(values, *terms) == want, label
            assert kronecker_form(iter(values), *terms) == want, label


def cyclotomic_modulus(n, shift):
    """Phi_n(2**shift), the m of kronecker_form."""
    return sum(c << (i * shift) for i, c in enumerate(cyclotomic_polynomial(n)))


@pytest.mark.parametrize("n, shift", [(8, 100), (16, 50), (12, 200), (24, 100)])
def test_fold_reduces_like_the_int(n, shift):
    # m = 2**k + r, r = 1 for N = 8 and 16 and -(2**(k/2)) + 1 for 12 and 24:
    # x % _Fold(m) is x % m on both signs, from 0 to 3k bits
    from sfckit import _rowscan

    m = cyclotomic_modulus(n, shift)
    fold = _rowscan._reducer(m)
    k = euler_phi(n) * shift
    assert isinstance(fold, _rowscan._Fold) and (fold.m, fold.k, fold.r) == (m, k, m - 2**k)
    assert (fold.r > 0) == (n in (8, 16))
    rng = random.Random(n)
    xs = [0, 1, m - 1, m, m + 1, 2**k, 2 * m, m * m, (m - 1) ** 2, 2 ** (3 * k) - 1]
    xs += [rng.getrandbits(rng.randint(1, 3 * k)) for _ in range(300)]
    for x in xs:
        assert x % fold == x % m and -x % fold == -x % m, x


def test_reducer_gate_keeps_the_int():
    # a prime N, where |r| has nearly all of k's bits, and an m whose fold
    # strips fewer than FOLD_MIN_BITS, keep x % m
    from sfckit import _rowscan

    prime, small = cyclotomic_modulus(7, 200), cyclotomic_modulus(8, _rowscan.FOLD_MIN_BITS // 4)
    assert _rowscan._reducer(prime) is prime and _rowscan._reducer(small) is small
    assert isinstance(_rowscan._reducer(cyclotomic_modulus(8, _rowscan.FOLD_MIN_BITS // 4 + 1)), _rowscan._Fold)


@pytest.mark.parametrize("n", [2, 3])
def test_row_scan_through_the_fold_matches_the_reference(n):
    # the gauged Ising x Z/n tables of perfbench/gen (N = 8 and 24), compiled
    # to a _Fold, and their sign-flip mutants
    from sfckit import _rowscan

    data, table = ising_times_zn(n)
    gauged = gen_gauge(data, table, seed=1)
    assert isinstance(_rowscan._compile(data, gauged.entries)[0], _rowscan._Fold)
    assert row_scan_matches_reference(data, gauged.entries).ok
    assert row_scan_matches_reference(data, flip(gauged).entries).total_violations > 0


# -- 6j invertibility ----------------------------------------------------------------------


def assert_invertibility_matches(data, table):
    """check_6j_invertibility against the cofactor oracle: checked, the
    violations in order with their details, and the verdict."""
    report = check_6j_invertibility(data, table)
    checked, found = invertibility_oracle(data, table)
    assert report.checked == checked
    assert [(v.instance, v.detail) for v in report.violations] == found
    assert report.ok == (not found) and report.total_violations == len(found)
    return report


def zeroed(table, position):
    """table with its entry at position (in key order) set to 0."""
    keys = sorted(table.entries)
    return SixJTable({**table.entries, keys[position]: ZERO})


def assert_invertibility_and_zero_mutants_match(data, table):
    assert_invertibility_matches(data, table)
    for position in sorted({0, len(table) // 2, len(table) - 1}) if len(table) else ():
        assert_invertibility_matches(data, zeroed(table, position))


@pytest.mark.parametrize("name, params", CATALOG)
def test_invertibility_matches_cofactor_oracle_on_catalog(name, params):
    # every catalog table (the empty table where there is none) and its lift
    entry = build_entry(name, *params)
    table = entry.sixj if entry.sixj is not None else SixJTable({})
    if entry.kind == "fusion":
        assert_invertibility_and_zero_mutants_match(entry.data, table)
        return
    assert_invertibility_and_zero_mutants_match(entry.data.base, table)
    lift = verify_lift(entry.data, table)
    assert_invertibility_and_zero_mutants_match(lift.underlying, lift.sixj)


def test_invertibility_matches_cofactor_oracle_on_generic_tables():
    # the 2x2 blocks of the general benchmark table, the 5x5 block of generic
    # values on multiplicity-2 rules, and that block made rank one
    rules, table = ising_times_zn(2)
    general = (rules, gen_gauge(rules, table, seed=1))
    multiple = multiplicity_two_table(seed=5)
    for data, table in (general, multiple):
        assert assert_invertibility_matches(data, table).ok
        assert_invertibility_and_zero_mutants_match(data, table)
    data, table = multiple
    rank_one = {key: ONE if (key[0], key[1], key[3], key[4]) == (1, 1, 1, 1) else x for key, x in table.entries.items()}
    report = assert_invertibility_matches(data, SixJTable(rank_one))
    assert [v.instance for v in report.violations] == [(1, 1, 1, 1)]
