"""Tests for fusion data, pentagon verification, and 6j invertibility."""

import random
from fractions import Fraction

import pytest

from gen import gauge, ising_times_zn
from sfckit.catalog import build_entry
from sfckit.fusion import (
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
from sfckit.scalars import ONE, ZERO, Cyclotomic, euler_phi, root_of_unity
from tests.cases import ising_exact_table, ising_rules, mixed_order_table, multiplicity_two_table, z2_pointed, z2_table
from tests.oracles import block_shapes, cofactor_determinant, naive_pentagon_violations


def test_construction_errors():
    with pytest.raises(FusionError):
        FusionData(labels=(), unit=0, mult={})
    with pytest.raises(FusionError):
        FusionData(labels=("a", "a"), unit=0, mult={})
    with pytest.raises(FusionError):
        FusionData(labels=("a",), unit=3, mult={})
    with pytest.raises(FusionError):
        FusionData(labels=("a",), unit=0, mult={(0, 0): 1})
    with pytest.raises(FusionError):
        FusionData(labels=("a",), unit=0, mult={(0, 0, 5): 1})
    with pytest.raises(FusionError):
        FusionData(labels=("a",), unit=0, mult={(0, 0, 0): -2})


def test_validate_z2_group_rules():
    report = validate_fusion(z2_pointed())
    assert report.ok


def test_validate_ising_rules():
    report = validate_fusion(ising_rules())
    assert report.ok


def test_validate_dropped_summand_breaks_associativity():
    # Ising rules with the X (x) X = 1 (+) p sum truncated to 1 alone
    mult = {triple: 1 for triple in ising_rules().mult if triple != (2, 2, 1)}
    data = FusionData(labels=("1", "p", "X"), unit=0, mult=mult)
    report = validate_fusion(data)
    assert not report.ok
    law = report.law("associativity")
    assert not law.ok

    # independent oracle: evaluate both sides of the associativity sum directly
    def n(i, j, m):
        return mult.get((i, j, m), 0)

    expected = set()
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for target in range(3):
                    lhs = sum(n(i, j, m) * n(m, k, target) for m in range(3))
                    rhs = sum(n(j, k, t) * n(i, t, target) for t in range(3))
                    if lhs != rhs:
                        expected.add((i, j, k, target))
    assert expected  # the truncation genuinely breaks associativity
    assert {v[:4] for v in law.violations} == expected


def test_admissible_triples():
    assert admissible_triples(z2_pointed()) == [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    ising = admissible_triples(ising_rules())
    assert (2, 2, 0) in ising and (2, 2, 1) in ising
    trivial = FusionData(labels=("1",), unit=0, mult={(0, 0, 0): 1})
    assert admissible_triples(trivial) == [(0, 0, 0)]


def test_pentagon_z2_all_ones_passes():
    report = check_pentagon(z2_pointed(), z2_table(ONE))
    assert report.ok
    assert report.checked == 16
    assert not report.warnings


def test_pentagon_z2_minus_one_passes():
    # oracle: brute-force the multiplicative 3-cocycle identity over Z/2
    # with integer values F(a,b,c) = -1 iff a=b=c=1
    def f(a, b, c):
        return -1 if (a, b, c) == (1, 1, 1) else 1

    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    lhs = f(a, b, c) * f(a, (b + c) % 2, d) * f(b, c, d)
                    rhs = f((a + b) % 2, c, d) * f(a, b, (c + d) % 2)
                    assert lhs == rhs
    report = check_pentagon(z2_pointed(), z2_table(Cyclotomic.rational(-1)))
    assert report.ok


def test_pentagon_z2_two_fails_at_1111():
    report = check_pentagon(z2_pointed(), z2_table(Cyclotomic.rational(2)))
    assert not report.ok
    assert report.total_violations == 1
    instance = report.violations[0].instance
    assert instance[:4] == (1, 1, 1, 1)
    # the cocycle condition there forces F(1,1,1)^2 = 1
    assert report.violations[0].lhs == 4
    assert report.violations[0].rhs == 1


def test_pentagon_engine_matches_naive_enumeration():
    data = z2_pointed()
    table = z2_table(Cyclotomic.rational(2))  # broken on purpose
    report = check_pentagon(data, table, max_violations=None)
    assert {v.instance for v in report.violations} == naive_pentagon_violations(data, table)

    good = z2_table(root_of_unity(2, 1))
    assert check_pentagon(data, good).ok
    assert naive_pentagon_violations(data, good) == set()


def test_pentagon_empty_table_warns_about_missing_entries():
    data = z2_pointed()
    report = check_pentagon(data, SixJTable({}))
    assert report.ok  # 0 = 0 everywhere
    assert report.warnings and "treated as 0" in report.warnings[0]

    validation = validate_sixj(data, SixJTable({}))
    assert validation.ok
    missing = validation.law("completeness").violations
    assert len(missing) == len(list(admissible_decuples(data))) == 8


def test_pentagon_rejects_off_support_entries():
    data = z2_pointed()
    bad = SixJTable({(0, 0, 1, 0, 0, 0, 1, 1, 1, 1): ONE})
    with pytest.raises(FusionError):
        check_pentagon(data, bad)
    report = validate_sixj(data, bad)
    assert not report.ok


def test_max_violations_bound():
    # all-zero right-hand sides: break every instance by clearing one factor family
    data = z2_pointed()
    entries = dict(z2_table(ONE).entries)
    for key in list(entries):
        if key[:3] == (0, 0, 0):
            entries[key] = Cyclotomic.rational(7)
    table = SixJTable(entries)
    full = check_pentagon(data, table, max_violations=None)
    bounded = check_pentagon(data, table, max_violations=2)
    assert not full.ok and not bounded.ok
    assert full.total_violations == bounded.total_violations > 2
    assert len(bounded.violations) == 2
    assert bounded.violations == full.violations[:2]


def random_scalar(rng):
    """Zero one time in four, else a value of order 1, 3, 4, 8 or 24 with
    small coefficients over denominators up to 3; one time in eight an int
    or a Fraction instead."""
    if rng.random() < 0.25:
        return ZERO
    if rng.random() < 0.125:
        return rng.choice((rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(1, 4))))
    order = rng.choice((1, 3, 4, 8, 24))
    return Cyclotomic(order, [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(euler_phi(order))])


def random_matrix(rng, size):
    """A size x size matrix of random_scalar entries; one time in four a row
    repeats another, one time in eight a row is zero."""
    matrix = [[random_scalar(rng) for _ in range(size)] for _ in range(size)]
    if size > 1 and rng.random() < 0.25:
        a, b = rng.sample(range(size), 2)
        matrix[a] = list(matrix[b])
    if rng.random() < 0.125:
        matrix[rng.randrange(size)] = [ZERO] * size
    return matrix


def test_determinant_matches_cofactor_expansion():
    z8 = root_of_unity(8, 1)
    s = (z8 + z8**7) * Cyclotomic.rational(Fraction(1, 2))  # 1/sqrt(2)
    matrix = [[s, s], [s, -s]]
    assert determinant(matrix) == cofactor_determinant(matrix)
    assert determinant(matrix) == Cyclotomic.rational(-1)
    bigger = [
        [ONE, z8, ZERO],
        [ZERO, ONE, root_of_unity(3, 1)],
        [z8**2, ZERO, ONE],
    ]
    assert determinant(bigger) == cofactor_determinant(bigger)
    # int and Fraction entries, as every Cyclotomic operation takes them
    ints = determinant([[1, 2], [3, 4]])
    assert isinstance(ints, Cyclotomic) and ints == -2
    assert determinant([[Fraction(1, 2), z8], [0, 3]]) == Fraction(3, 2)
    assert determinant([]) == 1
    for bad in ([[1, None], [0, 1]], [["1"]], [[1.0]], [[True]]):
        with pytest.raises(TypeError, match="exact scalars"):
            determinant(bad)
    with pytest.raises(ValueError, match="square"):
        determinant([[1, 2]])
    rng = random.Random(23)
    singular = 0
    for size in range(1, 6):
        for _ in range(12):
            matrix = random_matrix(rng, size)
            want = cofactor_determinant(matrix)
            assert determinant(matrix) == want, matrix
            singular += want == 0
    assert 0 < singular < 40  # both outcomes are exercised


def test_invertibility_inverts_no_pivot_without_rows_below(monkeypatch):
    # division-free elimination: the check inverts no value on 1x1 blocks
    # (vec-zn 4), the 2x2 blocks of gauged Ising x Z/2 or the 5x5 blocks of
    # multiplicity-2 rules, and determinant inverts at most once
    entry = build_entry("vec-zn", 4)
    general = ising_times_zn(2)
    cases = [(entry.data, entry.sixj), (general[0], gauge(*general, seed=1)), multiplicity_two_table(seed=5)]
    assert max(len(rows) for _, (rows, _) in block_shapes(cases[2][0])) == 5
    real_inverse = Cyclotomic.inverse
    calls = []

    def counting_inverse(self):
        calls.append(1)
        return real_inverse(self)

    monkeypatch.setattr(Cyclotomic, "inverse", counting_inverse)
    for data, table in cases:
        assert check_6j_invertibility(data, table).ok
    assert not calls
    rng = random.Random(29)
    for size in range(1, 6):
        for _ in range(6):
            matrix = [[random_scalar(rng) or ONE for _ in range(size)] for _ in range(size)]
            calls.clear()
            determinant(matrix)
            assert len(calls) <= 1 if size > 2 else not calls


def test_invertibility_z2_blocks():
    data = z2_pointed()
    report = check_6j_invertibility(data, z2_table(Cyclotomic.rational(-1)))
    assert report.ok  # all 1x1 blocks with entries +-1

    # a zero on an admissible decuple that is the only entry of its block
    entries = dict(z2_table(ONE).entries)
    entries[(1, 1, 0, 1, 1, 0, 1, 1, 1, 1)] = ZERO
    report = check_6j_invertibility(data, SixJTable(entries))
    assert not report.ok
    assert any(v.instance == (1, 1, 1, 1) for v in report.violations)


def ising_shaped_table(block):
    """Full all-ones Ising-shaped table with the (X,X,X,X) block replaced."""
    data = ising_rules()
    entries = {key: ONE for key in admissible_decuples(data)}
    # rows (m,1,1) for m in {1,p}; cols (t,1,1) for t in {1,p}
    for r, m in enumerate((0, 1)):
        for c, t in enumerate((0, 1)):
            entries[(2, 2, m, 2, 2, t, 1, 1, 1, 1)] = block[r][c]
    return data, SixJTable(entries)


def test_pentagon_exact_ising_table():
    # a non-pointed positive control: multi-term inner sums with irrational
    # exact scalars
    data, table = ising_exact_table()
    report = check_pentagon(data, table)
    assert report.ok
    assert report.checked == 136
    assert not report.warnings
    assert check_6j_invertibility(data, table).ok
    # each flipped sign of the 2x2 block must break it
    for e in (0, 1):
        for f in (0, 1):
            entries = dict(table.entries)
            key = (2, 2, e, 2, 2, f, 1, 1, 1, 1)
            entries[key] = -entries[key]
            assert not check_pentagon(data, SixJTable(entries), max_violations=1).ok


def test_pentagon_engine_matches_naive_with_multiplicity():
    # garbage values on multiplicity-2 data: both implementations must compute
    # identical sums, so they must disagree with zero and agree with each other
    data = mixed_order_table()[0]
    values = [ONE, -ONE, root_of_unity(4, 1), Cyclotomic.rational(2), -root_of_unity(4, 1)]
    entries = {}
    for pos, key in enumerate(admissible_decuples(data)):
        entries[key] = values[(3 * pos + 1) % 5]
    table = SixJTable(entries)
    report = check_pentagon(data, table, max_violations=None)
    assert {v.instance for v in report.violations} == naive_pentagon_violations(data, table)
    assert not report.ok


def test_invertibility_reports_non_square_blocks():
    # truncated Ising rules break associativity, which shows up as a
    # non-square associator block
    mult = {triple: 1 for triple in ising_rules().mult if triple != (2, 2, 1)}
    data = FusionData(labels=("1", "p", "X"), unit=0, mult=mult)
    report = check_6j_invertibility(data, SixJTable({}))
    assert not report.ok
    assert any("inconsistency" in v.detail for v in report.violations)


def test_invertibility_ising_shaped_full_rank_block():
    z8 = root_of_unity(8, 1)
    s = (z8 + z8**7) * Cyclotomic.rational(Fraction(1, 2))
    data, table = ising_shaped_table([[s, s], [s, -s]])
    report = check_6j_invertibility(data, table)
    assert report.ok

    # the all-ones 2x2 block is singular
    data, table = ising_shaped_table([[ONE, ONE], [ONE, ONE]])
    report = check_6j_invertibility(data, table)
    assert not report.ok
    assert [v.instance for v in report.violations] == [(2, 2, 2, 2)]


@pytest.mark.parametrize(
    "build, text",
    [
        (lambda: FusionData(labels=(), unit=0, mult={}), "label set must be non-empty"),
        (lambda: FusionData(labels=("a", "a"), unit=0, mult={}), "labels must be distinct"),
        (lambda: FusionData(labels=("a",), unit=3, mult={}), "unit index 3 out of range"),
        (lambda: FusionData(labels=("a",), unit=0, mult={(0, 0): 1}), "multiplicity key (0, 0) is not an index triple"),
        (
            lambda: FusionData(labels=("a",), unit=0, mult={(0, 0, 0, 0): 1}),
            "multiplicity key (0, 0, 0, 0) is not an index triple",
        ),
        (
            lambda: FusionData(labels=("a",), unit=0, mult={(0, "0", 0): 1}),
            "multiplicity key (0, '0', 0) is not an index triple",
        ),
        (
            lambda: FusionData(labels=("a",), unit=0, mult={(0, 0, 0.0): 1}),
            "multiplicity key (0, 0, 0.0) is not an index triple",
        ),
        (
            lambda: FusionData(labels=("a",), unit=0, mult={(0, 0, 5): 1}),
            "multiplicity key (0, 0, 5) out of range for rank 1",
        ),
        (
            lambda: FusionData(labels=("a",), unit=0, mult={(-1, 0, 0): 1}),
            "multiplicity key (-1, 0, 0) out of range for rank 1",
        ),
        (
            lambda: FusionData(labels=("a",), unit=0, mult={(0, 0, 0): -2}),
            "multiplicity N(0, 0, 0) = -2 must be a non-negative integer",
        ),
        (
            lambda: FusionData(labels=("a",), unit=0, mult={(0, 0, 0): 1.0}),
            "multiplicity N(0, 0, 0) = 1.0 must be a non-negative integer",
        ),
        (lambda: SixJTable({(0,) * 9: ONE}), "6j key (0, 0, 0, 0, 0, 0, 0, 0, 0) is not an index decuple"),
        (
            lambda: SixJTable({(0,) * 9 + ("1",): ONE}),
            "6j key (0, 0, 0, 0, 0, 0, 0, 0, 0, '1') is not an index decuple",
        ),
        (
            lambda: SixJTable({(0.0,) + (0,) * 9: ONE}),
            "6j key (0.0, 0, 0, 0, 0, 0, 0, 0, 0, 0) is not an index decuple",
        ),
        (
            lambda: SixJTable({(0,) * 10: "x"}),
            "6j value for (0, 0, 0, 0, 0, 0, 0, 0, 0, 0) is not an exact scalar: 'x'",
        ),
        # a bool is an int subclass, and an index, multiplicity or unit is a plain int
        (
            lambda: FusionData(labels=("a", "b"), unit=0, mult={(0, 0, 0): 1, (True, False, True): 1}),
            "multiplicity key (True, False, True) is not an index triple",
        ),
        (
            lambda: FusionData(labels=("a",), unit=0, mult={(0, 0, 0): True}),
            "multiplicity N(0, 0, 0) = True must be a non-negative integer",
        ),
        (lambda: FusionData(labels=("a",), unit=False, mult={}), "unit index False is not an integer"),
        (
            lambda: SixJTable({(True,) + (0,) * 9: ONE}),
            "6j key (True, 0, 0, 0, 0, 0, 0, 0, 0, 0) is not an index decuple",
        ),
        # a key that is not a tuple
        (lambda: FusionData(labels=("1",), unit=0, mult={5: 1}), "multiplicity key 5 is not an index triple"),
        (lambda: SixJTable({5: 1}), "6j key 5 is not an index decuple"),
    ],
)
def test_construction_error_texts(build, text):
    with pytest.raises(FusionError) as info:
        build()
    assert str(info.value) == text
