"""Tests for groups, cocycle checks, central extensions, and the lift."""

import pytest

from sfckit.catalog import omega_product_z2, standard_three_cocycle, z2_supercocycle
from sfckit.cocycles import (
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
from sfckit.scalars import ONE, Cyclotomic, root_of_unity


def test_group_validation():
    for n in (1, 2, 3, 4, 6):
        assert validate_group(cyclic_group(n)).ok
    broken = GroupTable(((0, 1), (1, 1)), identity=0)
    report = validate_group(broken)
    assert not report.ok


def test_group_construction_errors():
    with pytest.raises(CocycleError):
        GroupTable((), identity=0)
    with pytest.raises(CocycleError):
        GroupTable(((0, 1), (1,)), identity=0)
    with pytest.raises(CocycleError):
        GroupTable(((0, 5), (1, 0)), identity=0)
    with pytest.raises(CocycleError):
        GroupTable(((0, 1), (1, 0)), identity=7)


@pytest.mark.parametrize(
    "product, identity, message",
    [
        ([[0, 1.9], ["1", 0]], 0, r"1\.9 at \(0, 1\)"),
        ([[0, 1], ["1", 0]], 0, r"'1' at \(1, 0\)"),
        ([[0, 1], [True, 0]], 0, r"True at \(1, 0\)"),
        ([[0, "x"], [1, 0]], 0, r"'x' at \(0, 1\)"),
        ([[0, 1], [1, 0]], 0.0, "identity index 0.0"),
        ([[0, 1], [1, 0]], False, "identity index False"),
    ],
    ids=["float", "str", "bool", "non-numeric str", "float identity", "bool identity"],
)
def test_group_table_rejects_non_int_entries(product, identity, message):
    with pytest.raises(CocycleError, match=message):
        GroupTable(product, identity)


@pytest.mark.parametrize(
    "values, message",
    [
        ([[0, 0.5], [True, 1.2]], r"0\.5 at \(0, 1\) is not a bit"),
        ([[0, 0], [True, 1]], r"True at \(1, 0\) is not a bit"),
        ([[0, "1"], [1, 0]], r"'1' at \(0, 1\) is not a bit"),
    ],
    ids=["float", "bool", "str"],
)
def test_omega_rejects_non_int_entries(values, message):
    with pytest.raises(CocycleError, match=message):
        TwoCocycleZ2(values)


def test_2cocycle_zero_passes():
    for n in (1, 2, 3, 4):
        g = cyclic_group(n)
        assert check_2cocycle(g, TwoCocycleZ2([[0] * n for _ in range(n)])).ok


def test_2cocycle_product_passes():
    g = cyclic_group(2)
    w = omega_product_z2()
    # oracle: brute-force all 8 triples in integers mod 2
    for a in range(2):
        for b in range(2):
            for c in range(2):
                lhs = (a * b + ((a + b) % 2) * c) % 2
                rhs = (b * c + a * ((b + c) % 2)) % 2
                assert lhs == rhs
    assert check_2cocycle(g, w).ok


def test_2cocycle_projection_fails_at_100():
    g = cyclic_group(2)
    w = TwoCocycleZ2(((0, 0), (1, 1)))  # omega(g,h) = g
    report = check_2cocycle(g, w, max_violations=None)
    assert not report.ok
    assert (1, 0, 0) in [v.instance for v in report.violations]
    first = next(v for v in report.violations if v.instance == (1, 0, 0))
    assert first.lhs == 0 and first.rhs == 1


def test_3cocycle_checks():
    g2 = cyclic_group(2)
    ones = [[[ONE] * 2] * 2] * 2
    assert check_3cocycle(g2, ThreeCocycle(ones)).ok
    assert check_3cocycle(g2, standard_three_cocycle(2, 1)).ok
    values = [[[ONE, ONE], [ONE, ONE]], [[ONE, ONE], [ONE, Cyclotomic.rational(3)]]]
    report = check_3cocycle(g2, ThreeCocycle(values), max_violations=None)
    assert not report.ok
    assert report.violations[0].instance == (1, 1, 1, 1)


def test_3cocycle_rejects_zero_values():
    with pytest.raises(CocycleError):
        ThreeCocycle([[[ONE, ONE], [ONE, ONE]], [[ONE, ONE], [ONE, Cyclotomic.rational(0)]]])


def test_supercocycle_with_zero_omega_is_plain_cocycle_check():
    g = cyclic_group(3)
    tau = standard_three_cocycle(3, 1)
    sc = SuperCocycle(TwoCocycleZ2([[0] * 3] * 3), tau.values)
    plain = check_3cocycle(g, tau, max_violations=None)
    sup = check_supercocycle(g, sc, max_violations=None)
    assert plain.ok == sup.ok is True
    assert plain.checked == sup.checked


def test_supercocycle_zeta4():
    g = cyclic_group(2)
    report = check_supercocycle(g, z2_supercocycle(1))
    assert report.ok and report.checked == 16
    # the only sign-carrying instance forces F~(1,1,1)^2 = -1
    bad = SuperCocycle(omega_product_z2(), [[[ONE] * 2] * 2] * 2)
    report = check_supercocycle(g, bad, max_violations=None)
    assert not report.ok
    assert [v.instance for v in report.violations] == [(1, 1, 1, 1)]
    assert report.violations[0].lhs == 1 and report.violations[0].rhs == -1


def test_central_extension_zero_omega_is_direct_product():
    g = cyclic_group(2)
    ext = central_extension(g, TwoCocycleZ2(((0, 0), (0, 0))))
    assert ext.order == 4
    assert validate_group(ext).ok
    # Klein four group: every non-identity element squares to the identity
    for a in ext.elements():
        assert ext.mul(a, a) == ext.identity


def test_central_extension_product_omega_is_z4():
    g = cyclic_group(2)
    ext = central_extension(g, omega_product_z2())
    assert ext.order == 4
    # element 1^0 sits at index 2 and has order 4
    x = 2
    powers = [x]
    while powers[-1] != ext.identity:
        powers.append(ext.mul(powers[-1], x))
    assert len(powers) == 4
    assert ext.labels == ("0^0", "0^1", "1^0", "1^1")


def test_central_extension_center_contains_grade_subgroup():
    g3 = cyclic_group(3)
    for omega in (TwoCocycleZ2([[0] * 3] * 3),):
        ext = central_extension(g3, omega)
        e1 = 2 * g3.identity + 1
        for a in ext.elements():
            assert ext.mul(e1, a) == ext.mul(a, e1)
    ext = central_extension(cyclic_group(2), omega_product_z2())
    e1 = 1
    for a in ext.elements():
        assert ext.mul(e1, a) == ext.mul(a, e1)


def test_central_extension_requires_cocycle():
    g = cyclic_group(2)
    with pytest.raises(CocycleError, match="witness"):
        central_extension(g, TwoCocycleZ2(((0, 0), (1, 1))))


def test_central_extension_normalization():
    g = cyclic_group(2)
    # omega + 1 is a cocycle in the same class but not normalized at e
    shifted = TwoCocycleZ2(tuple(tuple(1 - x for x in row) for row in omega_product_z2().values))
    assert check_2cocycle(g, shifted).ok
    with pytest.raises(CocycleError, match="normalize"):
        central_extension(g, shifted)
    ext = central_extension(g, shifted, normalize=True)
    assert validate_group(ext).ok
    # the pre-pass recovers omega(g,h) = gh, so the extension is cyclic of order 4
    x = 2
    count = 1
    y = x
    while y != ext.identity:
        y = ext.mul(y, x)
        count += 1
    assert count == 4
    assert normalize_two_cocycle(g, shifted).values == omega_product_z2().values
    assert normalize_two_cocycle(g, omega_product_z2()).values == omega_product_z2().values


def test_lift_supercocycle_restriction_and_signs():
    g = cyclic_group(2)
    sc = z2_supercocycle(1)
    ext, lifted = lift_supercocycle(g, sc)
    assert check_3cocycle(ext, lifted, max_violations=None).ok
    # restriction to grade-0 arguments is F~ itself
    for a in range(2):
        for b in range(2):
            for c in range(2):
                assert lifted(2 * a, 2 * b, 2 * c) == sc(a, b, c)
    # grade-1 third slot above (1,1,1) carries the sign
    zeta4 = root_of_unity(4, 1)
    for abit in range(2):
        for bbit in range(2):
            assert lifted(2 + abit, 2 + bbit, 2 + 1) == -zeta4


def test_lift_supercocycle_zero_omega_is_pullback():
    g = cyclic_group(3)
    sc = SuperCocycle(TwoCocycleZ2([[0] * 3] * 3), standard_three_cocycle(3, 1).values)
    ext, lifted = lift_supercocycle(g, sc)
    assert ext.order == 6
    for a in range(3):
        for abit in range(2):
            for b in range(3):
                for bbit in range(2):
                    for c in range(3):
                        for cbit in range(2):
                            assert lifted(2 * a + abit, 2 * b + bbit, 2 * c + cbit) == sc(a, b, c)


def test_lift_supercocycle_refuses_invalid():
    g = cyclic_group(2)
    bad = SuperCocycle(omega_product_z2(), [[[ONE] * 2] * 2] * 2)
    with pytest.raises(CocycleError, match="witness"):
        lift_supercocycle(g, bad)


def test_extension_and_lift_at_every_index_on_z6_with_the_carry_cocycle():
    # (g, a) sits at index 2g + a; omega is the carry of Z/6, F~ a 12th root of unity
    n = 6
    g = cyclic_group(n)
    omega = [[int(a + b >= n) for b in range(n)] for a in range(n)]
    tilde = [[[root_of_unity(2 * n, a * omega[b][c]) for c in range(n)] for b in range(n)] for a in range(n)]
    sc = SuperCocycle(TwoCocycleZ2(omega), tilde)
    assert check_supercocycle(g, sc).ok
    ext = central_extension(g, sc.omega)
    elements = [(x, y, a, b) for x in range(n) for y in range(n) for a in range(2) for b in range(2)]
    assert [ext.product[2 * x + a][2 * y + b] for x, y, a, b in elements] == [
        2 * ((x + y) % n) + (a + b + omega[x][y]) % 2 for x, y, a, b in elements
    ]
    ext, lifted = lift_supercocycle(g, sc)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                expected = [(-1) ** (c * omega[x][y]) * tilde[x][y][z] for c in range(2)]
                for a in range(2):
                    for b in range(2):
                        assert [lifted(2 * x + a, 2 * y + b, 2 * z + c) for c in range(2)] == expected
    assert check_3cocycle(ext, lifted).ok


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: GroupTable([5], 0), "^group table is not a sequence of rows$"),
        (lambda: GroupTable(5, 0), "^group table is not a sequence of rows$"),
        (lambda: TwoCocycleZ2([(0, 0), 1]), "^omega table is not a sequence of rows$"),
        (lambda: ThreeCocycle([5]), "^cocycle table is not a sequence of rows$"),
        (lambda: ThreeCocycle([[ONE]]), "^cocycle plane 0 is not a sequence of rows$"),
    ],
    ids=["group row", "group", "omega", "cocycle plane", "cocycle row"],
)
def test_tables_refuse_rows_that_are_not_sequences(build, message):
    with pytest.raises(CocycleError, match=message):
        build()
