"""Tests for exact cyclotomic arithmetic."""

import os
import pathlib
import pickle
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sfckit.scalars import (
    ONE,
    ZERO,
    Cyclotomic,
    cyclotomic_polynomial,
    euler_phi,
    group_ring_reduce,
    minus_one_pow,
    root_of_unity,
)
from sfckit import scalars
from sfckit.catalog import build_entry, z2_supercocycle
from sfckit.cli import EXIT_CHECK_FAILED
from sfckit.cocycles import SuperCocycle, cyclic_group, lift_supercocycle
from sfckit.envelope import lift_6j
from sfckit.fusion import FusionError, SixJTable, check_6j_invertibility, check_pentagon, determinant
from sfckit.serialize import fusion_file, save_file
from tests.test_fusion import ising_exact_table
from tests.test_kernel import CATALOG, carry, flip, gauge, generic_factor


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_euler_phi():
    assert [euler_phi(n) for n in (1, 2, 3, 4, 5, 6, 8, 12)] == [1, 1, 2, 2, 4, 2, 4, 4]
    # from the prime factors, as the degree of Phi_n
    assert [euler_phi(n) for n in range(1, 400)] == [len(cyclotomic_polynomial(n)) - 1 for n in range(1, 400)]
    with pytest.raises(ValueError, match="order must be >= 1"):
        euler_phi(0)


def test_phi_bound_behind_the_order_gate():
    # phi(n) >= sqrt(n / 2): an order above 2 * length**2 cannot take length coefficients
    assert all(2 * euler_phi(n) ** 2 >= n for n in range(1, 20000))


def test_hostile_order_is_refused_before_it_is_factored():
    for order, length in ((10**18 + 9, 1), (2**521 - 1, 1), (9, 2)):
        with pytest.raises(ValueError, match=f"^order {order} needs more than {length} coefficients, got {length}$"):
            Cyclotomic(order, [1] * length)
    # at the gate's edge, 2 * length**2, phi is computed and named
    with pytest.raises(ValueError, match="^order 8 needs 4 coefficients, got 2$"):
        Cyclotomic(8, [1, 0])
    assert Cyclotomic(2, [3]) == 3
    with pytest.raises(TypeError):
        Cyclotomic(2.0, [1])


def test_bool_order_and_exponent_are_refused():
    # a bool is an int subclass; an order or an exponent is a plain int
    with pytest.raises(TypeError):
        Cyclotomic(True, [1])
    with pytest.raises(TypeError):
        Cyclotomic.from_nums(True, (1,), 1)
    with pytest.raises(TypeError):
        root_of_unity(4, 1) ** True
    assert root_of_unity(4, 1) ** 1 == root_of_unity(4, 1)
    for n, k, text in ((True, 1, "order must be an int, got True"), (4, True, "exponent must be an int, got True"),
                       (2.0, 1, "order must be an int, got 2.0"), (4, 1.0, "exponent must be an int, got 1.0")):
        with pytest.raises(TypeError, match=f"^root-of-unity {text}$"):
            Cyclotomic.zeta(n, k)
        with pytest.raises(TypeError, match=f"^root-of-unity {text}$"):
            root_of_unity(n, k)


def test_zeta4_squared_is_minus_one():
    i = root_of_unity(4, 1)
    assert i * i == -1


def test_zeta8_real_part_squares_to_two():
    # independent oracle: expand (z + z^7)^2 in Z[z]/(z^8 - 1), then reduce
    # the exponents mod Phi_8 = z^4 + 1 by hand-rolled substitution z^4 -> -1
    conv = [0] * 15
    vec = [0, 1, 0, 0, 0, 0, 0, 1]  # z + z^7
    for a, x in enumerate(vec):
        for b, y in enumerate(vec):
            conv[a + b] += x * y
    folded = [0] * 8
    for k, c in enumerate(conv):
        folded[k % 8] += c
    reduced = [0] * 4
    for k, c in enumerate(folded):
        if k < 4:
            reduced[k] += c
        else:
            reduced[k - 4] -= c
    assert reduced == [2, 0, 0, 0]

    z = root_of_unity(8, 1)
    val = (z + z**7) ** 2
    assert val == 2
    assert val.rational_value() == 2


def test_inverse_of_zeta3():
    z = root_of_unity(3, 1)
    assert z.inverse() == z**2
    assert z * z.inverse() == 1


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_root_of_unity_basics():
    assert root_of_unity(1, 0) == 1
    assert root_of_unity(2, 1) == -1
    assert root_of_unity(4, 1) ** 4 == 1
    with pytest.raises(ValueError):
        root_of_unity(0, 1)


def test_minus_one_pow():
    assert minus_one_pow(0) == 1
    assert minus_one_pow(1) == -1
    for a in (0, 1):
        for b in (0, 1):
            assert minus_one_pow(a) * minus_one_pow(b) == minus_one_pow((a + b) % 2)
    with pytest.raises(ValueError):
        minus_one_pow(2)
    # a bool or float that equals 0 or 1 is not a parity bit
    for bad in (True, False, 1.0, 0.0):
        with pytest.raises(TypeError, match=f"parity bit must be an int, got {bad!r}"):
            minus_one_pow(bad)


def test_prime_root_sums_vanish():
    for p in (2, 3, 5, 7):
        total = ZERO
        for k in range(p):
            total = total + root_of_unity(p, k)
        assert total.is_zero()


def test_zeta_n_to_the_n():
    for n in (1, 2, 3, 4, 5, 6, 8, 9, 12):
        assert root_of_unity(n, 1) ** n == 1


def test_cross_order_equality_and_hash():
    one_at_8 = root_of_unity(8, 0)
    assert one_at_8 == ONE
    assert hash(one_at_8) == hash(ONE)
    # zeta_6^3 = -1, built at order 6, equals the rational -1
    m = root_of_unity(6, 3)
    assert m == -1
    assert hash(m) == hash(Cyclotomic.rational(-1))
    # zeta_12^3 = zeta_4
    assert root_of_unity(12, 3) == root_of_unity(4, 1)
    assert hash(root_of_unity(12, 3)) == hash(root_of_unity(4, 1))


def test_promotion_coherence():
    # comparing in Q(zeta_12) agrees with comparing the originals
    a = root_of_unity(3, 1)
    b = root_of_unity(4, 1)
    assert a.promote(12) == a
    assert (a + b).promote(24) == a.promote(24) + b.promote(12)
    assert a != b


def test_canonical_reduces_order():
    v = root_of_unity(12, 4)  # = zeta_3
    assert v.canonical().order == 3
    assert v == root_of_unity(3, 1)


def test_sqrt2_identity():
    z = root_of_unity(8, 1)
    s = z + z**7
    assert s * s == 2
    half = Cyclotomic.rational(Fraction(1, 2))
    assert (s * half) * (s * half) == Fraction(1, 2)


_orders = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12, 15])


@st.composite
def cyclotomics(draw):
    n = draw(_orders)
    coeffs = [
        Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        for _ in range(euler_phi(n))
    ]
    return Cyclotomic(n, coeffs)


@settings(max_examples=150, deadline=None)
@given(cyclotomics(), cyclotomics(), cyclotomics())
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x
    assert x * ONE == x
    assert x - x == ZERO
    if not x.is_zero():
        assert x * x.inverse() == ONE


@settings(max_examples=100, deadline=None)
@given(cyclotomics())
def test_hash_respects_equality(x):
    assert hash(x) == hash(x.canonical())
    promoted = x.promote(x.order * 2)
    assert promoted == x
    assert hash(promoted) == hash(x)


def test_str_and_repr():
    assert str(root_of_unity(4, 1)) == "z4"
    assert str(Cyclotomic.rational(Fraction(3, 2))) == "3/2"
    assert "z3" in repr(root_of_unity(3, 1))


# -- conductor oracle -------------------------------------------------------------------


def _solve_exact(columns, target):
    """Solve sum_k c_k * columns[k] = target over Q; None if inconsistent."""
    ncols = len(columns)
    rows = [[Fraction(col[i]) for col in columns] + [target[i]] for i in range(len(target))]
    pivot_of_col = [-1] * ncols
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivot_of_col[c] = r
        r += 1
    for i in range(r, len(rows)):
        if rows[i][ncols]:
            return None
    sol = [Fraction(0)] * ncols
    for c in range(ncols):
        if pivot_of_col[c] >= 0:
            sol[c] = rows[pivot_of_col[c]][ncols]
    return sol


def reference_canonical(x):
    """(order, coeffs) at the conductor, by the linear solves canonical replaced:
    while some prime p of the order has z_(n/p)^k = z_n^(kp) spanning the value,
    descend to n/p."""
    order, coeffs = x.order, tuple(x.coeffs)
    changed = True
    while changed and order > 1:
        changed = False
        for p in (p for p in range(2, order + 1) if order % p == 0 and all(p % q for q in range(2, p))):
            d = order // p
            cols = [root_of_unity(order, k * p).coeffs for k in range(euler_phi(d))]
            sol = _solve_exact(cols, coeffs)
            if sol is not None:
                order, coeffs = d, tuple(sol)
                changed = True
                break
    return order, coeffs


def assert_canonical_matches_reference(x):
    order, coeffs = reference_canonical(x)
    c = x.canonical()
    assert (c.order, c.coeffs) == (order, coeffs)
    assert str(x) == str(Cyclotomic(order, coeffs))
    assert hash(x) == hash(Cyclotomic(order, coeffs))


def distinct(values):
    return list({(v.order, v.coeffs): v for v in values}.values())


@pytest.mark.parametrize("name, params", CATALOG)
def test_canonical_matches_reference_on_catalog(name, params):
    entry = build_entry(name, *params)
    values = []
    if entry.sixj is not None:
        values += entry.sixj.entries.values()
        if entry.kind == "superfusion":
            values += lift_6j(entry.data, entry.sixj).entries.values()
    for x in distinct(values):
        assert_canonical_matches_reference(x)


def test_canonical_matches_reference_on_lifted_cocycles():
    # Z/2 supercocycles and the Z/6 carry supercocycle z12^(a carry(b, c))
    cases = [(cyclic_group(2), z2_supercocycle(p)) for p in (1, 3)]
    omega = carry(6)
    values = [[[root_of_unity(12, a * omega(b, k)) for k in range(6)] for b in range(6)] for a in range(6)]
    cases.append((cyclic_group(6), SuperCocycle(omega, values)))
    for g, sc in cases:
        _, lifted = lift_supercocycle(g, sc)
        for x in distinct(v for plane in lifted.values for row in plane for v in row):
            assert_canonical_matches_reference(x)


def test_canonical_matches_reference_on_subfield_values():
    # a value of a random subfield Q(zeta_d), d | n, sometimes times a root of
    # unity of order n, written at order n
    rng = random.Random(7)
    for n in range(1, 121):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        for _ in range(3):
            d = rng.choice(divisors)
            coeffs = [
                Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.6 else 0
                for _ in range(euler_phi(d))
            ]
            x = Cyclotomic(d, coeffs)
            if rng.random() < 0.4:
                x = x * root_of_unity(n, rng.randrange(n))
            assert_canonical_matches_reference(x.promote(n))


def test_canonical_matches_reference_with_denominators():
    z105, z35, z15 = (root_of_unity(n, 1) for n in (105, 35, 15))
    values = [
        (Fraction(3, 7) + z105 + Fraction(2, 5) * z105**17).inverse(),
        ((2 + z35).inverse() * root_of_unity(3, 1)).promote(105),
        (Fraction(1, 3) - z15**2).inverse() * z15.inverse(),
        (Fraction(5, 2) + root_of_unity(8, 1) + root_of_unity(8, 7)).inverse().promote(120),
        Cyclotomic.rational(Fraction(-7, 9)).promote(90),
    ]
    for x in values:
        assert_canonical_matches_reference(x)


# -- the integer form against the Fraction arithmetic it replaced -------------------------


def reference_promote(x, m):
    """The Fraction coefficients of x embedded into Q(zeta_m), z_n -> z_m^(m/n)."""
    step = m // x.order
    vec = [Fraction(0)] * ((euler_phi(x.order) - 1) * step + 1)
    vec[::step] = x.coeffs
    return group_ring_reduce(vec, m)


def reference_mul(x, y):
    """x * y by the Fraction convolution the integer form replaced."""
    if x.order == 1:
        return Cyclotomic(y.order, [x.coeffs[0] * c for c in y.coeffs])
    if y.order == 1:
        return Cyclotomic(x.order, [y.coeffs[0] * c for c in x.coeffs])
    m = lcm(x.order, y.order)
    a, b = reference_promote(x, m), reference_promote(y, m)
    conv = [Fraction(0)] * (2 * euler_phi(m) - 1)
    for i, p in enumerate(a):
        if p:
            for j, q in enumerate(b):
                if q:
                    conv[i + j] += p * q
    return Cyclotomic(m, group_ring_reduce(conv, m))


def reference_inverse(x):
    """1 / x by the extended Euclid in Q[z] against Phi_n that the norm formula replaced."""
    if x.is_zero():
        raise ZeroDivisionError("division by zero in cyclotomic field")
    if x.order == 1:
        return Cyclotomic(1, (1 / x.coeffs[0],))
    r0, r1 = [Fraction(c) for c in cyclotomic_polynomial(x.order)], list(x.coeffs)
    s0, s1 = [Fraction(0)], [Fraction(1)]

    def deg(p):
        for i in range(len(p) - 1, -1, -1):
            if p[i]:
                return i
        return -1

    while deg(r1) > 0:
        q = [Fraction(0)] * (deg(r0) - deg(r1) + 1)
        rem = list(r0)
        for i in range(deg(r0), deg(r1) - 1, -1):
            if rem[i]:
                f = rem[i] / r1[deg(r1)]
                q[i - deg(r1)] = f
                for j in range(deg(r1) + 1):
                    rem[i - deg(r1) + j] -= f * r1[j]
        new_s = list(s0) + [Fraction(0)] * max(0, len(q) + len(s1) - 1 - len(s0))
        for i, qc in enumerate(q):
            if qc:
                for j, sc in enumerate(s1):
                    if sc:
                        new_s[i + j] -= qc * sc
        r0, r1 = r1, rem
        s0, s1 = s1, new_s
    c = r1[deg(r1)]
    return Cyclotomic(x.order, group_ring_reduce([v / c for v in s1], x.order))


def fields(x):
    return x.order, x.nums, x.den


def assert_lowest_terms(x):
    assert x.den > 0
    assert gcd(x.den, *x.nums) == 1
    assert len(x.nums) == euler_phi(x.order)
    assert all(type(c) is int for c in (x.den, *x.nums))
    assert fields(pickle.loads(pickle.dumps(x))) == fields(x)


@st.composite
def cyclotomics_at(draw, orders):
    n = draw(st.sampled_from(orders))
    coeffs = [
        Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 12))) if draw(st.booleans()) else 0
        for _ in range(euler_phi(n))
    ]
    return Cyclotomic(n, coeffs)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_integer_arithmetic_matches_fraction_reference(data):
    # orders outside _orders, each paired with itself, a divisor or 1
    n = data.draw(st.sampled_from([7, 16, 20, 24, 30]))
    x = data.draw(cyclotomics_at([n]))
    y = data.draw(cyclotomics_at([d for d in (1, 2, 4, 5, 8, n) if n % d == 0]))
    m = lcm(x.order, y.order)
    a, b = reference_promote(x, m), reference_promote(y, m)
    product = x * y
    assert fields(product) == fields(reference_mul(x, y)) == fields(y * x)
    assert fields(x + y) == fields(Cyclotomic(m, [p + q for p, q in zip(a, b)]))
    assert fields(x - y) == fields(Cyclotomic(m, [p - q for p, q in zip(a, b)]))
    results = [x, y, product, x + y, x - y, -x, x.promote(2 * n), x.canonical()]
    for v in (x, y):
        if not v.is_zero():
            assert fields(v.inverse()) == fields(reference_inverse(v))
            results.append(v.inverse())
    for v in results:
        assert_lowest_terms(v)
    # equal values at one order have equal fields
    assert fields(x.promote(m)) == fields(Cyclotomic(m, reference_promote(x, m)))
    assert fields((x + y) - y) == fields(x.promote(m))
    assert fields(x.promote(2 * n).canonical()) == fields(x.canonical())
    if not y.is_zero():
        assert fields(product / y) == fields(x.promote(m))


@pytest.mark.parametrize("bad", [0.1, 0.5, "1/3", True, False, None, 1j, Decimal("0.5")])
def test_inexact_scalars_are_rejected(bad):
    with pytest.raises(TypeError):
        Cyclotomic(1, [bad])
    with pytest.raises(TypeError):
        Cyclotomic(2, [bad])
    with pytest.raises(TypeError):
        Cyclotomic.rational(bad)
    assert Cyclotomic._coerce(bad) is None
    with pytest.raises(FusionError):
        SixJTable({(0,) * 10: bad})


def test_exact_scalars_are_accepted():
    assert fields(Cyclotomic(1, [3])) == (1, (3,), 1)
    assert fields(Cyclotomic(4, [Fraction(2, 6), Fraction(-1, 4)])) == (4, (4, -3), 12)
    assert Cyclotomic.rational(Fraction(6, 4)).coeffs == (Fraction(3, 2),)
    assert fields(Cyclotomic(3, [0, 0])) == (3, (0, 0), 1)
    assert fields(Cyclotomic.from_nums(4, [2, -4], 6)) == (4, (1, -2), 3)
    with pytest.raises(ValueError, match="order 4 needs 2 coefficients, got 3"):
        Cyclotomic.from_nums(4, [1, 2, 3], 1)


# -- no Fraction inside the arithmetic ---------------------------------------------------


def count_fractions(monkeypatch, fn):
    """How many Fractions fn() constructs."""
    original = Fraction.__new__
    made = []

    def counted(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", counted)
        fn()
    return len(made)


def test_arithmetic_builds_no_fraction(monkeypatch):
    data, table = ising_exact_table()
    gauged = gauge(data, table, seed=3)
    mutant = flip(gauged, 17)
    x, y = generic_factor(random.Random(2), 8), generic_factor(random.Random(3), 24)
    matrix = [[generic_factor(random.Random(10 * r + c), 8) for c in range(3)] for r in range(3)]
    group, supercocycle = cyclic_group(2), z2_supercocycle(1)
    cases = [
        lambda: [x + y, x - y, x * y, x / y, y.inverse(), x.canonical(), x.promote(16), x == y, 2 - x, hash(x)],
        lambda: check_6j_invertibility(data, gauged),
        lambda: assert_not_ok(check_pentagon(data, mutant, max_violations=None)),
        lambda: lift_supercocycle(group, supercocycle),
        lambda: determinant(matrix),
    ]
    assert [count_fractions(monkeypatch, fn) for fn in cases] == [0] * len(cases)
    # the counter does see the boundary
    assert count_fractions(monkeypatch, lambda: x.coeffs) == euler_phi(8)


def assert_not_ok(report):
    assert not report.ok and report.violations
    assert all(v.lhs != v.rhs for v in report.violations)


# -- the reduction mod Phi_n against the definitions it replaced --------------------------


def _polydiv_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Divide integer polynomials (low degree first); den monic, remainder 0."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            out[i - dd] = c
            for j in range(dd + 1):
                num[i - dd + j] -= c * den[j]
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return out


@lru_cache(maxsize=None)
def divisor_quotient_phi(n: int) -> tuple[int, ...]:
    """Phi_n = (x^n - 1) / prod of Phi_d over the proper divisors d of n.

    The largest divisor goes first: the quotients stay sparser, and n < 2000
    takes a third of the time of the smallest-first order."""
    num = [0] * (n + 1)
    num[0] = -1
    num[n] = 1
    for d in range(n - 1, 0, -1):
        if n % d == 0:
            num = _polydiv_exact(num, divisor_quotient_phi(d))
    return tuple(num)


def test_phi_n_matches_divisor_quotient():
    for n in range(1, 2000):
        assert cyclotomic_polynomial(n) == divisor_quotient_phi(n), n


def reference_reduce(vec, n: int) -> list[Fraction]:
    """sum vec[k] z^k mod Phi_n by Fraction long division by divisor_quotient_phi(n)."""
    poly = divisor_quotient_phi(n)
    phi = len(poly) - 1
    rem = [Fraction(c) for c in vec] + [Fraction(0)] * phi
    for i in range(len(rem) - 1, phi - 1, -1):
        q = rem[i]
        if q:
            for j, a in enumerate(poly):
                rem[i - phi + j] -= q * a
    return rem[:phi]


_reduce_orders = [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 20, 24, 30, 105]


@st.composite
def group_ring_vectors(draw):
    """(vec, n): int or Fraction entries, of any length from 0 to 3n."""
    n = draw(st.sampled_from(_reduce_orders))
    ints = st.integers(-9, 9)
    entries = draw(st.sampled_from([ints, st.builds(Fraction, ints, st.integers(1, 6))]))
    return draw(st.lists(entries, max_size=3 * n)), n


@settings(max_examples=300, deadline=None)
@given(group_ring_vectors())
# lengths above max(n, 2 phi(n) - 1), the longest product of two reduced values
@example(([1] * 3, 1))
@example(([-1, 2, 3] * 7, 7))
@example(([Fraction(k % 5 - 2, k % 3 + 1) for k in range(72)], 24))
@example(([k % 7 - 3 for k in range(315)], 105))
def test_group_ring_reduce_matches_fraction_long_division(case):
    vec, n = case
    assert group_ring_reduce(vec, n) == reference_reduce(vec, n)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 9, 12, 15, 105])
def test_zeta_matches_repeated_multiplication(n):
    phi = euler_phi(n)
    one = Cyclotomic(n, [1] + [0] * (phi - 1))
    z = Cyclotomic(n, [0, 1] + [0] * (phi - 2)) if phi > 1 else Cyclotomic(n, [1 if n == 1 else -1])
    up = [one]
    for _ in range(2 * n):
        up.append(up[-1] * z)
    down = [one]
    for _ in range(2 * n):
        down.append(down[-1] * up[n - 1])
    assert fields(up[n]) == fields(one)
    for k in range(-2 * n, 2 * n):
        assert fields(Cyclotomic.zeta(n, k)) == fields(up[k] if k >= 0 else down[-k]), k


def mixed_order_file(*orders):
    """vec-zn 2 with its first entries, in key order, set to zeta_n for n in
    orders: a fusion file at conductor lcm(2, *orders) whose pentagon fails."""
    entry = build_entry("vec-zn", 2)
    entries = dict(entry.sixj.entries)
    for key, n in zip(sorted(entries), orders):
        entries[key] = root_of_unity(n, 1)
    return fusion_file(entry.data, SixJTable(entries))


# Starts argv[1:], waits for it with os.wait4 and prints its exit code, wall
# time and peak RSS in KB.  Linux counts in a child's peak the image it was
# forked from, so the child must come from a small, fresh interpreter like
# this one, not from the test process.
MEASURE_CHILD = """
import os, subprocess, sys, threading, time
start = time.perf_counter()
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
killer = threading.Timer(60, proc.kill)
killer.start()
_, status, usage = os.wait4(proc.pid, 0)
killer.cancel()
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, time.perf_counter() - start, usage.ru_maxrss)
"""


def test_two_coprime_orders_check_in_small_memory(tmp_path):
    # conductor 2 * 101 * 103 = 20806; a table of z^k mod Phi_20806 for every
    # k < 20806, 10200 ints a row, once made this check 6.8 s and 1.7 GB
    path = tmp_path / "zeta-101-103.json"
    save_file(path, mixed_order_file(101, 103))
    src = str(pathlib.Path(scalars.__file__).resolve().parent.parent)
    argv = [sys.executable, "-c", MEASURE_CHILD, sys.executable, "-m", "sfckit.cli", "check", str(path)]
    proc = subprocess.run(argv, env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120)
    code, wall, rss_kb = proc.stdout.split()
    assert int(code) == EXIT_CHECK_FAILED
    assert float(wall) < 2.0
    assert int(rss_kb) / 1024 < 100
