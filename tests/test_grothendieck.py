"""Tests for Z[pi]/(pi^2-1) and pi-Grothendieck rings."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfckit.catalog import build_entry, ck_super, ising_super, trivial_super
from sfckit.envelope import underlying_fusion_rules
from sfckit.fusion import FusionData
from sfckit.grothendieck import (
    PI,
    ZPI_ONE,
    ZPI_ZERO,
    GrothendieckError,
    ZPi,
    build_sgr,
    multiplicity,
    relations_text,
    sgr_multiply,
)
from sfckit.superfusion import BOSONIC, MAJORANA, SuperFusionData
from tests.test_superfusion import pointed_super


def test_zpi_basics():
    assert PI * PI == ZPI_ONE
    one_plus = ZPi(1, 1)
    assert one_plus * one_plus == ZPi(2, 2)
    assert (ZPI_ONE - PI) * (ZPI_ONE + PI) == ZPI_ZERO
    assert -ZPi(2, -3) == ZPi(-2, 3)
    assert ZPi(1, 2).at_pi_one() == 3


def test_zpi_str():
    assert str(ZPI_ZERO) == "0"
    assert str(ZPi(3, 0)) == "3"
    assert str(PI) == "pi"
    assert str(ZPi(0, -1)) == "-pi"
    assert str(ZPi(0, 2)) == "2*pi"
    assert str(ZPi(1, 1)) == "1+pi"
    assert str(ZPi(1, -1)) == "1-pi"
    assert str(ZPi(2, 3)) == "2+3*pi"


_ints = st.integers(-20, 20)
_zpi = st.builds(ZPi, _ints, _ints)


@settings(max_examples=200, deadline=None)
@given(_zpi, _zpi, _zpi)
def test_zpi_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + ZPI_ZERO == x
    assert x * ZPI_ONE == x


_cone = st.builds(ZPi, st.integers(0, 20), st.integers(0, 20))


@settings(max_examples=200, deadline=None)
@given(_cone, _cone)
def test_positive_cone_closed(x, y):
    assert x.in_positive_cone() and y.in_positive_cone()
    assert (x + y).in_positive_cone()
    assert (x * y).in_positive_cone()


def test_multiplicity_pointed():
    even = pointed_super(lambda a, b: 0)
    assert multiplicity(even, 1, 1, 0) == ZPi(1, 0)
    odd = pointed_super(lambda a, b: a * b)
    assert multiplicity(odd, 1, 1, 0) == ZPi(0, 1)
    # non-admissible triple
    assert multiplicity(odd, 1, 1, 1) == ZPI_ZERO


def test_multiplicity_ising():
    ising = ising_super()
    assert multiplicity(ising, 1, 1, 0) == ZPi(1, 1)


def test_build_sgr_ising_relations():
    ising = ising_super()
    ring = build_sgr(ising)
    x = ring.basis_vector(1)
    assert sgr_multiply(ring, x, x) == {0: ZPi(1, 1)}  # [X]^2 = (1+pi)[1]
    # [X] = pi[X]: multiplying the class by pi does not change its canonical form
    assert ring.canonicalize({1: PI}) == {1: ZPI_ONE}
    lines = relations_text(ring)
    assert "[X]^2 = (1+pi)[1]" in lines
    assert "[X] = pi[X]" in lines


def test_sgr_unit_law():
    for data in (ising_super(), ck_super(6), pointed_super(lambda a, b: a * b)):
        ring = build_sgr(data)
        unit = ring.basis_vector(data.base.unit)
        for i in range(ring.rank):
            e = ring.basis_vector(i)
            assert sgr_multiply(ring, unit, e) == e
            assert sgr_multiply(ring, e, unit) == e


def test_sgr_pi_times_x_times_x():
    ring = build_sgr(ising_super())
    pix = {1: PI}
    assert sgr_multiply(ring, pix, ring.basis_vector(1)) == {0: ZPi(1, 1)}


def test_sgr_c2_square():
    ring = build_sgr(ck_super(2))
    v1 = ring.basis_vector(1)
    assert sgr_multiply(ring, v1, v1) == {0: ZPi(1, 1)}  # [V1]^2 = (1+pi)[V0]


def test_trivial_super_ring_is_zpi():
    ring = build_sgr(trivial_super())
    assert ring.rank == 1 and not ring.majorana
    # multiplication of coefficient vectors mirrors Z^pi itself, as in the
    # rank-1 free example: k^{p|q} . k^{p'|q'} = k^{pp'+qq' | pq'+qp'}
    for p, q, p2, q2 in ((1, 0, 0, 1), (2, 3, 1, 4), (1, 1, 1, 1)):
        got = sgr_multiply(ring, {0: ZPi(p, q)}, {0: ZPi(p2, q2)})
        assert got == {0: ZPi(p * p2 + q * q2, p * q2 + q * p2)}


def test_canonicalization_idempotent_and_products_canonical():
    ring = build_sgr(ising_super())
    vec = {0: ZPi(2, -1), 1: ZPi(1, 3)}
    once = ring.canonicalize(vec)
    assert ring.canonicalize(once) == once
    assert once[1] == ZPi(4, 0)
    prod = sgr_multiply(ring, vec, vec)
    assert ring.canonicalize(prod) == prod


def test_all_bosonic_even_ring_specializes_to_fusion_ring():
    entry = build_entry("super-zn-even", 3, 1)
    data = entry.data
    ring = build_sgr(data)
    assert not ring.majorana
    for (i, j, m), c in ring.constants.items():
        assert c == ZPi(data.base.n(i, j, m), 0)
        assert c.at_pi_one() == data.base.n(i, j, m)
    # pi acts freely: pi * basis vector never collapses
    assert ring.canonicalize({0: PI}) == {0: PI}


def test_build_sgr_detects_unit_failure():
    # doubled unit Hom over the Majorana object: [1][X] = 2[X] breaks the unit law
    base = FusionData(
        labels=("1", "X"),
        unit=0,
        mult={(0, 0, 0): 1, (0, 1, 1): 4, (1, 0, 1): 2},
    )
    parities = {
        (0, 0, 0, 1): 0,
        (0, 1, 1, 1): 0, (0, 1, 1, 2): 0, (0, 1, 1, 3): 1, (0, 1, 1, 4): 1,
        (1, 0, 1, 1): 0, (1, 0, 1, 2): 1,
    }
    data = SuperFusionData(base, parities, (BOSONIC, MAJORANA))
    with pytest.raises(GrothendieckError, match="unit"):
        build_sgr(data)


def test_build_sgr_detects_unbalanced_majorana_parities():
    base = FusionData(
        labels=("1", "X"),
        unit=0,
        mult={(0, 0, 0): 1, (0, 1, 1): 2, (1, 0, 1): 2},
    )
    parities = {
        (0, 0, 0, 1): 0,
        (0, 1, 1, 1): 0, (0, 1, 1, 2): 1,
        (1, 0, 1, 1): 0, (1, 0, 1, 2): 0,
    }
    data = SuperFusionData(base, parities, (BOSONIC, MAJORANA))
    with pytest.raises(GrothendieckError, match="parities"):
        build_sgr(data)


def test_ck_rings_associative_with_expected_shape():
    for k in (2, 6, 10):
        ring = build_sgr(ck_super(k))  # associativity is checked inside
        assert ring.rank == k // 2 + 1
        assert sorted(ring.majorana) == [k // 2]


@pytest.mark.parametrize(
    "name, params",
    [("ising", ())]
    + [("ck", (k,)) for k in (2, 6, 10, 14, 22)]
    + [("super-z2", (1,)), ("super-z2", (3,)), ("super-zn-even", (4,)), ("super-zn-even", (4, 2))],
)
def test_sgr_constants_are_underlying_products(name, params):
    # i -> [i^0] and pi -> [1^1] carry K_pi into the underlying fusion ring:
    # [i][j] = sum_m (a + b pi)[m] goes to sum_m (a [m^0] + b [1^1][m^0]),
    # which is [i^0][j^0] there
    data = build_entry(name, *params).data
    ring = build_sgr(data)
    rules = underlying_fusion_rules(data)
    index = {label: pos for pos, label in enumerate(rules.labels)}
    even = [index[f"{label}^0"] for label in data.labels]
    pi = index[f"{data.labels[data.base.unit]}^1"]
    for i in range(ring.rank):
        for j in range(ring.rank):
            image: dict[int, int] = {}
            for m in range(ring.rank):
                c = ring.constants.get((i, j, m), ZPI_ZERO)
                image[even[m]] = image.get(even[m], 0) + c.a
                for n, x in rules.summands(pi, even[m]):
                    image[n] = image.get(n, 0) + c.b * x
            assert {n: x for n, x in sorted(image.items()) if x} == dict(rules.summands(even[i], even[j]))
