"""Differential tests: the sparse ring-law contraction kernel against the
dense loops it replaced.

The reference loops below are the rank**4 associativity sums of the fusion
and superfusion laws and the unit and duality loops of both validators; the
basis-triple associativity loop of the pi-Grothendieck ring built on
sgr_multiply is in tests/oracles.py.  The kernel must give the same laws
with the same violation tuples in the same order, and build_sgr the same
ring or the same GrothendieckError text.
"""

import random

import pytest

from sfckit import grothendieck
from sfckit.catalog import build_entry
from sfckit.envelope import underlying_fusion_rules
from sfckit.fusion import FusionData, associativity_defects, validate_fusion
from sfckit.grothendieck import GrothendieckError, SGrRing, ZPi, build_sgr, sgr_multiply
from sfckit.reporting import LawResult
from sfckit.superfusion import BOSONIC, MAJORANA, SuperFusionData, validate_superfusion
from tests.cases import CATALOG as SHARED
from tests.cases import all_even, z3_parity_broken
from tests.oracles import outcome, reference_build_sgr, reference_ring_associativity

# -- dense reference loops ------------------------------------------------------------


def reference_validate_fusion(data):
    """The fusion-ring laws as dense loops over every index."""
    rank = data.rank
    u = data.unit
    unit_violations = []
    for j in range(rank):
        for m in range(rank):
            want = 1 if j == m else 0
            left = data.n(u, j, m)
            if left != want:
                unit_violations.append(("left", j, m, left, want))
            right = data.n(j, u, m)
            if right != want:
                unit_violations.append(("right", j, m, right, want))
    assoc_violations = []
    for i in range(rank):
        for j in range(rank):
            for k in range(rank):
                for n in range(rank):
                    lhs = sum(nm * data.n(m, k, n) for m, nm in data.summands(i, j))
                    rhs = sum(nt * data.n(i, t, n) for t, nt in data.summands(j, k))
                    if lhs != rhs:
                        assoc_violations.append((i, j, k, n, lhs, rhs))
    dual_violations = []
    for i in range(rank):
        partners = [(j, data.n(i, j, u)) for j in range(rank) if data.n(i, j, u)]
        if len(partners) != 1 or partners[0][1] != 1:
            dual_violations.append((i, tuple(partners)))
    return [
        LawResult("unit", not unit_violations, unit_violations),
        LawResult("associativity", not assoc_violations, assoc_violations),
        LawResult("duality", not dual_violations, dual_violations),
    ]


def reference_super_laws(data):
    """The d-corrected unit, associativity and duality laws as dense loops."""
    base = data.base
    rank = base.rank
    u = base.unit
    unit_violations = []
    for j in range(rank):
        d = data.endo_dim(j)
        for m in range(rank):
            want = d if j == m else 0
            left = base.n(u, j, m)
            if left != want:
                unit_violations.append(("left", j, m, left, want))
            right = base.n(j, u, m)
            if right != want:
                unit_violations.append(("right", j, m, right, want))
    assoc_violations = []
    for i in range(rank):
        for j in range(rank):
            for k in range(rank):
                for n in range(rank):
                    lhs = sum(
                        nm * base.n(m, k, n) * (2 // data.endo_dim(m))
                        for m, nm in base.summands(i, j)
                    )
                    rhs = sum(
                        nt * base.n(i, t, n) * (2 // data.endo_dim(t))
                        for t, nt in base.summands(j, k)
                    )
                    if lhs != rhs:
                        assoc_violations.append((i, j, k, n, lhs, rhs))
    dual_violations = []
    for i in range(rank):
        partners = [(j, base.n(i, j, u)) for j in range(rank) if base.n(i, j, u)]
        if len(partners) != 1 or partners[0][1] != data.endo_dim(i):
            dual_violations.append((i, tuple(partners)))
    return {
        "unit": LawResult("unit", not unit_violations, unit_violations),
        "associativity": LawResult("associativity", not assoc_violations, assoc_violations),
        "duality": LawResult("duality", not dual_violations, dual_violations),
    }


# -- inputs ---------------------------------------------------------------------------

# the shared catalog with the C_k family up to k = 22, whose rules alone are tested here
CATALOG = [case for case in SHARED if case[0] != "ck"] + [("ck", (k,)) for k in (2, 6, 10, 14, 18, 22)]


Z3_FAILURE = "ring is not associative at (a, a, a2): pi[a] != [a]"


def mutants(data: SuperFusionData):
    """A dropped summand, a bumped multiplicity and a Majorana retype, each at
    a few positions."""
    base = data.base
    keys = sorted(base.mult)
    positions = sorted({0, len(keys) // 2, len(keys) - 1})
    for pos in positions:
        i, j, m = keys[pos]
        mult = dict(base.mult)
        del mult[(i, j, m)]
        parities = {q: s for q, s in data.parities.items() if q[:3] != (i, j, m)}
        yield SuperFusionData(FusionData(base.labels, base.unit, mult), parities, data.object_type)

        mult = dict(base.mult)
        mult[(i, j, m)] += 1
        parities = dict(data.parities)
        parities[(i, j, m, mult[(i, j, m)])] = 1
        yield SuperFusionData(FusionData(base.labels, base.unit, mult), parities, data.object_type)
    bosonic = [x for x in range(base.rank) if x != base.unit and not data.is_majorana(x)]
    for x in sorted({bosonic[-1], bosonic[len(bosonic) // 2]} if bosonic else ()):
        object_type = list(data.object_type)
        object_type[x] = MAJORANA
        yield SuperFusionData(base, data.parities, object_type)


def fusion_mutants(data: FusionData):
    for mutant in mutants(all_even(data)):
        yield mutant.base


def catalog_superfusion():
    """(name, superfusion data) for every catalog entry; fusion entries are
    read as all-even superfusion rules."""
    for name, params in CATALOG:
        entry = build_entry(name, *params)
        data = entry.data if entry.kind == "superfusion" else all_even(entry.data)
        yield f"{name}{params}", data


# -- fusion and superfusion laws --------------------------------------------------------


def assert_fusion_matches(data):
    got = validate_fusion(data)
    want = reference_validate_fusion(data)
    assert got.laws == want
    return got


def assert_super_matches(data):
    laws = validate_superfusion(data).laws
    assert [law.law for law in laws] == [
        "unit-bosonic", "unit", "unit-parity", "majorana-balance", "associativity", "duality"
    ]
    got = {law.law: law for law in laws}
    for name, law in reference_super_laws(data).items():
        assert got[name] == law
    return got


@pytest.mark.parametrize("name, params", CATALOG)
def test_laws_match_reference_on_catalog(name, params):
    entry = build_entry(name, *params)
    if entry.kind == "fusion":
        assert assert_fusion_matches(entry.data).ok
        for mutant in fusion_mutants(entry.data):
            assert_fusion_matches(mutant)
        data = all_even(entry.data)
    else:
        data = entry.data
        assert assert_fusion_matches(underlying_fusion_rules(data)).ok
    assert all(law.ok for law in assert_super_matches(data).values())
    for mutant in mutants(data):
        assert_super_matches(mutant)
        assert_fusion_matches(mutant.base)


def test_mutants_break_the_laws():
    # the oracles are not vacuous: every kind of mutant breaks associativity somewhere
    data = build_entry("ck", 10).data
    broken = [not assert_super_matches(m)["associativity"].ok for m in mutants(data)]
    assert broken.count(True) >= 4
    fusion_broken = [not assert_fusion_matches(m).laws[1].ok for m in fusion_mutants(build_entry("vec-zn", 4).data)]
    assert any(fusion_broken)


def test_kernel_on_random_rules():
    # random multiplicities, weights 1 and 2: values, order and zero sides
    rng = random.Random(4)
    for _ in range(40):
        rank = rng.randint(1, 5)
        mult = {
            (i, j, m): rng.choice((0, 0, 0, 1, 2, 3))
            for i in range(rank) for j in range(rank) for m in range(rank)
        }
        data = FusionData([f"x{i}" for i in range(rank)], rng.randrange(rank), mult)
        assert_fusion_matches(data)
        object_type = [rng.choice((BOSONIC, MAJORANA)) for _ in range(rank)]
        parities = {(i, j, m, a): rng.randint(0, 1) for (i, j, m), n in data.mult.items() for a in range(1, n + 1)}
        assert_super_matches(SuperFusionData(data, parities, object_type))


def test_associativity_defects_signed_values():
    # summand lists with values of either sign (as build_sgr passes at
    # pi = -1), so a side can cancel to 0 while the other does not
    rng = random.Random(2)
    zero_sides = 0
    for _ in range(60):
        rank = rng.randint(1, 4)
        products = [
            [[(m, rng.choice((-2, -1, 1, 2))) for m in range(rank) if rng.random() < 0.5] for _ in range(rank)]
            for _ in range(rank)
        ]
        weights = [rng.randint(1, 2) for _ in range(rank)]
        want = []
        for i in range(rank):
            for j in range(rank):
                for k in range(rank):
                    for n in range(rank):
                        lhs = sum(x * y * weights[m] for m, x in products[i][j] for p, y in products[m][k] if p == n)
                        rhs = sum(x * y * weights[t] for t, x in products[j][k] for p, y in products[i][t] if p == n)
                        if lhs != rhs:
                            want.append((i, j, k, n, lhs, rhs))
        assert associativity_defects(products, weights) == want
        zero_sides += sum(1 for d in want if 0 in d[4:])
    assert zero_sides


# -- the pi-Grothendieck ring --------------------------------------------------------------


def test_sgr_matches_reference_on_catalog_and_mutants():
    reached = 0
    for name, data in catalog_superfusion():
        assert outcome(build_sgr, data)[0] == "ring", name
        assert outcome(build_sgr, data) == outcome(reference_build_sgr, data)
        for mutant in mutants(data):
            got = outcome(build_sgr, mutant)
            assert got == outcome(reference_build_sgr, mutant), name
            reached += got[0] == "error" and got[1].startswith("ring is not associative")
    assert reached >= 10


def test_sgr_z3_parity_broken_is_not_associative():
    data = z3_parity_broken()
    assert validate_superfusion(data).ok
    assert outcome(reference_build_sgr, data) == ("error", Z3_FAILURE)
    assert outcome(build_sgr, data) == ("error", Z3_FAILURE)


def random_zpi(rng):
    return ZPi(rng.randint(-2, 2), rng.randint(-2, 2))


def test_sgr_kernel_on_random_rings():
    # arbitrary constants, also non-canonical on Majorana targets (a + b*pi
    # with b != 0, or a + b = 0) and negative ones
    rng = random.Random(9)
    seen = set()
    for _ in range(200):
        rank = rng.randint(1, 4)
        majorana = [i for i in range(rank) if rng.random() < 0.4]
        constants = {
            (i, j, m): random_zpi(rng)
            for i in range(rank) for j in range(rank) for m in range(rank)
            if rng.random() < 0.5
        }
        if rng.random() < 0.3:
            # a commutative, associative ring: Z[pi] on one class, possibly Majorana
            constants = {(0, 0, 0): ZPi(1, 0)}
        ring = SGrRing([f"y{i}" for i in range(rank)], 0, majorana, constants)
        want = reference_ring_associativity(ring)
        try:
            grothendieck._require_associative(ring)
            got = None
        except GrothendieckError as exc:
            got = str(exc)
        assert got == want
        seen.add(want is None)
    assert seen == {True, False}


def test_sgr_majorana_source_unbalanced_at_bosonic_target():
    # x is Majorana and [x][a] = pi[1]: its constant at the Bosonic 1 is
    # unbalanced, so at pi = -1 the summand x still enters the contraction
    # (with its pi = 1 value) and only the Majorana outputs drop out.
    # Dropping x's summands altogether reports the unit triple (1, x, a).
    unit = {key: ZPi(1, 0) for j in range(3) for key in ((0, j, j), (j, 0, j))}
    ring = SGrRing(["1", "a", "x"], 0, [2], {**unit, (2, 1, 0): ZPi(0, 1)})
    want = "ring is not associative at (a, x, a): 0 != pi[a]"
    assert reference_ring_associativity(ring) == want
    with pytest.raises(GrothendieckError) as info:
        grothendieck._require_associative(ring)
    assert str(info.value) == want
    # [x][x] = pi[1] is associative: Z[pi] with x = pi x
    unit = {key: ZPi(1, 0) for j in range(2) for key in ((0, j, j), (j, 0, j))}
    ring = SGrRing(["1", "x"], 0, [1], {**unit, (1, 1, 0): ZPi(0, 1)})
    assert reference_ring_associativity(ring) is None
    grothendieck._require_associative(ring)


def dense_defects(products, weights):
    """associativity_defects as a dense loop over every (i, j, k, n)."""
    rank = len(products)
    want = []
    for i in range(rank):
        for j in range(rank):
            for k in range(rank):
                for n in range(rank):
                    lhs = sum(x * y * weights[m] for m, x in products[i][j] for p, y in products[m][k] if p == n)
                    rhs = sum(x * y * weights[t] for t, x in products[j][k] for p, y in products[i][t] if p == n)
                    if lhs != rhs:
                        want.append((i, j, k, n, lhs, rhs))
    return want


def test_associativity_defects_large_multiplicities():
    # digits as large as the bound width * big**2 * wmax: a shift below the
    # one the exactness proof needs carries digits into their neighbours
    big = 10**6
    signs = [[1, 1], [1, -1]]
    products = [[[(m, signs[i][j] * big) for m in range(2)] for j in range(2)] for i in range(2)]
    for weights in ([2, 2], [2, -2], [-1, 2]):
        want = dense_defects(products, weights)
        assert want
        assert associativity_defects(products, weights) == want
    assert max(abs(x) for d in dense_defects(products, [2, 2]) for x in d[4:]) == 2 * big**2 * 2
    rng = random.Random(16)
    for _ in range(40):
        rank = rng.randint(1, 4)
        products = [
            [[(m, rng.randint(-big, big)) for m in range(rank) if rng.random() < 0.6] for _ in range(rank)]
            for _ in range(rank)
        ]
        weights = [rng.choice((-2, -1, 1, 2)) for _ in range(rank)]
        assert associativity_defects(products, weights) == dense_defects(products, weights)


def test_relations_text_matches_sgr_multiply():
    # each line reads one row of structure constants; on arbitrary rings,
    # non-canonical Majorana constants included, the text is that of the
    # basis products
    rng = random.Random(5)
    for _ in range(100):
        rank = rng.randint(1, 4)
        majorana = [i for i in range(rank) if rng.random() < 0.4]
        constants = {
            (i, j, m): random_zpi(rng)
            for i in range(rank) for j in range(rank) for m in range(rank)
            if rng.random() < 0.5
        }
        ring = SGrRing([f"y{i}" for i in range(rank)], 0, majorana, constants)
        lines = grothendieck.relations_text(ring)
        for i in range(rank):
            for j in range(rank):
                product = sgr_multiply(ring, ring.basis_vector(i), ring.basis_vector(j))
                assert lines[i * rank + j].endswith(f" = {ring.format_element(product)}")
