"""Tests for superfusion data, parity admissibility, and the super pentagon."""

import itertools

import pytest

from sfckit.catalog import (
    build_entry,
    ck_super,
    ising_super,
    omega_product_z2,
    pointed_superfusion_data,
    z2_supercocycle,
)
from sfckit.cocycles import cyclic_group
from sfckit.fusion import FusionError, admissible_decuples, check_pentagon
from sfckit.reporting import Violation
from sfckit.scalars import ONE, ZERO, Cyclotomic, root_of_unity
from sfckit.superfusion import (
    BOSONIC,
    MAJORANA,
    FermionicSixJTable,
    SuperFusionData,
    SuperFusionError,
    check_super_pentagon,
    check_support,
    classify_objects,
    is_parity_admissible,
    validate_superfusion,
)
from tests.cases import CATALOG, all_even, pointed_super, z2_pointed, z2_table


def test_construction_errors():
    base = z2_pointed()
    good = {(a, b, (a + b) % 2, 1): 0 for a in range(2) for b in range(2)}
    with pytest.raises(SuperFusionError):
        SuperFusionData(base, dict(list(good.items())[:-1]), (BOSONIC, BOSONIC))  # missing parity
    bad_bit = dict(good)
    bad_bit[(1, 1, 0, 1)] = 2
    with pytest.raises(SuperFusionError):
        SuperFusionData(base, bad_bit, (BOSONIC, BOSONIC))
    extraneous = dict(good)
    extraneous[(0, 0, 1, 1)] = 0  # not an admissible quadruple
    with pytest.raises(SuperFusionError):
        SuperFusionData(base, extraneous, (BOSONIC, BOSONIC))
    with pytest.raises(SuperFusionError):
        SuperFusionData(base, good, (BOSONIC, "weird"))


def test_classify_objects():
    ising = ising_super()
    report = classify_objects(ising)
    assert report.ok
    assert report.n_bosonic == 1 and report.n_majorana == 1
    assert report.object_type == (BOSONIC, MAJORANA)

    c2 = ck_super(2)
    report = classify_objects(c2)
    assert report.ok
    assert report.object_type == (BOSONIC, MAJORANA)  # V0 Bosonic, V1 Majorana

    pointed = pointed_super(lambda a, b: a * b)
    report = classify_objects(pointed)
    assert report.ok and report.n_bosonic == 2 and report.n_majorana == 0

    # the Ising rules typed all-Bosonic: End(X) is two-dimensional
    report = classify_objects(all_even(ising.base))
    assert not report.ok
    assert report.summary() == "objects: 2 bosonic, 0 majorana; MISMATCHES: ('X', 'bosonic', 'End dim 2')"
    assert classify_objects(ising).summary() == "objects: 1 bosonic, 1 majorana"


def test_classify_reports_type_mismatches():
    # Ising rules typed all-Bosonic: End(X) has dimension 2, so X is flagged
    ising = ising_super()
    data = SuperFusionData(ising.base, ising.parities, (BOSONIC, BOSONIC))
    report = classify_objects(data)
    assert not report.ok
    assert report.mismatches and report.mismatches[0][0] == "X"


def test_classify_rejects_majorana_unit():
    base = z2_pointed()
    parities = {(a, b, (a + b) % 2, 1): 0 for a in range(2) for b in range(2)}
    data = SuperFusionData(base, parities, (MAJORANA, BOSONIC))
    with pytest.raises(SuperFusionError):
        classify_objects(data)
    report = validate_superfusion(data)
    assert not report.law("unit-bosonic").ok


def test_parity_admissibility_pointed():
    # omega(g,h) = gh: the (1,1,1) decuple has pattern (1,0,1,0)
    data = pointed_super(lambda a, b: a * b)
    decuple = (1, 1, 0, 1, 1, 0, 1, 1, 1, 1)
    s = data.parities
    assert (
        s[(1, 1, 0, 1)], s[(0, 1, 1, 1)], s[(1, 1, 0, 1)], s[(1, 0, 1, 1)]
    ) == (1, 0, 1, 0)
    assert is_parity_admissible(data, decuple)
    # all-even parities are always admissible
    even = pointed_super(lambda a, b: 0)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                ab = (a + b) % 2
                assert is_parity_admissible(even, (a, b, ab, c, (ab + c) % 2, (b + c) % 2, 1, 1, 1, 1))


def test_parity_admissibility_oddball_pattern():
    # omega(g,h) = g is not a cocycle; it produces a (1, 0, 0, 0)-type pattern
    data = pointed_super(lambda a, b: a)
    decuple = (1, 0, 1, 0, 1, 0, 1, 1, 1, 1)
    s = data.parities
    pattern = (s[(1, 0, 1, 1)], s[(1, 0, 1, 1)], s[(0, 0, 0, 1)], s[(1, 0, 1, 1)])
    assert pattern.count(1) % 2 == 1
    assert not is_parity_admissible(data, decuple)
    # and the right-unit parity law catches it
    assert not validate_superfusion(data).law("unit-parity").ok


def test_parity_admissibility_requires_admissible_decuple():
    data = pointed_super(lambda a, b: 0)
    with pytest.raises(SuperFusionError):
        is_parity_admissible(data, (0, 0, 1, 0, 0, 0, 1, 1, 1, 1))


def test_validate_ising_and_ck():
    assert validate_superfusion(ising_super()).ok
    for k in (2, 6, 10):
        assert validate_superfusion(ck_super(k)).ok


def test_validate_majorana_balance_violation():
    ising = ising_super()
    parities = dict(ising.parities)
    parities[(1, 1, 0, 2)] = 0  # both X(x)X basis vectors even now
    broken = SuperFusionData(ising.base, parities, ising.object_type)
    report = validate_superfusion(broken)
    assert not report.law("majorana-balance").ok
    assert (1, 1, 0, 2, 0) in report.law("majorana-balance").violations


def test_validate_super_unit_law():
    # Ising rules typed all-Bosonic break the d-corrected unit law
    ising = ising_super()
    data = SuperFusionData(ising.base, ising.parities, (BOSONIC, BOSONIC))
    report = validate_superfusion(data)
    assert not report.law("unit").ok
    assert not report.law("duality").ok


def test_check_support():
    data = pointed_super(lambda a, b: a * b)
    assert check_support(data, FermionicSixJTable({})).ok
    pa_key = (1, 1, 0, 1, 1, 0, 1, 1, 1, 1)
    assert check_support(data, FermionicSixJTable({pa_key: root_of_unity(4, 1)})).ok

    # nonzero entry with a non-cancelling parity pattern
    skew = pointed_super(lambda a, b: a)
    bad_key = (1, 0, 1, 0, 1, 0, 1, 1, 1, 1)
    report = check_support(skew, FermionicSixJTable({bad_key: ONE}))
    assert not report.ok
    assert report.violations[0].instance == bad_key
    # a zero entry there is fine under the zero convention
    from sfckit.scalars import ZERO

    assert check_support(skew, FermionicSixJTable({bad_key: ZERO})).ok
    # but off the admissible support it is structural
    with pytest.raises(FusionError):
        check_support(data, FermionicSixJTable({(0, 0, 1, 0, 0, 0, 1, 1, 1, 1): ONE}))


def test_check_support_matches_parity_oracle():
    # every parity assignment on Z/2 rules, a nonzero entry on every admissible
    # decuple but one; the oracle asks is_parity_admissible entry by entry
    keys = list(admissible_decuples(z2_pointed()))
    table = FermionicSixJTable({key: ZERO if pos == 5 else ONE for pos, key in enumerate(keys)})
    for bits in itertools.product((0, 1), repeat=4):
        data = pointed_super(lambda a, b: bits[2 * a + b])
        s = data.parities
        want = [
            Violation(
                instance=key,
                detail=f"parity pattern {(s[(i, j, m, al)], s[(m, k, n, be)], s[(j, k, t, et)], s[(i, t, n, ph)])} does not cancel",
            )
            for key in sorted(table.entries)
            if table.entries[key] and not is_parity_admissible(data, key)
            for i, j, m, k, n, t, al, be, et, ph in [key]
        ]
        report = check_support(data, table)
        assert report.violations == want
        assert (report.ok, report.checked, report.total_violations) == (not want, len(keys), len(want))


def test_super_pentagon_zeta4_passes():
    data = pointed_super(lambda a, b: a * b)
    report = check_super_pentagon(data, z2_table(root_of_unity(4, 1)))
    assert report.ok
    assert report.checked == 16


def test_super_pentagon_all_ones_fails_exactly_at_1111():
    data = pointed_super(lambda a, b: a * b)
    report = check_super_pentagon(data, z2_table(ONE), max_violations=None)
    assert not report.ok
    assert report.total_violations == 1
    assert report.violations[0].instance[:4] == (1, 1, 1, 1)
    assert report.violations[0].lhs == 1
    assert report.violations[0].rhs == -1


def test_super_pentagon_rejects_off_parity_support():
    skew = pointed_super(lambda a, b: a)
    bad_key = (1, 0, 1, 0, 1, 0, 1, 1, 1, 1)
    with pytest.raises(SuperFusionError):
        check_super_pentagon(skew, FermionicSixJTable({bad_key: ONE}))


def test_all_even_reduces_to_plain_pentagon_instance_by_instance():
    even = pointed_super(lambda a, b: 0)
    broken = z2_table(Cyclotomic.rational(3))
    super_report = check_super_pentagon(even, broken, max_violations=None)
    plain_report = check_pentagon(even.base, broken, max_violations=None)
    assert super_report.ok == plain_report.ok is False
    assert super_report.checked == plain_report.checked
    assert [v.instance for v in super_report.violations] == [
        v.instance for v in plain_report.violations
    ]
    assert all(
        sv.lhs == pv.lhs and sv.rhs == pv.rhs
        for sv, pv in zip(super_report.violations, plain_report.violations)
    )


def test_super_pentagon_matches_supercocycle_projection():
    data, table = pointed_superfusion_data(
        cyclic_group(2), omega_product_z2(), z2_supercocycle(1).values
    )
    assert check_super_pentagon(data, table).ok
    entry = build_entry("super-z2", 1)
    assert check_super_pentagon(entry.data, entry.sixj, jobs=2).ok


def test_parity_classes_split_each_hom_space_by_parity():
    seen = 0
    for name, params in CATALOG:
        entry = build_entry(name, *params)
        if entry.kind != "superfusion":
            continue
        data = entry.data
        assert data._parity_classes.keys() == data.base.mult.keys()
        for (i, j, m), nijm in data.base.mult.items():
            seen += 1
            bits = [data.parity(i, j, m, alpha) for alpha in range(1, nijm + 1)]
            even, odd = data._parity_classes[(i, j, m)]
            assert even == tuple(alpha for alpha, bit in enumerate(bits, 1) if bit == 0)
            assert odd == tuple(alpha for alpha, bit in enumerate(bits, 1) if bit == 1)
            assert data.parity_counts(i, j, m) == (bits.count(0), bits.count(1))
    assert seen > 0
    assert ising_super().parity_counts(0, 0, 1) == (0, 0)  # an inadmissible triple


@pytest.mark.parametrize(
    "parities, object_type, text",
    [
        ({(0, 0, 0): 0}, (BOSONIC, BOSONIC), "parity key (0, 0, 0) is not an index quadruple"),
        ({(0, 0, 0, 1, 1): 0}, (BOSONIC, BOSONIC), "parity key (0, 0, 0, 1, 1) is not an index quadruple"),
        ({(0, 0, 0, "1"): 0}, (BOSONIC, BOSONIC), "parity key (0, 0, 0, '1') is not an index quadruple"),
        ({(0, 0.0, 0, 1): 0}, (BOSONIC, BOSONIC), "parity key (0, 0.0, 0, 1) is not an index quadruple"),
        ({(0, 2, 0, 1): 0}, (BOSONIC, BOSONIC), "parity key (0, 2, 0, 1) out of range"),
        ({(-1, 0, 0, 1): 0}, (BOSONIC, BOSONIC), "parity key (-1, 0, 0, 1) out of range"),
        ({(0, 0, 1, 1): 0}, (BOSONIC, BOSONIC), "parity key (0, 0, 1, 1) is not an admissible quadruple"),
        ({(0, 0, 0, 2): 0}, (BOSONIC, BOSONIC), "parity key (0, 0, 0, 2) is not an admissible quadruple"),
        ({(0, 0, 0, 1): 2}, (BOSONIC, BOSONIC), "parity s(0, 0, 0, 1) = 2 is not a bit"),
        ({(0, 0, 0, 1): 0}, (BOSONIC, BOSONIC), "no parity assigned to quadruple (0, 1, 1, 1)"),
        ({}, (BOSONIC,), "object_type has 1 entries for 2 labels"),
        ({}, (BOSONIC, "weird"), "unknown object type 'weird'"),
        ({}, {"0": BOSONIC}, "object_type missing label '1'"),
        # a bool is an int subclass, and an index or a parity bit is a plain int
        (
            {(0, 0, 0, 1): 0, (True, False, True, True): 0},
            (BOSONIC, BOSONIC),
            "parity key (True, False, True, True) is not an index quadruple",
        ),
        ({(0, 0, 0, 1): False}, (BOSONIC, BOSONIC), "parity s(0, 0, 0, 1) = False is not a bit"),
        ({5: 0}, (BOSONIC, BOSONIC), "parity key 5 is not an index quadruple"),
        ({}, {"0": BOSONIC, "1": BOSONIC, "nope": BOSONIC}, "object_type has unknown label 'nope'"),
    ],
)
def test_construction_error_texts(parities, object_type, text):
    with pytest.raises(SuperFusionError) as info:
        SuperFusionData(z2_pointed(), parities, object_type)
    assert str(info.value) == text
