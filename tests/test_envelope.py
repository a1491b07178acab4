"""Tests for the underlying-category construction and the 6j lift."""

import pytest

from sfckit import envelope
from sfckit.catalog import build_entry, ck_super, ising_super, superfusion_entries_with_tables
from sfckit.envelope import (
    UnderlyingLabel,
    build_label_set,
    lift_6j,
    render_label,
    underlying_fusion_rules,
    verify_lift,
)
from sfckit.fusion import SixJTable, admissible_decuples, check_pentagon, validate_fusion
from sfckit.scalars import ONE, root_of_unity
from sfckit.superfusion import SuperFusionError
from tests.test_fusion import ising_exact_table
from tests.test_superfusion import pointed_super, z2_fermionic_table


def test_label_sets():
    # all-Bosonic pointed data doubles every label
    pointed = pointed_super(lambda a, b: a * b)
    labels = build_label_set(pointed)
    assert labels == [
        UnderlyingLabel(0, 0), UnderlyingLabel(0, 1),
        UnderlyingLabel(1, 0), UnderlyingLabel(1, 1),
    ]

    ising = ising_super()
    assert [render_label(ising, lab) for lab in build_label_set(ising)] == ["1^0", "1^1", "X^0"]

    c2 = ck_super(2)
    assert [render_label(c2, lab) for lab in build_label_set(c2)] == ["V0^0", "V0^1", "V1^0"]


def test_label_count_rule():
    for data in (ising_super(), ck_super(6), ck_super(10), pointed_super(lambda a, b: 0)):
        n_majorana = sum(1 for i in range(data.rank) if data.is_majorana(i))
        n_bosonic = data.rank - n_majorana
        assert len(build_label_set(data)) == 2 * n_bosonic + n_majorana


def test_underlying_rules_pointed():
    omega = lambda a, b: a * b
    data = pointed_super(omega)
    rules = underlying_fusion_rules(data)
    index = {lab: pos for pos, lab in enumerate(rules.labels)}
    for g in range(2):
        for a in range(2):
            for h in range(2):
                for b in range(2):
                    for c in range(2):
                        want = 1 if c == (a + b + omega(g, h)) % 2 else 0
                        got = rules.n(
                            index[f"{g}^{a}"], index[f"{h}^{b}"], index[f"{(g + h) % 2}^{c}"]
                        )
                        assert got == want
    assert validate_fusion(rules).ok


def test_underlying_rules_ising():
    ising = ising_super()
    rules = underlying_fusion_rules(ising)
    index = {lab: pos for pos, lab in enumerate(rules.labels)}
    x = index["X^0"]
    # the two-dimensional Hom of X (x) X splits by parity into 1^0 and 1^1
    assert rules.n(x, x, index["1^0"]) == 1
    assert rules.n(x, x, index["1^1"]) == 1
    # these are exactly the Ising fusion rules with p = 1^1
    p = index["1^1"]
    assert rules.n(p, p, index["1^0"]) == 1
    assert rules.n(p, x, x) == 1 and rules.n(x, p, x) == 1
    assert validate_fusion(rules).ok


def test_underlying_rules_all_even_is_grade_diagonal():
    data = pointed_super(lambda a, b: 0)
    rules = underlying_fusion_rules(data)
    index = {lab: pos for pos, lab in enumerate(rules.labels)}
    for g in range(2):
        for h in range(2):
            for a in range(2):
                for b in range(2):
                    for c in range(2):
                        want = data.base.n(g, h, (g + h) % 2) if c == (a + b) % 2 else 0
                        assert rules.n(
                            index[f"{g}^{a}"], index[f"{h}^{b}"], index[f"{(g + h) % 2}^{c}"]
                        ) == want


def test_underlying_sum_rule():
    for data in (ising_super(), ck_super(6)):
        rules = underlying_fusion_rules(data)
        index = {lab: pos for pos, lab in enumerate(rules.labels)}
        for (i, j, m), total in data.base.mult.items():
            even, odd = data.parity_counts(i, j, m)
            assert even + odd == total
            for a in (0,) if data.is_majorana(i) else (0, 1):
                for b in (0,) if data.is_majorana(j) else (0, 1):
                    if data.is_majorana(m):
                        # both parity classes live on the single representative
                        got = rules.n(
                            index[f"{data.labels[i]}^{a}"],
                            index[f"{data.labels[j]}^{b}"],
                            index[f"{data.labels[m]}^0"],
                        )
                        assert got == (even if (a + b) % 2 == 0 else odd)
                    else:
                        spread = sum(
                            rules.n(
                                index[f"{data.labels[i]}^{a}"],
                                index[f"{data.labels[j]}^{b}"],
                                index[f"{data.labels[m]}^{c}"],
                            )
                            for c in (0, 1)
                        )
                        assert spread == total


def test_underlying_validates_for_catalog_entries():
    for entry in (build_entry("ising"), build_entry("ck", 6), build_entry("super-z2", 1)):
        rules = underlying_fusion_rules(entry.data)
        assert validate_fusion(rules).ok


def test_lift_sign_convention():
    data = pointed_super(lambda a, b: a * b)
    table = z2_fermionic_table(root_of_unity(4, 1))
    lifted = lift_6j(data, table)
    rules = underlying_fusion_rules(data)
    index = {lab: pos for pos, lab in enumerate(rules.labels)}
    zeta4 = root_of_unity(4, 1)

    def lifted_value(g, a, h, b, k, c):
        gh = (g + h) % 2
        ghk = (gh + k) % 2
        hk = (h + k) % 2
        omega = lambda x, y: x * y
        key = (
            index[f"{g}^{a}"],
            index[f"{h}^{b}"],
            index[f"{gh}^{(a + b + omega(g, h)) % 2}"],
            index[f"{k}^{c}"],
            index[f"{ghk}^{(a + b + c + omega(g, h) + omega(gh, k)) % 2}"],
            index[f"{hk}^{(b + c + omega(h, k)) % 2}"],
            1, 1, 1, 1,
        )
        return lifted.entries[key]

    # c = 0 slots are unchanged; the c = 1 slot above F~(1,1,1) picks up -1
    for a in range(2):
        for b in range(2):
            assert lifted_value(1, a, 1, b, 1, 0) == zeta4
            assert lifted_value(1, a, 1, b, 1, 1) == -zeta4
            assert lifted_value(0, a, 1, b, 1, 1) == ONE  # omega(0,1) = 0, F~ = 1
    assert len(lifted) == 64


def test_lift_all_even_has_no_signs():
    data = pointed_super(lambda a, b: 0)
    table = z2_fermionic_table(ONE)
    lifted = lift_6j(data, table)
    assert all(v == ONE for v in lifted.entries.values())
    assert len(lifted) == 64


def test_lift_refuses_bad_input():
    data = pointed_super(lambda a, b: a * b)
    with pytest.raises(SuperFusionError):
        lift_6j(data, z2_fermionic_table(ONE))  # fails the super pentagon
    result = verify_lift(data, z2_fermionic_table(ONE))
    assert not result.ok
    assert result.super_pentagon.total_violations > 0
    assert result.sixj is None and result.pentagon is None


def test_twist_refuses_off_support_entries_without_assert():
    # omega(g, h) = g is no 2-cocycle, so some entries sit off the
    # parity-admissible support; the twist raises, also under python -O
    data = pointed_super(lambda a, b: a)
    with pytest.raises(SuperFusionError, match="not parity-admissible"):
        envelope._twist(data, z2_fermionic_table(ONE))


def test_twist_refuses_an_odd_entry_whose_grades_are_all_skipped():
    # on Ising the only grade triple of this entry makes m = X odd, which a
    # Majorana object lacks; its parities still sum to 1, so it has no lift
    key = (1, 1, 0, 1, 1, 0, 2, 1, 1, 1)
    with pytest.raises(SuperFusionError, match="not parity-admissible"):
        envelope._twist(ising_super(), SixJTable({key: ONE}))


def test_verify_lift_passes_for_catalog_tables():
    for entry in superfusion_entries_with_tables():
        result = verify_lift(entry.data, entry.sixj)
        assert result.ok, entry.describe()
        assert result.fusion_validation.ok
        assert result.pentagon.ok
        # every lifted entry sits on an admissible decuple of the graded rules
        from sfckit.fusion import decuple_is_admissible

        assert all(
            decuple_is_admissible(result.underlying, key) for key in result.sixj.entries
        )


def test_verify_lift_pointed_covers_full_extension():
    entry = build_entry("super-z2", 1)
    result = verify_lift(entry.data, entry.sixj)
    assert result.pentagon.checked == 4**4
    assert result.underlying.rank == 4


def test_mutated_lift_fails_pentagon():
    entry = build_entry("super-z2", 1)
    result = verify_lift(entry.data, entry.sixj)
    key = sorted(result.sixj.entries)[17]
    entries = dict(result.sixj.entries)
    entries[key] = -entries[key]
    report = check_pentagon(result.underlying, SixJTable(entries))
    assert not report.ok


def _untwisted_ising_entries():
    """Each admissible decuple of the Kitaev Ising table on the graded rules
    of ising_super(), written in the unambiguous graded form, as its base
    decuple and its value with the (-1)^(c * s_alpha) twist undone."""
    data = ising_super()
    rules = underlying_fusion_rules(data)
    _, ising_table = ising_exact_table()
    labels = build_label_set(data)
    inverse = {}
    for (i, j, m), classes in data._parity_classes.items():
        for s, alphas in enumerate(classes):
            inverse[(i, j, m, s)] = dict(enumerate(alphas, 1))
    for gkey in admissible_decuples(rules):
        graded = [(labels[x].base, labels[x].grade) for x in gkey[:6]]
        (i, a), (j, b), (m, gm), (k, c), (n, gn), (t, gt) = graded
        s_a = (a + b + gm) % 2
        s_b = (gm + c + gn) % 2
        s_e = (b + c + gt) % 2
        s_f = (a + gt + gn) % 2
        base = (
            i, j, m, k, n, t,
            inverse[(i, j, m, s_a)][gkey[6]],
            inverse[(m, k, n, s_b)][gkey[7]],
            inverse[(j, k, t, s_e)][gkey[8]],
            inverse[(i, t, n, s_f)][gkey[9]],
        )
        value = ising_table.entries[gkey]
        yield base, (-value if (c and s_a) else value)


def descended_ising_table() -> SixJTable:
    """The 29 base entries on ising_super() that the Kitaev Ising table
    determines: the table descended through the inverse of the twist."""
    return SixJTable(dict(_untwisted_ising_entries()))


def test_exact_ising_table_is_grade_coherent():
    """The Ising fusion category is the graded category of the Ising
    superfusion datum.  Writing each of its admissible decuples in the
    unambiguous graded form and undoing the (-1)^(c * s_alpha) twist must
    give a value that depends only on the base decuple, across all grade
    choices.  This pins the grade bookkeeping and the sign convention
    against honest data with a Majorana object."""
    rules = underlying_fusion_rules(ising_super())
    ising_data, _ = ising_exact_table()
    assert list(rules.labels) == ["1^0", "1^1", "X^0"]
    assert rules.mult == ising_data.mult

    grouped: dict[tuple, set] = {}
    count = 0
    for base, untwisted in _untwisted_ising_entries():
        count += 1
        grouped.setdefault(base, set()).add(str(untwisted))
    assert count == 36
    assert len(grouped) == 29
    assert all(len(values) == 1 for values in grouped.values())


def test_twist_of_the_descended_ising_table_is_the_kitaev_table():
    # _twist on honest data with a Majorana object, entry by entry
    descended = descended_ising_table()
    assert len(descended) == 29
    lifted = envelope._twist(ising_super(), descended)
    kitaev = ising_exact_table()[1].entries
    assert len(lifted) == len(kitaev) == 36
    assert lifted.entries == kitaev
