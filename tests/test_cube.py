"""The G^4 kernel (sfckit._cube) against the row engine (_rowscan.row_scan).

fusion._run_scan scans the (super) pentagon of a group's fusion rules with
the 3-(super)cocycle kernel of _cube.  The row engine stays the oracle: on
every input below, at max_violations 0, 1, 3 and None, both give the same
report: checked, the total, the violations in order with their exact
sides, and the warnings.  Rules that are not a group's take the row
engine.
"""

import random
from itertools import permutations
from math import lcm

import pytest

from sfckit import _cube, _rowscan, fusion
from sfckit.catalog import build_entry, pointed_fusion_data, pointed_superfusion_data
from sfckit.cocycles import GroupTable, TwoCocycleZ2, cyclic_group
from sfckit.envelope import lift_6j, underlying_fusion_rules
from sfckit.fusion import FusionData, SixJTable, admissible_decuples, check_pentagon
from sfckit.scalars import ZERO, root_of_unity
from sfckit.superfusion import check_super_pentagon, is_parity_admissible
from tests.test_kernel import flip, generic_factor, table_order
from tests.test_scalars import mixed_order_file

LIMITS = (0, 1, 3, None)


def s3() -> GroupTable:
    """The symmetric group on three letters, permutations in lexicographic order."""
    perms = list(permutations(range(3)))
    index = {p: x for x, p in enumerate(perms)}
    product = [[index[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms]
    return GroupTable(product, identity=0)


def klein() -> GroupTable:
    """Z/2 x Z/2, (a1, a2) at index 2 a1 + a2."""
    return GroupTable([[a ^ b for b in range(4)] for a in range(4)], identity=0)


def coboundary_cube(group, seed, orders=(6,)):
    """A 3-cocycle on group: the coboundary of a seeded 2-cochain of roots of unity."""
    rng = random.Random(seed)
    n, mul = group.order, group.product
    beta = [[root_of_unity(rng.choice(orders), rng.randrange(12)) for _ in range(n)] for _ in range(n)]
    return [
        [[beta[b][c] * beta[a][mul[b][c]] / (beta[mul[a][b]][c] * beta[a][b]) for c in range(n)] for b in range(n)]
        for a in range(n)
    ]


def root_gauge(data, table, seed, orders):
    """The table times the coboundary of seeded roots of unity of the given
    orders, with no division: same verdicts, conductor lcm(*orders)."""
    rng = random.Random(seed)
    u = {triple: (rng.choice(orders), rng.randrange(1, 100)) for triple in sorted(data.mult)}

    def zeta(triple, sign):
        order, k = u[triple]
        return root_of_unity(order, sign * k)

    entries = {}
    for key, value in sorted(table.entries.items()):
        i, j, m, k, n, t = key[:6]
        entries[key] = value * zeta((i, j, m), 1) * zeta((m, k, n), 1) * zeta((j, k, t), -1) * zeta((i, t, n), -1)
    return SixJTable(entries)


def random_omega(group, seed) -> TwoCocycleZ2:
    """Bits with omega(e, .) = omega(., e) = 0 and random elsewhere: as a rule not a 2-cocycle."""
    rng = random.Random(seed)
    e, n = group.identity, range(group.order)
    return TwoCocycleZ2([[0 if e in (a, b) else rng.randrange(2) for b in n] for a in n])


def mutants(table, seed):
    """table, three sign flips, two entries set to zero and two left out."""
    keys = sorted(table.entries)
    rng = random.Random(seed)
    spots = rng.sample(range(len(keys)), min(3, len(keys)))
    out = [table] + [flip(table, at) for at in spots]
    for at in spots[:2]:
        out.append(SixJTable({**table.entries, keys[at]: ZERO}))
        out.append(SixJTable({key: v for key, v in table.entries.items() if key != keys[at]}))
    return out


def even_part(data, table):
    """The entries of table on parity-admissible decuples, so that the super
    pentagon's support check passes whatever the parities."""
    return SixJTable({key: v for key, v in table.entries.items() if is_parity_admissible(data, key)})


def assert_same_report(got, want):
    assert (got.name, got.ok, got.checked, got.total_violations) == (
        want.name,
        want.ok,
        want.checked,
        want.total_violations,
    )
    assert [(v.instance, v.lhs, v.rhs) for v in got.violations] == [(v.instance, v.lhs, v.rhs) for v in want.violations]
    assert got.warnings == want.warnings
    assert got.to_json() == want.to_json()


@pytest.fixture
def kernel_calls(monkeypatch):
    """The number of _cube.pentagon_scan runs so far, in a list of one."""
    calls = [0]
    real = _cube.pentagon_scan

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(_cube, "pentagon_scan", counting)
    return calls


def assert_paths_agree(check, data, table, kernel_calls, monkeypatch):
    """check(data, table) at every limit by the dispatched scan, which must
    be the kernel, and by _rowscan.row_scan; returns the full report."""
    for k in LIMITS:
        before = kernel_calls[0]
        got = check(data, table, max_violations=k)
        assert kernel_calls[0] == before + 1
        with monkeypatch.context() as mp:
            mp.setattr(fusion, "_run_scan", _rowscan.row_scan)
            want = check(data, table, max_violations=k)
        assert kernel_calls[0] == before + 1
        assert_same_report(got, want)
    return got


def assert_scans_agree(data, entries, parities):
    """_run_scan and _rowscan.row_scan on raw entries (no support check), at every limit."""
    for k in LIMITS:
        got = fusion._run_scan(data, entries, parities, k)
        want = _rowscan.row_scan(data, entries, parities, k)
        assert got[1:] == want[1:]
        assert [(v.instance, v.lhs, v.rhs) for v in got[0]] == [(v.instance, v.lhs, v.rhs) for v in want[0]]
        assert [v.to_json() for v in got[0]] == [v.to_json() for v in want[0]]


POINTED = [
    ("trivial", ()),
    ("trivial-super", ()),
    ("vec-zn", (1,)),
    ("vec-zn", (2,)),
    ("vec-zn", (3, 2)),
    ("vec-zn", (4,)),
    ("vec-zn", (5,)),
    ("vec-zn", (6, 5)),
    ("super-z2", (1,)),
    ("super-z2", (3,)),
    ("super-zn-even", (2,)),
    ("super-zn-even", (3, 2)),
    ("super-zn-even", (4,)),
]


@pytest.mark.parametrize("name, params", POINTED)
def test_pointed_catalog_tables_and_lifts(name, params, kernel_calls, monkeypatch):
    entry = build_entry(name, *params)
    table = entry.sixj if entry.sixj is not None else SixJTable({})
    if entry.kind == "fusion":
        for case in mutants(table, seed=len(table)):
            assert_paths_agree(check_pentagon, entry.data, case, kernel_calls, monkeypatch)
        return
    for case in mutants(table, seed=len(table)):
        assert_paths_agree(check_super_pentagon, entry.data, case, kernel_calls, monkeypatch)
    rules, lifted = underlying_fusion_rules(entry.data), lift_6j(entry.data, table)
    for case in mutants(lifted, seed=len(lifted)):
        assert_paths_agree(check_pentagon, rules, case, kernel_calls, monkeypatch)


def test_mutants_fail_on_both_paths(kernel_calls, monkeypatch):
    # the mutants above are not all passes: a flip breaks vec-zn 4 on both
    entry = build_entry("vec-zn", 4)
    report = assert_paths_agree(check_pentagon, entry.data, flip(entry.sixj), kernel_calls, monkeypatch)
    assert not report.ok and report.total_violations > 3
    report = assert_paths_agree(check_pentagon, entry.data, SixJTable({}), kernel_calls, monkeypatch)
    assert report.ok and report.checked == 4**4 and report.warnings


@pytest.mark.parametrize("orders", [(11, 13), (3, 5, 7)])
def test_mixed_conductors(orders, kernel_calls, monkeypatch):
    cf = mixed_order_file(*orders)
    report = assert_paths_agree(check_pentagon, cf.fusion, cf.sixj, kernel_calls, monkeypatch)
    assert not report.ok
    entry = build_entry("vec-zn", 3)
    gauged = root_gauge(entry.data, entry.sixj, seed=7, orders=orders)
    assert table_order(gauged.entries.values()) == lcm(3, *orders)
    assert assert_paths_agree(check_pentagon, entry.data, gauged, kernel_calls, monkeypatch).ok
    for case in mutants(gauged, seed=3):
        assert_paths_agree(check_pentagon, entry.data, case, kernel_calls, monkeypatch)


@pytest.mark.parametrize("group", [s3(), klein(), cyclic_group(4)], ids=["S3", "Z2xZ2", "Z4"])
def test_groups_with_coboundary_and_random_cubes(group, kernel_calls, monkeypatch):
    rng = random.Random(group.order)
    n = range(group.order)
    valid = coboundary_cube(group, seed=1)
    garbage = [[[generic_factor(rng, rng.choice((1, 4, 3))) for _ in n] for _ in n] for _ in n]
    for values in (valid, garbage):
        data, table = pointed_fusion_data(group, values)
        report = assert_paths_agree(check_pentagon, data, table, kernel_calls, monkeypatch)
        assert report.ok == (values is valid)
        for case in mutants(table, seed=2):
            assert_paths_agree(check_pentagon, data, case, kernel_calls, monkeypatch)


@pytest.mark.parametrize("group", [s3(), klein(), cyclic_group(4)], ids=["S3", "Z2xZ2", "Z4"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_super_pentagon_with_parities_that_are_no_2_cocycle(group, seed, kernel_calls, monkeypatch):
    omega = random_omega(group, seed)
    bad = [
        (a, b, c)
        for a in group.elements()
        for b in group.elements()
        for c in group.elements()
        if (omega(a, b) + omega(group.mul(a, b), c) + omega(b, c) + omega(a, group.mul(b, c))) % 2
    ]
    values = coboundary_cube(group, seed=seed)
    data, table = pointed_superfusion_data(group, omega, values)
    if group.order == 6:
        assert bad  # at least S3 gets an omega that is not a 2-cocycle
    assert_scans_agree(data.base, table.entries, data.parities)
    for case in mutants(even_part(data, table), seed=seed):
        assert_paths_agree(check_super_pentagon, data, case, kernel_calls, monkeypatch)


def test_rules_that_are_not_a_group_take_the_row_engine(kernel_calls, monkeypatch):
    # one product per pair with N = 1, but (ij)k != i(jk): a quasigroup of
    # order 3 with X_0 a unit on the left only
    product = [[0, 1, 2], [2, 0, 1], [2, 1, 0]]
    mult = {(a, b, product[a][b]): 1 for a in range(3) for b in range(3)}
    data = FusionData(["0", "1", "2"], 0, mult)
    r = range(3)
    assert any(product[product[a][b]][c] != product[a][product[b][c]] for a in r for b in r for c in r)
    rng = random.Random(5)
    table = SixJTable({key: root_of_unity(4, rng.randrange(4)) for key in admissible_decuples(data)})
    rows = []
    real = _rowscan.row_scan
    monkeypatch.setattr(_rowscan, "row_scan", lambda *args: rows.append(1) or real(*args))
    check_pentagon(data, table, max_violations=None)
    # a group's rules with one product doubled, and the Ising rules
    doubled = FusionData(["0", "1"], 0, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 2})
    check_pentagon(doubled, SixJTable({}))
    ising = build_entry("ising")
    check_super_pentagon(ising.data, ising.sixj if ising.sixj is not None else SixJTable({}))
    assert (len(rows), kernel_calls[0]) == (3, 0)

