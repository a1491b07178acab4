"""Galois conjugation as an exact metamorphic oracle.

For k prime to N, sigma_k: zeta_N -> zeta_N^k is a field automorphism of
Q(zeta_N).  Each (super) pentagon instance compares two integer polynomials
in the table's values, so conjugating every value keeps each instance
holding or failing and maps its two sides to their conjugates.  On every
table below and each such k, the scan of the conjugate table must give the
same verdict, checked, total and violation instances, with each printed
side that of sigma_k of the original side.
"""

from math import gcd

import pytest

from gen import flip_entry, ising_times_zn
from gen import gauge as gen_gauge
from sfckit import _rowscan
from sfckit.catalog import build_entry
from sfckit.envelope import verify_lift
from sfckit.fusion import check_pentagon
from sfckit.superfusion import check_super_pentagon
from tests.cases import CATALOG, conjugate, middle_key, sigma, table_order


def units(n):
    """Every k < n prime to n, k = 1 (the identity) left out."""
    return [k for k in range(2, n) if gcd(k, n) == 1]


def assert_conjugates_match(check, data, table):
    """The scan of conjugate(table, k) against that of table, for every unit k mod N."""
    want = check(data, table, max_violations=None)
    for k in units(table_order(table.entries.values())):
        got = check(data, conjugate(table, k), max_violations=None)
        assert (got.ok, got.checked, got.total_violations) == (want.ok, want.checked, want.total_violations), k
        assert [v.instance for v in got.violations] == [v.instance for v in want.violations], k
        sides = [(str(sigma(v.lhs, k)), str(sigma(v.rhs, k))) for v in want.violations]
        assert [(str(v.lhs), str(v.rhs)) for v in got.violations] == sides, k
    return want


WITH_TABLES = [(name, params) for name, params in CATALOG if build_entry(name, *params).sixj is not None]


@pytest.mark.parametrize("name, params", WITH_TABLES, ids=[f"{name} {params}" for name, params in WITH_TABLES])
def test_conjugate_catalog_tables_scan_alike(name, params):
    # each table and its sign-flip mutant; a superfusion table's lift too
    entry = build_entry(name, *params)
    if entry.kind == "fusion":
        cases = [(check_pentagon, entry.data, entry.sixj)]
    else:
        lift = verify_lift(entry.data, entry.sixj)
        cases = [(check_super_pentagon, entry.data, entry.sixj), (check_pentagon, lift.underlying, lift.sixj)]
    for check, data, table in cases:
        assert assert_conjugates_match(check, data, table).ok
        assert not assert_conjugates_match(check, data, flip_entry(table, middle_key(table))).ok


@pytest.mark.parametrize("n", range(1, 7))
def test_conjugate_vec_zn_is_vec_zn_at_k_times_p(n):
    for p in range(n):
        table = build_entry("vec-zn", n, p).sixj
        for k in [1, *units(n)]:
            assert conjugate(table, k).entries == build_entry("vec-zn", n, k * p % n).sixj.entries, (p, k)


def test_conjugate_gauged_ising_times_z3_scans_alike():
    # N = 24: the eight units k mod 24 (k = 1 is the original's scan), each
    # scanned on a modulus of about 1300 bits that the row engine reduces by
    # folding
    data, table = ising_times_zn(3)
    gauged = gen_gauge(data, table, seed=1)
    assert table_order(gauged.entries.values()) == 24 and len(units(24)) == 7
    assert isinstance(_rowscan._compile(data, conjugate(gauged, 5).entries)[0], _rowscan._Fold)
    assert assert_conjugates_match(check_pentagon, data, gauged).ok
    assert not assert_conjugates_match(check_pentagon, data, flip_entry(gauged, middle_key(gauged))).ok
