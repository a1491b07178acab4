"""Tests for the built-in example families."""

import pytest

from sfckit import _cube, cocycles, fusion
from sfckit.catalog import (
    CatalogError,
    build_entry,
    catalog_names,
    ck_super,
    ising_super,
    pointed_fusion,
    pointed_superfusion,
    standard_three_cocycle,
    superfusion_entries_with_tables,
    z2_supercocycle,
    _truncated_clebsch_gordan,
)
from sfckit.cocycles import SuperCocycle, ThreeCocycle, TwoCocycleZ2, cyclic_group
from sfckit.fusion import check_pentagon, validate_fusion
from sfckit.scalars import ONE, Cyclotomic
from sfckit.superfusion import check_super_pentagon, validate_superfusion


@pytest.mark.parametrize(
    "name, params",
    [
        ("trivial", ()),
        ("trivial-super", ()),
        ("vec-zn", (2,)),
        ("vec-zn", (3, 2)),
        ("vec-zn", (4,)),
        ("super-z2", ()),
        ("super-z2", (3,)),
        ("super-zn-even", (2,)),
        ("super-zn-even", (3,)),
        ("ising", ()),
        ("ck", (2,)),
        ("ck", (6,)),
        ("ck", (10,)),
    ],
)
def test_entries_build_and_validate(name, params):
    entry = build_entry(name, *params)
    if entry.kind == "fusion":
        assert validate_fusion(entry.data).ok
        if entry.sixj is not None:
            assert check_pentagon(entry.data, entry.sixj).ok
    else:
        assert validate_superfusion(entry.data).ok
        if entry.sixj is not None:
            assert check_super_pentagon(entry.data, entry.sixj).ok


def test_entry_registry():
    assert set(catalog_names()) == {
        "trivial", "trivial-super", "vec-zn", "super-z2", "super-zn-even", "ising", "ck",
    }
    with pytest.raises(CatalogError):
        build_entry("no-such-entry")
    with pytest.raises(CatalogError):
        build_entry("vec-zn")  # missing required parameter
    with pytest.raises(CatalogError):
        build_entry("ck", 6, 1, 2)


def test_standard_z3_cocycle_against_exponent_oracle():
    # tau(a,b,c) = zeta_3^(a * ((b+c) div 3)); check the identity on exponents mod 3
    def e(a, b, c):
        return a * ((b + c) // 3) % 3

    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    lhs = (e(a, b, c) + e(a, (b + c) % 3, d) + e(b, c, d)) % 3
                    rhs = (e((a + b) % 3, c, d) + e(a, b, (c + d) % 3)) % 3
                    assert lhs == rhs
    entry = build_entry("vec-zn", 3)
    assert check_pentagon(entry.data, entry.sixj).ok


def test_pointed_fusion_refuses_non_cocycle():
    g = cyclic_group(2)
    values = [[[ONE, ONE], [ONE, ONE]], [[ONE, ONE], [ONE, Cyclotomic.rational(2)]]]
    with pytest.raises(Exception, match="witness"):
        pointed_fusion(g, ThreeCocycle(values))


def test_pointed_superfusion_refuses_unnormalized_omega():
    g = cyclic_group(2)
    # constant 1 is a coboundary, hence a valid 2-cocycle, but not normalized
    omega = TwoCocycleZ2(((1, 1), (1, 1)))
    sc = SuperCocycle(omega, [[[ONE] * 2] * 2] * 2)
    with pytest.raises(Exception, match="normalize"):
        pointed_superfusion(g, sc)


def test_pointed_superfusion_refuses_invalid_supercocycle():
    g = cyclic_group(2)
    bad = SuperCocycle(TwoCocycleZ2(((0, 0), (0, 1))), [[[ONE] * 2] * 2] * 2)
    with pytest.raises(Exception, match="witness"):
        pointed_superfusion(g, bad)


def test_ising_folded_multiplicities():
    data = ising_super()
    assert data.base.n(1, 1, 0) == 2
    assert data.parity_counts(1, 1, 0) == (1, 1)
    assert data.base.n(0, 1, 1) == data.base.n(1, 0, 1) == 2
    assert data.parity_counts(0, 1, 1) == (1, 1)
    assert data.base.n(1, 1, 1) == 0


def test_ck_refuses_wrong_level():
    for k in (0, 3, 4, 8, 12):
        with pytest.raises(CatalogError, match="mod 4"):
            ck_super(k)


def test_ck_counts():
    for k in (2, 6, 10):
        data = ck_super(k)
        assert data.rank == k // 2 + 1
        majorana = [i for i in range(data.rank) if data.is_majorana(i)]
        assert majorana == [k // 2]


def test_ck_majorana_hom_spaces_balanced():
    data = ck_super(6)
    for (i, j, m) in data.base.mult:
        if data.is_majorana(i) or data.is_majorana(j) or data.is_majorana(m):
            even, odd = data.parity_counts(i, j, m)
            assert even == odd


def cg_multiplicities(k):
    """Unfolded level-k rule as a dense multiplicity lookup on 0..k."""
    n = {}
    for i in range(k + 1):
        for j in range(k + 1):
            for l in _truncated_clebsch_gordan(i, j, k):
                n[(i, j, l)] = n.get((i, j, l), 0) + 1
    return n


@pytest.mark.parametrize("k", [2, 6, 10, 18, 30])
def test_clebsch_gordan_associative_before_folding(k):
    n = cg_multiplicities(k)
    assert all(v == 1 for v in n.values())  # multiplicity-free
    for i in range(k + 1):
        for j in range(k + 1):
            for l in range(k + 1):
                lhs = {}
                for m in _truncated_clebsch_gordan(i, j, k):
                    for target in _truncated_clebsch_gordan(m, l, k):
                        lhs[target] = lhs.get(target, 0) + 1
                rhs = {}
                for t in _truncated_clebsch_gordan(j, l, k):
                    for target in _truncated_clebsch_gordan(i, t, k):
                        rhs[target] = rhs.get(target, 0) + 1
                assert lhs == rhs, (k, i, j, l)


def test_superfusion_entries_with_tables():
    entries = superfusion_entries_with_tables()
    assert len(entries) >= 3
    for entry in entries:
        assert entry.kind == "superfusion"
        assert entry.sixj is not None
        assert "supercocycle" in entry.source


def test_z2_supercocycle_even_power_is_invalid():
    from sfckit.cocycles import check_supercocycle

    g = cyclic_group(2)
    assert not check_supercocycle(g, z2_supercocycle(2)).ok
    assert check_supercocycle(g, z2_supercocycle(3)).ok


@pytest.mark.parametrize("name, params", [("vec-zn", (4,)), ("super-zn-even", (3,))])
def test_pointed_entries_scan_their_identity_once(name, params, monkeypatch):
    # the pentagon scan of the entry's own validation is the only scan: no
    # cocycle check runs, and the G^4 kernel runs once, for the pentagon
    calls = {"cube": 0, "pentagon": 0, "kernel": 0}
    real_cube, real_run, real_kernel = cocycles._cube_report, fusion._run_scan, _cube.scan

    def counting_cube(*args):
        calls["cube"] += 1
        return real_cube(*args)

    def counting_run(*args):
        calls["pentagon"] += 1
        return real_run(*args)

    def counting_kernel(*args):
        calls["kernel"] += 1
        return real_kernel(*args)

    monkeypatch.setattr(cocycles, "_cube_report", counting_cube)
    monkeypatch.setattr(fusion, "_run_scan", counting_run)
    monkeypatch.setattr(_cube, "scan", counting_kernel)
    build_entry(name, *params)
    assert calls == {"cube": 0, "pentagon": 1, "kernel": 1}


@pytest.mark.parametrize(
    "name, params, coerced", [("super-z2", (1,), 1), ("super-zn-even", (4,), 2), ("vec-zn", (8,), 1)]
)
def test_pointed_entries_coerce_each_cube_once(name, params, coerced, monkeypatch):
    # a SuperCocycle goes to pointed_fusion_data as it is; super-zn-even
    # coerces twice, once for standard_three_cocycle and once for its SuperCocycle
    calls = []
    real_init = ThreeCocycle.__init__

    def counting_init(self, values):
        calls.append(type(self).__name__)
        real_init(self, values)

    monkeypatch.setattr(ThreeCocycle, "__init__", counting_init)
    build_entry(name, *params)
    assert len(calls) == coerced
