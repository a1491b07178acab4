"""Acceptance suite: one test per criterion, printing one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
All comparisons are exact (no tolerances anywhere); the stated runtime
budgets are asserted where given.
"""

import json
import random
import time
from contextlib import contextmanager

from sfckit.catalog import (
    build_entry,
    pointed_fusion_data,
    pointed_superfusion_data,
    standard_three_cocycle,
    z2_supercocycle,
)
from gen import carry_group_parts, flip_cube
from sfckit import _rowscan, fusion
from sfckit.cli import EXIT_CHECK_FAILED, EXIT_INPUT_ERROR, EXIT_OK, main
from sfckit.cocycles import (
    SuperCocycle,
    ThreeCocycle,
    check_3cocycle,
    check_supercocycle,
    cyclic_group,
    lift_supercocycle,
)
from sfckit.envelope import build_label_set, lift_6j, underlying_fusion_rules, verify_lift
from sfckit.fusion import FusionData, SixJTable, check_pentagon
from sfckit.grothendieck import PI, ZPI_ONE, ZPi, build_sgr, sgr_multiply
from sfckit.scalars import ONE, root_of_unity
from sfckit.serialize import dumps_file, load_file, loads_file
from sfckit.superfusion import (
    MAJORANA,
    SuperFusionData,
    SuperFusionError,
    check_super_pentagon,
    classify_objects,
    validate_superfusion,
)
from tests.cases import superfusion_entries_with_tables


@contextmanager
def criterion(number: int, title: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({title}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} ({title}): PASS [{elapsed:.3f}s]")


def test_criterion_1_supercocycle_existence():
    with criterion(1, "supercocycle existence on Z/2"):
        start = time.perf_counter()
        g = cyclic_group(2)
        good = check_supercocycle(g, z2_supercocycle(1), max_violations=None)
        assert good.ok
        assert good.checked == 16

        flat = SuperCocycle(z2_supercocycle(1).omega, [[[ONE] * 2] * 2] * 2)
        bad = check_supercocycle(g, flat, max_violations=None)
        assert not bad.ok
        assert [v.instance for v in bad.violations] == [(1, 1, 1, 1)]
        assert bad.violations[0].lhs == 1
        assert bad.violations[0].rhs == -1
        assert time.perf_counter() - start < 1.0


def test_criterion_2_pointed_lift_is_genuine_cocycle():
    with criterion(2, "pointed lift to the order-4 extension"):
        start = time.perf_counter()
        g = cyclic_group(2)
        sc = z2_supercocycle(1)
        ext, lifted = lift_supercocycle(g, sc)
        assert ext.order == 4
        report = check_3cocycle(ext, lifted, max_violations=None)
        assert report.ok
        assert report.checked == 256
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    assert lifted(2 * a, 2 * b, 2 * c) == sc(a, b, c)
        assert time.perf_counter() - start < 1.0


def test_criterion_3_general_machinery_agrees_with_pointed_pipeline(monkeypatch):
    # the pentagon side scans on the row engine, so the cube kernel of the
    # cocycle side is compared with an independent engine, not with itself
    monkeypatch.setattr(fusion, "_run_scan", _rowscan.row_scan)
    with criterion(3, "main theorem via the general machinery"):
        # every catalog superfusion datum with a fermionic 6j table lifts to a
        # pentagon-passing underlying category
        for entry in superfusion_entries_with_tables():
            result = verify_lift(entry.data, entry.sixj)
            assert result.ok, entry.describe()

        # cross-module agreement on the same valid input
        g = cyclic_group(2)
        sc = z2_supercocycle(1)
        entry = build_entry("super-z2", 1)

        cocycle_view = check_supercocycle(g, sc, max_violations=None)
        category_view = check_super_pentagon(entry.data, entry.sixj, max_violations=None)
        assert cocycle_view.ok == category_view.ok is True
        assert {v.instance for v in cocycle_view.violations} == {
            v.instance[:4] for v in category_view.violations
        }

        ext, lifted_cocycle = lift_supercocycle(g, sc)
        rules = underlying_fusion_rules(entry.data)
        lifted_table = lift_6j(entry.data, entry.sixj)
        pointed_check = check_3cocycle(ext, lifted_cocycle, max_violations=None)
        general_check = check_pentagon(rules, lifted_table, max_violations=None)
        assert pointed_check.ok == general_check.ok is True
        assert {v.instance for v in pointed_check.violations} == {
            v.instance[:4] for v in general_check.violations
        }
        # the two pipelines compute the same lifted scalars: element (g,a) of the
        # extension is label index 2g+a of the graded category, in the same order
        assert list(rules.labels) == list(ext.labels)
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    ab = ext.mul(a, b)
                    key = (a, b, ab, c, ext.mul(ab, c), ext.mul(b, c), 1, 1, 1, 1)
                    assert lifted_table.entries[key] == lifted_cocycle(a, b, c)

        # identical verdicts and witness sets on the same invalid input
        flat_values = [[[ONE] * 2] * 2] * 2
        flat = SuperCocycle(sc.omega, flat_values)
        bad_data, bad_table = pointed_superfusion_data(g, sc.omega, flat_values)
        cocycle_view = check_supercocycle(g, flat, max_violations=None)
        category_view = check_super_pentagon(bad_data, bad_table, max_violations=None)
        assert cocycle_view.ok == category_view.ok is False
        assert {v.instance for v in cocycle_view.violations} == {
            v.instance[:4] for v in category_view.violations
        } == {(1, 1, 1, 1)}


def _random_coboundary(rng, group, n):
    beta = [[root_of_unity(2 * n, rng.randrange(2 * n)) for _ in range(n)] for _ in range(n)]
    values = []
    for a in range(n):
        plane = []
        for b in range(n):
            row = []
            for c in range(n):
                ab = group.mul(a, b)
                bc = group.mul(b, c)
                row.append(beta[b][c] * beta[a][bc] / (beta[ab][c] * beta[a][b]))
            plane.append(row)
        values.append(plane)
    return values


def test_criterion_4_pentagon_oracle_equivalence(monkeypatch):
    # as in criterion 3: the row engine against the cube kernel
    monkeypatch.setattr(fusion, "_run_scan", _rowscan.row_scan)
    with criterion(4, "pentagon verdict equals 3-cocycle verdict"):
        rng = random.Random(20250811)
        cases = []
        samples_per_group = {2: 3, 3: 3, 4: 4}
        for n in (2, 3, 4):
            group = cyclic_group(n)
            for _ in range(samples_per_group[n]):
                base = standard_three_cocycle(n, rng.randrange(n))
                twist = _random_coboundary(rng, group, n)
                values = [
                    [
                        [base(a, b, c) * twist[a][b][c] for c in range(n)]
                        for b in range(n)
                    ]
                    for a in range(n)
                ]
                cases.append((group, values))
                broken = [[list(row) for row in plane] for plane in values]
                spot = (rng.randrange(n), rng.randrange(n), rng.randrange(n))
                broken[spot[0]][spot[1]][spot[2]] = (
                    broken[spot[0]][spot[1]][spot[2]] * root_of_unity(5, 1)
                )
                cases.append((group, broken))
        assert len(cases) == 20

        verdicts = {True: 0, False: 0}
        for group, values in cases:
            cocycle = ThreeCocycle(values)
            data, table = pointed_fusion_data(group, cocycle)
            pentagon = check_pentagon(data, table, max_violations=None)
            oracle = check_3cocycle(group, cocycle, max_violations=None)
            assert pentagon.ok == oracle.ok
            assert {v.instance[:4] for v in pentagon.violations} == {
                v.instance for v in oracle.violations
            }
            assert _as_cocycle_report(pentagon) == oracle.to_json()
            verdicts[pentagon.ok] += 1
        assert verdicts[True] >= 1 and verdicts[False] >= 1

        # the super side: super pentagon against 3-supercocycle on the carry
        # supercocycles of Z/2, Z/4, Z/6 and one sign flip of each
        verdicts = {True: 0, False: 0}
        for n in (2, 4, 6):
            group, omega, _, sc = carry_group_parts(n)
            for values in (sc.values, flip_cube(sc.values, (1, n - 1, 0))):
                data, table = pointed_superfusion_data(group, omega, values)
                pentagon = check_super_pentagon(data, table, max_violations=None)
                oracle = check_supercocycle(group, SuperCocycle(omega, values), max_violations=None)
                oracle.warnings = []  # the oracle's note on omega
                assert _as_cocycle_report(pentagon, "3-supercocycle") == oracle.to_json()
                verdicts[pentagon.ok] += 1
        assert verdicts == {True: 3, False: 3}


def _as_cocycle_report(report, name="3-cocycle"):
    """A pointed (super) pentagon report in the form of the cocycle report:
    each instance cut to its outer quadruple (a, b, c, d)."""
    doc = report.to_json()
    doc["name"] = name
    for v in doc["violations"]:
        v["instance"] = v["instance"][:4]
    return doc


def test_criterion_5_mutation_soundness():
    with criterion(5, "every single-entry sign flip breaks the pentagon"):
        start = time.perf_counter()
        entry = build_entry("super-z2", 1)
        rules = underlying_fusion_rules(entry.data)
        lifted = lift_6j(entry.data, entry.sixj)
        assert len(lifted) == 64
        for key in sorted(lifted.entries):
            mutated = dict(lifted.entries)
            mutated[key] = -mutated[key]
            report = check_pentagon(rules, SixJTable(mutated), max_violations=1)
            assert not report.ok, f"silent pass after flipping {key}"
        assert time.perf_counter() - start < 10.0


def test_criterion_6_grothendieck_relations():
    with criterion(6, "pi-Grothendieck relations"):
        ising = build_entry("ising").data
        ring = build_sgr(ising)
        x = ring.basis_vector(1)
        assert sgr_multiply(ring, x, x) == {0: ZPi(1, 1)}  # [X]^2 = (1+pi)[1]
        assert ring.canonicalize({1: PI}) == {1: ZPI_ONE}  # [X] = pi[X]
        for k in (2, 6, 10):
            data = build_entry("ck", k).data
            ck_ring = build_sgr(data)  # associativity asserted inside
            assert ck_ring.rank == k // 2 + 1
            assert sorted(ck_ring.majorana) == [k // 2]
            report = classify_objects(data)
            assert report.n_bosonic == k // 2 and report.n_majorana == 1


def test_criterion_7_structural_invariants():
    with criterion(7, "structural invariants"):
        # unit-Bosonic enforcement
        base = FusionData(("1",), 0, {(0, 0, 0): 1})
        majorana_unit = SuperFusionData(base, {(0, 0, 0, 1): 0}, (MAJORANA,))
        assert not validate_superfusion(majorana_unit).law("unit-bosonic").ok
        try:
            classify_objects(majorana_unit)
            assert False, "unit marked Majorana must be rejected"
        except SuperFusionError:
            pass

        # Majorana parity balance is an error, not a warning
        ising = build_entry("ising").data
        parities = dict(ising.parities)
        parities[(1, 1, 0, 2)] = 0
        unbalanced = SuperFusionData(ising.base, parities, ising.object_type)
        assert not validate_superfusion(unbalanced).law("majorana-balance").ok

        # label counting |J| = 2 * #Bosonic + #Majorana
        for name, params in (("ising", ()), ("ck", (6,)), ("super-z2", (1,)), ("trivial-super", ())):
            data = build_entry(name, *params).data
            n_majorana = sum(1 for i in range(data.rank) if data.is_majorana(i))
            labels = build_label_set(data)
            assert len(labels) == 2 * (data.rank - n_majorana) + n_majorana
        # all-Bosonic data has twice as many graded labels
        pointed = build_entry("super-z2", 1).data
        assert len(build_label_set(pointed)) == 2 * pointed.rank

        # Z^pi axioms: pi^2 = 1 and positivity-cone closure
        assert PI * PI == ZPI_ONE
        cone = [ZPi(a, b) for a in range(4) for b in range(4)]
        for x in cone:
            for y in cone:
                assert min((x + y).a, (x + y).b, (x * y).a, (x * y).b) >= 0


def test_criterion_8_round_trip_and_exit_codes(tmp_path):
    with criterion(8, "CLI round trip and exit-code contract"):
        # fixture class 1: a passing file; exit 0 and byte-stable round trip
        good = tmp_path / "good.json"
        assert main(["catalog", "super-z2", "1", "-o", str(good)]) == EXIT_OK
        assert main(["check", str(good)]) == EXIT_OK
        text = good.read_text()
        assert dumps_file(load_file(good)) == text
        assert dumps_file(loads_file(dumps_file(load_file(good)))) == text

        # fixture class 2: a violation; exit 1
        doc = json.loads(text)
        flipped = False
        for rec in doc["payload"]["sixj"]:
            if rec[:6] == ["0", "1", "1", "1", "0", "0"] and rec[10] == 1:
                rec[10] = -1
                flipped = True
                break
        assert flipped
        violating = tmp_path / "violating.json"
        violating.write_text(json.dumps(doc))
        assert main(["check", str(violating)]) == EXIT_CHECK_FAILED

        # fixture class 3: malformed input; exit 2
        malformed = tmp_path / "malformed.json"
        malformed.write_text('{"format_version": "sfc-1", "kind": "fusion"')
        assert main(["check", str(malformed)]) == EXIT_INPUT_ERROR
        missing_payload = tmp_path / "missing.json"
        missing_payload.write_text(json.dumps({"format_version": "sfc-1", "kind": "fusion"}))
        assert main(["check", str(missing_payload)]) == EXIT_INPUT_ERROR
