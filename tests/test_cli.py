"""End-to-end tests for the command-line interface and its exit codes."""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from gen import flip_entry
from sfckit import _cube, _rowscan, cli, cocycles, fusion, grothendieck, superfusion
from sfckit.cli import EXIT_CHECK_FAILED, EXIT_INPUT_ERROR, EXIT_INTERNAL_ERROR, EXIT_OK, main
from sfckit.fusion import FusionData, SixJTable
from sfckit.serialize import dumps_file, fusion_file, group_file, load_file, superfusion_file
from sfckit.cocycles import SuperCocycle, TwoCocycleZ2, cyclic_group
from sfckit.catalog import build_entry, z2_supercocycle
from sfckit.envelope import verify_lift
from sfckit.superfusion import SuperFusionData
from tests.cases import CATALOG, all_even, ising_broken_table, ising_exact_table, middle_key, z3_parity_broken
from tests.oracles import outcome, reference_build_sgr


@pytest.fixture
def super_z2_file(tmp_path):
    path = tmp_path / "super-z2.json"
    assert main(["catalog", "super-z2", "1", "-o", str(path)]) == EXIT_OK
    return path


def test_catalog_writes_valid_files(tmp_path, super_z2_file):
    cf = load_file(super_z2_file)
    assert cf.kind == "superfusion"
    for name, params in (("ising", []), ("ck", ["6"]), ("vec-zn", ["3"])):
        out = tmp_path / f"{name}.json"
        assert main(["catalog", name, *params, "-o", str(out)]) == EXIT_OK
        load_file(out)


def test_catalog_list_and_errors(tmp_path, capsys):
    assert main(["catalog", "--list"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "super-z2" in out and "ck" in out
    assert main(["catalog", "no-such-thing"]) == EXIT_INPUT_ERROR
    assert main(["catalog", "ck", "4"]) == EXIT_INPUT_ERROR  # wrong level refused
    capsys.readouterr()
    assert main(["catalog", "super-z2", "2"]) == EXIT_INPUT_ERROR  # no supercocycle at an even power
    assert capsys.readouterr().err == "error: not a 3-supercocycle; witness quadruple (1, 1, 1, 1)\n"
    assert main(["catalog"]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == "error: catalog needs an entry name (or --list)\n"


def test_check_passes_on_catalog_file(super_z2_file, capsys):
    assert main(["check", str(super_z2_file)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "super pentagon: pass" in out
    assert "result: pass" in out


def test_check_json_report(super_z2_file, capsys):
    assert main(["check", str(super_z2_file), "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["command"] == "check"
    assert len(doc["digest"]) == 64
    assert any(c.get("name") == "super pentagon" for c in doc["checks"])
    assert "elapsed_s" in doc


@pytest.mark.parametrize("mutate", [False, True])
def test_python_m_runs_the_command_as_main_does(mutate, tmp_path, super_z2_file, capsys):
    # under -m the front end runs as __main__ and no handler imports it back
    # (tests/test_imports.py): same exit code, same report as main()
    path = super_z2_file
    if mutate:
        doc = json.loads(path.read_text())
        rec = next(rec for rec in doc["payload"]["sixj"] if rec[10] == 1)
        rec[10] = -1
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(doc))
    argv = ["check", str(path), "--json"]
    code = main(argv)
    want = json.loads(capsys.readouterr().out)
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "sfckit.cli", *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    got = json.loads(proc.stdout)
    del want["elapsed_s"], got["elapsed_s"]
    assert code == (EXIT_CHECK_FAILED if mutate else EXIT_OK)
    assert (proc.returncode, got) == (code, want)


def test_check_fails_on_mutated_file(tmp_path, super_z2_file, capsys):
    doc = json.loads(super_z2_file.read_text())
    flipped = False
    for rec in doc["payload"]["sixj"]:
        if rec[:6] == ["0", "1", "1", "1", "0", "0"] and rec[10] == 1:
            rec[10] = -1
            flipped = True
            break
    assert flipped
    bad = tmp_path / "mutated.json"
    bad.write_text(json.dumps(doc))
    assert main(["check", str(bad)]) == EXIT_CHECK_FAILED
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_check_exit_2_on_malformed(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not valid json")
    assert main(["check", str(bad)]) == EXIT_INPUT_ERROR
    assert "error:" in capsys.readouterr().err

    wrong_schema = tmp_path / "wrong.json"
    wrong_schema.write_text(json.dumps({"format_version": "sfc-1", "kind": "fusion", "payload": {}}))
    assert main(["check", str(wrong_schema)]) == EXIT_INPUT_ERROR


def test_unreadable_input_is_input_error(tmp_path, capsys):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"format_version": "sfc-1", "kind": "caf\xe9"}')
    for path in (tmp_path / "missing.json", tmp_path, latin1):
        assert main(["check", str(path)]) == EXIT_INPUT_ERROR
        assert f"cannot read {path}" in capsys.readouterr().err


def _one_label_file(path, n, sixj=()):
    payload = {"labels": ["1"], "unit": "1", "mult": [["1", "1", "1", n]], "sixj": list(sixj)}
    path.write_text(json.dumps({"format_version": "sfc-1", "kind": "fusion", "payload": payload}))
    return path


def test_check_gates_pentagon_on_fusion_rules(tmp_path, capsys):
    # N = 4 breaks the unit law: no pentagon scan over its 4096 instances
    bad_rules = _one_label_file(tmp_path / "n4.json", 4)
    assert main(["check", str(bad_rules), "--json"]) == EXIT_CHECK_FAILED
    doc = json.loads(capsys.readouterr().out)
    assert [c.get("name") or c.get("subject") for c in doc["checks"]] == ["fusion data", "6j table"]
    assert doc["notes"] == []

    # an entry off the admissible support stays an input error
    off_support = ["1", "1", "1", "1", "1", "1", 5, 1, 1, 1, 1]
    for n in (1, 4):
        path = _one_label_file(tmp_path / f"off-{n}.json", n, [off_support])
        assert main(["check", str(path)]) == EXIT_INPUT_ERROR
        assert "non-admissible" in capsys.readouterr().err


def test_check_which_mismatch_is_input_error(super_z2_file, tmp_path, capsys):
    assert main(["check", str(super_z2_file), "--which", "cocycle3"]) == EXIT_INPUT_ERROR
    assert main(["check", str(super_z2_file), "--which", "pentagon"]) == EXIT_INPUT_ERROR
    fusion = tmp_path / "vec-z2.json"
    assert main(["catalog", "vec-zn", "2", "-o", str(fusion)]) == EXIT_OK
    group = tmp_path / "gz2.json"
    group.write_text(dumps_file(group_file(cyclic_group(2), supercocycle=z2_supercocycle(1))))
    capsys.readouterr()
    assert main(["check", str(fusion), "--which", "cocycle2"]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == "error: check 'cocycle2' does not apply to a fusion file\n"
    assert main(["check", str(group), "--which", "pentagon"]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == "error: check 'pentagon' does not apply to a group+cocycles file\n"


def test_check_notes_a_fusion_file_without_table(tmp_path, capsys):
    path = tmp_path / "vec-z2-rules.json"
    path.write_text(dumps_file(fusion_file(build_entry("vec-zn", 2).data)))
    assert main(["check", str(path), "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["notes"] == ["no 6j table in input; pentagon runs against the empty table"]


def test_extend_group_refuses_unnormalized_omega_without_normalize(tmp_path, capsys):
    src = tmp_path / "omega-ones.json"
    src.write_text(dumps_file(group_file(cyclic_group(2), TwoCocycleZ2(((1, 1), (1, 1))))))
    out = tmp_path / "ext.json"
    assert main(["extend-group", str(src), "-o", str(out), "--json"]) == EXIT_CHECK_FAILED
    doc = json.loads(capsys.readouterr().out)
    assert [check["ok"] for check in doc["checks"]] == [True, True]
    assert len(doc["notes"]) == 1 and "normalized" in doc["notes"][0]
    assert not out.exists()


def odd_bumped_ck10():
    """ck 10 rules with the multiplicity of their first admissible triple
    raised by one odd basis vector; validate_superfusion refuses them."""
    data = build_entry("ck", 10).data
    key = min(data.base.mult)
    mult = dict(data.base.mult)
    mult[key] += 1
    parities = {**data.parities, (*key, mult[key]): 1}
    return SuperFusionData(FusionData(data.base.labels, data.base.unit, mult), parities, data.object_type)


@pytest.mark.parametrize("command, writes", [("sgr", False), ("underlying", True)])
def test_invalid_superfusion_rules_stop_at_their_validation(command, writes, tmp_path, capsys):
    src = tmp_path / "ck10-bumped.json"
    src.write_text(dumps_file(superfusion_file(odd_bumped_ck10())))
    out = tmp_path / "out.json"
    assert main([command, str(src), "--json", *(["-o", str(out)] if writes else [])]) == EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert [check["subject"] for check in doc["checks"]] == ["superfusion data"]
    assert doc["ok"] is False and doc["notes"] == []
    assert set(doc) == {"command", "input", "digest", "ok", "checks", "notes", "elapsed_s"}
    assert captured.err == ""
    assert not out.exists()


def test_underlying_round_trip(tmp_path, super_z2_file, capsys):
    out = tmp_path / "underlying.json"
    assert main(["underlying", str(super_z2_file), "-o", str(out)]) == EXIT_OK
    capsys.readouterr()
    # output re-ingested by check pentagon gives the identical verdict
    assert main(["check", str(out), "--which", "pentagon"]) == EXIT_OK
    reloaded = load_file(out)
    assert reloaded.kind == "fusion"
    assert set(reloaded.fusion.labels) == {"0^0", "0^1", "1^0", "1^1"}
    # round-trip stability of the written artifact
    assert dumps_file(reloaded) == out.read_text()


def test_underlying_without_table(tmp_path, capsys):
    src = tmp_path / "ising.json"
    assert main(["catalog", "ising", "-o", str(src)]) == EXIT_OK
    out = tmp_path / "ising-underlying.json"
    assert main(["underlying", str(src), "-o", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "no fermionic 6j table" in stdout
    reloaded = load_file(out)
    assert reloaded.sixj is None
    assert list(reloaded.fusion.labels) == ["1^0", "1^1", "X^0"]


def test_underlying_refuses_bad_input(tmp_path, super_z2_file, capsys):
    doc = json.loads(super_z2_file.read_text())
    for rec in doc["payload"]["sixj"]:
        if rec[:6] == ["0", "1", "1", "1", "0", "0"]:
            rec[10] = -1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "nope.json"
    assert main(["underlying", str(bad), "-o", str(out)]) == EXIT_CHECK_FAILED
    assert not out.exists()


def test_underlying_scans_each_identity_once(tmp_path, super_z2_file, monkeypatch):
    # super-z2 and its underlying Z/4 rules are a group's: counted once on
    # the row engine, forced, and once on the cube kernel they dispatch to
    real_scan, real_cube = _rowscan._scan_chunk, _cube.pentagon_scan
    scans = {"super": 0, "plain": 0}
    cubes = {"super": 0, "plain": 0}

    def counting_scan(data, entries, parities, outer, max_violations):
        scans["plain" if parities is None else "super"] += 1
        return real_scan(data, entries, parities, outer, max_violations)

    def counting_cube(mul, entries, parities, max_violations):
        cubes["plain" if parities is None else "super"] += 1
        return real_cube(mul, entries, parities, max_violations)

    monkeypatch.setattr(_rowscan, "_scan_chunk", counting_scan)
    monkeypatch.setattr(_cube, "pentagon_scan", counting_cube)
    out = tmp_path / "underlying.json"
    with monkeypatch.context() as forced:
        forced.setattr(fusion, "_run_scan", _rowscan.row_scan)
        assert main(["underlying", str(super_z2_file), "-o", str(out), "--jobs", "1"]) == EXIT_OK
    assert scans == {"super": 1, "plain": 1}
    assert cubes == {"super": 0, "plain": 0}
    assert main(["underlying", str(super_z2_file), "-o", str(out), "--jobs", "1"]) == EXIT_OK
    assert scans == {"super": 1, "plain": 1}
    assert cubes == {"super": 1, "plain": 1}


def test_check_runs_support_once(super_z2_file, monkeypatch, capsys):
    real_support = superfusion.check_support
    calls = []

    def counting_support(data, table):
        calls.append(1)
        return real_support(data, table)

    monkeypatch.setattr(superfusion, "check_support", counting_support)
    assert main(["check", str(super_z2_file), "--json"]) == EXIT_OK
    assert len(calls) == 1
    names = [check.get("name") for check in json.loads(capsys.readouterr().out)["checks"]]
    assert names[1:] == ["fermionic 6j support", "super pentagon"]


def test_check_validates_a_fusion_table_once(tmp_path, monkeypatch, capsys):
    # one support pass and one missing-entry pass, shared by the table's
    # validation and the pentagon report
    path = tmp_path / "vec-z3.json"
    assert main(["catalog", "vec-zn", "3", "-o", str(path)]) == EXIT_OK
    calls = {"support": 0, "missing": 0}
    real_support, real_missing = fusion._off_support, fusion._missing_entries

    def counting_support(data, table):
        calls["support"] += 1
        return real_support(data, table)

    def counting_missing(data, table):
        calls["missing"] += 1
        return real_missing(data, table)

    monkeypatch.setattr(fusion, "_off_support", counting_support)
    monkeypatch.setattr(fusion, "_missing_entries", counting_missing)
    assert main(["check", str(path), "--json"]) == EXIT_OK
    assert calls == {"support": 1, "missing": 1}
    names = [check.get("name") or check.get("subject") for check in json.loads(capsys.readouterr().out)["checks"]]
    assert names == ["fusion data", "6j table", "pentagon"]


def test_check_gates_support_once(tmp_path, monkeypatch, capsys):
    # the command gates the table on its support once, before validate_fusion,
    # and hands the scan only the missing entries
    path = tmp_path / "vec-z3.json"
    assert main(["catalog", "vec-zn", "3", "-o", str(path)]) == EXIT_OK
    real_gate, calls = fusion._require_on_support, []
    monkeypatch.setattr(fusion, "_require_on_support", lambda bad: calls.append(list(bad)) or real_gate(bad))
    assert main(["check", str(path)]) == EXIT_OK
    assert calls == [[]]
    capsys.readouterr()


def test_check_counts_a_tableless_scan(tmp_path, monkeypatch, capsys):
    # ck 22 has 179 349 372 instances, every one 0 = 0 against the empty
    # table: they are counted, not scanned
    path = tmp_path / "ck-22.json"
    assert main(["catalog", "ck", "22", "-o", str(path)]) == EXIT_OK
    monkeypatch.setattr(_rowscan, "_scan_chunk", None)
    assert main(["check", str(path), "--json"]) == EXIT_OK
    pentagon = json.loads(capsys.readouterr().out)["checks"][-1]
    assert (pentagon["name"], pentagon["checked"], pentagon["ok"]) == ("super pentagon", 179_349_372, True)
    assert pentagon["warnings"]


def test_lift_cocycle_scans_supercocycle_once(tmp_path, monkeypatch, capsys):
    real_check = cocycles.check_supercocycle
    calls = []

    def counting_check(g, sc, **kwargs):
        calls.append(1)
        return real_check(g, sc, **kwargs)

    monkeypatch.setattr(cocycles, "check_supercocycle", counting_check)
    src = tmp_path / "gz2.json"
    src.write_text(dumps_file(group_file(cyclic_group(2), supercocycle=z2_supercocycle(1))))
    assert main(["lift-cocycle", str(src), "-o", str(tmp_path / "lifted.json"), "--json"]) == EXIT_OK
    assert len(calls) == 1
    names = [check.get("name") or check.get("subject") for check in json.loads(capsys.readouterr().out)["checks"]]
    assert names == ["group table", "3-supercocycle", "3-cocycle (on the central extension)"]


def identity_group_files(tmp_path):
    """The group files of tools/report_identity.py (each catalog entry built
    from a group, with its cube and with its middle value negated) and a
    Z/3 supercocycle whose omega is not a 2-cocycle."""
    files = []
    for name, params in CATALOG:
        source = build_entry(name, *params).source
        group, tau, sc = source.get("group"), source.get("cocycle"), source.get("supercocycle")
        for cube in (tau, sc):
            if cube is None:
                continue
            flat = [x for plane in cube.values for row in plane for x in row]
            flat[len(flat) // 2] = -flat[len(flat) // 2]
            n = group.order
            flipped = [[flat[(a * n + b) * n : (a * n + b + 1) * n] for b in range(n)] for a in range(n)]
            if cube is tau:
                files += [group_file(group, cocycle=tau), group_file(group, cocycle=cocycles.ThreeCocycle(flipped))]
            else:
                flipped = SuperCocycle(sc.omega, flipped)
                files += [group_file(group, supercocycle=sc), group_file(group, supercocycle=flipped)]
    omega = TwoCocycleZ2([[0, 0, 0], [0, 1, 0], [0, 0, 0]])
    files.append(group_file(cyclic_group(3), supercocycle=SuperCocycle(omega, [[[1] * 3] * 3] * 3)))
    paths = []
    for at, cf in enumerate(files):
        paths.append(tmp_path / f"group-{at}.json")
        paths[-1].write_text(dumps_file(cf))
    return list(zip(paths, files))


def test_each_command_checks_omega_once(tmp_path, monkeypatch, capsys):
    # check, lift-cocycle and extend-group hand the command's one 2-cocycle
    # report to check_supercocycle and central_extension
    real_check = cocycles.check_2cocycle
    calls = []

    def counting_check(g, w, **kwargs):
        calls.append(1)
        return real_check(g, w, **kwargs)

    monkeypatch.setattr(cocycles, "check_2cocycle", counting_check)
    out = str(tmp_path / "out.json")
    commands = (
        ["check"],
        ["check", "--max-violations", "0"],
        ["check", "--which", "supercocycle"],
        ["lift-cocycle", "-o", out],
        ["extend-group", "-o", out],
    )
    files = identity_group_files(tmp_path)
    assert any(not real_check(cf.group, cf.omega).ok for _, cf in files if cf.omega is not None)
    for path, cf in files:
        for command in commands:
            calls.clear()
            code = main([command[0], str(path), *command[1:], "--json"])
            capsys.readouterr()
            needs_supercocycle = command[0] == "lift-cocycle" or command[-1] == "supercocycle"
            runs = cf.omega is not None and (cf.supercocycle is not None or not needs_supercocycle)
            assert code != EXIT_INPUT_ERROR or not runs, (path, command)
            assert len(calls) == runs, (path, command)


def test_extend_group_validates_each_group_once(tmp_path, monkeypatch, capsys):
    # the input group, then the extension once: the report that
    # cocycles._extension makes of it is the command's "extended group"
    real_validate = cocycles.validate_group
    calls = []
    monkeypatch.setattr(cocycles, "validate_group", lambda g: calls.append(g.order) or real_validate(g))
    src = tmp_path / "gz2.json"
    src.write_text(dumps_file(group_file(cyclic_group(2), supercocycle=z2_supercocycle(1))))
    assert main(["extend-group", str(src), "-o", str(tmp_path / "ext.json"), "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert calls == [2, 4]
    assert [(check["subject"], check["ok"]) for check in doc["checks"] if "subject" in check] == [
        ("group table", True), ("extended group", True)
    ]


def test_cocycle_error_reaching_main_is_a_failed_check(tmp_path, monkeypatch, capsys):
    # the decoder and the handlers turn every CocycleError of valid input
    # into a report, so only a fault in an engine reaches main's mapping
    def raising(group):
        raise cocycles.CocycleError("engine fault")

    monkeypatch.setattr(cocycles, "validate_group", raising)
    src = tmp_path / "gz2.json"
    src.write_text(dumps_file(group_file(cyclic_group(2), supercocycle=z2_supercocycle(1))))
    assert main(["check", str(src)]) == EXIT_CHECK_FAILED
    assert capsys.readouterr().err == "error: engine fault\n"


def test_unexpected_exception_is_an_internal_error(super_z2_file, monkeypatch, capsys):
    def raising(data):
        raise RuntimeError("engine fault")

    monkeypatch.setattr(superfusion, "validate_superfusion", raising)
    assert main(["check", str(super_z2_file)]) == EXIT_INTERNAL_ERROR
    err = capsys.readouterr().err
    assert err == "error: internal error: RuntimeError: engine fault\n"
    assert "Traceback" not in err


def test_unwritable_output_is_an_input_error(tmp_path, super_z2_file, capsys):
    for out in (tmp_path / "missing" / "out.json", tmp_path):
        assert main(["underlying", str(super_z2_file), "-o", str(out)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ")
        assert "Traceback" not in err


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_writer_commands_keep_stdout_for_the_document(tmp_path, super_z2_file, capsys, mode):
    # `sfckit underlying in.json > out.json` must give a file that loads
    entry = build_entry("super-z2", 1)
    group = tmp_path / "group.json"
    group.write_text(dumps_file(group_file(entry.source["group"], supercocycle=entry.source["supercocycle"])))
    for command, src in (("underlying", super_z2_file), ("lift-cocycle", group), ("extend-group", group)):
        written = tmp_path / f"{command}.json"
        assert main([command, str(src), "-o", str(written), *mode]) == EXIT_OK
        capsys.readouterr()
        assert main([command, str(src), *mode]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.encode() == written.read_bytes()
        piped = tmp_path / f"{command}-stdout.json"
        piped.write_text(captured.out)
        load_file(piped)
        if mode:
            assert json.loads(captured.err)["ok"] is True
        else:
            assert captured.err.splitlines()[-1].startswith("result: pass")


def test_text_check_prints_each_report_summary(tmp_path, capsys):
    entry = build_entry("vec-zn", 4)
    bad_table = flip_entry(entry.sixj, middle_key(entry.sixj))
    bad = tmp_path / "bad.json"
    bad.write_text(dumps_file(fusion_file(entry.data, bad_table)))
    assert main(["check", str(bad)]) == EXIT_CHECK_FAILED
    out = capsys.readouterr().out
    report = fusion.check_pentagon(entry.data, bad_table)
    assert report.total_violations == len(report.violations) == 14  # all listed, past the old cap of 10
    assert report.summary() in out
    assert f"pentagon: FAIL ({report.checked} instances checked)" in out
    assert "14 violation(s); showing 14:" in out
    assert main(["check", str(bad), "--max-violations", "3"]) == EXIT_CHECK_FAILED
    assert "14 violation(s); showing 3:" in capsys.readouterr().out


def test_group_labels_must_be_strings(tmp_path, capsys):
    doc = json.loads(dumps_file(group_file(cyclic_group(2), omega=z2_supercocycle(1).omega)))
    doc["payload"]["group"]["labels"] = [0, 1.5]
    src = tmp_path / "numeric-labels.json"
    src.write_text(json.dumps(doc))
    assert main(["extend-group", str(src)]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.err == "error: payload.group.labels[0]: expected a string\n"
    assert captured.out == ""


def test_lift_cocycle_reports_unliftable_omega(tmp_path, capsys):
    # omega = 1 and F~ = -1 satisfy the supercocycle identity, but omega is
    # not normalized at the identity and defines no central extension
    omega = TwoCocycleZ2([[1, 1], [1, 1]])
    minus_ones = [[[-1, -1], [-1, -1]], [[-1, -1], [-1, -1]]]
    src = tmp_path / "unnormalized.json"
    src.write_text(dumps_file(group_file(cyclic_group(2), supercocycle=SuperCocycle(omega, minus_ones))))
    out = tmp_path / "lifted.json"
    assert main(["lift-cocycle", str(src), "-o", str(out), "--json"]) == EXIT_CHECK_FAILED
    doc = json.loads(capsys.readouterr().out)
    assert [check["ok"] for check in doc["checks"]] == [True, True]
    assert "normalized" in doc["notes"][0]
    assert not out.exists()


def test_underlying_round_trip_catches_corrupted_write(tmp_path, super_z2_file, monkeypatch, capsys):
    real_save = cli.save_file

    def flip_one_entry(path, cf):
        entries = dict(cf.sixj.entries)
        key = min(entries)
        entries[key] = -entries[key]
        real_save(path, fusion_file(cf.fusion, SixJTable(entries)))

    def truncate(path, cf):
        with open(path, "w") as fh:
            fh.write(dumps_file(cf)[:100])

    def rename_one_label(path, cf):
        labels = ("renamed",) + cf.fusion.labels[1:]
        real_save(path, fusion_file(FusionData(labels, cf.fusion.unit, cf.fusion.mult), cf.sixj))

    out = tmp_path / "underlying.json"
    for corrupting_save in (flip_one_entry, truncate, rename_one_label):
        monkeypatch.setattr(cli, "save_file", corrupting_save)
        assert main(["underlying", str(super_z2_file), "-o", str(out), "--json"]) == EXIT_CHECK_FAILED
        doc = json.loads(capsys.readouterr().out)
        round_trip = doc["checks"][-1]
        assert round_trip["name"] == "written file round trip"
        assert round_trip["ok"] is False
        assert round_trip["total_violations"] == 1


def test_lift_cocycle_flow(tmp_path, capsys):
    src = tmp_path / "gz2.json"
    src.write_text(dumps_file(group_file(cyclic_group(2), supercocycle=z2_supercocycle(1))))
    out = tmp_path / "lifted.json"
    assert main(["lift-cocycle", str(src), "-o", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(["check", str(out), "--which", "cocycle3"]) == EXIT_OK
    lifted = load_file(out)
    assert lifted.group.order == 4
    assert lifted.cocycle is not None

    # an invalid supercocycle is refused with exit 1
    bad_doc = json.loads(src.read_text())
    bad_doc["payload"]["supercocycle"][1][1][1] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(bad_doc))
    assert main(["lift-cocycle", str(bad), "-o", str(tmp_path / "x.json")]) == EXIT_CHECK_FAILED


def test_extend_group_flow(tmp_path, capsys):
    src = tmp_path / "gz2.json"
    src.write_text(dumps_file(group_file(cyclic_group(2), omega=z2_supercocycle(1).omega)))
    out = tmp_path / "ext.json"
    assert main(["extend-group", str(src), "-o", str(out)]) == EXIT_OK
    ext = load_file(out)
    assert ext.group.order == 4
    assert ext.group.labels == ("0^0", "0^1", "1^0", "1^1")


def test_sgr_prints_relations(tmp_path, capsys):
    src = tmp_path / "ising.json"
    assert main(["catalog", "ising", "-o", str(src)]) == EXIT_OK
    capsys.readouterr()
    assert main(["sgr", str(src)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[X]^2 = (1+pi)[1]" in out
    assert "[X] = pi[X]" in out
    assert "majorana: X" in out


def test_sgr_json(tmp_path, capsys):
    src = tmp_path / "c6.json"
    assert main(["catalog", "ck", "6", "-o", str(src)]) == EXIT_OK
    capsys.readouterr()
    assert main(["sgr", str(src), "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["basis"] == ["V0", "V1", "V2", "V3"]
    assert doc["majorana"] == ["V3"]
    assert doc["ok"] is True


def test_sgr_wrong_kind(tmp_path):
    src = tmp_path / "vec.json"
    assert main(["catalog", "vec-zn", "2", "-o", str(src)]) == EXIT_OK
    assert main(["sgr", str(src)]) == EXIT_INPUT_ERROR


def test_sgr_prints_structure_constants(tmp_path, capsys):
    src = tmp_path / "ising.json"
    assert main(["catalog", "ising", "-o", str(src)]) == EXIT_OK
    capsys.readouterr()
    assert main(["sgr", str(src)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "structure constants:" in out
    assert "[X][X] -> [1]: 1+pi" in out


def test_sgr_reports_non_associative_ring(tmp_path, capsys):
    # the superfusion laws hold, so sgr reaches build_sgr's associativity check
    src = tmp_path / "z3-odd.json"
    src.write_text(dumps_file(superfusion_file(z3_parity_broken())))
    kind, message = outcome(reference_build_sgr, load_file(src).superfusion)
    assert kind == "error" and message.startswith("ring is not associative at (a, a, a2): ")
    assert main(["sgr", str(src)]) == EXIT_CHECK_FAILED
    out = capsys.readouterr().out
    assert "superfusion data: pass" in out
    assert f"note: associativity/unit failure: {message}\n" in out
    assert main(["sgr", str(src), "--json"]) == EXIT_CHECK_FAILED
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False and doc["checks"][0]["ok"] is True
    assert doc["notes"] == [f"associativity/unit failure: {message}"]


def test_sgr_renders_relations_once(tmp_path, monkeypatch, capsys):
    src = tmp_path / "ising.json"
    assert main(["catalog", "ising", "-o", str(src)]) == EXIT_OK
    calls = []
    render = grothendieck.relations_text
    monkeypatch.setattr(grothendieck, "relations_text", lambda ring: calls.append(ring) or render(ring))
    assert main(["sgr", str(src)]) == EXIT_OK
    assert len(calls) == 1
    assert "[X]^2 = (1+pi)[1]" in capsys.readouterr().out


def test_jobs_flag_matches_sequential(tmp_path, capsys):
    # the whole --json report minus elapsed_s, the exit code and the written
    # bytes, on every catalog table and its sign-flip mutant, at --jobs 1
    # and at --jobs 2
    commands = []
    for name, params in CATALOG:
        entry = build_entry(name, *params)
        if entry.sixj is None:
            continue
        write = fusion_file if entry.kind == "fusion" else superfusion_file
        stem = "-".join([name, *map(str, params)])
        cases = (("", entry.sixj, EXIT_OK), ("-flip", flip_entry(entry.sixj, middle_key(entry.sixj)), EXIT_CHECK_FAILED))
        for tag, table, want in cases:
            path = tmp_path / f"{stem}{tag}.json"
            path.write_text(dumps_file(write(entry.data, table)))
            commands.append((["check", str(path)], want))
        if entry.kind == "superfusion":
            commands.append((["underlying", str(tmp_path / f"{stem}.json")], EXIT_OK))
    assert len(commands) == 25
    for argv, want in commands:
        runs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"out-{len(runs)}.json"
            extra = ["-o", str(out)] if argv[0] == "underlying" else []
            code = main([*argv, *extra, "--jobs", jobs, "--json"])
            doc = json.loads(capsys.readouterr().out)
            del doc["elapsed_s"]
            runs.append((code, doc, out.read_bytes() if extra else None))
        assert runs[0][0] == want, argv
        assert runs[0] == runs[1], argv


@pytest.mark.parametrize(
    "command, flag",
    [
        ("lift-cocycle", ["--jobs", "2"]),
        ("extend-group", ["--jobs", "2"]),
        ("sgr", ["--jobs", "2"]),
        ("sgr", ["--max-violations", "3"]),
    ],
)
def test_commands_refuse_flags_they_do_not_read(command, flag, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, str(tmp_path / "in.json"), *flag])
    assert exc.value.code == EXIT_INPUT_ERROR
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, want",
    [
        (["check", "f.json"], {"file": "f.json", "which": "all", "json": False, "jobs": 1, "max_violations": 25}),
        (["check", "--json", "--jobs", "2", "f.json", "--which=cocycle3", "--max-violations=0"],
         {"file": "f.json", "which": "cocycle3", "json": True, "jobs": 2, "max_violations": 0}),
        (["check", "--which", "super-pentagon", "--max-violations", "7", "--", "-f.json"],
         {"file": "-f.json", "which": "super-pentagon", "json": False, "jobs": 1, "max_violations": 7}),
        (["underlying", "-o", "u.json", "f.json", "--jobs=3"],
         {"file": "f.json", "output": "u.json", "json": False, "jobs": 3, "max_violations": 25}),
        (["lift-cocycle", "f.json", "--output=l.json", "--json"],
         {"file": "f.json", "output": "l.json", "json": True, "max_violations": 25}),
        (["extend-group", "-oe.json", "--normalize", "f.json"],
         {"file": "f.json", "output": "e.json", "normalize": True, "json": False, "max_violations": 25}),
        (["sgr", "--json", "f.json"], {"file": "f.json", "json": True}),
        (["catalog", "vec-zn", "6", "-1", "-o", "v.json"],
         {"name": "vec-zn", "params": [6, -1], "list": False, "output": "v.json"}),
        (["catalog", "--list"], {"name": None, "params": [], "list": True, "output": None}),
    ],
)
def test_parser_reads_the_documented_grammar(argv, want):
    handler, args = cli.parse_args(argv)
    assert handler is importlib.import_module(f"sfckit.{cli._COMMANDS[argv[0]][0]}").handle
    assert vars(args) == want


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "a command is required"),
        (["verify", "f.json"], "invalid command: 'verify'"),
        (["check"], "the following arguments are required: FILE"),
        (["check", "--json"], "the following arguments are required: FILE"),
        (["check", "f.json", "g.json"], "unrecognized arguments: g.json"),
        (["check", "f.json", "--jobs"], "argument --jobs: expected one argument"),
        (["underlying", "f.json", "-o", "--json"], "argument -o/--output: expected one argument"),
        (["check", "f.json", "--which", "hexagon"], "argument --which: invalid choice: 'hexagon'"),
        (["check", "f.json", "--max-violations", "many"], "argument --max-violations: invalid int value: 'many'"),
        (["check", "f.json", "--json=yes"], "argument --json: ignored explicit argument 'yes'"),
        (["check", "f.json", "--output", "o.json"], "unrecognized arguments: --output"),
        (["check", "f.json", "--max-viol", "3"], "unrecognized arguments: --max-viol"),
        (["catalog", "vec-zn", "three"], "argument INT: invalid int value: 'three'"),
        (["check", "f.json", "--max-violations", "-2"], "argument --max-violations: must be at least 0, got -2"),
        (["check", "f.json", "--max-violations=-1"], "argument --max-violations: must be at least 0, got -1"),
        (["check", "f.json", "--jobs", "0"], "argument --jobs: must be at least 1, got 0"),
        (["underlying", "f.json", "--jobs=-3"], "argument --jobs: must be at least 1, got -3"),
    ],
)
def test_usage_errors_exit_2_with_one_line(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INPUT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"sfckit: error: {message}") and err.count("\n") == 1, err


def ising_even_flipped():
    """The Ising rules with every basis vector even and one entry of the
    table negated: a non-pointed super pentagon with violations."""
    data, table = ising_exact_table()
    return all_even(data), flip_entry(table, middle_key(table))


@pytest.mark.parametrize(
    "check, inputs",
    [
        (fusion.check_pentagon, ising_broken_table),
        (superfusion.check_super_pentagon, ising_even_flipped),
        (lambda *args, **kwargs: verify_lift(*args, **kwargs).super_pentagon, ising_even_flipped),
    ],
    ids=["check_pentagon", "check_super_pentagon", "verify_lift"],
)
def test_library_scans_read_jobs_below_1_as_one_job(check, inputs):
    # only the command line refuses --jobs 0; the library takes any jobs and
    # gives the same report, here on the row engine with violations
    data, table = inputs()
    reports = [check(data, table, max_violations=None, jobs=jobs).to_json() for jobs in (0, 1, 2, 64)]
    assert not reports[0]["ok"] and reports[0]["violations"]
    assert all(report == reports[0] for report in reports)


@pytest.mark.parametrize("command", [None, *cli._COMMANDS])
def test_help_names_every_flag(command, capsys):
    argv = ["-h"] if command is None else [command, "--help"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_OK
    out, err = capsys.readouterr()
    assert err == "" and "-h" in out
    if command is None:  # one usage line per command
        assert all(cli.usage(name) in out for name in cli._COMMANDS)
        return
    assert cli.usage(command) in out
    for flag in cli._COMMANDS[command][3]:
        assert all(option in out for option in cli._FLAGS[flag][0]), flag


def test_readme_shows_the_usage_of_every_command():
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command-line tool\n\n```\n", 1)[1].split("```", 1)[0]
    assert block.splitlines() == [cli.usage(name) for name in cli._COMMANDS]


def test_catalog_stdout(capsys):
    assert main(["catalog", "trivial"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "fusion"


def test_cli_import_starts_no_process_pool_machinery():
    # every scan runs in the calling process: importing the CLI loads no
    # concurrent.* module
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    code = "import sys, sfckit.cli; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_a_check_loads_neither_dataclasses_nor_argparse(tmp_path):
    # the decorators exec generated code on every import and argparse
    # builds its parsers at every start, and no .pyc file caches either
    path = tmp_path / "z6.json"
    path.write_text(dumps_file(group_file(cyclic_group(6))))
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    code = (
        "import sys; before = set(sys.modules); import sfckit.cli; "
        "code = sfckit.cli.main(['check', sys.argv[1], '--json']); "
        "print(code, sorted(set(sys.modules) - before), file=sys.stderr)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(path)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    exit_code, added = proc.stderr.split(" ", 1)
    assert exit_code == "0", proc.stderr
    assert json.loads(proc.stdout)["ok"] is True
    assert "sfckit.cocycles" in added
    for module in ("dataclasses", "argparse", "inspect", "gettext"):
        assert f"'{module}'" not in added, module


def test_jobs2_below_the_pool_gate_loads_no_pool_machinery(tmp_path):
    # every scan runs in the calling process: `check --jobs 2` loads no
    # concurrent.* module and still counts every instance of vec-zn 8
    path = tmp_path / "vec-z8.json"
    assert main(["catalog", "vec-zn", "8", "-o", str(path)]) == EXIT_OK
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    code = (
        "import sys, sfckit.cli; code = sfckit.cli.main(['check', sys.argv[1], '--jobs', '2', '--json']); "
        "print(code, sorted(m for m in sys.modules if m.startswith('concurrent')), file=sys.stderr)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(path)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.stderr.strip() == "0 []"
    assert json.loads(proc.stdout)["checks"][-1]["checked"] == 4096
