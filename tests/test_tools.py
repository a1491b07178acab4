"""Smoke tests of the measurement scripts under tools/."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_scan_cost_prints_the_cost_per_instance():
    proc = subprocess.run(
        [sys.executable, "tools/scan_cost.py", "--tiny", "--repeat", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout)
    assert list(result) == [
        "vec-zn 2",
        "vec-zn 3",
        "vec-zn 2 flipped",
        "lifted super-zn-even 2",
        "gauged ising x z1",
        "gauged ising x z1 flipped",
    ]
    assert [row["instances"] for row in result.values()][:4] == [2**4, 3**4, 2**4, 4**4]
    assert [row["violations"] > 0 for row in result.values()] == [False, False, True, False, False, True]
    assert [row["blocks"] for row in result.values()][:4] == [2**3, 3**3, 2**3, 4**3]
    # the rules of Z/n go to the G^4 kernel, the Ising rules to the row engine
    assert [row["path"] for row in result.values()] == ["group"] * 4 + ["row"] * 2
    # the row engine reduces the small moduli of the pointed tables by x % m,
    # and the 385-bit one of the gauged Ising table (N = 8) by folding
    assert [row["reducer"] for row in result.values()] == ["int"] * 4 + ["fold"] * 2
    assert [row["modulus_bits"] for row in result.values()][4:] == [385, 385]
    assert all(0 < row["modulus_bits"] < 320 for row in list(result.values())[:4])
    for row in result.values():
        assert row["best_s"] > 0 and row["us_per_instance"] > 0
        assert row["row_engine"] == "sfckit._rowscan.row_scan"
        assert row["row_best_s"] > 0 and row["row_us_per_instance"] > 0
        assert row["invertibility_best_s"] > 0 and row["us_per_block"] > 0


def test_scan_cost_times_the_row_engine_apart_from_the_dispatched_scan():
    # on vec-zn 8 the dispatched scan is the G^4 kernel, at about a seventh
    # of the row engine's cost: a row time that fell back to the dispatched
    # scan would read about the same
    proc = subprocess.run(
        [sys.executable, "tools/scan_cost.py", "--repeat", "3"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    row = json.loads(proc.stdout)["vec-zn 8"]
    assert (row["path"], row["row_engine"]) == ("group", "sfckit._rowscan.row_scan")
    assert row["row_best_s"] > row["best_s"]


def test_codec_cost_prints_the_cost_per_record():
    proc = subprocess.run(
        [sys.executable, "tools/codec_cost.py", "--tiny", "--repeat", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout)
    assert list(result) == ["vec-zn 2", "super-zn-even 2", "ck 6", "gauged ising x z1", "carry z3 group"]
    # vec-zn 2: 4 mult and 8 sixj records; the Z/3 group file: two 27-entry cubes
    assert result["vec-zn 2"]["records"] == 4 + 8
    assert result["carry z3 group"]["records"] == 2 * 3**3
    for row in result.values():
        assert row["bytes"] > 0 and row["dump_best_s"] > 0 and row["load_best_s"] > 0
        assert row["dump_us_per_record"] > 0 and row["load_us_per_record"] > 0


def test_import_cost_prints_the_modules_each_command_loads():
    proc = subprocess.run(
        [sys.executable, "tools/import_cost.py", "--tiny", "--repeat", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout)
    assert list(result) == ["check", "underlying", "lift-cocycle", "sgr", "underlying-rules"]
    assert [row["input"] for row in result.values()] == [
        "vec-zn 3", "super-zn-even 2", "super-zn-even 2 group", "ck 6", "ck 6"
    ]
    # only the commands that write load the writer, and only those with a
    # table or a group the field arithmetic; no command here runs the row engine
    writes = {name: "sfckit._writer" in row["modules"] for name, row in result.items()}
    assert writes == {"check": False, "underlying": True, "lift-cocycle": True, "sgr": False, "underlying-rules": True}
    scalars = {name: "sfckit.scalars" in row["modules"] for name, row in result.items()}
    assert scalars == {"check": True, "underlying": True, "lift-cocycle": True, "sgr": False, "underlying-rules": False}
    # each command's own handler module, and only it, is timed
    handlers = {name: [m for m in row["modules"] if m.startswith("sfckit._cmd_")] for name, row in result.items()}
    assert handlers == {
        "check": ["sfckit._cmd_check"], "underlying": ["sfckit._cmd_underlying"],
        "lift-cocycle": ["sfckit._cmd_lift_cocycle"], "sgr": ["sfckit._cmd_sgr"],
        "underlying-rules": ["sfckit._cmd_underlying"],
    }
    for row in result.values():
        assert {"sfckit", "sfckit.cli", "sfckit.serialize"} <= set(row["modules"])
        assert "sfckit._rowscan" not in row["modules"]
        assert all(us >= 0 for us in row["modules"].values())
        assert row["total_us"] >= max(row["modules"].values()) > 0
