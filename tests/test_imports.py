"""Each command imports only the modules it runs.

Every case runs in a fresh interpreter with PYTHONDONTWRITEBYTECODE=1, as
a user's command does, and pins the sfckit modules (and any process-pool
machinery) loaded when the command returns: the front end, the command's
own handler module and no other, and its engines.  The field arithmetic
(sfckit.scalars) loads only with a 6j table or a group's 3-(super)cocycle,
and no command loads the 6j invertibility module.  No command loads
fractions or decimal, not even a failing check that prints its violations:
a value is printed and written from its int numerators and denominator.

Every file loads once, under one name: "python -m sfckit.cli" runs the front
end as __main__ and imports no sfckit.cli, and in a pytest run no
repository file sits in sys.modules under two names.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from gen import flip_cube, flip_entry
from sfckit.catalog import build_entry, omega_product_z2, standard_three_cocycle, z2_supercocycle
from sfckit.cli import EXIT_CHECK_FAILED, EXIT_OK, main
from sfckit.cocycles import ThreeCocycle, cyclic_group
from sfckit.serialize import dumps_file, fusion_file, group_file, superfusion_file
from tests.cases import ising_broken_table, ising_exact_table, middle_key

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
CLI = {"sfckit", "sfckit.cli", "sfckit.reporting", "sfckit.serialize"}
WRITER, ROW_ENGINE, SCALARS = "sfckit._writer", "sfckit._rowscan", "sfckit.scalars"

CHILD = """
import contextlib, importlib, io, json, sys
module, function, argv = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
code = None
imported = importlib.import_module(module)
if argv is not None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = getattr(imported, function)(argv)
    code = getattr(code, "kind", code)  # an exit code, or the kind of a loaded file
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] in ("sfckit", "concurrent", "fractions", "decimal"))]))
"""


def loaded_after(argv=None, module="sfckit.cli", function="main"):
    """Exit code of main(argv) (None without argv; the kind of the file
    for load_file) and the sfckit, concurrent, fractions and decimal
    modules loaded after it, in a fresh interpreter that first imports
    module."""
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, module, function, json.dumps(argv)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout)
    return code, set(loaded)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    paths = {"group": root / "gz2.json", "fusion": root / "vec-z3.json", "super": root / "super-z2.json"}
    paths["ising"], paths["rules"] = root / "ising.json", root / "ck6.json"
    paths["omega"] = root / "omega-z2.json"
    # mutants whose check fails: group rules, rules for the row engine, a cube
    paths["vec_flipped"], paths["ising_flipped"] = root / "vec-z3-flipped.json", root / "ising-flipped.json"
    paths["cube_flipped"] = root / "z3-flipped.json"
    vec = build_entry("vec-zn", 3)
    paths["vec_flipped"].write_text(dumps_file(fusion_file(vec.data, flip_entry(vec.sixj, middle_key(vec.sixj)))))
    paths["ising_flipped"].write_text(dumps_file(fusion_file(*ising_broken_table())))
    cube = ThreeCocycle(flip_cube(standard_three_cocycle(3).values, (1, 1, 1)))
    paths["cube_flipped"].write_text(dumps_file(group_file(cyclic_group(3), cocycle=cube)))
    paths["omega"].write_text(dumps_file(group_file(cyclic_group(2), omega_product_z2())))
    paths["group"].write_text(dumps_file(group_file(cyclic_group(2), supercocycle=z2_supercocycle(1))))
    paths["rules"].write_text(dumps_file(superfusion_file(build_entry("ck", 6).data)))
    paths["ising"].write_text(dumps_file(fusion_file(*ising_exact_table())))
    assert main(["catalog", "vec-zn", "3", "-o", str(paths["fusion"])]) == EXIT_OK
    assert main(["catalog", "super-z2", "1", "-o", str(paths["super"])]) == EXIT_OK
    return {kind: str(path) for kind, path in paths.items()}


def test_import_sfckit_loads_no_submodule():
    assert loaded_after(module="sfckit") == (None, {"sfckit"})


def test_import_sfckit_cli_loads_only_the_front_end():
    # no handler module and no field arithmetic
    assert loaded_after() == (None, CLI)


# --jobs 2 on every command that takes it: every scan runs in one process,
# so none may load pool machinery, and a table with entries is scanned
# without the scan planner (sfckit._plan).
# The G^4 kernel (sfckit._cube) loads only where a 3-(super)cocycle check or
# the (super) pentagon of a group's rules runs, the row engine
# (sfckit._rowscan) only where the (super) pentagon of other rules runs, and
# the sfc-1 writer (sfckit._writer) only where a command writes a file.  The
# field arithmetic loads only where the input carries a 6j table or a group's
# 3-(super)cocycle: sgr and underlying on the rules of ck 6, and the omega
# checks of a group file with only an omega table, load none.  Each command
# loads its own handler module and no other, and none loads
# sfckit._invertibility.
@pytest.mark.parametrize(
    "argv, extra",
    [
        ("check {group} --jobs 2", {"sfckit.cocycles", "sfckit._cube", SCALARS}),
        ("lift-cocycle {group} -o {out}", {"sfckit.cocycles", "sfckit._cube", WRITER, SCALARS}),
        ("extend-group {group} -o {out}", {"sfckit.cocycles", WRITER, SCALARS}),
        ("check {fusion} --jobs 2", {"sfckit.fusion", "sfckit._cube", SCALARS}),
        ("check {super} --jobs 2", {"sfckit.fusion", "sfckit.superfusion", "sfckit._cube", SCALARS}),
        ("sgr {super}", {"sfckit.fusion", "sfckit.superfusion", "sfckit.grothendieck", SCALARS}),
        (
            "underlying {super} --jobs 2 -o {out}",
            {"sfckit.fusion", "sfckit.superfusion", "sfckit.envelope", "sfckit._cube", WRITER, SCALARS},
        ),
        (
            "catalog vec-zn 3 -o {out}",
            {"sfckit.catalog", "sfckit.cocycles", "sfckit.fusion", "sfckit.superfusion", "sfckit._cube", WRITER,
             SCALARS},
        ),
        # the Ising rules are not a group's: the row engine scans them
        ("check {ising} --jobs 2", {"sfckit.fusion", ROW_ENGINE, SCALARS}),
        ("sgr {rules}", {"sfckit.fusion", "sfckit.superfusion", "sfckit.grothendieck"}),
        ("underlying {rules} -o {out}", {"sfckit.fusion", "sfckit.superfusion", "sfckit.envelope", WRITER}),
        # a group file with only an omega table: no scalar is read
        ("extend-group {omega} -o {out}", {"sfckit.cocycles", WRITER}),
        ("check {omega} --which cocycle2", {"sfckit.cocycles"}),
    ],
)
def test_command_loads_only_its_engines(argv, extra, inputs, tmp_path):
    argv = argv.format(out=tmp_path / "out.json", **inputs).split()
    code, loaded = loaded_after(argv)
    assert code == EXIT_OK
    assert loaded == CLI | {f"sfckit._cmd_{argv[0].replace('-', '_')}"} | extra


# At the default --jobs: a command that only reads loads no writer, and the
# (super) pentagon of a group's rules loads no row engine.
@pytest.mark.parametrize(
    "argv, absent",
    [
        ("check {group}", {WRITER, ROW_ENGINE}),
        ("check {fusion}", {WRITER, ROW_ENGINE}),
        ("check {super}", {WRITER, ROW_ENGINE}),
        ("sgr {super}", {WRITER, ROW_ENGINE}),
        ("underlying {super} -o {out}", {ROW_ENGINE}),
    ],
)
def test_command_leaves_the_engines_it_does_not_run_unloaded(argv, absent, inputs, tmp_path):
    code, loaded = loaded_after(argv.format(out=tmp_path / "out.json", **inputs).split())
    assert code == EXIT_OK
    assert not loaded & absent


@pytest.mark.parametrize(
    "argv, extra",
    [
        ("check {vec_flipped}", {"sfckit.fusion", "sfckit._cube", SCALARS}),
        ("check {ising_flipped}", {"sfckit.fusion", ROW_ENGINE, SCALARS}),
        ("check {cube_flipped}", {"sfckit.cocycles", "sfckit._cube", SCALARS}),
        ("check {cube_flipped} --json", {"sfckit.cocycles", "sfckit._cube", SCALARS}),
    ],
)
def test_a_failing_check_prints_its_violations_without_fractions(argv, extra, inputs):
    # the printed sides are exact values: str formats them from ints
    code, loaded = loaded_after(argv.format(**inputs).split())
    assert code == EXIT_CHECK_FAILED
    assert loaded == CLI | {"sfckit._cmd_check"} | extra


def test_loading_a_file_loads_no_writer(inputs):
    kind, loaded = loaded_after(inputs["super"], module="sfckit.serialize", function="load_file")
    assert kind == "superfusion"
    assert loaded == CLI - {"sfckit.cli"} | {"sfckit.fusion", "sfckit.superfusion", SCALARS}


COMPARE = """
import sys
from sfckit.scalars import ONE
foreign = ONE == "x"
loaded = "fractions" in sys.modules
from fractions import Fraction
print(foreign, loaded, ONE == Fraction(1), ONE == Fraction(1, 2))
"""


def test_comparing_with_a_foreign_object_loads_no_fractions():
    # a Fraction exists only once fractions is loaded, so the comparison
    # need not import it; once loaded, Fractions still compare by value
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", COMPARE], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "True", "False"]


def test_python_m_imports_no_second_front_end(inputs):
    # under -m the front end runs as __main__; no handler imports it back as
    # sfckit.cli, so cli.py is compiled once
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-X", "importtime", "-m", "sfckit.cli", "check", inputs["fusion"]]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_OK, proc.stderr
    imported = [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")]
    assert "sfckit._cmd_check" in imported
    assert "sfckit.cli" not in imported


def test_no_repository_file_loads_under_two_names():
    # every test module, imported by the name pytest gives it (tests/ is on
    # sys.path); a file that one of them, or a module it loads, imports under
    # a second name (tests.test_fusion, perfbench.gen) shows up twice
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        importlib.import_module(path.stem)
    names = {}
    for name, module in list(sys.modules.items()):
        file = getattr(module, "__file__", None)
        if file and pathlib.Path(file).resolve().is_relative_to(ROOT):
            names.setdefault(pathlib.Path(file).resolve().relative_to(ROOT).as_posix(), []).append(name)
    assert "tests/test_fusion.py" in names and "perfbench/gen.py" in names
    assert {path: sorted(found) for path, found in names.items() if len(found) > 1} == {}
