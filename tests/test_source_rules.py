"""Six rules on the runtime package, checked on the syntax tree of every
``src/sfckit/*.py``: it imports only the standard library, it imports
neither ``dataclasses`` nor ``argparse``, whose work at each start no
``.pyc`` file caches, it imports none of ``concurrent``,
``multiprocessing`` and ``threading``, so every scan runs in one process
(a pool never beat one process on any measured size), no invariant is
guarded by ``assert``, which ``python -O`` removes, no value is tested with ``isinstance(x, int)``,
which accepts a bool (the plain-int test is ``type(x) is int``), and
``reporting._unchecked``, which builds an object without its constructor's
checks, is named only in the builders of derived data listed in
UNCHECKED_BUILDERS.

Two more rules keep the example inputs in one home: no script under
``tools/`` imports a ``tests.test_*`` module, and ``tests/cases.py``, where
the tests and tools build their inputs, imports no ``tests.test_*`` module
and no ``_``-prefixed sfckit module or name, so a tool can build its inputs
against an older tree's sfckit.

Three rules keep every file loaded once, under one name: no command handler
(``src/sfckit/_cmd_*.py``) imports the front end ``sfckit.cli``, which
``python -m sfckit.cli`` runs as ``__main__``; no module under ``tests/``
imports a test module (``tests.test_*`` or a bare ``test_*``), which pytest
has loaded under its bare name, so shared oracles live in
``tests/oracles.py``; and none imports ``perfbench.*`` by package path, as
perfbench's own modules import each other by bare name (``tests/conftest.py``
puts ``perfbench/`` on the path)."""

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "sfckit").glob("*.py"))
SLOW_TO_START = ("dataclasses", "argparse")
SINGLE_PROCESS = ("concurrent", "multiprocessing", "threading")
# (module, function): the only code that may name _unchecked.  The decoder
# makes every check of the FusionData, SixJTable, SuperFusionData,
# GroupTable, TwoCocycleZ2, ThreeCocycle and SuperCocycle constructors; the
# others derive their objects from data that has passed a constructor or
# the decoder.
UNCHECKED_BUILDERS = {
    ("serialize", "_decode_fusion"),
    ("serialize", "_decode_superfusion"),
    ("serialize", "_decode_group"),
    ("envelope", "underlying_fusion_rules"),
    ("envelope", "_twist"),
    ("cocycles", "lift_supercocycle"),
    ("cocycles", "_extension"),
    ("catalog", "pointed_fusion_data"),
}


def unchecked_uses(tree: ast.AST, scope: str = "") -> list[tuple[int, str]]:
    """(line, scope) of every use of the name _unchecked, bare or as an
    attribute, with scope the outermost function or class around it ("" in
    module code)."""
    uses = []
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if not scope and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = node.name
        if "_unchecked" in (getattr(node, "id", None), getattr(node, "attr", None)):
            uses.append((node.lineno, scope))
        uses += unchecked_uses(node, inner)
    return uses


def rule_breaches(source: str, stem: str = "") -> list[str]:
    """Every assert statement, every absolute import outside the standard
    library, every import of a module that is slow to start or that runs
    work in more than one process or thread, every
    isinstance(x, int) and every use of _unchecked outside UNCHECKED_BUILDERS
    (stem is the module's file name without .py)."""
    tree = ast.parse(source)
    breaches = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            breaches.append(f"line {node.lineno}: assert statement")
            continue
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and isinstance(node.args[1], ast.Name)
            and node.args[1].id == "int"
        ):
            breaches.append(f"line {node.lineno}: isinstance(..., int) accepts bool")
            continue
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        for module in modules:
            if module.split(".")[0] not in sys.stdlib_module_names:
                breaches.append(f"line {node.lineno}: import of {module}, outside the standard library")
            elif module.split(".")[0] in SLOW_TO_START:
                breaches.append(f"line {node.lineno}: import of {module}, slow to start")
            elif module.split(".")[0] in SINGLE_PROCESS:
                breaches.append(f"line {node.lineno}: import of {module}, a second process or thread")
    for line, scope in unchecked_uses(tree):
        if (stem, scope) not in UNCHECKED_BUILDERS:
            breaches.append(f"line {line}: _unchecked used in {scope or 'module code'}, not a builder of derived data")
    return breaches


def test_runtime_is_stdlib_only_and_assert_free():
    assert len(SOURCES) >= 11
    breaches = [f"{path.name} {b}" for path in SOURCES for b in rule_breaches(path.read_text(), path.stem)]
    assert breaches == []


def test_unchecked_builders_are_exactly_the_listed_ones():
    # no stale entry: each listed builder still builds unchecked
    used = {(path.stem, scope) for path in SOURCES for _, scope in unchecked_uses(ast.parse(path.read_text()))}
    assert used == UNCHECKED_BUILDERS


def test_rule_breaches_are_found():
    source = (
        "import os\nimport numpy as np\nfrom hypothesis import given\nfrom . import fusion\nassert os\n"
        "from dataclasses import dataclass\nimport argparse, json\n"
        "from concurrent import futures\nimport multiprocessing, threading\n"
        "ok = isinstance(x, bool) or isinstance(x, (int, str))\nbad = isinstance(x, int)\n"
        "def _decode_fusion(payload):\n    return reporting._unchecked(FusionData, labels=payload)\n"
    )
    assert rule_breaches(source) == [
        "line 2: import of numpy, outside the standard library",
        "line 3: import of hypothesis, outside the standard library",
        "line 5: assert statement",
        "line 6: import of dataclasses, slow to start",
        "line 7: import of argparse, slow to start",
        "line 8: import of concurrent, a second process or thread",
        "line 9: import of multiprocessing, a second process or thread",
        "line 9: import of threading, a second process or thread",
        "line 11: isinstance(..., int) accepts bool",
        "line 13: _unchecked used in _decode_fusion, not a builder of derived data",
    ]


def input_rule_breaches(source: str, cases: bool) -> list[str]:
    """Every import of a tests.test_* module and, in tests/cases.py (cases
    True), every import of a _-prefixed sfckit module or name."""
    breaches = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            if name.startswith("tests.test_"):
                breaches.append(f"line {node.lineno}: import of {name}, a test module")
            elif cases and name.split(".")[0] == "sfckit" and "._" in name:
                breaches.append(f"line {node.lineno}: import of {name}, private to sfckit")
    return breaches


def test_tools_import_no_test_module():
    tools = sorted((ROOT / "tools").glob("*.py"))
    assert len(tools) >= 4
    breaches = [f"{path.name} {b}" for path in tools for b in input_rule_breaches(path.read_text(), cases=False)]
    assert breaches == []


def test_cases_import_no_test_module_and_nothing_private():
    assert input_rule_breaches((ROOT / "tests" / "cases.py").read_text(), cases=True) == []


def test_input_rule_breaches_are_found():
    source = (
        "from tests.test_kernel import CATALOG\nimport tests.test_fusion\nfrom tests import test_scalars\n"
        "from tests.cases import flip\nfrom sfckit import _rowscan, fusion\nfrom sfckit._cube import scan\n"
        "from sfckit.fusion import _products_of, check_pentagon\nimport sfckit.scalars\n"
    )
    assert input_rule_breaches(source, cases=False) == [
        "line 1: import of tests.test_kernel.CATALOG, a test module",
        "line 2: import of tests.test_fusion, a test module",
        "line 3: import of tests.test_scalars, a test module",
    ]
    assert input_rule_breaches(source, cases=True)[3:] == [
        "line 5: import of sfckit._rowscan, private to sfckit",
        "line 6: import of sfckit._cube.scan, private to sfckit",
        "line 7: import of sfckit.fusion._products_of, private to sfckit",
    ]


def load_once_breaches(source: str, handler: bool) -> list[str]:
    """In a command handler (handler True), every import of the front end,
    sfckit.cli or the relative .cli; in a module under tests/, every import
    of a test module, tests.test_* or a bare test_*, and of perfbench.* by
    package path."""
    breaches = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            prefix = "." * node.level + (f"{node.module}." if node.module else "")
            names = [prefix + alias.name for alias in node.names]
        else:
            continue
        for name in names:
            if handler and f"{name}.".startswith((".cli.", "sfckit.cli.")):
                breaches.append(f"line {node.lineno}: import of {name}, the front end")
            elif not handler and name.startswith(("tests.test_", "test_")):
                breaches.append(f"line {node.lineno}: import of {name}, a test module")
            elif not handler and name.split(".")[0] == "perfbench":
                breaches.append(f"line {node.lineno}: import of {name}, perfbench by package path")
    return breaches


def test_command_handlers_import_no_front_end():
    handlers = sorted((ROOT / "src" / "sfckit").glob("_cmd_*.py"))
    assert len(handlers) >= 6
    breaches = [f"{path.name} {b}" for path in handlers for b in load_once_breaches(path.read_text(), handler=True)]
    assert breaches == []


def test_tests_import_no_test_module_and_perfbench_by_bare_name():
    modules = sorted((ROOT / "tests").glob("*.py"))
    assert {"cases.py", "conftest.py", "oracles.py"} < {path.name for path in modules}
    breaches = [f"{path.name} {b}" for path in modules for b in load_once_breaches(path.read_text(), handler=False)]
    assert breaches == []


def test_load_once_rule_breaches_are_found():
    source = (
        "from .cli import _Run\nfrom . import cli, reporting\nimport sfckit.cli\nfrom sfckit.cli import main\n"
        "from .client import x\nfrom .serialize import save_file\n"
        "from tests.test_fusion import naive_pentagon_violations\nfrom tests import test_scalars\n"
        "import test_ring_kernel\nfrom tests.oracles import outcome\nfrom perfbench.gen import flip_entry\n"
        "import perfbench.workloads\nfrom gen import gauge\nfrom workloads import WORKLOADS\n"
    )
    assert load_once_breaches(source, handler=True) == [
        "line 1: import of .cli._Run, the front end",
        "line 2: import of .cli, the front end",
        "line 3: import of sfckit.cli, the front end",
        "line 4: import of sfckit.cli.main, the front end",
    ]
    assert load_once_breaches(source, handler=False) == [
        "line 7: import of tests.test_fusion.naive_pentagon_violations, a test module",
        "line 8: import of tests.test_scalars, a test module",
        "line 9: import of test_ring_kernel, a test module",
        "line 11: import of perfbench.gen.flip_entry, perfbench by package path",
        "line 12: import of perfbench.workloads, perfbench by package path",
    ]
