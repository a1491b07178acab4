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
UNCHECKED_BUILDERS."""

import ast
import pathlib
import sys

SOURCES = sorted((pathlib.Path(__file__).resolve().parent.parent / "src" / "sfckit").glob("*.py"))
SLOW_TO_START = ("dataclasses", "argparse")
SINGLE_PROCESS = ("concurrent", "multiprocessing", "threading")
# (module, function): the only code that may name _unchecked.  The decoder
# makes every check of the FusionData, SixJTable and SuperFusionData
# constructors; the others derive their objects from data that has passed a
# constructor or the decoder.
UNCHECKED_BUILDERS = {
    ("serialize", "_decode_fusion"),
    ("serialize", "_decode_superfusion"),
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
