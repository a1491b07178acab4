"""Four rules on the runtime package, checked on the syntax tree of every
``src/sfckit/*.py``: it imports only the standard library, it imports
neither ``dataclasses`` nor ``argparse``, whose work at each start no
``.pyc`` file caches, no invariant is guarded by ``assert``, which
``python -O`` removes, and no value is tested with ``isinstance(x, int)``,
which accepts a bool (the plain-int test is ``type(x) is int``)."""

import ast
import pathlib
import sys

SOURCES = sorted((pathlib.Path(__file__).resolve().parent.parent / "src" / "sfckit").glob("*.py"))
SLOW_TO_START = ("dataclasses", "argparse")


def rule_breaches(source: str) -> list[str]:
    """Every assert statement, every absolute import outside the standard
    library, every import of a module that is slow to start and every
    isinstance(x, int)."""
    breaches = []
    for node in ast.walk(ast.parse(source)):
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
    return breaches


def test_runtime_is_stdlib_only_and_assert_free():
    assert len(SOURCES) >= 11
    breaches = [f"{path.name} {b}" for path in SOURCES for b in rule_breaches(path.read_text())]
    assert breaches == []


def test_rule_breaches_are_found():
    source = (
        "import os\nimport numpy as np\nfrom hypothesis import given\nfrom . import fusion\nassert os\n"
        "from dataclasses import dataclass\nimport argparse, json\n"
        "ok = isinstance(x, bool) or isinstance(x, (int, str))\nbad = isinstance(x, int)\n"
    )
    assert rule_breaches(source) == [
        "line 2: import of numpy, outside the standard library",
        "line 3: import of hypothesis, outside the standard library",
        "line 5: assert statement",
        "line 6: import of dataclasses, slow to start",
        "line 7: import of argparse, slow to start",
        "line 9: isinstance(..., int) accepts bool",
    ]
