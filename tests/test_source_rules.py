"""Two rules on the runtime package, checked on the syntax tree of every
``src/sfckit/*.py``: it imports only the standard library, and no invariant
is guarded by ``assert``, which ``python -O`` removes."""

import ast
import pathlib
import sys

SOURCES = sorted((pathlib.Path(__file__).resolve().parent.parent / "src" / "sfckit").glob("*.py"))


def rule_breaches(source: str) -> list[str]:
    """Every assert statement and every absolute import outside the standard library."""
    breaches = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assert):
            breaches.append(f"line {node.lineno}: assert statement")
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
    return breaches


def test_runtime_is_stdlib_only_and_assert_free():
    assert len(SOURCES) >= 11
    breaches = [f"{path.name} {b}" for path in SOURCES for b in rule_breaches(path.read_text())]
    assert breaches == []


def test_rule_breaches_are_found():
    source = "import os\nimport numpy as np\nfrom hypothesis import given\nfrom . import fusion\nassert os\n"
    assert rule_breaches(source) == [
        "line 2: import of numpy, outside the standard library",
        "line 3: import of hypothesis, outside the standard library",
        "line 5: assert statement",
    ]
