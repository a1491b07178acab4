"""Report types shared by the verification routines.

Verification never mutates its inputs and always produces a report; structural
problems with the input data itself raise instead.  Reports are deterministic:
identical inputs give identical reports.

The error classes that the command line maps to exit codes live here, in a
module that every command loads, and are re-exported by the modules that
raise them.
"""

from __future__ import annotations

DEFAULT_MAX_VIOLATIONS = 25


def _same_fields(self, other) -> bool:
    """Equality of two instances of one plain ``__slots__`` class, field by field."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    return [getattr(self, name) for name in self.__slots__] == [getattr(other, name) for name in self.__slots__]


def _unchecked(cls, **fields):
    """An instance of cls with these field values, made without cls.__init__
    and its checks: only for data derived from checked data, in the builders
    that tests/test_source_rules.py lists."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        setattr(obj, name, value)
    return obj


def _immutable(self, *args):
    """``__setattr__`` and ``__delattr__`` of a value class: its fields are set once, in ``__init__``."""
    raise AttributeError(f"{self.__class__.__name__} values are immutable")


class FusionError(Exception):
    """Structurally invalid fusion data or 6j table."""


class CocycleError(Exception):
    """Structurally invalid group or cocycle data, or a failed precondition."""


class CatalogError(Exception):
    """A catalog entry failed its own validation suite."""


class Violation:
    """One failed instance of a checked identity."""

    __slots__ = ("instance", "lhs", "rhs", "detail")

    def __init__(self, instance: tuple, lhs: object = None, rhs: object = None, detail: str = ""):
        self.instance = instance
        self.lhs = lhs
        self.rhs = rhs
        self.detail = detail

    __eq__ = _same_fields

    def render(self) -> str:
        if self.detail:
            return f"{self.instance}: {self.detail}"
        return f"{self.instance}: lhs = {self.lhs}, rhs = {self.rhs}"

    def to_json(self) -> dict:
        out: dict = {"instance": list(self.instance)}
        if self.lhs is not None:
            out["lhs"] = str(self.lhs)
        if self.rhs is not None:
            out["rhs"] = str(self.rhs)
        if self.detail:
            out["detail"] = self.detail
        return out


class CheckReport:
    """Outcome of one identity check over an enumerated instance space.

    ``violations`` holds at most the requested bound; ``total_violations``
    always counts all of them.
    """

    __slots__ = ("name", "ok", "checked", "violations", "total_violations", "warnings")

    def __init__(
        self,
        name: str,
        ok: bool,
        checked: int,
        violations: list[Violation] | None = None,
        total_violations: int = 0,
        warnings: list[str] | None = None,
    ):
        self.name = name
        self.ok = ok
        self.checked = checked
        self.violations = [] if violations is None else violations
        self.total_violations = total_violations
        self.warnings = [] if warnings is None else warnings

    __eq__ = _same_fields

    def summary(self) -> str:
        status = "pass" if self.ok else "FAIL"
        lines = [f"{self.name}: {status} ({self.checked} instances checked)"]
        if not self.ok:
            lines.append(
                f"  {self.total_violations} violation(s); showing {len(self.violations)}:"
            )
            lines.extend(f"    {v.render()}" for v in self.violations)
        for w in self.warnings:
            lines.append(f"  warning: {w}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "checked": self.checked,
            "total_violations": self.total_violations,
            "violations": [v.to_json() for v in self.violations],
            "warnings": list(self.warnings),
        }


class LawResult:
    """Pass/fail for one structural law, with every violated index tuple."""

    __slots__ = ("law", "ok", "violations")

    def __init__(self, law: str, ok: bool, violations: list | None = None):
        self.law = law
        self.ok = ok
        self.violations = [] if violations is None else violations

    __eq__ = _same_fields


class ValidationReport:
    __slots__ = ("subject", "laws", "warnings")

    def __init__(self, subject: str, laws: list[LawResult] | None = None, warnings: list[str] | None = None):
        self.subject = subject
        self.laws = [] if laws is None else laws
        self.warnings = [] if warnings is None else warnings

    @property
    def ok(self) -> bool:
        return all(law.ok for law in self.laws)

    def law(self, name: str) -> LawResult:
        for law in self.laws:
            if law.law == name:
                return law
        raise KeyError(name)

    def summary(self) -> str:
        status = "pass" if self.ok else "FAIL"
        lines = [f"{self.subject}: {status}"]
        for law in self.laws:
            mark = "ok" if law.ok else "FAIL"
            lines.append(f"  {law.law}: {mark}")
            for v in law.violations[:DEFAULT_MAX_VIOLATIONS]:
                lines.append(f"    {v}")
            if len(law.violations) > DEFAULT_MAX_VIOLATIONS:
                lines.append(f"    ... {len(law.violations)} total")
        for w in self.warnings:
            lines.append(f"  warning: {w}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "laws": [
                {
                    "law": law.law,
                    "ok": law.ok,
                    "violations": [list(map(str, v)) if isinstance(v, tuple) else str(v) for v in law.violations],
                }
                for law in self.laws
            ],
            "warnings": list(self.warnings),
        }
