"""Command-line front end.

Commands: check, underlying, lift-cocycle, extend-group, sgr, catalog.
Exit codes: 0 = all requested checks passed, 1 = a check or verification
failed, 2 = the input could not be parsed or is schema-invalid, or the
output could not be written, 3 = an internal error.

A command that writes a document to stdout (no -o) prints its report on
stderr, so stdout carries that document alone.

Each command's handler is the handle function of its own private module
(_cmd_check, _cmd_underlying, ...), which parse_args imports; the handler
imports the engines it runs.  So a command compiles only its own handler and
engines, the sfc-1 writer only if it writes, and the field arithmetic
(scalars) only to read a 6j table or a group's 3-(super)cocycle or to run a
pentagon scan: sgr and underlying on (super)fusion rules alone, and
extend-group on a group with only an omega table, compile none.  The handler
modules import this one, so under "python -m sfckit.cli" it is loaded a
second time, as sfckit.cli beside __main__; the two copies raise and catch
the same classes, so a command runs the same either way.

One parser (parse_args) reads the command line from two tables: _FLAGS,
each flag with its value and its check, and _COMMANDS, each command with its
operands and the flags it reads; the -h text and the usage lines come from
the same tables.  A usage error, such as a flag the command does not read,
a missing or malformed value, --jobs below 1 or --max-violations below 0,
prints one "sfckit: error:" line and exits 2.  argparse is not used: its
import and its parsers cost a few milliseconds at every start.
"""

from __future__ import annotations

import json
import re
import sys
import time
from types import SimpleNamespace

from .reporting import DEFAULT_MAX_VIOLATIONS, CatalogError, CocycleError, FusionError
from .serialize import CategoryFile, SchemaError, dumps_file, read_document, save_file, sha256_digest

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3

CHECK_KINDS = ("pentagon", "super-pentagon", "cocycle2", "cocycle3", "supercocycle", "all")


class _Run:
    """Collects check reports and prints them, each by its own renderer."""

    def __init__(self, command: str, args):
        self.command = command
        self.args = args
        self.reports: list = []
        self.notes: list[str] = []
        self.input_digest = None
        self.input_path = None
        self.started = time.perf_counter()

    def read_input(self, path: str) -> CategoryFile:
        self.input_path = path
        raw, cf = read_document(path)
        self.input_digest = sha256_digest(raw)
        return cf

    def add(self, report) -> bool:
        self.reports.append(report)
        return report.ok

    def note(self, text: str) -> None:
        self.notes.append(text)

    def finish(self, ok: bool, extra: dict | None = None) -> int:
        elapsed = time.perf_counter() - self.started
        doc = {
            "command": self.command,
            "input": self.input_path,
            "digest": self.input_digest,
            "ok": ok,
            "checks": [report.to_json() for report in self.reports],
            "notes": self.notes,
            "elapsed_s": round(elapsed, 6),
        }
        if extra:
            doc.update(extra)
        # without -o, stdout carries the written document alone
        out = sys.stderr if getattr(self.args, "output", "") is None else sys.stdout
        if getattr(self.args, "json", False):
            print(json.dumps(doc, sort_keys=True, indent=2), file=out)
        else:
            for report in self.reports:
                print(report.summary(), file=out)
            for note in self.notes:
                print(f"note: {note}", file=out)
            print(f"result: {'pass' if ok else 'FAIL'} ({elapsed:.3f}s, input {self.input_digest})", file=out)
        return EXIT_OK if ok else EXIT_CHECK_FAILED


def _write_output(args, cf: CategoryFile) -> None:
    if args.output:
        save_file(args.output, cf)
    else:
        sys.stdout.write(dumps_file(cf))


# -- argument parsing --------------------------------------------------------------


def _usage_error(message: str):
    print(f"sfckit: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_INPUT_ERROR)


def _which(text: str) -> str:
    if text not in CHECK_KINDS:
        raise ValueError(f"invalid choice: {text!r} (choose from {', '.join(CHECK_KINDS)})")
    return text


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


def _at_least(least: int):
    def parse(text: str) -> int:
        value = _int(text)
        if value < least:
            raise ValueError(f"must be at least {least}, got {value}")
        return value

    return parse


# Each flag with its option strings, the name of its value (None for a switch),
# the function that reads and checks the value, its default and its help text.
_FLAGS = {
    "which": (("--which",), "WHICH", _which, "all", f"the checks to run: {' | '.join(CHECK_KINDS)} (default: all)"),
    "normalize": (("--normalize",), None, None, False, "apply the constant-coboundary normalization pre-pass to omega"),
    "json": (("--json",), None, None, False, "emit a machine-readable report"),
    "jobs": (("--jobs",), "N", _at_least(1), 1, "accepted and checked; every scan runs in one process (default: 1)"),
    "max-violations": (("--max-violations",), "V", _at_least(0), DEFAULT_MAX_VIOLATIONS,
                       f"bound on violations listed per check (default: {DEFAULT_MAX_VIOLATIONS})"),
    "output": (("-o", "--output"), "OUT", str, None, "write the result to this file"),
    "list": (("--list",), None, None, False, "list the available entries"),
}

# Each command with the module whose handle function runs it, its operands,
# its help text, and the flags that handler reads; a command accepts no other
# flag.  Every command but catalog takes one FILE.
_COMMANDS = {
    "check": ("_cmd_check", "FILE", "run verification checks on a category file",
              ("which", "json", "jobs", "max-violations")),
    "underlying": ("_cmd_underlying", "FILE", "construct the underlying fusion category",
                   ("output", "json", "jobs", "max-violations")),
    "lift-cocycle": ("_cmd_lift_cocycle", "FILE", "lift a 3-supercocycle to the central extension",
                     ("output", "json", "max-violations")),
    "extend-group": ("_cmd_extend_group", "FILE", "build the Z/2 central extension of a group",
                     ("output", "normalize", "json", "max-violations")),
    "sgr": ("_cmd_sgr", "FILE", "print the pi-Grothendieck ring of a superfusion file", ("json",)),
    "catalog": ("_cmd_catalog", "[NAME [INT...]]", "emit a built-in example as a category file", ("list", "output")),
}


def usage(command: str) -> str:
    """One command's grammar: sfckit COMMAND OPERANDS [FLAG]..."""
    _, operands, _, flags = _COMMANDS[command]
    words = ["sfckit", command, operands]
    for key in flags:
        names, metavar = _FLAGS[key][:2]
        words.append(f"[{names[0]} {metavar}]" if metavar else f"[{names[0]}]")
    return " ".join(words)


def _help(command: str | None) -> str:
    if command is None:
        lines = ["usage: sfckit COMMAND ...", "",
                 "Exact verification toolkit for fusion and superfusion category data.", ""]
        for name, (_, _, text, _) in _COMMANDS.items():
            lines += [usage(name), f"    {text}"]
        lines += ["", "sfckit COMMAND -h describes the flags of COMMAND."]
        return "\n".join(lines)
    lines = [f"usage: {usage(command)}", "", _COMMANDS[command][2], ""]
    for key in _COMMANDS[command][3]:
        names, metavar, _, _, text = _FLAGS[key]
        head = ", ".join(names) + (f" {metavar}" if metavar else "")
        lines.append(f"  {head:<22}{text}")
    lines.append(f"  {'-h, --help':<22}print this help and exit")
    return "\n".join(lines)


_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


def _is_operand(token: str) -> bool:
    """Whether a word that names no flag is an operand or a flag's value:
    as in argparse, "-", a negative number and a word with a space are."""
    return not token.startswith("-") or token == "-" or " " in token or bool(_NEGATIVE_NUMBER.fullmatch(token))


def parse_args(argv: list[str]):
    """The handler (its module's handle, imported here) and the arguments of a
    command line, by the tables above.

    Flags and operands may come in any order, a flag's value as the next
    word or after "=", a short flag's also joined to it (-oOUT); "--" ends
    the flags.  A usage error prints one "sfckit: error:" line and raises
    SystemExit(2); -h prints the help and raises SystemExit(0).
    """
    if not argv:
        _usage_error(f"a command is required ({', '.join(_COMMANDS)})")
    command, rest = argv[0], list(argv[1:])
    if command in ("-h", "--help"):
        print(_help(None))
        raise SystemExit(EXIT_OK)
    if command not in _COMMANDS:
        _usage_error(f"invalid command: {command!r} (choose from {', '.join(_COMMANDS)})")
    module, operands, _, flags = _COMMANDS[command]
    options = {name: key for key in flags for name in _FLAGS[key][0]}
    args = SimpleNamespace(**{key.replace("-", "_"): _FLAGS[key][3] for key in flags})
    words = []
    while rest:
        token = rest.pop(0)
        if token in ("-h", "--help"):
            print(_help(command))
            raise SystemExit(EXIT_OK)
        if token == "--":
            words += rest
            break
        name, eq, value = token.partition("=")
        if token in options:
            key, value = options[token], None
        elif eq and name in options:
            key = options[name]
        elif token[1:2] != "-" and token[:2] in options:
            key, value = options[token[:2]], token[2:]
        elif _is_operand(token):
            words.append(token)
            continue
        else:
            _usage_error(f"unrecognized arguments: {token}")
        names, metavar, parse = _FLAGS[key][:3]
        where = f"argument {'/'.join(names)}"
        if metavar is None:
            if value is not None:
                _usage_error(f"{where}: ignored explicit argument {value!r}")
            value = True
        else:
            if value is None:
                if not rest or not _is_operand(rest[0]):
                    _usage_error(f"{where}: expected one argument")
                value = rest.pop(0)
            try:
                value = parse(value)
            except ValueError as exc:
                _usage_error(f"{where}: {exc}")
        setattr(args, key.replace("-", "_"), value)
    if operands == "FILE":
        if not words:
            _usage_error("the following arguments are required: FILE")
        if len(words) > 1:
            _usage_error(f"unrecognized arguments: {' '.join(words[1:])}")
        args.file = words[0]
    else:
        args.name = words[0] if words else None
        try:
            args.params = [_int(word) for word in words[1:]]
        except ValueError as exc:
            _usage_error(f"argument INT: {exc}")
    # __import__, as the import statement calls it: -X importtime does not see importlib.import_module
    return __import__(module, globals(), None, ("handle",), 1).handle, args


def main(argv=None) -> int:
    handler, args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return handler(args)
    except (SchemaError, CatalogError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except FusionError as exc:
        print(f"error: structurally invalid data: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except CocycleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
