"""The sfc-1 writer behind serialize.dumps_file, which imports it on first
use, so that only the commands that write compile it."""

from __future__ import annotations

from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter

from .serialize import FORMAT_VERSION, KINDS, CategoryFile, _once


@lru_cache(maxsize=None)
def _frame(depth: int, brackets: str = "[]") -> tuple[str, str, str]:
    """The opening, separator and closing text of a non-empty list (or "{}" object) at depth."""
    pad = "\n" + "  " * (depth + 1)
    return brackets[0] + pad, "," + pad, pad[:-2] + brackets[1]


def _join(items: list[str], depth: int, brackets: str = "[]") -> str:
    """The text of the list (or "{}" object) at depth whose items have the texts items."""
    if not items:
        return brackets
    start, sep, end = _frame(depth, brackets)
    return start + sep.join(items) + end


def _object(fields: dict[str, str], depth: int) -> str:
    """The object at depth with the field texts fields, in sorted key order."""
    return _join([_quote(k) + ": " + fields[k] for k in sorted(fields)], depth, "{}")


def _records(rows, depth: int) -> str:
    """The list at depth of records, each row the texts of one record's fields."""
    start, sep, end = _frame(depth + 1)
    return _join([start + sep.join(row) + end for row in rows], depth)


def _scalar_text(depth: int):
    """x -> the JSON text of the scalar x at depth, from x._reduced, once per
    distinct value: a rational integer bare, any other value as
    {"coeffs": [[num, den], ...], "order": n} at its conductor n."""

    def text(x) -> str:
        order, pairs = x._reduced()
        if order == 1 and pairs[0][1] == 1:
            return str(pairs[0][0])
        coeffs = _records(([str(n), str(d)] for n, d in pairs), depth + 1)
        return _object({"coeffs": coeffs, "order": str(order)}, depth)

    return _once(text, attrgetter("order", "nums", "den"))


def _fusion_fields(cf: CategoryFile) -> dict[str, str]:
    sdata = cf.superfusion
    data = cf.fusion if sdata is None else sdata.base
    q = [_quote(lab) for lab in data.labels]  # each label quoted once
    fields = {
        "labels": _join(q, 2),
        "unit": q[data.unit],
        "mult": _records(([q[i], q[j], q[m], str(n)] for (i, j, m), n in sorted(data.mult.items())), 2),
    }
    if cf.sixj is not None:
        text = _scalar_text(4)
        rows = (
            [q[k[0]], q[k[1]], q[k[2]], q[k[3]], q[k[4]], q[k[5]], str(k[6]), str(k[7]), str(k[8]), str(k[9]), text(v)]
            for k, v in sorted(cf.sixj.entries.items())
        )
        fields["sixj"] = _records(rows, 2)
    if sdata is not None:
        fields["object_type"] = _object({lab: _quote(t) for lab, t in zip(data.labels, sdata.object_type)}, 2)
        rows = ([q[i], q[j], q[m], str(a), str(bit)] for (i, j, m, a), bit in sorted(sdata.parities.items()))
        fields["parities"] = _records(rows, 2)
    return fields


def _group_fields(cf: CategoryFile) -> dict[str, str]:
    g = cf.group
    group = {"identity": str(g.identity), "order": str(g.order), "labels": _join([_quote(lab) for lab in g.labels], 3)}
    group["product"] = _join([str(x) for row in g.product for x in row], 3)
    fields = {"group": _object(group, 2)}
    if cf.omega is not None:
        fields["omega"] = _records(([str(bit) for bit in row] for row in cf.omega.values), 2)
    text = _scalar_text(5)
    for name in ("cocycle", "supercocycle"):
        table = getattr(cf, name)
        if table is not None:
            fields[name] = _join([_records(([text(x) for x in row] for row in plane), 3) for plane in table.values], 2)
    return fields


def dumps(cf: CategoryFile) -> str:
    if cf.kind not in KINDS:
        raise ValueError(f"unknown kind {cf.kind!r}")
    fields = _group_fields(cf) if cf.kind == "group+cocycles" else _fusion_fields(cf)
    top = {"format_version": _quote(FORMAT_VERSION), "kind": _quote(cf.kind), "payload": _object(fields, 1)}
    return _object(top, 0) + "\n"
