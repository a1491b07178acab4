"""The self-describing JSON container (format "sfc-1") for category data.

One file carries one kind of payload: "fusion", "superfusion", or
"group+cocycles".  Labels are strings; multiplicity labels are 1-based.
Scalars are encoded as {"order": n, "coeffs": [[num, den], ...]} with a bare
integer allowed for rational integers.  Saving is deterministic (sorted keys,
sorted records, canonical scalar forms), so save(load(f)) is byte-identical
for canonically formatted files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction

from .scalars import Cyclotomic

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotation names only: each decoder imports the engine of its kind
    from .cocycles import GroupTable, SuperCocycle, ThreeCocycle, TwoCocycleZ2
    from .fusion import FusionData, SixJTable
    from .superfusion import FermionicSixJTable, SuperFusionData

FORMAT_VERSION = "sfc-1"
KINDS = ("fusion", "superfusion", "group+cocycles")


class SchemaError(Exception):
    """Malformed or schema-invalid input; the message carries the location."""


def sha256_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- scalar codec ---------------------------------------------------------------


def scalar_to_json(x: Cyclotomic):
    c = x.canonical()
    coeffs = c.coeffs
    if c.order == 1 and coeffs[0].denominator == 1:
        return int(coeffs[0])
    return {
        "order": c.order,
        "coeffs": [[q.numerator, q.denominator] for q in coeffs],
    }


def _scalar_encoder():
    """scalar_to_json with one canonical form per distinct value, for one
    encode.  The key is the raw fields: Cyclotomic's hash calls canonical."""
    memo = {}

    def encode(x: Cyclotomic):
        key = (x.order, x.nums, x.den)
        if key not in memo:
            memo[key] = scalar_to_json(x)
        return memo[key]

    return encode


def scalar_from_json(obj, where: str) -> Cyclotomic:
    if isinstance(obj, bool):
        raise SchemaError(f"{where}: expected a scalar, got a boolean")
    if isinstance(obj, int):
        return Cyclotomic.rational(obj)
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an integer or a scalar object")
    extra = set(obj) - {"order", "coeffs"}
    if extra:
        raise SchemaError(f"{where}: unknown scalar fields {sorted(extra)}")
    order = obj.get("order")
    coeffs = obj.get("coeffs")
    if not isinstance(order, int) or order < 1:
        raise SchemaError(f"{where}.order: expected a positive integer")
    if not isinstance(coeffs, list) or not coeffs:
        raise SchemaError(f"{where}.coeffs: expected a non-empty list")
    parsed = []
    for pos, c in enumerate(coeffs):
        if isinstance(c, int) and not isinstance(c, bool):
            parsed.append(Fraction(c))
        elif (
            isinstance(c, list)
            and len(c) == 2
            and all(isinstance(x, int) and not isinstance(x, bool) for x in c)
        ):
            if c[1] == 0:
                raise SchemaError(f"{where}.coeffs[{pos}]: zero denominator")
            parsed.append(Fraction(c[0], c[1]))
        else:
            raise SchemaError(f"{where}.coeffs[{pos}]: expected [numerator, denominator]")
    try:
        return Cyclotomic(order, parsed)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None


# -- container ------------------------------------------------------------------


@dataclass
class CategoryFile:
    kind: str
    fusion: FusionData | None = None
    sixj: SixJTable | None = None
    superfusion: SuperFusionData | None = None
    group: GroupTable | None = None
    omega: TwoCocycleZ2 | None = None
    cocycle: ThreeCocycle | None = None
    supercocycle: SuperCocycle | None = None


def fusion_file(data: FusionData, table: SixJTable | None = None) -> CategoryFile:
    return CategoryFile(kind="fusion", fusion=data, sixj=table)


def superfusion_file(data: SuperFusionData, table: FermionicSixJTable | None = None) -> CategoryFile:
    return CategoryFile(kind="superfusion", superfusion=data, sixj=table)


def group_file(
    group: GroupTable,
    omega: TwoCocycleZ2 | None = None,
    cocycle: ThreeCocycle | None = None,
    supercocycle: SuperCocycle | None = None,
) -> CategoryFile:
    if supercocycle is not None:
        omega = supercocycle.omega
    return CategoryFile(
        kind="group+cocycles", group=group, omega=omega, cocycle=cocycle, supercocycle=supercocycle
    )


# -- helpers ----------------------------------------------------------------------


def _expect(cond: bool, where: str, message: str) -> None:
    if not cond:
        raise SchemaError(f"{where}: {message}")


def _expect_int(value, where: str) -> int:
    _expect(isinstance(value, int) and not isinstance(value, bool), where, "expected an integer")
    return value


def _expect_list(value, where: str) -> list:
    _expect(isinstance(value, list), where, "expected a list")
    return value


def _expect_str(value, where: str) -> str:
    _expect(isinstance(value, str), where, "expected a string")
    return value


def _label_map(labels: list[str], where: str) -> dict[str, int]:
    _expect(bool(labels), where, "labels must be non-empty")
    for pos, lab in enumerate(labels):
        _expect_str(lab, f"{where}[{pos}]")
    _expect(len(set(labels)) == len(labels), where, "labels must be distinct")
    return {lab: pos for pos, lab in enumerate(labels)}


def _resolve(label, lookup: dict[str, int], where: str) -> int:
    _expect_str(label, where)
    if label not in lookup:
        raise SchemaError(f"{where}: unknown label {label!r}")
    return lookup[label]


# -- fusion / superfusion payloads -------------------------------------------------


def _decode_mult(payload: dict, lookup: dict[str, int], where: str):
    mult = {}
    records = _expect_list(payload.get("mult"), f"{where}.mult")
    for pos, record in enumerate(records):
        rw = f"{where}.mult[{pos}]"
        rec = _expect_list(record, rw)
        _expect(len(rec) == 4, rw, "expected [i, j, m, N]")
        i, j, m = (_resolve(rec[t], lookup, f"{rw}[{t}]") for t in range(3))
        value = _expect_int(rec[3], f"{rw}[3]")
        _expect(value >= 1, f"{rw}[3]", "multiplicity must be >= 1")
        _expect((i, j, m) not in mult, rw, f"duplicate multiplicity record for {rec[:3]}")
        mult[(i, j, m)] = value
    return mult


def _decode_sixj(payload: dict, lookup: dict[str, int], where: str):
    if "sixj" not in payload:
        return None
    entries = {}
    records = _expect_list(payload.get("sixj"), f"{where}.sixj")
    for pos, record in enumerate(records):
        rw = f"{where}.sixj[{pos}]"
        rec = _expect_list(record, rw)
        _expect(len(rec) == 11, rw, "expected [i,j,m,k,n,t, alpha,beta,eta,phi, scalar]")
        objs = tuple(_resolve(rec[t], lookup, f"{rw}[{t}]") for t in range(6))
        labs = tuple(_expect_int(rec[t], f"{rw}[{t}]") for t in range(6, 10))
        for t, lab in enumerate(labs):
            _expect(lab >= 1, f"{rw}[{6 + t}]", "multiplicity labels are 1-based")
        key = objs + labs
        _expect(key not in entries, rw, "duplicate 6j record")
        entries[key] = scalar_from_json(rec[10], f"{rw}[10]")
    return entries


def _encode_sixj(data, table) -> list:
    labels = data.labels
    encode = _scalar_encoder()
    return [
        [labels[k[0]], labels[k[1]], labels[k[2]], labels[k[3]], labels[k[4]], labels[k[5]],
         k[6], k[7], k[8], k[9], encode(v)]
        for k, v in sorted(table.entries.items())
    ]


def _decode_fusion(payload: dict, where: str) -> CategoryFile:
    from .fusion import FusionData, FusionError, SixJTable

    labels = _expect_list(payload.get("labels"), f"{where}.labels")
    lookup = _label_map(labels, f"{where}.labels")
    unit = _resolve(payload.get("unit"), lookup, f"{where}.unit")
    mult = _decode_mult(payload, lookup, where)
    try:
        data = FusionData(labels, unit, mult)
    except FusionError as exc:
        raise SchemaError(f"{where}: {exc}") from None
    entries = _decode_sixj(payload, lookup, where)
    table = None
    if entries is not None:
        try:
            table = SixJTable(entries)
        except FusionError as exc:
            raise SchemaError(f"{where}.sixj: {exc}") from None
    return fusion_file(data, table)


def _encode_fusion(cf: CategoryFile) -> dict:
    data = cf.fusion
    labels = data.labels
    payload = {
        "labels": list(labels),
        "unit": labels[data.unit],
        "mult": [
            [labels[i], labels[j], labels[m], value]
            for (i, j, m), value in sorted(data.mult.items())
        ],
    }
    if cf.sixj is not None:
        payload["sixj"] = _encode_sixj(data, cf.sixj)
    return payload


def _decode_superfusion(payload: dict, where: str) -> CategoryFile:
    from .fusion import FusionError
    from .superfusion import BOSONIC, MAJORANA, SuperFusionData

    base_file = _decode_fusion(payload, where)
    data = base_file.fusion
    lookup = {lab: pos for pos, lab in enumerate(data.labels)}

    types_obj = payload.get("object_type")
    _expect(isinstance(types_obj, dict), f"{where}.object_type", "expected a label -> type map")
    object_type = {}
    for lab, value in types_obj.items():
        w = f"{where}.object_type[{lab!r}]"
        _resolve(lab, lookup, w)
        _expect(value in (BOSONIC, MAJORANA), w, f"expected 'bosonic' or 'majorana', got {value!r}")
        object_type[lab] = value
    for lab in data.labels:
        _expect(lab in object_type, f"{where}.object_type", f"missing label {lab!r}")

    records = _expect_list(payload.get("parities"), f"{where}.parities")
    parities = {}
    for pos, record in enumerate(records):
        rw = f"{where}.parities[{pos}]"
        rec = _expect_list(record, rw)
        _expect(len(rec) == 5, rw, "expected [i, j, m, alpha, s]")
        i, j, m = (_resolve(rec[t], lookup, f"{rw}[{t}]") for t in range(3))
        alpha = _expect_int(rec[3], f"{rw}[3]")
        bit = _expect_int(rec[4], f"{rw}[4]")
        _expect((i, j, m, alpha) not in parities, rw, "duplicate parity record")
        parities[(i, j, m, alpha)] = bit
    try:
        sdata = SuperFusionData(data, parities, object_type)
    except FusionError as exc:
        raise SchemaError(f"{where}: {exc}") from None
    return superfusion_file(sdata, base_file.sixj)


def _encode_superfusion(cf: CategoryFile) -> dict:
    sdata = cf.superfusion
    payload = _encode_fusion(CategoryFile(kind="fusion", fusion=sdata.base, sixj=cf.sixj))
    labels = sdata.labels
    payload["object_type"] = {labels[i]: sdata.object_type[i] for i in range(sdata.rank)}
    payload["parities"] = [
        [labels[i], labels[j], labels[m], alpha, bit]
        for (i, j, m, alpha), bit in sorted(sdata.parities.items())
    ]
    return payload


# -- group + cocycles payload --------------------------------------------------------


_LEVELS = ("entries", "rows", "planes")


def _decode_table(obj, n: int, depth: int, where: str, leaf) -> list:
    """A nested n x ... x n list (depth levels: rows of entries, planes of
    rows) with each entry decoded by leaf(value, where)."""
    items = _expect_list(obj, where)
    _expect(len(items) == n, where, f"expected {n} {_LEVELS[depth - 1]}")
    if depth == 1:
        return [leaf(x, f"{where}[{pos}]") for pos, x in enumerate(items)]
    return [_decode_table(x, n, depth - 1, f"{where}[{pos}]", leaf) for pos, x in enumerate(items)]


def _bit(value, where: str) -> int:
    _expect(value in (0, 1) and type(value) is int, where, "expected a bit")
    return value


def _decode_group(payload: dict, where: str) -> CategoryFile:
    from .cocycles import CocycleError, GroupTable, SuperCocycle, ThreeCocycle, TwoCocycleZ2

    gobj = payload.get("group")
    _expect(isinstance(gobj, dict), f"{where}.group", "expected a group object")
    order = _expect_int(gobj.get("order"), f"{where}.group.order")
    _expect(order >= 1, f"{where}.group.order", "order must be >= 1")
    flat = _expect_list(gobj.get("product"), f"{where}.group.product")
    _expect(len(flat) == order * order, f"{where}.group.product",
            f"expected {order * order} row-major entries")
    for pos, x in enumerate(flat):
        _expect_int(x, f"{where}.group.product[{pos}]")
    identity = _expect_int(gobj.get("identity"), f"{where}.group.identity")
    labels = gobj.get("labels")
    if labels is not None:
        _label_map(_expect_list(labels, f"{where}.group.labels"), f"{where}.group.labels")
    product = [flat[r * order : (r + 1) * order] for r in range(order)]
    try:
        group = GroupTable(product, identity, labels)
    except CocycleError as exc:
        raise SchemaError(f"{where}.group: {exc}") from None

    def cube(name, make):
        w = f"{where}.{name}"
        values = _decode_table(payload[name], order, 3, w, scalar_from_json)
        try:
            return make(values)
        except CocycleError as exc:
            raise SchemaError(f"{w}: {exc}") from None

    omega = cocycle = supercocycle = None
    if "omega" in payload:
        omega = TwoCocycleZ2(_decode_table(payload["omega"], order, 2, f"{where}.omega", _bit))
    if "cocycle" in payload:
        cocycle = cube("cocycle", ThreeCocycle)
    if "supercocycle" in payload:
        _expect(omega is not None, f"{where}.supercocycle", "a supercocycle needs an omega table")
        supercocycle = cube("supercocycle", lambda values: SuperCocycle(omega, values))
    return CategoryFile(
        kind="group+cocycles", group=group, omega=omega, cocycle=cocycle, supercocycle=supercocycle
    )


def _encode_group(cf: CategoryFile) -> dict:
    g = cf.group
    payload: dict = {
        "group": {
            "order": g.order,
            "product": [x for row in g.product for x in row],
            "identity": g.identity,
            "labels": list(g.labels),
        }
    }
    if cf.omega is not None:
        payload["omega"] = [list(row) for row in cf.omega.values]
    encode = _scalar_encoder()
    for name in ("cocycle", "supercocycle"):
        table = getattr(cf, name)
        if table is not None:
            payload[name] = [[[encode(x) for x in row] for row in plane] for plane in table.values]
    return payload


# -- top level -------------------------------------------------------------------------


def decode_document(doc) -> CategoryFile:
    _expect(isinstance(doc, dict), "document", "expected a JSON object")
    version = doc.get("format_version")
    _expect(version == FORMAT_VERSION, "document.format_version",
            f"expected {FORMAT_VERSION!r}, got {version!r}")
    kind = doc.get("kind")
    _expect(kind in KINDS, "document.kind", f"expected one of {KINDS}, got {kind!r}")
    payload = doc.get("payload")
    _expect(isinstance(payload, dict), "document.payload", "expected a JSON object")
    if kind == "fusion":
        return _decode_fusion(payload, "payload")
    if kind == "superfusion":
        return _decode_superfusion(payload, "payload")
    return _decode_group(payload, "payload")


def encode_document(cf: CategoryFile) -> dict:
    if cf.kind == "fusion":
        payload = _encode_fusion(cf)
    elif cf.kind == "superfusion":
        payload = _encode_superfusion(cf)
    elif cf.kind == "group+cocycles":
        payload = _encode_group(cf)
    else:
        raise ValueError(f"unknown kind {cf.kind!r}")
    return {"format_version": FORMAT_VERSION, "kind": cf.kind, "payload": payload}


def dumps_file(cf: CategoryFile) -> str:
    return json.dumps(encode_document(cf), sort_keys=True, indent=2) + "\n"


def loads_file(text: str) -> CategoryFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None
    return decode_document(doc)


def save_file(path, cf: CategoryFile) -> None:
    """Write cf to path; an unwritable path raises SchemaError naming it."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps_file(cf))
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc}") from None


def read_document(path) -> tuple[bytes, CategoryFile]:
    """Read a file once: its raw bytes (for a digest) and its decoded content.

    An unreadable path or bytes that are not UTF-8 raise SchemaError naming
    the path.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        text = raw.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    return raw, loads_file(text)


def load_file(path) -> CategoryFile:
    return read_document(path)[1]
