"""The self-describing JSON container (format "sfc-1") for category data.

One file carries one kind of payload: "fusion", "superfusion", or
"group+cocycles".  Labels are strings; multiplicity labels are 1-based.
Scalars are encoded as {"order": n, "coeffs": [[num, den], ...]} with a bare
integer allowed for rational integers.  Saving is deterministic (sorted keys,
sorted records, canonical scalar forms), so save(load(f)) is byte-identical
for canonically formatted files: exactly json.dumps(doc, sort_keys=True,
indent=2) + "\n".  dumps_file writes each record straight to that text in
one pass, by the writer of _writer, which it imports on first use: reading
a file does not compile the writer.  Reading decodes each distinct scalar
once, and a location is formatted only for an error.  The field arithmetic
(scalars) is imported by the decoder of a 6j table or of a group's cocycles,
so reading rules alone does not compile it.
"""

from __future__ import annotations

import hashlib
import json
from math import gcd, lcm

from .reporting import _unchecked

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotation names only: each decoder imports the engine of its kind
    from .cocycles import GroupTable, SuperCocycle, ThreeCocycle, TwoCocycleZ2
    from .fusion import FusionData, SixJTable
    from .scalars import Cyclotomic
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
    if c.order == 1 and c.den == 1:
        return c.nums[0]
    return {"order": c.order, "coeffs": [[n // gcd(n, c.den), c.den // gcd(n, c.den)] for n in c.nums]}


def _once(convert, key):
    """convert(x, *args) once per distinct key(x), for one document.  Encoders
    key a value by its raw fields (its hash calls canonical), decoders a JSON
    form by its repr, which tells JSON types apart; values are immutable."""
    memo = {}

    def call(x, *args):
        k = key(x)
        out = memo.get(k)
        if out is None:
            out = memo[k] = convert(x, *args)
        return out

    return call


def _scalar_reader():
    """obj, where, *path -> the scalar obj at that location (see _fail), each
    distinct JSON form decoded once, for one document.  The first reader
    loads the field arithmetic."""
    from .scalars import Cyclotomic

    def read(obj, where: str, *path) -> Cyclotomic:
        if type(obj) is int:
            return Cyclotomic.rational(obj)
        if type(obj) is not dict:
            bad = "expected a scalar, got a boolean" if type(obj) is bool else "expected an integer or a scalar object"
            _fail(bad, where, *path)
        extra = obj.keys() - {"order", "coeffs"}
        if extra:
            _fail(f"unknown scalar fields {sorted(extra)}", where, *path)
        order, coeffs = obj.get("order"), obj.get("coeffs")
        if type(order) is not int or order < 1:
            _fail("expected a positive integer", where, *path, ".order")
        if type(coeffs) is not list or not coeffs:
            _fail("expected a non-empty list", where, *path, ".coeffs")
        pairs = [[c, 1] if type(c) is int else c for c in coeffs]
        for pos, c in enumerate(pairs):
            pair = type(c) is list and len(c) == 2 and type(c[0]) is int and type(c[1]) is int
            if not (pair and c[1]):
                _fail("zero denominator" if pair else "expected [numerator, denominator]", where, *path, ".coeffs", pos)
        den = lcm(*(d for _, d in pairs))  # > 0: the signs move onto the numerators
        try:
            return Cyclotomic.from_nums(order, [n * (den // d) for n, d in pairs], den)
        except ValueError as exc:
            _fail(str(exc), where, *path)

    return _once(read, repr)


def scalar_from_json(obj, where: str, *path) -> Cyclotomic:
    """The scalar obj at the location where, path (see _fail)."""
    return _scalar_reader()(obj, where, *path)


# -- container ------------------------------------------------------------------


class CategoryFile:
    __slots__ = ("kind", "fusion", "sixj", "superfusion", "group", "omega", "cocycle", "supercocycle")

    def __init__(
        self,
        kind: str,
        fusion: FusionData | None = None,
        sixj: SixJTable | None = None,
        superfusion: SuperFusionData | None = None,
        group: GroupTable | None = None,
        omega: TwoCocycleZ2 | None = None,
        cocycle: ThreeCocycle | None = None,
        supercocycle: SuperCocycle | None = None,
    ):
        self.kind = kind
        self.fusion = fusion
        self.sixj = sixj
        self.superfusion = superfusion
        self.group = group
        self.omega = omega
        self.cocycle = cocycle
        self.supercocycle = supercocycle


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
    return CategoryFile("group+cocycles", group=group, omega=omega, cocycle=cocycle, supercocycle=supercocycle)


# -- helpers ----------------------------------------------------------------------


def _fail(message: str, where: str, *path):
    """Raise at the location where + path, an index p as [p], a field as is."""
    path = "".join(f"[{p}]" if type(p) is int else p for p in path)
    raise SchemaError(f"{where}{path}: {message}") from None


def _expect(cond: bool, message: str, where: str, *path) -> None:
    if not cond:
        _fail(message, where, *path)


def _expect_int(value, where: str, *path) -> int:
    _expect(type(value) is int, "expected an integer", where, *path)
    return value


def _expect_list(value, where: str, *path) -> list:
    _expect(type(value) is list, "expected a list", where, *path)
    return value


def _label_map(labels: list[str], where: str) -> dict[str, int]:
    _expect(bool(labels), "labels must be non-empty", where)
    for pos, lab in enumerate(labels):
        _expect(type(lab) is str, "expected a string", where, pos)
    _expect(len(set(labels)) == len(labels), "labels must be distinct", where)
    return {lab: pos for pos, lab in enumerate(labels)}


def _label(label, lookup: dict[str, int], where: str, *path) -> int:
    _expect(type(label) is str, "expected a string", where, *path)
    _expect(label in lookup, f"unknown label {label!r}", where, *path)
    return lookup[label]


def _resolve(rec: list, count: int, lookup: dict[str, int], where: str, *path) -> tuple:
    """The indices of the labels rec[:count]; the first bad one raises."""
    try:
        return tuple([lookup[lab] for lab in rec[:count]])
    except (KeyError, TypeError):
        for t in range(count):
            _label(rec[t], lookup, where, *path, t)
        raise


# -- fusion / superfusion payloads -------------------------------------------------


def _decode_mult(payload: dict, lookup: dict[str, int], where: str):
    mult = {}
    where = f"{where}.mult"
    for pos, rec in enumerate(_expect_list(payload.get("mult"), where)):
        _expect_list(rec, where, pos)
        _expect(len(rec) == 4, "expected [i, j, m, N]", where, pos)
        key = _resolve(rec, 3, lookup, where, pos)
        value = _expect_int(rec[3], where, pos, 3)
        _expect(value >= 1, "multiplicity must be >= 1", where, pos, 3)
        if key in mult:
            _fail(f"duplicate multiplicity record for {rec[:3]}", where, pos)
        mult[key] = value
    return mult


def _decode_sixj(payload: dict, lookup: dict[str, int], where: str):
    if "sixj" not in payload:
        return None
    entries, scalar = {}, _scalar_reader()
    where = f"{where}.sixj"
    for pos, rec in enumerate(_expect_list(payload["sixj"], where)):
        _expect_list(rec, where, pos)
        _expect(len(rec) == 11, "expected [i,j,m,k,n,t, alpha,beta,eta,phi, scalar]", where, pos)
        objs = _resolve(rec, 6, lookup, where, pos)
        labs = tuple([_expect_int(rec[t], where, pos, t) for t in range(6, 10)])
        if min(labs) < 1:
            _fail("multiplicity labels are 1-based", where, pos, 6 + [lab < 1 for lab in labs].index(True))
        key = objs + labs
        _expect(key not in entries, "duplicate 6j record", where, pos)
        entries[key] = scalar(rec[10], where, pos, 10)
    return entries


def _decode_fusion(payload: dict, where: str) -> CategoryFile:
    from .fusion import FusionData, SixJTable, _products_of

    labels = _expect_list(payload.get("labels"), f"{where}.labels")
    lookup = _label_map(labels, f"{where}.labels")
    unit = _label(payload.get("unit"), lookup, f"{where}.unit")
    mult = _decode_mult(payload, lookup, where)
    data = _unchecked(FusionData, labels=tuple(labels), unit=unit, mult=mult, _products=_products_of(len(labels), mult))
    entries = _decode_sixj(payload, lookup, where)
    return fusion_file(data, None if entries is None else _unchecked(SixJTable, entries=entries))


def _decode_superfusion(payload: dict, where: str) -> CategoryFile:
    from .superfusion import BOSONIC, MAJORANA, SuperFusionData, SuperFusionError, _split_parities

    base_file = _decode_fusion(payload, where)
    data = base_file.fusion
    lookup = {lab: pos for pos, lab in enumerate(data.labels)}

    types_obj = payload.get("object_type")
    _expect(isinstance(types_obj, dict), "expected a label -> type map", f"{where}.object_type")
    for lab, value in types_obj.items():
        w = f"{where}.object_type[{lab!r}]"
        _label(lab, lookup, w)
        _expect(value in (BOSONIC, MAJORANA), f"expected 'bosonic' or 'majorana', got {value!r}", w)
    for lab in data.labels:
        _expect(lab in types_obj, f"missing label {lab!r}", f"{where}.object_type")

    where_p = f"{where}.parities"
    parities = {}
    for pos, rec in enumerate(_expect_list(payload.get("parities"), where_p)):
        _expect_list(rec, where_p, pos)
        _expect(len(rec) == 5, "expected [i, j, m, alpha, s]", where_p, pos)
        key = _resolve(rec, 3, lookup, where_p, pos) + (_expect_int(rec[3], where_p, pos, 3),)
        bit = _bit(rec[4], where_p, pos, 4)
        _expect(key not in parities, "duplicate parity record", where_p, pos)
        parities[key] = bit
    # the checks of the SuperFusionData constructor left, in its order
    mult = data.mult
    bad = [key for key in parities if not 0 < key[3] <= mult.get(key[:3], 0)]
    if bad:
        _fail(f"parity key {bad[0]} is not an admissible quadruple", where)
    try:
        classes = _split_parities(mult, parities)
    except SuperFusionError as exc:
        raise SchemaError(f"{where}: {exc}") from None
    object_type = tuple([types_obj[lab] for lab in data.labels])
    sdata = _unchecked(SuperFusionData, base=data, parities=parities, object_type=object_type, _parity_classes=classes)
    return superfusion_file(sdata, base_file.sixj)


# -- group + cocycles payload --------------------------------------------------------


_LEVELS = ("entries", "rows", "planes")


def _decode_table(obj, n: int, depth: int, leaf, where: str, *path) -> list:
    """A nested n x ... x n list (depth levels: rows of entries, planes of
    rows) with each entry decoded by leaf(value, where, *path)."""
    items = _expect_list(obj, where, *path)
    _expect(len(items) == n, f"expected {n} {_LEVELS[depth - 1]}", where, *path)
    if depth == 1:
        return [leaf(x, where, *path, pos) for pos, x in enumerate(items)]
    return [_decode_table(x, n, depth - 1, leaf, where, *path, pos) for pos, x in enumerate(items)]


def _bit(value, where: str, *path) -> int:
    _expect(value in (0, 1) and type(value) is int, "expected a bit", where, *path)
    return value


def _decode_group(payload: dict, where: str) -> CategoryFile:
    from .cocycles import CocycleError, GroupTable, SuperCocycle, ThreeCocycle, TwoCocycleZ2

    gobj = payload.get("group")
    _expect(isinstance(gobj, dict), "expected a group object", f"{where}.group")
    order = _expect_int(gobj.get("order"), f"{where}.group.order")
    _expect(order >= 1, "order must be >= 1", f"{where}.group.order")
    flat = _expect_list(gobj.get("product"), f"{where}.group.product")
    _expect(len(flat) == order * order, f"expected {order * order} row-major entries", f"{where}.group.product")
    for pos, x in enumerate(flat):
        _expect_int(x, where, ".group.product", pos)
    identity = _expect_int(gobj.get("identity"), f"{where}.group.identity")
    labels = gobj.get("labels")
    if labels is not None:
        _label_map(_expect_list(labels, f"{where}.group.labels"), f"{where}.group.labels")
    product = [flat[r * order : (r + 1) * order] for r in range(order)]
    try:
        group = GroupTable(product, identity, labels)
    except CocycleError as exc:
        raise SchemaError(f"{where}.group: {exc}") from None

    if "cocycle" in payload or "supercocycle" in payload:
        scalar = _scalar_reader()  # so that an omega-only file loads no field arithmetic

    def cube(name, make):
        w = f"{where}.{name}"
        values = _decode_table(payload[name], order, 3, scalar, w)
        try:
            return make(values)
        except CocycleError as exc:
            raise SchemaError(f"{w}: {exc}") from None

    omega = cocycle = supercocycle = None
    if "omega" in payload:
        omega = TwoCocycleZ2(_decode_table(payload["omega"], order, 2, _bit, f"{where}.omega"))
    if "cocycle" in payload:
        cocycle = cube("cocycle", ThreeCocycle)
    if "supercocycle" in payload:
        _expect(omega is not None, "a supercocycle needs an omega table", f"{where}.supercocycle")
        supercocycle = cube("supercocycle", lambda values: SuperCocycle(omega, values))
    return group_file(group, omega, cocycle, supercocycle)


# -- top level -------------------------------------------------------------------------


def decode_document(doc) -> CategoryFile:
    _expect(isinstance(doc, dict), "expected a JSON object", "document")
    version = doc.get("format_version")
    _expect(version == FORMAT_VERSION, f"expected {FORMAT_VERSION!r}, got {version!r}", "document.format_version")
    kind = doc.get("kind")
    _expect(kind in KINDS, f"expected one of {KINDS}, got {kind!r}", "document.kind")
    payload = doc.get("payload")
    _expect(isinstance(payload, dict), "expected a JSON object", "document.payload")
    if kind == "fusion":
        return _decode_fusion(payload, "payload")
    if kind == "superfusion":
        return _decode_superfusion(payload, "payload")
    return _decode_group(payload, "payload")


def dumps_file(cf: CategoryFile) -> str:
    from ._writer import dumps  # here, so that only the commands that write compile the writer

    return dumps(cf)


def loads_file(text: str) -> CategoryFile:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: JSONDecodeError, and an int past the digit limit
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
