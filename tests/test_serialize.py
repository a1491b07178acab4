"""Tests for the sfc-1 JSON container and the scalar codec."""

import json
import time
from fractions import Fraction

import pytest

from sfckit._writer import _render
from sfckit.catalog import build_entry, ising_super, standard_three_cocycle, z2_supercocycle
from sfckit.cli import EXIT_INPUT_ERROR, main
from sfckit.cocycles import GroupTable, cyclic_group, lift_supercocycle
from sfckit.envelope import underlying_fusion_rules, verify_lift
from sfckit.fusion import FusionData
from sfckit.scalars import Cyclotomic, root_of_unity
from sfckit.serialize import (
    FORMAT_VERSION,
    SchemaError,
    dumps_file,
    fusion_file,
    group_file,
    loads_file,
    scalar_from_json,
    scalar_to_json,
    superfusion_file,
)
from sfckit.superfusion import SuperFusionData
from tests.test_envelope import descended_ising_table
from tests.test_fusion import ising_exact_table
from tests.test_kernel import CATALOG, deligne_with_z3, gauge
from tests.test_scalars import count_fractions


def test_scalar_codec_integers_get_shorthand():
    assert scalar_to_json(Cyclotomic.rational(5)) == 5
    assert scalar_to_json(Cyclotomic.rational(-1)) == -1
    # a root of unity built at order 6 that is really rational stays shorthand
    assert scalar_to_json(root_of_unity(6, 3)) == -1


def test_scalar_codec_round_trips():
    samples = [
        Cyclotomic.rational(Fraction(3, 2)),
        root_of_unity(4, 1),
        root_of_unity(8, 1) + root_of_unity(8, 7),
        root_of_unity(3, 2) * Cyclotomic.rational(Fraction(-2, 5)),
    ]
    for x in samples:
        encoded = scalar_to_json(x)
        decoded = scalar_from_json(encoded, "test")
        assert decoded == x
        assert scalar_to_json(decoded) == encoded


def test_encode_makes_one_canonical_form_per_distinct_value(monkeypatch):
    # a Z/6 cocycle cube has 216 values, 6 of them distinct; a 6j table
    # gets the same reuse
    calls = []
    real = Cyclotomic.canonical
    monkeypatch.setattr(Cyclotomic, "canonical", lambda x: calls.append(x) or real(x))
    dumps_file(group_file(cyclic_group(6), cocycle=standard_three_cocycle(6)))
    assert len(calls) == 6
    calls.clear()
    entry = build_entry("vec-zn", 4)
    dumps_file(fusion_file(entry.data, entry.sixj))
    assert len(calls) == len({(x.order, x.nums, x.den) for x in entry.sixj.entries.values()}) < len(entry.sixj.entries)


def test_scalar_codec_accepts_integer_coeff_shorthand():
    assert scalar_from_json({"order": 4, "coeffs": [0, 1]}, "t") == root_of_unity(4, 1)


@pytest.mark.parametrize(
    "obj, fragment",
    [
        (True, "boolean"),
        ("x", "expected an integer or a scalar object"),
        ({"order": 0, "coeffs": [1]}, "positive integer"),
        ({"order": 4, "coeffs": []}, "non-empty"),
        ({"order": 4, "coeffs": [[1, 0], 0]}, "zero denominator"),
        ({"order": 4, "coeffs": [[1], 0]}, "numerator"),
        ({"order": 4, "coeffs": [0, 1], "extra": 1}, "unknown scalar fields"),
        ({"order": 4, "coeffs": [0, 1, 2]}, "coefficients"),
        ({"order": True, "coeffs": [1]}, "positive integer"),
    ],
)
def test_scalar_codec_rejects_malformed(obj, fragment):
    with pytest.raises(SchemaError, match=fragment):
        scalar_from_json(obj, "t")


def roundtrip(cf):
    text = dumps_file(cf)
    again = loads_file(text)
    assert dumps_file(again) == text
    return again


def test_fusion_file_round_trip():
    entry = build_entry("vec-zn", 3)
    cf = fusion_file(entry.data, entry.sixj)
    again = roundtrip(cf)
    assert again.kind == "fusion"
    assert again.fusion.labels == entry.data.labels
    assert again.fusion.unit == entry.data.unit
    assert again.fusion.mult == entry.data.mult
    assert again.sixj.entries == entry.sixj.entries


def test_fusion_file_without_table():
    entry = build_entry("vec-zn", 2)
    again = roundtrip(fusion_file(entry.data))
    assert again.sixj is None


def test_superfusion_file_round_trip():
    for name, params in (("super-z2", (1,)), ("ising", ()), ("ck", (6,))):
        entry = build_entry(name, *params)
        cf = superfusion_file(entry.data, entry.sixj)
        again = roundtrip(cf)
        assert again.kind == "superfusion"
        assert again.superfusion.base.mult == entry.data.base.mult
        assert again.superfusion.parities == entry.data.parities
        assert again.superfusion.object_type == entry.data.object_type
        if entry.sixj is None:
            assert again.sixj is None
        else:
            assert again.sixj.entries == entry.sixj.entries


def test_group_file_round_trip():
    g = cyclic_group(2)
    sc = z2_supercocycle(1)
    cf = group_file(g, supercocycle=sc)
    again = roundtrip(cf)
    assert again.kind == "group+cocycles"
    assert again.group.product == g.product
    assert again.group.labels == g.labels
    assert again.omega.values == sc.omega.values
    assert again.supercocycle.values == sc.values
    assert again.cocycle is None


def doc_for(entry_name, *params):
    entry = build_entry(entry_name, *params)
    if entry.kind == "fusion":
        cf = fusion_file(entry.data, entry.sixj)
    else:
        cf = superfusion_file(entry.data, entry.sixj)
    return json.loads(dumps_file(cf))


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.pop("format_version"), "format_version"),
        (lambda d: d.update(format_version="sfc-0"), "format_version"),
        (lambda d: d.update(kind="nonsense"), "kind"),
        (lambda d: d.update(payload=[]), "payload"),
        (lambda d: d["payload"].update(unit="nope"), "unknown label"),
        (lambda d: d["payload"]["mult"].append(["0", "1", "1", 1]), "duplicate"),
        (lambda d: d["payload"]["mult"][0].pop(), "expected"),
        (lambda d: d["payload"]["sixj"][0].__setitem__(6, 0), "1-based"),
        (lambda d: d["payload"]["labels"].append("0"), "distinct"),
    ],
)
def test_malformed_documents_fail_with_location(mutate, fragment):
    doc = doc_for("vec-zn", 2)
    mutate(doc)
    with pytest.raises(SchemaError, match=fragment):
        loads_file(json.dumps(doc))


def test_malformed_superfusion_documents():
    doc = doc_for("super-z2", 1)
    doc["payload"]["parities"].pop()
    with pytest.raises(SchemaError, match=r"^payload: no parity assigned to quadruple \(1, 1, 0, 1\)$"):
        loads_file(json.dumps(doc))

    # the decoder checks each parity key's alpha as the constructor does:
    # after every record has decoded, so a later record's error comes first
    doc = doc_for("super-z2", 1)
    doc["payload"]["parities"][1][3] = 2
    with pytest.raises(SchemaError, match=r"^payload: parity key \(0, 1, 1, 2\) is not an admissible quadruple$"):
        loads_file(json.dumps(doc))
    doc["payload"]["parities"].append(doc["payload"]["parities"][2])
    with pytest.raises(SchemaError, match=r"^payload\.parities\[4\]: duplicate parity record$"):
        loads_file(json.dumps(doc))

    doc = doc_for("super-z2", 1)
    doc["payload"]["object_type"].pop("0")
    with pytest.raises(SchemaError, match="missing label"):
        loads_file(json.dumps(doc))

    doc = doc_for("super-z2", 1)
    doc["payload"]["object_type"]["0"] = "ghost"
    with pytest.raises(SchemaError, match="bosonic"):
        loads_file(json.dumps(doc))

    # a parity bit is read as an omega bit is, so its message names the record
    doc = doc_for("super-zn-even", 2)
    doc["payload"]["parities"][-1][4] = 2
    with pytest.raises(SchemaError, match=r"^payload\.parities\[3\]\[4\]: expected a bit$"):
        loads_file(json.dumps(doc))


def five_thousand_digit_multiplicity() -> str:
    """A vec-zn 2 document whose first multiplicity has 5000 digits, past
    the interpreter's limit on int-from-string conversion."""
    doc = doc_for("vec-zn", 2)
    doc["payload"]["mult"][0][3] = "MULT"
    return json.dumps(doc).replace('"MULT"', "1" * 5000)


def test_invalid_json_is_a_schema_error():
    with pytest.raises(SchemaError, match="invalid JSON"):
        loads_file("{this is not json")
    with pytest.raises(SchemaError, match="^invalid JSON: maximum recursion depth"):
        loads_file("[" * 200_000)
    with pytest.raises(SchemaError, match=r"^invalid JSON: Exceeds the limit \(4300 digits\)"):
        loads_file(five_thousand_digit_multiplicity())


@pytest.mark.parametrize("text", [lambda: "[" * 200_000, five_thousand_digit_multiplicity], ids=["deep", "long int"])
def test_cli_exits_2_on_json_the_parser_cannot_hold(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text())
    assert main(["check", str(path)]) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: invalid JSON: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_group_document_errors():
    g = cyclic_group(2)
    doc = json.loads(dumps_file(group_file(g, supercocycle=z2_supercocycle(1))))
    del doc["payload"]["omega"]
    with pytest.raises(SchemaError, match="omega"):
        loads_file(json.dumps(doc))

    doc = json.loads(dumps_file(group_file(g)))
    doc["payload"]["group"]["product"] = [0, 1, 1]
    with pytest.raises(SchemaError, match="row-major"):
        loads_file(json.dumps(doc))


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda p: p["omega"].pop(), r"payload\.omega: expected 2 rows"),
        (lambda p: p["omega"][0].pop(), r"payload\.omega\[0\]: expected 2 entries"),
        (lambda p: p["omega"][1].__setitem__(1, True), r"payload\.omega\[1\]\[1\]: expected a bit"),
        (lambda p: p["omega"][1].__setitem__(1, 1.0), r"payload\.omega\[1\]\[1\]: expected a bit"),
        (lambda p: p["supercocycle"].pop(), r"payload\.supercocycle: expected 2 planes"),
        (lambda p: p["supercocycle"][1].pop(), r"payload\.supercocycle\[1\]: expected 2 rows"),
        (lambda p: p["supercocycle"][1][0].pop(), r"payload\.supercocycle\[1\]\[0\]: expected 2 entries"),
        (lambda p: p["supercocycle"][1][0].__setitem__(1, 1.5), r"payload\.supercocycle\[1\]\[0\]\[1\]: expected an"),
        (lambda p: p["supercocycle"][0][0].__setitem__(0, 0), r"payload\.supercocycle: cocycle value at \(0, 0, 0\) is zero"),
        (lambda p: p.update(cocycle=p["supercocycle"][:1]), r"payload\.cocycle: expected 2 planes"),
    ],
    ids=["omega rows", "omega entries", "omega bool", "omega float", "cube planes", "cube rows",
         "cube entries", "cube float", "cube zero", "plain cube planes"],
)
def test_group_tables_fail_with_location(mutate, message):
    doc = json.loads(dumps_file(group_file(cyclic_group(2), supercocycle=z2_supercocycle(1))))
    mutate(doc["payload"])
    with pytest.raises(SchemaError, match=message):
        loads_file(json.dumps(doc))


# -- the one-pass writer against its reference document -----------------------------------


def reference_document(cf) -> dict:
    """The document of cf as dicts, lists, strs and ints: the writer's
    output must be json.dumps of it with sorted keys and indent 2."""
    if cf.kind == "group+cocycles":
        payload = reference_group_payload(cf)
    else:
        sdata = cf.superfusion
        payload = reference_fusion_payload(cf.fusion if sdata is None else sdata.base, cf.sixj)
        if sdata is not None:
            labels = sdata.labels
            payload["object_type"] = {labels[i]: sdata.object_type[i] for i in range(sdata.rank)}
            payload["parities"] = [
                [labels[i], labels[j], labels[m], alpha, bit] for (i, j, m, alpha), bit in sorted(sdata.parities.items())
            ]
    return {"format_version": FORMAT_VERSION, "kind": cf.kind, "payload": payload}


def reference_fusion_payload(data, table) -> dict:
    labels = data.labels
    payload = {
        "labels": list(labels),
        "unit": labels[data.unit],
        "mult": [[labels[i], labels[j], labels[m], value] for (i, j, m), value in sorted(data.mult.items())],
    }
    if table is not None:
        payload["sixj"] = [
            [*(labels[x] for x in key[:6]), *key[6:], scalar_to_json(value)] for key, value in sorted(table.entries.items())
        ]
    return payload


def reference_group_payload(cf) -> dict:
    g = cf.group
    payload = {
        "group": {
            "order": g.order,
            "product": [x for row in g.product for x in row],
            "identity": g.identity,
            "labels": list(g.labels),
        }
    }
    if cf.omega is not None:
        payload["omega"] = [list(row) for row in cf.omega.values]
    for name in ("cocycle", "supercocycle"):
        table = getattr(cf, name)
        if table is not None:
            payload[name] = [[[scalar_to_json(x) for x in row] for row in plane] for plane in table.values]
    return payload


def oracle(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


def assert_writer_matches_reference(cf):
    assert dumps_file(cf) == oracle(reference_document(cf)) + "\n"


def catalog_files(name, params):
    """The catalog entry's file and, where it comes from a group, its group file."""
    entry = build_entry(name, *params)
    make = fusion_file if entry.kind == "fusion" else superfusion_file
    files = [make(entry.data, entry.sixj)]
    group = entry.source.get("group")
    if "cocycle" in entry.source:
        files.append(group_file(group, cocycle=entry.source["cocycle"]))
    if "supercocycle" in entry.source:
        files.append(group_file(group, supercocycle=entry.source["supercocycle"]))
    return files


def written_files(cf):
    """The files that underlying, lift-cocycle and extend-group write from cf."""
    if cf.kind == "superfusion":
        if cf.sixj is None:
            return [fusion_file(underlying_fusion_rules(cf.superfusion))]
        lift = verify_lift(cf.superfusion, cf.sixj)
        return [fusion_file(lift.underlying, lift.sixj)] if lift.sixj is not None else []
    if cf.kind == "group+cocycles" and cf.supercocycle is not None:
        ext, lifted = lift_supercocycle(cf.group, cf.supercocycle)
        return [group_file(ext, cocycle=lifted), group_file(ext)]
    return []


@pytest.mark.parametrize("name, params", CATALOG)
def test_render_equals_json_dumps_on_catalog(name, params):
    # every catalog file, its group files and what the commands write from them
    for cf in catalog_files(name, params):
        assert_writer_matches_reference(cf)
        for written in written_files(cf):
            assert_writer_matches_reference(written)


def test_writer_equals_reference_on_generic_and_majorana_tables():
    data, table = deligne_with_z3(*ising_exact_table())
    assert_writer_matches_reference(fusion_file(data, gauge(data, table, seed=2)))
    assert_writer_matches_reference(superfusion_file(ising_super(), descended_ising_table()))
    assert_writer_matches_reference(fusion_file(data))


EDGE_LABELS = ["café", "∞", "\U0001f600", 'say "hi"', "back\\slash", "\x00\x01\x1f\x7f", "tab\tnew\nline\r", ""]


def relabelled(data):
    return FusionData(EDGE_LABELS[: data.rank], data.unit, data.mult)


def test_writer_equals_reference_on_edge_labels():
    vec = build_entry("vec-zn", 8)
    assert_writer_matches_reference(fusion_file(relabelled(vec.data), vec.sixj))
    sup = build_entry("super-zn-even", 4)
    sdata = SuperFusionData(relabelled(sup.data.base), sup.data.parities, sup.data.object_type)
    assert_writer_matches_reference(superfusion_file(sdata, sup.sixj))
    # object_type is keyed by label: "café" (X, Majorana) sorts before "∞" (1)
    ising = ising_super()
    base = FusionData(EDGE_LABELS[1::-1], ising.base.unit, ising.base.mult)
    sdata = SuperFusionData(base, ising.parities, ising.object_type)
    assert_writer_matches_reference(superfusion_file(sdata, descended_ising_table()))
    g = cyclic_group(8)
    edge_group = GroupTable(g.product, g.identity, EDGE_LABELS)
    assert_writer_matches_reference(group_file(edge_group, cocycle=standard_three_cocycle(8)))


def test_render_equals_json_dumps_on_edge_documents():
    scalar = {"order": 4, "coeffs": [[0, 1], [-1, 3]]}
    docs = [
        {"labels": EDGE_LABELS, "map": {lab: lab for lab in EDGE_LABELS}},
        {"empty list": [], "empty dict": {}, "nested": [[], {}, [[]], [{}]], "x": {"y": {}}},
        {"big": -(10**40), "ints": [0, -1, 10**30, -(2**64)], "zero": 0},
        # one dict object at two depths
        {"a": scalar, "b": [scalar, [scalar, {"c": scalar}]], "d": {"e": scalar}},
        [scalar, [scalar]],
        "just a string",
        -7,
    ]
    for doc in docs:
        assert _render(doc) == oracle(doc)


@pytest.mark.parametrize("value", [1.5, True, None, ("a",), {1: 2}])
def test_render_refuses_what_no_document_holds(value):
    with pytest.raises(TypeError):
        _render({"payload": [value]})


# -- decoder locations ---------------------------------------------------------------------


def document_of(kind):
    if kind == "fusion":
        return doc_for("vec-zn", 4)
    if kind == "superfusion":
        return doc_for("super-zn-even", 4)
    return json.loads(dumps_file(group_file(cyclic_group(6), cocycle=standard_three_cocycle(6))))


def put(payload, path, value):
    """payload[path[0]][path[1]]... = value; a path ending in "+" appends a
    copy of the record it names instead."""
    if path[-1] == "+":
        records = payload[path[0]]
        records.append(list(records[path[1]]))
        return
    *head, last = path
    for step in head:
        payload = payload[step]
    payload[last] = value


# (source, path into the payload, value put there, the exact SchemaError text):
# the records are the last of their lists, the cube entry one of its last rows
DECODER_FAULTS = [
    ("fusion", ("mult", 15, 1), "nope", "payload.mult[15][1]: unknown label 'nope'"),
    ("fusion", ("mult", 15, 1), True, "payload.mult[15][1]: expected a string"),
    ("fusion", ("mult", 15, 1), 0, "payload.mult[15][1]: expected a string"),
    ("fusion", ("mult", 15, 3), 0, "payload.mult[15][3]: multiplicity must be >= 1"),
    ("fusion", ("mult", 15, "+"), None, "payload.mult[16]: duplicate multiplicity record for ['3', '3', '2']"),
    ("fusion", ("sixj", 63, 4), "nope", "payload.sixj[63][4]: unknown label 'nope'"),
    ("fusion", ("sixj", 63, 4), True, "payload.sixj[63][4]: expected a string"),
    ("fusion", ("sixj", 63, 4), 0, "payload.sixj[63][4]: expected a string"),
    ("fusion", ("sixj", 63, 8), True, "payload.sixj[63][8]: expected an integer"),
    ("fusion", ("sixj", 63, 8), 0, "payload.sixj[63][8]: multiplicity labels are 1-based"),
    ("fusion", ("sixj", 63, "+"), None, "payload.sixj[64]: duplicate 6j record"),
    ("fusion", ("sixj", 63, 10), {"order": 4, "coeffs": [[0, 1], [-1, 0]]},
     "payload.sixj[63][10].coeffs[1]: zero denominator"),
    ("fusion", ("sixj", 63, 10), {"order": 4, "coeffs": [[0, 1], [-1, 1], [0, 1]]},
     "payload.sixj[63][10]: order 4 needs 2 coefficients, got 3"),
    ("fusion", ("sixj", 63, 10), {"order": 4, "coeffs": [0, [1]]},
     "payload.sixj[63][10].coeffs[1]: expected [numerator, denominator]"),
    ("superfusion", ("parities", 15, 2), "nope", "payload.parities[15][2]: unknown label 'nope'"),
    ("superfusion", ("parities", 15, 2), True, "payload.parities[15][2]: expected a string"),
    ("superfusion", ("parities", 15, 2), 0, "payload.parities[15][2]: expected a string"),
    ("superfusion", ("parities", 15, 3), True, "payload.parities[15][3]: expected an integer"),
    ("superfusion", ("parities", 15, "+"), None, "payload.parities[16]: duplicate parity record"),
    ("group", ("cocycle", 5, 4, 3), True, "payload.cocycle[5][4][3]: expected a scalar, got a boolean"),
    ("group", ("cocycle", 5, 4, 3), "1", "payload.cocycle[5][4][3]: expected an integer or a scalar object"),
    ("group", ("cocycle", 5, 4, 3), 0, "payload.cocycle: cocycle value at (5, 4, 3) is zero; values must lie in k^x"),
    ("group", ("cocycle", 5, 4, 3), {"order": 3, "coeffs": [[0, 1], [-1, 0]]},
     "payload.cocycle[5][4][3].coeffs[1]: zero denominator"),
    ("group", ("cocycle", 5, 4, 3), {"order": 3, "coeffs": [[0, 1], [-1, 1], [1, 1]]},
     "payload.cocycle[5][4][3]: order 3 needs 2 coefficients, got 3"),
    ("group", ("cocycle", 5, 4, 3), {"order": 3, "coeffs": [[0, 1], [-1, 1]], "x": 0},
     "payload.cocycle[5][4][3]: unknown scalar fields ['x']"),
    ("group", ("cocycle", 5, 4, 3), {"order": 0, "coeffs": [1]},
     "payload.cocycle[5][4][3].order: expected a positive integer"),
    ("group", ("cocycle", 5, 4, 3), {"order": 3, "coeffs": []},
     "payload.cocycle[5][4][3].coeffs: expected a non-empty list"),
    ("group", ("cocycle", 5, 4), [1] * 5, "payload.cocycle[5][4]: expected 6 entries"),
]


def fault_id(case):
    return "/".join(map(str, case[1])) + f"={case[2]!r}"


@pytest.mark.parametrize("kind, path, value, message", DECODER_FAULTS, ids=[fault_id(c) for c in DECODER_FAULTS])
def test_decoder_faults_carry_their_exact_location(kind, path, value, message):
    doc = document_of(kind)
    put(doc["payload"], path, value)
    with pytest.raises(SchemaError) as info:
        loads_file(json.dumps(doc))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "good, bad, suffix",
    [
        (1, True, ": expected a scalar, got a boolean"),
        (1, 1.0, ": expected an integer or a scalar object"),
        ({"order": 3, "coeffs": [[0, 1], [-1, 1]]}, {"order": 3, "coeffs": [[0, 1], [-1, 1.0]]},
         ".coeffs[1]: expected [numerator, denominator]"),
        ({"order": 3, "coeffs": [[0, 1], [-1, 1]]}, {"order": 3, "coeffs": [[0, True], [-1, 1]]},
         ".coeffs[0]: expected [numerator, denominator]"),
        ({"order": 3, "coeffs": [[0, 1], [-1, 1]]}, {"order": 3.0, "coeffs": [[0, 1], [-1, 1]]},
         ".order: expected a positive integer"),
    ],
)
def test_malformed_scalar_after_an_equal_looking_one_fails_at_its_own_place(good, bad, suffix):
    # a memo keyed on equality (1 == 1.0 == True) would hand back the good value
    doc = document_of("group")
    cube = doc["payload"]["cocycle"]
    cube[1][2][3], cube[5][4][3] = good, bad
    with pytest.raises(SchemaError) as info:
        loads_file(json.dumps(doc))
    assert str(info.value) == "payload.cocycle[5][4][3]" + suffix


def test_equal_scalars_decode_once_and_are_shared():
    entry = build_entry("vec-zn", 4)
    cf = loads_file(dumps_file(fusion_file(entry.data, entry.sixj)))
    values = list(cf.sixj.entries.values())
    assert len({id(v) for v in values}) == len({(v.order, v.nums, v.den) for v in values}) < len(values)


def test_hostile_order_fails_fast_with_its_location(tmp_path, capsys):
    doc = document_of("fusion")
    doc["payload"]["sixj"][63][10] = {"order": 10**18 + 9, "coeffs": [[1, 1]]}
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["check", str(path)]) == EXIT_INPUT_ERROR
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "payload.sixj[63][10]: order 1000000000000000009 needs more than 1 coefficients, got 1" in err


def test_codec_builds_no_fraction(monkeypatch):
    data, table = ising_exact_table()
    cf = fusion_file(data, gauge(data, table, seed=3))
    text = dumps_file(cf)
    assert count_fractions(monkeypatch, lambda: dumps_file(cf)) == 0
    assert count_fractions(monkeypatch, lambda: loads_file(text)) == 0
