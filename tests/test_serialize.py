"""Tests for the sfc-1 JSON container and the scalar codec."""

import json
from fractions import Fraction

import pytest

from sfckit.catalog import build_entry, standard_three_cocycle, z2_supercocycle
from sfckit.cocycles import cyclic_group
from sfckit.scalars import Cyclotomic, root_of_unity
from sfckit.serialize import (
    SchemaError,
    dumps_file,
    fusion_file,
    group_file,
    loads_file,
    scalar_from_json,
    scalar_to_json,
    superfusion_file,
)


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
    with pytest.raises(SchemaError, match="parity"):
        loads_file(json.dumps(doc))

    doc = doc_for("super-z2", 1)
    doc["payload"]["object_type"].pop("0")
    with pytest.raises(SchemaError, match="missing label"):
        loads_file(json.dumps(doc))

    doc = doc_for("super-z2", 1)
    doc["payload"]["object_type"]["0"] = "ghost"
    with pytest.raises(SchemaError, match="bosonic"):
        loads_file(json.dumps(doc))


def test_invalid_json_is_a_schema_error():
    with pytest.raises(SchemaError, match="invalid JSON"):
        loads_file("{this is not json")


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
