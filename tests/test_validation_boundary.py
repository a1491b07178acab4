"""The unchecked builder against the checked doors.

Input is checked once: by the sfc-1 decoder, or by a public constructor for
a library caller.  What the package derives from checked data (decoded
fusion rules, superfusion rules and tables, the underlying category, the
G_omega lift, pointed rules) is built by ``reporting._unchecked``, with no
checks.  The public
constructors stay the oracle: every unchecked object equals, field by field
and in its pickle, the object its constructor builds from the same fields;
a mutated document either fails in the decoder with a location or decodes
to objects that the constructors accept unchanged; and no command on a
benchmark input passes derived data through a public constructor.
"""

import copy
import json
import pickle
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfckit.catalog import build_entry
from sfckit.cli import main
from sfckit.cocycles import GroupTable, ThreeCocycle, lift_supercocycle
from sfckit.envelope import lift_6j, underlying_fusion_rules
from sfckit.fusion import FusionData, SixJTable
from sfckit.serialize import SchemaError, dumps_file, fusion_file, load_file, loads_file
from sfckit.superfusion import SuperFusionData
from tests.test_kernel import CATALOG
from tests.test_serialize import catalog_files

# perfbench's modules import each other by bare name
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import WORKLOADS, build_plan, settle_oracles

# The public constructor of each class the package builds unchecked, called
# on an object's own fields.
PUBLIC = {
    FusionData: lambda x: FusionData(x.labels, x.unit, x.mult),
    SixJTable: lambda x: SixJTable(x.entries),
    SuperFusionData: lambda x: SuperFusionData(x.base, x.parities, x.object_type),
    GroupTable: lambda x: GroupTable(x.product, x.identity, x.labels),
    ThreeCocycle: lambda x: ThreeCocycle(x.values),
}


def assert_as_checked(obj):
    """obj has the fields, field types, dict order and pickle of the object
    its public constructor builds from those fields, and unpickles (by the
    default __slots__ state, with no constructor call) to equal fields."""
    cls = type(obj)
    checked = PUBLIC[cls](obj)
    for name in cls.__slots__:
        got, want = getattr(obj, name), getattr(checked, name)
        assert type(got) is type(want), name
        assert got == want, name
        if type(got) is dict:
            assert list(got) == list(want), name
    assert pickle.dumps(obj) == pickle.dumps(checked)
    assert fields(pickle.loads(pickle.dumps(obj))) == fields(obj)


def fields(obj) -> list:
    """The field values of obj, each one of the classes in PUBLIC (the
    FusionData base of a SuperFusionData) by its own field values."""
    values = [getattr(obj, name) for name in type(obj).__slots__]
    return [fields(x) if type(x) in PUBLIC else x for x in values]


def derived(cf):
    """Every object the package builds unchecked from a category file: its
    decoded rules and table, the underlying rules and lifted table of a
    superfusion file, and the G_omega lift of a supercocycle."""
    if cf.kind == "fusion":
        yield cf.fusion
    elif cf.kind == "superfusion":
        yield cf.superfusion
        yield cf.superfusion.base
        yield underlying_fusion_rules(cf.superfusion)
        if cf.sixj is not None:
            yield lift_6j(cf.superfusion, cf.sixj)
    elif cf.supercocycle is not None:
        yield from lift_supercocycle(cf.group, cf.supercocycle)
    if cf.sixj is not None:
        yield cf.sixj


@pytest.mark.parametrize("name, params", CATALOG)
def test_catalog_entries_and_lifts_equal_the_checked_build(name, params):
    # the entry's own rules and table, as built, and as decoded from its file
    for cf in catalog_files(name, params):
        for obj in [*derived(cf), *derived(loads_file(dumps_file(cf)))]:
            assert_as_checked(obj)


@pytest.fixture(scope="module")
def plans(tmp_path_factory):
    """Each workload's plan over its inputs (seed 1), with oracles settled."""
    out = {}
    for name in WORKLOADS:
        plan = build_plan(name, str(tmp_path_factory.mktemp(name)), 1)
        settle_oracles(plan)
        out[name] = plan
    return out


def input_files(plan):
    """The input of each op: a command's FILE, the library op's one argument."""
    return sorted({op.args[1] if op.kind == "cli" else op.args[0] for op in plan.ops})


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_inputs_decode_and_lift_as_checked(plans, workload):
    for path in input_files(plans[workload]):
        for obj in derived(load_file(path)):
            assert_as_checked(obj)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_commands_on_benchmark_inputs_check_each_input_once(plans, workload, monkeypatch, capsys):
    """Decoding a file calls no FusionData or SixJTable constructor, and the
    ThreeCocycle constructor (SuperCocycle's too) once per cube in the file;
    nothing a command derives goes through a constructor."""
    calls = {FusionData: 0, SixJTable: 0, ThreeCocycle: 0}

    def counting(cls):
        init = cls.__init__

        def wrapper(self, *args, **kwargs):
            calls[cls] += 1
            init(self, *args, **kwargs)

        return wrapper

    for cls in calls:
        monkeypatch.setattr(cls, "__init__", counting(cls))
    for op in plans[workload].ops:
        if op.kind != "cli":
            continue
        calls.update(dict.fromkeys(calls, 0))
        code = main(op.args)
        capsys.readouterr()
        with open(op.args[1]) as fh:
            payload = json.load(fh)["payload"]
        cubes = ("cocycle" in payload) + ("supercocycle" in payload)
        assert code == op.expect["exit"], op.args
        assert calls == {FusionData: 0, SixJTable: 0, ThreeCocycle: cubes}, op.args


# -- mutated documents ----------------------------------------------------------------------

# (catalog entry, lift it): fusion documents with tables, one with
# multiplicity labels above 1 in its lifted table
BASES = [("vec-zn", (2,), False), ("vec-zn", (3, 2), False), ("super-z2", (1,), True)]
MULT_VALUES = [0, -1, True, 1.0, "1", 2]
SIXJ_LABELS = [0, True, 1.5, 2]
LOCATION = re.compile(r"^payload(\.\w+)?(\[\d+\])*: ")


def base_document(name, params, lift):
    entry = build_entry(name, *params)
    if lift:
        cf = fusion_file(underlying_fusion_rules(entry.data), lift_6j(entry.data, entry.sixj))
    else:
        cf = fusion_file(entry.data, entry.sixj)
    return json.loads(dumps_file(cf))


DOCUMENTS = [base_document(*base) for base in BASES]


@st.composite
def mutated_documents(draw):
    """A base document with one to three mutations: a multiplicity value, a
    6j multiplicity label, a label (known or unknown) in a record or the
    unit, or a duplicated record."""
    doc = copy.deepcopy(draw(st.sampled_from(DOCUMENTS)))
    payload = doc["payload"]
    labels = payload["labels"] + ["ghost"]
    for _ in range(draw(st.integers(1, 3))):
        field = draw(st.sampled_from(["mult", "sixj"]))
        records = payload[field]
        rec = records[draw(st.integers(0, len(records) - 1))]
        kind = draw(st.sampled_from(["value", "label", "unit", "duplicate"]))
        if kind == "value" and field == "mult":
            rec[3] = draw(st.sampled_from(MULT_VALUES))
        elif kind == "value":
            rec[draw(st.integers(6, 9))] = draw(st.sampled_from(SIXJ_LABELS))
        elif kind == "label":
            rec[draw(st.integers(0, 2 if field == "mult" else 5))] = draw(st.sampled_from(labels))
        elif kind == "unit":
            payload["unit"] = draw(st.sampled_from(labels))
        else:
            records.append(list(rec))
    return doc


@settings(max_examples=300, deadline=None)
@given(mutated_documents())
def test_mutated_documents_fail_with_a_location_or_decode_as_checked(doc):
    try:
        cf = loads_file(json.dumps(doc))
    except SchemaError as exc:
        assert LOCATION.match(str(exc)), str(exc)
        return
    assert_as_checked(cf.fusion)
    assert_as_checked(cf.sixj)
