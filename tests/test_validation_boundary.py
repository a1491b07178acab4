"""The unchecked builder against the checked doors.

Input is checked once: by the sfc-1 decoder, or by a public constructor for
a library caller.  What the decoder returns (fusion rules, superfusion
rules and tables, groups, omega tables and cubes) and what the package
derives from checked data (the underlying category, the G_omega lift,
pointed rules) is built by ``reporting._unchecked``, with no checks.  The
public
constructors stay the oracle: every unchecked object equals, field by field
and in its pickle, the object its constructor builds from the same fields;
a mutated document either fails in the decoder with a location or decodes
to objects that the constructors accept unchanged; and no command on a
benchmark input passes derived data through a public constructor.
"""

import contextlib
import copy
import io
import json
import pickle
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfckit.catalog import build_entry, standard_three_cocycle, z2_supercocycle
from sfckit.cli import EXIT_INPUT_ERROR, main
from sfckit.cocycles import GroupTable, SuperCocycle, ThreeCocycle, TwoCocycleZ2, cyclic_group, lift_supercocycle
from sfckit.envelope import lift_6j, underlying_fusion_rules
from sfckit.fusion import FusionData, SixJTable
from sfckit.serialize import SchemaError, dumps_file, fusion_file, group_file, load_file, loads_file
from sfckit.superfusion import SuperFusionData
from tests.cases import CATALOG, catalog_files
from workloads import WORKLOADS, build_plan, settle_oracles

# The public constructor of each class the package builds unchecked, called
# on an object's own fields.
PUBLIC = {
    FusionData: lambda x: FusionData(x.labels, x.unit, x.mult),
    SixJTable: lambda x: SixJTable(x.entries),
    SuperFusionData: lambda x: SuperFusionData(x.base, x.parities, x.object_type),
    GroupTable: lambda x: GroupTable(x.product, x.identity, x.labels),
    TwoCocycleZ2: lambda x: TwoCocycleZ2(x.values),
    ThreeCocycle: lambda x: ThreeCocycle(x.values),
    SuperCocycle: lambda x: SuperCocycle(x.omega, x.values),
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
    decoded rules and table, or group, omega table and cubes, the
    underlying rules and lifted table of a superfusion file, and the
    G_omega lift of a supercocycle."""
    if cf.kind == "fusion":
        yield cf.fusion
    elif cf.kind == "superfusion":
        yield cf.superfusion
        yield cf.superfusion.base
        yield underlying_fusion_rules(cf.superfusion)
        if cf.sixj is not None:
            yield lift_6j(cf.superfusion, cf.sixj)
    else:
        yield from (x for x in (cf.group, cf.omega, cf.cocycle, cf.supercocycle) if x is not None)
        if cf.supercocycle is not None:
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
    """Decoding a file calls no public constructor (SuperCocycle's runs
    ThreeCocycle's), and nothing a command derives goes through one."""
    calls = dict.fromkeys([FusionData, SixJTable, GroupTable, TwoCocycleZ2, ThreeCocycle], 0)

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
        assert code == op.expect["exit"], op.args
        assert set(calls.values()) == {0}, (op.args, calls)


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


# group documents: Z/2 with a cocycle, omega and a supercocycle, and Z/3
# with its own labels and a cocycle
GROUP_DOCUMENTS = [
    json.loads(dumps_file(group_file(cyclic_group(2), cocycle=standard_three_cocycle(2), supercocycle=z2_supercocycle(1)))),
    json.loads(dumps_file(group_file(GroupTable(cyclic_group(3).product, 0, ["e", "g", "gg"]), cocycle=standard_three_cocycle(3)))),
]
INDEX_VALUES = [-1, 0, 1, 2, 3, True, 1.5, "0"]
BIT_VALUES = [0, 1, 2, -1, True, 1.0]
CUBE_VALUES = [
    0, 1, -1, True, 1.5, "1",
    {"order": 3, "coeffs": [0, [0, 5]]},  # zero, as a scalar object
    {"order": 4, "coeffs": [[0, 1], [-1, 2]]},
    {"order": 3, "coeffs": [[1, 0], 1]},
]


@st.composite
def mutated_group_documents(draw):
    """A base group document with one to three mutations, and the location
    of each: a product entry, the identity, the labels (one dropped, added,
    repeated or not a string, or all left out), an omega bit or a cube value."""
    doc = copy.deepcopy(draw(st.sampled_from(GROUP_DOCUMENTS)))
    payload, places = doc["payload"], []
    group = payload["group"]
    n = group["order"]
    index = st.integers(0, n - 1)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["product", "identity", "labels", "omega", "cube"]))
        if kind == "product":
            pos = draw(st.integers(0, n * n - 1))
            group["product"][pos] = draw(st.sampled_from(INDEX_VALUES))
            places.append(f"payload.group.product[{pos}]")
        elif kind == "identity":
            group["identity"] = draw(st.sampled_from(INDEX_VALUES))
            places.append("payload.group.identity")
        elif kind == "labels":
            change = draw(st.sampled_from(["drop", "add", "repeat", "int", "default"]))
            labels = group.setdefault("labels", [str(x) for x in range(n)])
            if change == "drop":
                del labels[-1:]
            elif change == "add":
                labels.append("ghost")
            elif change == "repeat":
                labels[-1:] = labels[:1]
            elif change == "int":
                labels[:1] = [0]
            else:
                del group["labels"]
            places.append("payload.group.labels")
        elif kind == "omega" and "omega" in payload:
            r, c = draw(index), draw(index)
            payload["omega"][r][c] = draw(st.sampled_from(BIT_VALUES))
            places.append(f"payload.omega[{r}][{c}]")
        else:
            name = draw(st.sampled_from([name for name in ("cocycle", "supercocycle") if name in payload]))
            a, b, c = draw(index), draw(index), draw(index)
            payload[name][a][b][c] = draw(st.sampled_from(CUBE_VALUES))
            places.append(f"payload.{name}[{a}][{b}][{c}]")
    return doc, places


def check_exit_and_stderr(text: str) -> tuple[int, str]:
    """The exit code and stderr of sfckit check on a file holding text."""
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "doc.json"
        path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["check", str(path)])
    return code, err.getvalue()


@settings(max_examples=200, deadline=None)
@given(mutated_group_documents())
def test_mutated_group_documents_fail_at_a_mutated_place_or_decode_as_checked(case):
    doc, places = case
    text = json.dumps(doc)
    try:
        cf = loads_file(text)
    except SchemaError as exc:
        where = str(exc).split(": ")[0]
        assert any(where == p or where.startswith((p + ".", p + "[")) for p in places), (str(exc), places)
        assert check_exit_and_stderr(text) == (EXIT_INPUT_ERROR, f"error: {exc}\n")
        return
    for obj in (cf.group, cf.omega, cf.cocycle, cf.supercocycle):
        if obj is not None:
            assert_as_checked(obj)
