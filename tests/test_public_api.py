"""The lazy package namespace and the error classes shared by the engines
and the command line."""

import importlib
import os
import pickle
import subprocess
import sys

import pytest

import sfckit
from gen import flip_entry
from sfckit import catalog, cli, cocycles, envelope, fusion, grothendieck, reporting, serialize, superfusion
from sfckit.catalog import build_entry, ising_super
from tests.cases import middle_key


def test_every_public_name_is_its_defining_modules_object():
    assert len(sfckit.__all__) == sum(len(names) for names in sfckit._EXPORTS.values())  # no name twice
    for name in sfckit.__all__:
        value = getattr(sfckit, name)
        assert value is getattr(importlib.import_module(f"sfckit.{sfckit._SOURCE[name]}"), name), name
        if callable(value):  # where it was defined, under its own name
            assert getattr(sys.modules[value.__module__], value.__name__) is value, name


def test_star_import_dir_and_unknown_names():
    namespace = {}
    exec("from sfckit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(sfckit.__all__)
    assert set(sfckit.__all__) <= set(dir(sfckit))
    assert "__version__" in dir(sfckit)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(sfckit, "no_such_name")


def test_submodule_import_from_a_fresh_package():
    # `from sfckit import fusion` asks the lazy __getattr__ first; its
    # AttributeError must send the import system on to the submodule
    code = "from sfckit import fusion, check_pentagon; print(check_pentagon is fusion.check_pentagon)"
    src = os.path.dirname(os.path.dirname(sfckit.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60
    )
    assert proc.stdout == "True\n", proc.stderr


def test_errors_are_one_class_each():
    assert fusion.FusionError is reporting.FusionError is cli.FusionError is sfckit.FusionError
    assert cocycles.CocycleError is reporting.CocycleError is cli.CocycleError is sfckit.CocycleError
    assert catalog.CatalogError is reporting.CatalogError is cli.CatalogError
    assert issubclass(superfusion.SuperFusionError, fusion.FusionError)


def test_every_data_class_survives_pickling():
    # the default pickling of a __slots__ class round-trips every field;
    # FusionData (no derived _products on the wire) and Cyclotomic keep
    # their own __reduce__
    def fields(obj):
        if isinstance(obj, (fusion.FusionData, cocycles.TwoCocycleZ2)):  # no __eq__
            return (type(obj),) + tuple(fields(getattr(obj, name)) for name in type(obj).__slots__)
        if isinstance(obj, (tuple, list)):
            return type(obj)(fields(x) for x in obj)
        return obj

    vec, sup = build_entry("vec-zn", 3), build_entry("super-zn-even", 2)
    group, sc = sup.source["group"], sup.source["supercocycle"]
    objects = [
        vec.data, vec.sixj, vec.source["group"], vec.source["cocycle"],
        sup.data, sup.sixj, group, sc, sc.omega, ising_super(),
    ]
    for obj in objects:
        back = pickle.loads(pickle.dumps(obj))
        assert type(back) is type(obj)
        for name in type(obj).__slots__:
            assert fields(getattr(back, name)) == fields(getattr(obj, name)), (type(obj).__name__, name)


def test_plain_record_classes_pickle_compare_and_freeze():
    # the classes that were @dataclass: every field survives the default
    # pickling of __slots__; the reports compare field by field, and ZPi and
    # UnderlyingLabel are hashable values that refuse assignment
    def fields(obj):
        if hasattr(type(obj), "__slots__") and type(obj).__eq__ is object.__eq__:
            return (type(obj),) + tuple(fields(getattr(obj, name)) for name in type(obj).__slots__)
        if isinstance(obj, (tuple, list)):
            return type(obj)(fields(x) for x in obj)
        if isinstance(obj, dict):
            return {key: fields(value) for key, value in obj.items()}
        return obj

    vec, sup = build_entry("vec-zn", 3), build_entry("super-zn-even", 2)
    failing = fusion.check_pentagon(vec.data, flip_entry(vec.sixj, middle_key(vec.sixj)))
    label, z = envelope.UnderlyingLabel(1, 0), grothendieck.ZPi(2, -1)
    records = [
        failing, failing.violations[0], fusion.validate_fusion(vec.data), envelope.verify_lift(sup.data, sup.sixj),
        serialize.fusion_file(vec.data, vec.sixj), vec, superfusion.classify_objects(sup.data), label, z,
    ]
    for obj in records:
        back = pickle.loads(pickle.dumps(obj))
        assert type(back) is type(obj)
        assert fields(back) == fields(obj), type(obj).__name__

    assert failing.violations and failing == pickle.loads(pickle.dumps(failing))
    assert failing != reporting.CheckReport(failing.name, failing.ok, failing.checked)
    assert reporting.CheckReport("a", True, 0).violations is not reporting.CheckReport("a", True, 0).violations
    assert reporting.LawResult("unit", True) == reporting.LawResult("unit", True, [])
    assert {label: 1}[envelope.UnderlyingLabel(1, 0)] == 1 and label != envelope.UnderlyingLabel(1, 1)
    assert z == grothendieck.ZPi(2, -1) and hash(z) == hash(grothendieck.ZPi(2, -1)) and z != grothendieck.ZPi(-1, 2)
    for value in (label, z):
        for name in type(value).__slots__:
            with pytest.raises(AttributeError, match="immutable"):
                setattr(value, name, 5)
            with pytest.raises(AttributeError, match="immutable"):
                delattr(value, name)
