"""The package surface: lazy exports, the record types and the import footprint."""

from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import csspheres
from csspheres.builders import build_B, build_delta, cross_polytope
from csspheres.core import FHVectors, TopologyReport, fh_vectors, topology_report
from csspheres.errors import InvalidParameters, ParseError
from csspheres.fileio import ComplexFile, write_path
from csspheres.flips import FlipPair, fg_pair
from csspheres.props import (
    NeighborlinessReport,
    StackednessReport,
    cs_neighborliness,
    stackedness,
)
from csspheres.sew3 import IndexSet
from csspheres.shelling import ShellingOrder, is_shelling, shelling_B42

SRC = str(Path(csspheres.__file__).resolve().parents[1])


def test_every_export_is_the_object_of_its_home_module():
    for name in csspheres.__all__:
        home = importlib.import_module(f"csspheres.{csspheres._HOME[name]}")
        obj = getattr(csspheres, name)
        assert obj is getattr(home, name), name
        if getattr(obj, "__module__", "").startswith("csspheres."):  # not the alias `Face`
            assert obj.__module__ == home.__name__, name


def test_star_import_and_dir_list_every_export():
    namespace: dict = {}
    exec("from csspheres import *", namespace)
    assert set(csspheres.__all__) <= set(namespace)
    assert set(csspheres.__all__) <= set(dir(csspheres))


def test_unknown_package_attribute_raises_attribute_error():
    # The closed forms of built objects are oracles in tests/oracles.py, not library names.
    for name in ("no_such_name", "suspension", "delta3_facet_formula"):
        with pytest.raises(AttributeError, match=name):
            getattr(csspheres, name)
        assert not hasattr(csspheres, name)
    for module, name in [("builders", "eq1_expansion"), ("builders", "b31_paths"),
                         ("core", "suspension"), ("props", "delta3_facet_formula")]:
        assert not hasattr(importlib.import_module(f"csspheres.{module}"), name), (module, name)


def _records():
    sphere = build_delta(3, 6)
    return {
        FHVectors: (fh_vectors(sphere), ("f", "h")),
        TopologyReport: (
            topology_report(sphere),
            ("pure", "connected", "closed_pseudomanifold", "euler", "z2_betti", "pseudomanifold"),
        ),
        ComplexFile: (ComplexFile(sphere), ("complex", "space")),
        NeighborlinessReport: (cs_neighborliness(sphere), ("max_i", "witness")),
        StackednessReport: (stackedness(build_B(3, 1, 6)), ("min_i", "witness_interior_face")),
        FlipPair: (fg_pair(2, 3), ("f", "g")),
        IndexSet: (IndexSet(12, (3,)), ("n", "indices")),
        ShellingOrder: (is_shelling(build_B(4, 2, 6), shelling_B42(6)), ("facets", "restriction_faces", "failed_at")),
    }


@pytest.mark.parametrize("cls", list(_records()), ids=lambda cls: cls.__name__)
def test_records_are_immutable_tuples_with_their_fields(cls):
    record, fields = _records()[cls]
    assert type(record) is cls and isinstance(record, tuple)
    assert cls._fields == fields
    assert tuple(record) == tuple(getattr(record, f) for f in fields)
    with pytest.raises(AttributeError):
        setattr(record, fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_records_keep_defaults_and_validation():
    c = cross_polytope(2)
    assert ComplexFile(c).space == "V"
    assert ComplexFile(c, "W") == ComplexFile(complex=c, space="W")
    with pytest.raises(ParseError):
        ComplexFile(c, space="Q")
    with pytest.raises(ParseError):
        ComplexFile(c)._replace(space="Q")
    with pytest.raises(InvalidParameters):
        IndexSet(12, (3, 4))
    with pytest.raises(InvalidParameters):
        IndexSet(12, (3,))._replace(indices=(3, 4))
    with pytest.raises(InvalidParameters):
        IndexSet(n=8, indices=())
    for n, indices, message in [
        (12.0, (3,), "IndexSet requires n to be an int, got 12.0"),
        (True, (3,), "IndexSet requires n to be an int, got True"),
        (12, (3.0,), "IndexSet requires index to be an int, got 3.0"),
        (12, (3, True), "IndexSet requires index to be an int, got True"),
        (12, 3, "indices must be a tuple of integers, got 3"),
        (12, "3", "indices must be a tuple of integers, got '3'"),
    ]:
        with pytest.raises(InvalidParameters, match=f"^{re.escape(message)}$"):
            IndexSet(n, indices)
    assert IndexSet(12, [3, 5]) == IndexSet(12, (3, 5))
    assert repr(IndexSet(12, (3,))) == "IndexSet(n=12, indices=(3,))"


def _run(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)


def _imported(args: list[str]) -> set[str]:
    """Modules that `python -X importtime <args>` reports loading."""
    done = _run(["-X", "importtime", *args])
    assert done.returncode == 0, done.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }


def test_bare_package_import_loads_no_submodule():
    done = _run(["-c", "import sys, csspheres; print(sorted(m for m in sys.modules if m.startswith('csspheres.')))"])
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_cli_commands_load_only_their_own_modules(tmp_path):
    path = str(tmp_path / "d36.json")
    write_path(path, ComplexFile(build_delta(3, 6)))
    startup = _imported(["-c", "pass"])
    unwanted = {"dataclasses", "csspheres.iso", "csspheres.sew3", "csspheres.shelling", "csspheres.flips"}
    for argv in (["export", path, "--format", "text"], ["verify", path, "--cs"]):
        loaded = _imported(["-m", "csspheres.cli", *argv]) - startup
        assert "csspheres.fileio" in loaded, (argv, sorted(loaded))
        assert loaded & unwanted == set(), (argv, sorted(loaded & unwanted))


def test_every_module_the_traced_bench_loads_imports():
    """perfbench/tracing.py imports each csspheres module its MODULES names."""
    tracing = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py").read_text())
    (modules,) = [
        ast.literal_eval(node.value) for node in tracing.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["MODULES"]
    ]
    assert "gf2" in modules
    for name in modules:
        assert importlib.import_module(f"csspheres.{name}").__name__ == f"csspheres.{name}"
