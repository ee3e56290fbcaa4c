"""Checks on the library source itself."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "csspheres"


def _library_nodes():
    files = sorted(SRC.glob("*.py"))
    assert files, f"no modules under {SRC}"
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path, node


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so a check written as one
    # silently stops checking; the library raises instead.
    hits = [f"{path.name}:{node.lineno}" for path, node in _library_nodes() if isinstance(node, ast.Assert)]
    assert hits == [], f"assert statements in the library: {hits}"


def test_library_does_not_import_dataclasses():
    # Importing `dataclasses` pulls in `inspect`, `ast` and `dis`, and each
    # decorated class generates code with `exec`: a cost every fresh CLI
    # process pays.  Records are `typing.NamedTuple`s instead.
    hits = []
    for path, node in _library_nodes():
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "dataclasses" for name in names):
            hits.append(f"{path.name}:{node.lineno}")
    assert hits == [], f"dataclasses imported by the library: {hits}"
