"""Checks on the library source itself."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "csspheres"
ORACLES = Path(__file__).resolve().with_name("oracles.py")


def _nodes(files):
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path, node


def _library_nodes():
    files = sorted(SRC.glob("*.py"))
    assert files, f"no modules under {SRC}"
    return _nodes(files)


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so a check written as one
    # silently stops checking; the library raises instead.
    hits = [f"{path.name}:{node.lineno}" for path, node in _library_nodes() if isinstance(node, ast.Assert)]
    assert hits == [], f"assert statements in the library: {hits}"


def _imports_of(nodes, package: str) -> list[str]:
    """`file:line` of each absolute import of `package` or one of its submodules."""
    hits = []
    for path, node in nodes:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == package for name in names):
            hits.append(f"{path.name}:{node.lineno}")
    return hits


def test_library_does_not_import_dataclasses():
    # Importing `dataclasses` pulls in `inspect`, `ast` and `dis`, and each
    # decorated class generates code with `exec`: a cost every fresh CLI
    # process pays.  Records are `typing.NamedTuple`s instead.
    hits = _imports_of(_library_nodes(), "dataclasses")
    assert hits == [], f"dataclasses imported by the library: {hits}"


def test_oracles_import_nothing_from_the_library():
    # An oracle that called the code it checks would agree with it by
    # construction; the closed forms of built objects must stay independent.
    hits = _imports_of(_nodes([ORACLES]), "csspheres")
    assert hits == [], f"csspheres imported by the oracles: {hits}"


def test_only_core_touches_the_complex_cache():
    # Every other module reads and fills a complex's cache through
    # `Complex.memo`, the one place that keys it.
    hits = [
        f"{path.name}:{node.lineno}"
        for path, node in _library_nodes()
        if path.name != "core.py" and isinstance(node, ast.Attribute) and node.attr == "_cache"
    ]
    assert hits == [], f"Complex._cache touched outside core: {hits}"


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _closures_that_name_themselves(nodes) -> list[str]:
    """`file:line` of each function nested in another that names itself but
    does not take itself as a parameter."""
    hits = set()
    for path, node in nodes:
        if not isinstance(node, _FUNCTIONS):
            continue
        for inner in ast.walk(node):
            if inner is node or not isinstance(inner, _FUNCTIONS):
                continue
            params = {a.arg for a in ast.walk(inner.args) if isinstance(a, ast.arg)}
            if inner.name not in params and any(
                isinstance(n, ast.Name) and n.id == inner.name for n in ast.walk(inner)
            ):
                hits.add(f"{path.name}:{inner.lineno}")
    return sorted(hits)


def test_no_nested_function_recurses_through_its_closure():
    # A nested function that calls itself by its own name reaches itself
    # through a closure cell, so every call leaves its scope as cyclic garbage
    # for the collector; recursive walks take themselves as a parameter,
    # `walk(walk, ...)`, instead.
    hits = _closures_that_name_themselves(_library_nodes())
    assert hits == [], f"nested functions that recurse through their closure: {hits}"


def test_closure_check_flags_a_closure_recursive_walk(tmp_path):
    path = tmp_path / "walks.py"
    path.write_text(
        "def outer(xs):\n"
        "    def cyclic(i):\n"
        "        return i if i == len(xs) else cyclic(i + 1)\n"
        "    def acyclic(acyclic, i):\n"
        "        return i if i == len(xs) else acyclic(acyclic, i + 1)\n"
        "    return cyclic(0), acyclic(acyclic, 0)\n"
    )
    assert _closures_that_name_themselves(_nodes([path])) == ["walks.py:2"]
