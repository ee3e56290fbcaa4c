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


def _untyped_caches(nodes) -> list[str]:
    """`file:line` of each `functools` memo that is not built by
    `functools.lru_cache(..., typed=True)`: a bare `functools.cache`, a
    `lru_cache` without `typed=True`, or one imported by name, which this
    check would not see."""
    nodes = list(nodes)
    typed = {
        id(node.func) for _, node in nodes
        if isinstance(node, ast.Call) and any(
            k.arg == "typed" and isinstance(k.value, ast.Constant) and k.value.value is True
            for k in node.keywords)
    }
    hits = []
    for path, node in nodes:
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            bad = any(alias.name in ("cache", "lru_cache") for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "functools":
            bad = node.attr == "cache" or (node.attr == "lru_cache" and id(node) not in typed)
        else:
            continue
        if bad:
            hits.append(f"{path.name}:{node.lineno}")
    return hits


def test_every_memo_is_keyed_by_type():
    # An untyped memo finds 6.0 and True equal to 6 and 1, so a call with a
    # float or a bool returns the entry of the int and skips the body's check.
    hits = _untyped_caches(_library_nodes())
    assert hits == [], f"memos not keyed by type: {hits}"


def _int_type_tests(files) -> list[tuple[str, str | None, str]]:
    """(file, innermost function, checked expression) of each
    `type(x) is not int` and `isinstance(x, int)` in `files`."""
    hits = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}
        for func in ast.walk(tree):  # outer functions come first, inner ones overwrite
            if isinstance(func, _FUNCTIONS):
                owner.update((node, func.name) for node in ast.walk(func))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
                    and isinstance(node.left.func, ast.Name) and node.left.func.id == "type"
                    and any(isinstance(op, ast.IsNot) and isinstance(c, ast.Name) and c.id == "int"
                            for op, c in zip(node.ops, node.comparators))):
                subject = node.left.args[0]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
                    and "int" in {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}):
                subject = node.args[0]
            else:
                continue
            hits.append((path.name, owner.get(node), ast.unparse(subject)))
    return hits


# The type checks that state rules of their own: a vertex label is a nonzero
# int of either sign, and a file's declared dim is refused with ParseError.
_OWN_INT_RULES = {("core.py", "canon_face", "v"), ("fileio.py", "_complex_file", "dim")}


def test_only_check_int_tests_an_int_parameter():
    # `errors.check_int` is the one check of an integer parameter's type and
    # range; a check written by hand at a call site drifts from it.
    files = [path for path in sorted(SRC.glob("*.py")) if path.name != "errors.py"]
    hits = [hit for hit in _int_type_tests(files) if hit not in _OWN_INT_RULES]
    assert hits == [], f"int type checks outside errors.check_int: {hits}"


_BITMASK_NAMES = {"__lshift__", "lshift", "bit_length"}


def _bitmask_ops(nodes) -> list[str]:
    """`file:line` of each left shift (`<<`, `<<=`) and of each name,
    attribute or string `__lshift__`, `lshift` or `bit_length`: what
    building an int bitmask or reading its lead takes."""
    hits = []
    for path, node in nodes:
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            bad = isinstance(node.op, ast.LShift)
        elif isinstance(node, ast.Attribute):
            bad = node.attr in _BITMASK_NAMES
        elif isinstance(node, ast.Name):
            bad = node.id in _BITMASK_NAMES
        elif isinstance(node, ast.Constant):
            bad = node.value in _BITMASK_NAMES
        else:
            continue
        if bad:
            hits.append((path.name, node.lineno))
    return [f"{name}:{line}" for name, line in sorted(hits)]


def test_gf2_builds_no_int_bitmask():
    # The reduction's cost must depend only on the order of the column keys,
    # which are stream positions with gaps; a bitmask over them costs time
    # and memory in their size.
    hits = _bitmask_ops(_nodes([SRC / "gf2.py"]))
    assert hits == [], f"int bitmask operations in gf2.py: {hits}"


def test_source_checks_flag_their_mutants(tmp_path):
    path = tmp_path / "mutant.py"
    path.write_text(
        "import functools\n"
        "from functools import lru_cache\n"
        "@functools.cache\n"
        "def a(n):\n"
        "    return n\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def b(n):\n"
        "    return n\n"
        "memo = functools.lru_cache(maxsize=None, typed=True)(a)\n"
        "def enum_I(n):\n"
        "    if type(n) is not int or not isinstance(n, int):\n"
        "        raise ValueError(n)\n"
        "mask = 1 << 3\n"
        "mask <<= 1\n"
        "mask = sum(map((1).__lshift__, (1, 2)))\n"
        "lead = mask.bit_length() - 1\n"
    )
    assert _untyped_caches(_nodes([path])) == ["mutant.py:2", "mutant.py:3", "mutant.py:6"]
    assert _int_type_tests([path]) == [("mutant.py", "enum_I", "n")] * 2
    assert _bitmask_ops(_nodes([path])) == [f"mutant.py:{line}" for line in range(13, 17)]
