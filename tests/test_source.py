"""Checks on the library source itself."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "csspheres"


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so a check written as one
    # silently stops checking; the library raises instead.
    files = sorted(SRC.glob("*.py"))
    assert files, f"no modules under {SRC}"
    hits = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert hits == [], f"assert statements in the library: {hits}"
