"""Interchange formats and the command-line front end."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import csspheres
from csspheres import builders, core, fileio
from csspheres.builders import build_B, build_delta, build_lambda, cross_polytope, squeezed_ball
from csspheres.cli import build_parser, main
from csspheres.core import Complex, canon_face
from csspheres.errors import ParseError
from csspheres.fileio import (
    SPACES,
    ComplexFile,
    dumps,
    dumps_json,
    dumps_text,
    loads,
    loads_json,
    loads_text,
    read_path,
)


def test_text_round_trip():
    cf = ComplexFile(cross_polytope(3))
    text = dumps_text(cf)
    assert text.splitlines()[0] == "# dim=2 n=3 space=V"
    assert len(text.splitlines()) == 9
    again = loads_text(text)
    assert again == cf
    assert dumps_text(again) == text


def test_json_round_trip():
    cf = ComplexFile(build_delta(3, 6))
    blob = dumps_json(cf)
    again = loads_json(blob)
    assert again == cf and dumps_json(again) == blob
    payload = json.loads(blob)
    assert payload["ambient_n"] == 6 and payload["dim"] == 3
    assert payload["facets"] == sorted(payload["facets"], key=lambda f: [(abs(v), v < 0) for v in f])


def test_w_space_tag_round_trips():
    cf = ComplexFile(build_lambda(1, 4), space="W")
    for fmt in ("text", "json"):
        blob = dumps(cf, fmt)
        assert loads(blob) == cf


def test_header_is_optional():
    cf = loads_text("1 2\n2 3\n")
    assert cf.complex == Complex([(1, 2), (2, 3)], 3)


def test_parse_errors():
    with pytest.raises(ParseError):
        loads_text("1 0 2\n")
    with pytest.raises(ParseError):
        loads_text("1 1 2\n")
    with pytest.raises(ParseError):
        loads_text("# dim=2 n=3 space=Q\n1 2 3\n")
    with pytest.raises(ParseError):
        loads_text("# dim=5 n=3\n1 2 3\n")
    with pytest.raises(ParseError, match="dim=5"):  # no facet lines: the void complex has dim -2
        loads_text("# dim=5\n")
    with pytest.raises(ParseError, match="dim=0"):
        loads_json('{"dim": 0, "facets": []}')
    with pytest.raises(ParseError, match="True"):
        loads_json('{"dim": true, "facets": [[1, 2]]}')
    with pytest.raises(ParseError, match="1.0"):
        loads_json('{"dim": 1.0, "facets": [[1, 2]]}')
    with pytest.raises(ParseError):
        loads_json("{not json")
    with pytest.raises(ParseError):
        loads_json('{"facets": [[1, 0]]}')
    with pytest.raises(ParseError):  # nesting deeper than the decoder's recursion limit
        loads_json('{"facets": ' + "[" * 100000 + "]" * 100000 + "}")
    with pytest.raises(ParseError):  # an integer beyond the int-conversion digit limit
        loads_json('{"facets": [[' + "1" * 5000 + "]]}")
    err = None
    try:
        loads_text("1 2\nx y\n")
    except ParseError as exc:
        err = exc
    assert err is not None and err.line == 2


@pytest.mark.parametrize("format", ["text", "json"])
def test_loads_canonicalises_each_face_once(format, monkeypatch):
    cf = ComplexFile(build_delta(3, 7))
    calls = []

    def counted(face):
        calls.append(face)
        return canon_face(face)

    monkeypatch.setattr(core, "canon_face", counted)  # what `Complex(...)` calls
    monkeypatch.setattr(fileio, "canon_face", counted)
    assert loads(dumps(cf, format)) == cf
    assert len(calls) == len(cf.complex.facets)


@pytest.mark.parametrize(
    "text,label",
    [('{"facets": [[true, 2], [-1, -2]]}', "True"), ('{"facets": [["a", 2]]}', "'a'")],
    ids=["bool", "string"],
)
def test_non_integer_labels_are_parse_errors(text, label):
    with pytest.raises(ParseError, match=label):
        loads(text)


def test_empty_face_complex_round_trips_as_text():
    cf = ComplexFile(Complex([()], 2))
    assert loads(dumps(cf, "text")) == cf


labels = st.integers(-6, 6).filter(bool)
complex_files = st.builds(
    lambda facets, extra, space: ComplexFile(
        Complex(facets, max((abs(v) for f in facets for v in f), default=0) + extra), space
    ),
    st.lists(st.frozensets(labels, max_size=4), max_size=6),
    st.integers(0, 2),
    st.sampled_from(SPACES),
)


@settings(derandomize=True, max_examples=150)
@given(complex_files)
def test_dumps_loads_round_trip(cf):
    for fmt in ("text", "json"):
        assert loads(dumps(cf, fmt)) == cf


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-4, 4) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["facets", "ambient_n", "dim", "space"]), inner, max_size=4),
    max_leaves=12,
)
text_lines = st.one_of(
    st.lists(st.integers(-4, 4), max_size=4).map(lambda vs: " ".join(map(str, vs))),
    st.sampled_from(["# dim=2", "# n=3", "# n=-1", "# dim=x", "# space=W", "# space=Q", "#", "# n", "1 x"]),
)
malformed = st.one_of(
    st.text(max_size=40),
    json_values.map(json.dumps),
    st.lists(text_lines, max_size=6).map("\n".join),
)


@settings(derandomize=True, max_examples=300)
@given(malformed)
def test_loads_raises_only_parse_error(text):
    try:
        loads(text)
    except ParseError:
        pass


def test_unknown_header_key_and_format_are_refused():
    with pytest.raises(ParseError, match="line 1: unknown header key 'foo'"):
        loads_text("# foo=1\n1 2\n")
    with pytest.raises(ParseError, match="unknown format 'xml'"):
        dumps(ComplexFile(cross_polytope(2)), "xml")


def test_cli_build_verify(tmp_path, capsys):
    out = tmp_path / "d38.json"
    assert main(["build", "delta", "--d", "3", "--n", "8", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["facets"]) == 96
    assert main(["verify", str(out), "--cs", "--neighborly", "2", "--sphere"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3 and all(line.startswith("PASS") for line in lines)
    # a failing check exits 1
    assert main(["verify", str(out), "--neighborly", "3"]) == 1


def test_cli_verify_exactly_neighborly_names_its_witness(tmp_path, capsys):
    out = tmp_path / "d38.json"
    assert main(["build", "delta", "--d", "3", "--n", "8", "--out", str(out)]) == 0
    assert main(["verify", str(out), "--exactly-neighborly", "3"]) == 1
    assert capsys.readouterr().out == f"FAIL {out} exactly cs-3-neighborly (max_i=2 witness={{1,-2,-3}})\n"


def test_cli_non_integer_budget_exits_2(tmp_path, capsys):
    path = tmp_path / "d36.json"
    assert main(["build", "delta", "--d", "3", "--n", "6", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["aut", str(path), "--budget", "x"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "argument --budget: invalid int value: 'x'" in err and "Traceback" not in err


def test_cli_verify_several_files(tmp_path, capsys):
    paths = []
    for n in (6, 7):
        p = tmp_path / f"d3{n}.json"
        main(["build", "delta", "--d", "3", "--n", str(n), "--out", str(p)])
        paths.append(str(p))
    capsys.readouterr()
    assert main(["verify", *paths, "--cs"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2


def test_cli_iso(tmp_path, capsys):
    a = tmp_path / "l37.json"
    b = tmp_path / "d37.json"
    main(["build", "lambda", "--d", "3", "--n", "7", "--out", str(a)])
    main(["build", "delta", "--d", "3", "--n", "7", "--out", str(b)])
    capsys.readouterr()
    assert main(["iso", str(a), str(b)]) == 1
    trace = capsys.readouterr().out
    assert "FAIL necessary condition" in trace or "not isomorphic" in trace
    c = tmp_path / "l36.json"
    d = tmp_path / "d36.json"
    main(["build", "lambda", "--d", "3", "--n", "6", "--out", str(c)])
    main(["build", "delta", "--d", "3", "--n", "6", "--out", str(d)])
    capsys.readouterr()
    assert main(["iso", str(c), str(d)]) == 0
    out = capsys.readouterr().out.splitlines()
    rows = out[out.index("isomorphic; witness map:") + 1:]
    witness = {int(v): int(w) for v, w in (row.split("\t") for row in rows)}
    facets_c, facets_d = read_path(str(c)).complex.facets, read_path(str(d)).complex.facets
    assert {frozenset(witness[v] for v in f) for f in facets_c} == {frozenset(f) for f in facets_d}


def test_cli_iso_stops_at_a_failed_f_vector(tmp_path, capsys, monkeypatch):
    a, b = tmp_path / "d36.json", tmp_path / "d37.json"
    main(["build", "delta", "--d", "3", "--n", "6", "--out", str(a)])
    main(["build", "delta", "--d", "3", "--n", "7", "--out", str(b)])
    capsys.readouterr()
    links = []
    original = Complex.link
    monkeypatch.setattr(Complex, "link", lambda self, face: links.append(face) or original(self, face))
    assert main(["iso", str(a), str(b)]) == 1
    assert capsys.readouterr().out == "FAIL necessary condition: f-vector\nnot isomorphic\n"
    assert links == []


def test_cli_iso_reports_differing_canonical_forms(tmp_path, capsys, monkeypatch):
    # Γ(3,14,{3}) and Γ(3,14,{4}) pass both invariants, yet are not isomorphic
    a, b = tmp_path / "g3.json", tmp_path / "g4.json"
    assert main(["flips", "--k", "3", "--n", "14", "--j", "3", "--out", str(a)]) == 0
    assert main(["flips", "--k", "3", "--n", "14", "--j", "4", "--out", str(b)]) == 0
    capsys.readouterr()
    links = []
    original = Complex.link
    monkeypatch.setattr(Complex, "link", lambda self, face: links.append(face) or original(self, face))
    assert main(["iso", str(a), str(b)]) == 1
    assert capsys.readouterr().out == (
        "PASS necessary condition: f-vector\n"
        "PASS necessary condition: edge-link census multiset\n"
        "not isomorphic (canonical forms differ)\n"
    )
    assert links == []


def test_cli_aut(tmp_path, capsys):
    p = tmp_path / "d37.json"
    main(["build", "delta", "--d", "3", "--n", "7", "--out", str(p)])
    capsys.readouterr()
    assert main(["aut", str(p), "--expect", "2"]) == 0
    assert main(["aut", str(p), "--expect", "4"]) == 1


def test_cli_census(tmp_path, capsys):
    p = tmp_path / "d38.json"
    main(["build", "delta", "--d", "3", "--n", "8", "--out", str(p)])
    capsys.readouterr()
    assert main(["census", str(p), "--at-least", "12"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert sorted(rows) == sorted(["1\t2\t12", "-1\t-2\t12", "7\t8\t12", "-7\t-8\t12"])
    # no threshold: every edge, C(16, 2) minus the 8 antipodal pairs
    assert main(["census", str(p)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 112


def test_cli_flips(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert main(["flips", "--k", "2", "--n", "10", "--j", "3,5", "--out", str(out)]) == 0
    assert "PASS" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert len(payload["facets"]) == 2 * 100 - 40 - 4


def test_cli_sew(tmp_path):
    base = tmp_path / "d35.json"
    ball = tmp_path / "b315.json"
    out = tmp_path / "sewn.json"
    main(["build", "delta", "--d", "3", "--n", "5", "--out", str(base)])
    main(["build", "ball", "--d", "3", "--i", "1", "--n", "5", "--out", str(ball)])
    assert main(["sew", "--base", str(base), "--ball", str(ball), "--out", str(out)]) == 0
    assert read_path(str(out)).complex == build_delta(3, 6)


def test_cli_shell(tmp_path, capsys):
    out = tmp_path / "order.txt"
    assert main(["shell", "delta3", "--n", "6", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 48 and "# restriction" in lines[0]
    capsys.readouterr()
    assert main(["shell", "b42", "--n", "6"]) == 0


@pytest.mark.parametrize(
    "argv,message",
    [
        (["shell", "delta3", "--n", "3"], "error: symmetric_shelling_delta3 requires n >= 4, got 3"),
        (["shell", "b42", "--n", "4"], "error: shelling_B42 requires n >= 5, got 4"),
    ],
    ids=["delta3", "b42"],
)
def test_cli_shell_states_its_own_bound(capsys, argv, message):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.strip() == message


# `build delta-i --n 10 --i-set 3 --tree-out`: the 2n - 4 edges of T(I), one a
# line, endpoints as comma-joined facet labels, in canonical order
TREE_10_3 = """\
1,2,3,5\t1,2,5,7
1,2,4,6\t1,2,6,8
1,2,5,7\t1,2,7,9
1,2,6,8\t1,2,8,10
1,2,6,8\t1,-5,6,8
1,2,7,9\t1,2,9,10
1,2,8,10\t1,2,9,10
1,2,9,10\t1,-8,9,10
1,-5,6,8\t-4,-5,6,8
1,-8,9,10\t1,-8,-9,10
1,-8,9,10\t-7,-8,9,10
1,-8,-9,10\t1,-8,-9,-10
-1,-2,6,8\t-2,-3,6,8
-2,-3,6,8\t-3,-4,6,8
-3,-4,6,8\t-4,-5,6,8
-6,-7,9,10\t-7,-8,9,10
"""


def test_cli_delta_i_with_tree(tmp_path):
    out = tmp_path / "dI.json"
    tree = tmp_path / "tree.tsv"
    assert main(["build", "delta-i", "--n", "10", "--i-set", "3",
                 "--out", str(out), "--tree-out", str(tree)]) == 0
    assert tree.read_text() == TREE_10_3
    payload = json.loads(out.read_text())
    assert payload["ambient_n"] == 11


def test_cli_export_identity(tmp_path):
    src = tmp_path / "c.json"
    main(["build", "delta", "--d", "2", "--n", "5", "--out", str(src)])
    txt = tmp_path / "c.txt"
    assert main(["export", str(src), "--format", "text", "--out", str(txt)]) == 0
    back = tmp_path / "c2.json"
    assert main(["export", str(txt), "--format", "json", "--out", str(back)]) == 0
    assert src.read_text() == back.read_text()


def test_readme_cli_block_runs_as_documented(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [chunk.split("```", 1)[0] for chunk in readme.split("```sh\n")[1:]]
    (block,) = [b for b in blocks if "\ncsspheres " in b]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv for argv in commands if argv]
    assert commands and all(argv[0] == "csspheres" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code = main(argv[1:])
        err = capsys.readouterr().err
        assert code == (1 if argv[1] == "iso" else 0), (argv, err)


def test_cli_error_exit_codes(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 0 2\n")
    assert main(["export", str(bad), "--format", "json"]) == 2
    assert main(["build", "delta", "--d", "3", "--n", "2", "--out", str(tmp_path / "x.json")]) == 2
    assert main(["nonsense"]) == 2


@pytest.mark.parametrize(
    "argv,content",
    [
        (["build", "delta-i", "--n", "12", "--i-set", "3,x"], None),
        (["flips", "--k", "2", "--n", "10", "--j", "3,y"], None),
        (["flips", "--k", "2", "--n", "10", "--j", "3,3"], None),
        (["build", "delta-i", "--n", "12", "--i-set", "3,3"], None),
        (["export", "{path}", "--format", "text"], '{"facets": 5}'),
        (["export", "{path}", "--format", "text"], '{"facets": [1, 2]}'),
        (["export", "{path}", "--format", "json"], "# dim=x\n1 2\n"),
    ],
    ids=["i-set", "j", "j-repeat", "i-set-repeat", "facets-int", "facets-flat", "header-dim"],
)
def test_cli_malformed_input_exits_2(tmp_path, capsys, argv, content):
    path = tmp_path / "input"
    if content is not None:
        path.write_text(content)
    assert main([a.replace("{path}", str(path)) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_cli_index_lists_allow_spaces_and_any_order(capsys):
    assert main(["flips", "--k", "2", "--n", "10", "--j", "3,5"]) == 0
    sorted_out = capsys.readouterr().out
    assert main(["flips", "--k", "2", "--n", "10", "--j", "5, 3"]) == 0
    assert capsys.readouterr().out == sorted_out


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "{path}", "--neighborly", "-3"],
        ["verify", "{path}", "--exactly-neighborly", "-1"],
        ["verify", "{path}", "--stacked", "-2"],
        ["iso", "{path}", "{path}", "--budget", "-1"],
        ["aut", "{path}", "--budget", "-5"],
        ["aut", "{path}", "--expect", "-1"],
        ["census", "{path}", "--at-least", "-4"],
    ],
    ids=["neighborly", "exactly-neighborly", "stacked", "iso-budget", "aut-budget", "aut-expect",
         "census-at-least"],
)
def test_cli_negative_counts_exit_2(tmp_path, capsys, argv):
    path = tmp_path / "d36.json"
    assert main(["build", "delta", "--d", "3", "--n", "6", "--out", str(path)]) == 0
    assert main([a.replace("{path}", str(path)) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert "PASS" not in out and "error:" in err and "must be nonnegative" in err


def test_cli_deterministic_output(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["build", "delta", "--d", "3", "--n", "7", "--out", str(a)])
    main(["build", "delta", "--d", "3", "--n", "7", "--out", str(b)])
    assert a.read_text() == b.read_text()


def test_cli_verify_w_space_uses_shifted_ground(tmp_path):
    lam = tmp_path / "l38.json"
    main(["build", "lambda", "--d", "3", "--n", "8", "--out", str(lam)])
    # the W labels would fail against the V ground; the space tag fixes it
    assert main(["verify", str(lam), "--cs", "--neighborly", "2", "--sphere"]) == 0


def test_cli_verify_sphere_fails_on_ball(tmp_path, capsys):
    p = tmp_path / "ball.json"
    main(["build", "ball", "--d", "3", "--i", "1", "--n", "6", "--out", str(p)])
    capsys.readouterr()
    assert main(["verify", str(p), "--sphere"]) == 1
    assert main(["verify", str(p), "--ball", "--stacked", "1"]) == 0


@pytest.mark.parametrize("text", ["1 2\n1 3\n1 4\n", "1 2 3\n1 2 4\n1 2 5\n"], ids=["tripod", "book"])
def test_cli_verify_ball_fails_off_a_pseudomanifold(tmp_path, capsys, text):
    # contractible and pure, but a ridge lies in three facets
    p = tmp_path / "c.txt"
    p.write_text(text)
    assert main(["verify", str(p), "--ball"]) == 1
    assert capsys.readouterr().out.startswith("FAIL ")


@pytest.mark.parametrize("argv", [
    ["build", "cross", "--n", "40"],
    ["build", "delta", "--d", "40", "--n", "41"],
    ["build", "squeezed", "--k", "30", "--n", "100"],  # C(70, 30) ~ 5.5e19 facets
    ["build", "squeezed", "--k", "1000000", "--n", "100000000"],
    # memos of more than 2^22 facets
    ["build", "delta", "--d", "3", "--n", "3000"],
    ["flips", "--k", "2", "--n", "10000000"],
    ["shell", "delta3", "--n", "3000"],
    ["build", "delta-i", "--n", "3000000", "--i-set", "3"],
    # a dimension that build_B would recurse through, one step at a time
    ["build", "ball", "--d", "2000", "--i", "0", "--n", "2001"],
])
def test_cli_refuses_a_huge_cross_polytope_before_allocating(capsys, argv):
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 2**20, (code, peak)
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "Traceback" not in err


def test_cli_builds_a_long_delta_without_deep_recursion(tmp_path, capsys):
    # one sewing step per n, filled from below: the recursion stays one step deep
    out = tmp_path / "d2.json"
    try:
        assert main(["build", "delta", "--d", "2", "--n", "520", "--out", str(out)]) == 0
    finally:
        builders.cache_clear()
    assert capsys.readouterr().err == ""
    assert len(read_path(str(out)).complex.facets) == 2076


@pytest.mark.parametrize("text", ["# dim=-2 n=0\n", "1\n"], ids=["void", "point"])
def test_cli_budget_zero_counts_the_root(tmp_path, capsys, text):
    path = tmp_path / "c.txt"
    path.write_text(text)
    assert main(["aut", str(path), "--budget", "0"]) == 2
    assert main(["iso", str(path), str(path), "--budget", "0"]) == 2
    assert capsys.readouterr().err == "error: exceeded 0 search nodes\n" * 2


def test_cli_build_missing_params(tmp_path):
    assert main(["build", "ball", "--d", "3", "--n", "6"]) == 2
    assert main(["build", "delta", "--n", "6"]) == 2
    assert main(["build", "squeezed", "--n", "6"]) == 2


def test_package_exports_resolve():
    assert len(set(csspheres.__all__)) == len(csspheres.__all__)
    assert all(hasattr(csspheres, name) for name in csspheres.__all__)


def test_cli_import_leaves_networkx_out():
    code = "import sys, csspheres.cli; print('networkx' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(csspheres.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "False"


def test_cli_ignores_iso_budget_environment(tmp_path, monkeypatch, capsys):
    path = tmp_path / "d37.json"
    assert main(["build", "delta", "--d", "3", "--n", "7", "--out", str(path)]) == 0
    monkeypatch.setenv("CSSPHERES_ISO_BUDGET", "abc")
    assert main(["aut", str(path), "--expect", "2"]) == 0


# Two vertices in an ambient space of 10^8 labels: every check must stay bounded by the facets.
HUGE_AMBIENT = "# dim=0 n=100000000\n1\n-1\n"


@pytest.mark.parametrize(
    "check, code, line",
    [
        (["--neighborly", "1"], 1, "FAIL {} cs-1-neighborly (max_i=0)"),
        (["--exactly-neighborly", "0"], 0, "PASS {} exactly cs-0-neighborly (max_i=0)"),
    ],
)
def test_verify_neighborly_on_a_huge_ground_allocates_little(tmp_path, capsys, check, code, line):
    path = tmp_path / "huge.txt"
    path.write_text(HUGE_AMBIENT)
    tracemalloc.start()
    try:
        assert main(["verify", str(path), *check]) == code
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, peak
    assert capsys.readouterr().out == line.format(path) + "\n"


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """(valid complex files, malformed files and a missing path, a directory)."""
    root = tmp_path_factory.mktemp("fuzz")
    valid = {
        "cross3.json": dumps(ComplexFile(cross_polytope(3)), "json"),
        "delta36.txt": dumps(ComplexFile(build_delta(3, 6)), "text"),
        "ball316.json": dumps(ComplexFile(build_B(3, 1, 6)), "json"),
        "squeezed24.json": dumps(ComplexFile(squeezed_ball(2, 4)), "json"),
        "lambda14w.txt": dumps(ComplexFile(build_lambda(1, 4), space="W"), "text"),
        "huge-n.txt": HUGE_AMBIENT,
    }
    malformed = {
        "facets-int.json": '{"facets": 5}',
        "label-str.json": '{"facets": [["a", 2]]}',
        "header-dim.txt": "# dim=x\n1 2\n",
        "zero.txt": "1 0 2\n",
        "empty.txt": "",
    }
    for name, text in {**valid, **malformed}.items():
        (root / name).write_text(text)
    (root / "binary.bin").write_bytes(bytes(range(256)))
    bad = [str(root / name) for name in [*malformed, "binary.bin", "missing.json"]]
    return [str(root / name) for name in valid], bad, str(root)


# Placeholders in CLI_SPEC for the files of the fuzz_files fixture.
PATH, OUT = "<path>", "<out>"
SMALL = st.integers(-2, 8).map(str)
# --n, --k and --d also take sizes that must be refused before anything is built.
SIZE = st.one_of(SMALL, st.sampled_from(["3000", "10000000", "1000000000"]))
WORD = st.sampled_from(["3", "3,5", "5,3", "", "x", "-1", "3,x", " "])
FMT = st.sampled_from(["json", "text", "xml"])
# subcommand -> (positional arguments, the options its parser requires, the
# others); a value is a strategy, a placeholder or None for a bare flag.
CLI_SPEC = {
    "build": (
        [st.sampled_from(["cross", "delta", "ball", "lambda", "squeezed", "delta-i", "x"])],
        {"--n": SIZE},
        {"--d": SIZE, "--i": SMALL, "--k": SIZE, "--i-set": WORD, "--tree-out": OUT,
         "--out": OUT, "--format": FMT},
    ),
    "verify": ([PATH, PATH], {}, {"--cs": None, "--neighborly": SMALL, "--exactly-neighborly": SMALL,
                                  "--sphere": None, "--ball": None, "--stacked": SMALL}),
    "census": ([PATH], {}, {"--at-least": SMALL, "--out": OUT}),
    "flips": ([], {"--k": SIZE, "--n": SIZE}, {"--j": WORD, "--out": OUT, "--format": FMT}),
    "sew": ([], {"--base": PATH, "--ball": PATH}, {"--out": OUT, "--format": FMT}),
    "shell": ([st.sampled_from(["delta3", "b42", "x"])], {"--n": SIZE}, {"--out": OUT}),
    "iso": ([PATH, PATH], {}, {"--budget": SMALL}),
    "aut": ([PATH], {}, {"--expect": SMALL, "--budget": SMALL}),
    "export": ([PATH], {"--format": FMT}, {"--out": OUT}),
    "x": ([], {}, {"--help": None}),  # no such subcommand
}


def test_cli_spec_flags_match_the_parser():
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert set(CLI_SPEC) - {"x"} == set(commands)
    for name, parser in commands.items():
        _, required, optional = CLI_SPEC[name]
        options = [a for a in parser._actions if a.option_strings and a.dest != "help"]
        assert {o for a in options if a.required for o in a.option_strings} == set(required), name
        assert {o for a in options if not a.required for o in a.option_strings} == set(optional), name


def _cli_argv(files):
    """Argument vectors over every subcommand of CLI_SPEC: small integers, any
    file, any flag subset.

    The required options are always drawn, the others in any subset; a tail
    of the vector may be cut off.
    """
    valid, bad, root = files
    placeholders = {
        PATH: st.one_of(st.sampled_from(valid), st.sampled_from(bad + [root])),
        OUT: st.sampled_from([os.path.join(root, "out"), root]),
    }

    def strategy(value):
        return placeholders[value] if isinstance(value, str) else value

    @st.composite
    def argv(draw):
        command = draw(st.sampled_from(sorted(CLI_SPEC)))
        positional, required, optional = CLI_SPEC[command]
        args = [command] + [draw(strategy(p)) for p in positional]
        flags = list(required) + draw(st.lists(st.sampled_from(sorted(optional)), unique=True, max_size=4))
        for flag in flags:
            value = required.get(flag, optional.get(flag))
            args += [flag] if value is None else [flag, draw(strategy(value))]
        if draw(st.integers(0, 3)) == 0:  # missing positionals and option values
            args = args[: draw(st.integers(1, len(args)))]
        return args

    return argv()


def test_cli_main_fuzz(fuzz_files):
    """No argument vector raises, every exit code is 0, 1 or 2 and no call allocates much."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(_cli_argv(fuzz_files))
    # a huge --d, refused by n >= d + 1 or, with a larger --n, by the size bounds
    @example(["build", "ball", "--n", "1000000000", "--d", "1000000000", "--i", "0"])
    @example(["build", "delta", "--n", "1000000000", "--d", "1000000000"])
    @example(["build", "lambda", "--n", "1000000000", "--d", "1000000000"])
    @example(["build", "ball", "--n", "1000000000", "--d", "10000000", "--i", "0"])
    @example(["build", "delta", "--n", "1000000000", "--d", "10000000"])
    @example(["build", "lambda", "--n", "1000000000", "--d", "10000000"])
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue()
        assert peak < 64 * 2**20, (argv, peak)

    run()
