"""Facet trees, the balls they generate, and the sewn 3-spheres."""

from __future__ import annotations

import itertools

import networkx as nx
import pytest

from csspheres import sew3
from csspheres.builders import build_delta
from csspheres.cli import main
from csspheres.core import canon_face, topology_report
from csspheres.errors import InvalidParameters
from csspheres.props import cs_neighborliness, edge_link_census, is_cs, stackedness
from csspheres.sew3 import (
    IndexSet,
    build_B_I,
    build_delta_I,
    build_T,
    enum_I,
    tree_canonical_code,
    tree_isomorphic,
)
from oracles import admissible_index_sets, facet_tree_edges


def test_enum_I_small():
    assert [s.indices for s in enum_I(10)] == [(), (3,), (4,)]
    assert len(enum_I(12)) == 9
    assert len(enum_I(13)) >= 2 ** (13 - 9)
    with pytest.raises(InvalidParameters, match="enum_I requires n >= 10"):
        enum_I(9)


@pytest.mark.parametrize("n", range(10, 19))
def test_enum_I_matches_its_definition(n):
    # walked in order with the first-gap rule built in, against a filter of
    # every subset of the pool, sorted
    sets = enum_I(n)
    assert [s.indices for s in sets] == admissible_index_sets(n)
    assert len(sets) == 2 ** (n - 9) + 1 and all(s.n == n for s in sets)


@pytest.mark.parametrize("n", [10, 14, 18, 22])
def test_enum_I_members_recheck_through_the_checking_constructor(n):
    # enum_I builds its sets unchecked; each must pass the checks it skipped
    for s in enum_I(n):
        assert type(s) is IndexSet and type(s.indices) is tuple
        assert IndexSet(n, s.indices) == s and IndexSet(*s) == s


def test_index_set_validation():
    IndexSet(12, (3, 5, 6))  # only the first gap is constrained
    with pytest.raises(InvalidParameters, match="first gap must exceed 1"):
        IndexSet(12, (3, 4))
    with pytest.raises(InvalidParameters, match="IndexSet requires index >= 3, got 2$"):
        IndexSet(12, (2,))
    with pytest.raises(InvalidParameters, match="IndexSet requires index <= 6, got 7$"):
        IndexSet(12, (7,))
    with pytest.raises(InvalidParameters, match="strictly sorted"):
        IndexSet(12, (5, 3))


def _positive_through_12(faces) -> set:
    return {f for f in faces if {1, 2} <= set(f) and min(f) > 0}


@pytest.mark.parametrize("n", [10, 11, 12])
def test_tree_shape(n):
    for index_set in enum_I(n):
        g = nx.Graph(build_T(index_set))
        assert g.number_of_nodes() == 2 * n - 3
        assert nx.is_tree(g)
        delta = build_delta(3, n)
        for f in g.nodes:
            assert f in delta.facets
        for a, b in g.edges:
            assert len(set(a) & set(b)) == 3
        assert _positive_through_12(g.nodes) == _positive_through_12(delta.facets)


def test_tree_row_zero_start():
    # the row-0 path starts 12(n-1)n, 1(-n+2)(n-1)n, (-n+3)(-n+2)(n-1)n, ...
    n = 10
    g = nx.Graph(build_T(IndexSet(n, (3,))))
    a = canon_face((1, 2, n - 1, n))
    b = canon_face((1, -(n - 2), n - 1, n))
    c = canon_face((-(n - 3), -(n - 2), n - 1, n))
    d = canon_face((-(n - 4), -(n - 3), n - 1, n))
    assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d)


def test_ball_properties():
    for n in (10, 11):
        for index_set in enum_I(n):
            ball = build_B_I(index_set)
            assert len(ball.facets) == 2 * n - 3
            assert len(ball.vertices()) == 2 * n
            assert cs_neighborliness(ball).max_i == 1
            assert stackedness(ball).min_i == 1
            assert not (ball.facets & ball.antipode().facets)
            assert topology_report(ball).is_ball()


@pytest.mark.parametrize("n", [10, 12, 14])
def test_tree_is_the_paths_of_the_paper(n):
    # T(I) is derived as the facet-ridge graph of B(I); the paper describes
    # it as a column, row paths and a short path of facets.
    for index_set in enum_I(n):
        edges = {frozenset((a, b)) for a, nbs in build_T(index_set).items() for b in nbs}
        assert len(edges) == 2 * n - 4
        assert edges == facet_tree_edges(n, index_set.indices), index_set


def _replace_column_end(monkeypatch, facet):
    column = sew3._column_path
    monkeypatch.setattr(sew3, "_column_path", lambda n: column(n)[:-1] + ([facet] if facet else []))


def test_ball_refuses_nodes_that_do_not_make_the_tree(monkeypatch):
    index_set = IndexSet(10, (3,))
    _replace_column_end(monkeypatch, (1, 2, 3, 4))
    with pytest.raises(RuntimeError, match=r"generated node \(1, 2, 3, 4\) is not a facet"):
        build_B_I(index_set)
    _replace_column_end(monkeypatch, None)
    with pytest.raises(RuntimeError, match="expected 17 nodes, got 16"):
        build_B_I(index_set)
    # a facet of the sphere that shares no ridge with the other nodes
    _replace_column_end(monkeypatch, canon_face((-1, -2, -3, -5)))
    with pytest.raises(InvalidParameters, match="not a tree"):
        build_B_I(index_set)


def test_sewn_sphere_properties():
    n = 10
    for index_set in enum_I(n):
        sphere = build_delta_I(index_set)
        assert sphere.ambient_n == n + 1
        assert is_cs(sphere)
        assert topology_report(sphere).is_sphere()
        assert cs_neighborliness(sphere).max_i == 2
        # the link of the new vertex is the boundary of the ball
        ball = build_B_I(index_set)
        assert sphere.link((n + 1,)) == ball.boundary().with_ambient(n + 1)


def test_census_clauses():
    # The sewn-sphere census.  Note: the edges with links of >= 2n-3 vertices
    # are ±{2,3} AND ±{n-2,n}, each at exactly 2n-3.  The ball's short
    # vertical path ends in {1,-(n-2),-(n-1),-n}, whose antipode
    # {-1,n-2,n-1,n} lies in -B(I) and contains {n-2,n}; sewing therefore
    # subdivides one edge of that link too and lifts it from 2n-5 to 2n-3.
    n = 10
    for index_set in enum_I(n):
        sphere = build_delta_I(index_set)
        census = edge_link_census(sphere)
        top = {e for e, c in census.items() if c >= 2 * n - 3}
        expected_top = {
            canon_face((2, 3)),
            canon_face((-2, -3)),
            canon_face((n - 2, n)),
            canon_face((-n + 2, -n)),
        }
        assert top == expected_top
        assert all(census[e] == 2 * n - 3 for e in top)
        assert census[canon_face((1, 2))] == n + 2
        assert census[canon_face((2, n + 1))] == n - 1
        assert census[canon_face((3, 4))] == 2 * n - 6
        for i in sphere.vertices():
            if abs(i) == 2 or i in (1, 3, n + 1):
                continue
            edge = canon_face((2, i))
            if edge in census:
                assert census[edge] < n - 1, (i, census[edge])


def test_trees_pairwise_non_isomorphic():
    for n in (10, 12):
        trees = [build_T(s) for s in enum_I(n)]
        for t1, t2 in itertools.combinations(trees, 2):
            assert not tree_isomorphic(t1, t2)
        for t in trees:
            assert tree_isomorphic(t, t)


def test_tree_edge_list_export(tmp_path):
    tree = build_T(IndexSet(10, (3,)))
    out = tmp_path / "tree.tsv"
    assert main(["build", "delta-i", "--n", "10", "--i-set", "3", "--tree-out", str(out),
                 "--out", str(tmp_path / "dI.json")]) == 0
    lines = out.read_text().strip().splitlines()
    edges = [tuple(tuple(int(v) for v in f.split(",")) for f in line.split("\t")) for line in lines]
    rank = {f: k for k, f in enumerate(tree)}  # the mapping lists facets in canonical order
    assert edges == [(a, b) for a, nbs in tree.items() for b in nbs if rank[a] < rank[b]]
    assert len(edges) == 2 * 10 - 4
    for a, b in edges:
        assert len(a) == len(b) == 4 and len(set(a) & set(b)) == 3


def test_tree_isomorphic_basics():
    path4 = nx.path_graph(4)
    star4 = nx.star_graph(3)
    assert not tree_isomorphic(path4, star4)
    relabeled = nx.relabel_nodes(path4, {0: "a", 1: "b", 2: "c", 3: "d"})
    assert tree_isomorphic(path4, relabeled)


def test_tree_codes_of_a_deep_path_need_no_recursion():
    n = 2500  # far deeper than the default recursion limit
    path = {v: [u for u in (v - 1, v + 1) if 0 <= u < n] for v in range(n)}
    shuffled = {f"x{v * 7 % n}": [f"x{u * 7 % n}" for u in nb] for v, nb in path.items()}
    code = tree_canonical_code(path)
    assert len(code) == 2 * n and code == tree_canonical_code(shuffled)
    assert tree_isomorphic(path, shuffled)


@pytest.mark.parametrize(
    "graph",
    [
        {1: [2, 3], 2: [1, 3], 3: [1, 2]},
        {1: [2], 2: [1], 3: [4], 4: [3]},
        {1: [2, 3], 2: [1, 3], 3: [1, 2], 4: []},
        {1: [2, 2], 2: [1, 1], 3: []},
        {1: [1, 2], 2: [1], 3: [3, 4], 4: [3]},
        {1: [2], 2: [1, 3], 3: [2, 4], 4: [1]},
        {},
    ],
    ids=["cycle3", "two_edges", "triangle_and_point", "doubled_edge", "two_loops", "one_sided", "empty"],
)
def test_non_trees_are_refused(graph):
    path = {v: [w for w in (v - 1, v + 1) if w in graph] for v in graph}
    with pytest.raises(InvalidParameters):
        tree_canonical_code(graph)
    with pytest.raises(InvalidParameters):
        tree_isomorphic(graph, graph)
    with pytest.raises(InvalidParameters):
        tree_isomorphic(path, graph)


def test_ahu_agrees_with_networkx_on_random_trees():
    import random

    rng = random.Random(7)
    trees = [nx.random_labeled_tree(n, seed=rng.randrange(10**6)) for n in (6, 9, 13) for _ in range(6)]
    for t1, t2 in itertools.combinations(trees, 2):
        assert tree_isomorphic(t1, t2) == nx.is_isomorphic(t1, t2)
    # canonical code is invariant under relabeling
    for t in trees[:5]:
        shuffled = nx.relabel_nodes(t, {v: f"x{v}" for v in t.nodes})
        assert tree_canonical_code(t) == tree_canonical_code(shuffled)
