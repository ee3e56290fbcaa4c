"""Facet trees, the balls they generate, and the sewn 3-spheres."""

from __future__ import annotations

import itertools

import networkx as nx
import pytest

from csspheres.builders import build_delta
from csspheres.core import canon_face, facet_ridge_graph, topology_report
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


def test_enum_I_small():
    assert [s.indices for s in enum_I(10)] == [(), (3,), (4,)]
    assert len(enum_I(12)) == 9
    assert len(enum_I(13)) >= 2 ** (13 - 9)
    with pytest.raises(InvalidParameters, match="enum_I requires n >= 10"):
        enum_I(9)


def test_index_set_validation():
    IndexSet(12, (3, 5, 6))  # only the first gap is constrained
    with pytest.raises(InvalidParameters, match="first gap must exceed 1"):
        IndexSet(12, (3, 4))
    with pytest.raises(InvalidParameters, match=r"outside \[3, 6\]"):
        IndexSet(12, (2,))
    with pytest.raises(InvalidParameters, match=r"outside \[3, 6\]"):
        IndexSet(12, (7,))
    with pytest.raises(InvalidParameters, match="strictly sorted"):
        IndexSet(12, (5, 3))


def _positive_through_12(faces) -> set:
    return {f for f in faces if {1, 2} <= set(f) and min(f) > 0}


@pytest.mark.parametrize("n", [10, 11, 12])
def test_tree_shape(n):
    for index_set in enum_I(n):
        tree = build_T(index_set)
        assert len(tree.nodes) == 2 * n - 3
        g = nx.Graph(tree.edges)
        assert nx.is_tree(g)
        delta = build_delta(3, n)
        for f in tree.nodes:
            assert f in delta.facets
        for a, b in tree.edges:
            assert len(set(a) & set(b)) == 3
        assert _positive_through_12(tree.nodes) == _positive_through_12(delta.facets)


def test_tree_row_zero_start():
    # the row-0 path starts 12(n-1)n, 1(-n+2)(n-1)n, (-n+3)(-n+2)(n-1)n, ...
    n = 10
    tree = build_T(IndexSet(n, (3,)))
    g = nx.Graph(tree.edges)
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


def test_ball_facet_ridge_graph_is_the_tree():
    for index_set in enum_I(10):
        tree = build_T(index_set)
        graph = nx.Graph(facet_ridge_graph(build_B_I(index_set)))
        assert set(graph.nodes) == set(tree.nodes)
        assert {frozenset(e) for e in graph.edges} == {frozenset(e) for e in tree.edges}


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


def test_tree_edge_list_export():
    tree = build_T(IndexSet(10, (3,)))
    text = tree.edge_list_text()
    lines = text.strip().splitlines()
    assert len(lines) == len(tree.edges) == 2 * 10 - 4
    a, b = lines[0].split("\t")
    assert len(a.split(",")) == 4 and len(b.split(",")) == 4


def test_tree_isomorphic_basics():
    path4 = nx.path_graph(4)
    star4 = nx.star_graph(3)
    assert not tree_isomorphic(path4, star4)
    relabeled = nx.relabel_nodes(path4, {0: "a", 1: "b", 2: "c", 3: "d"})
    assert tree_isomorphic(path4, relabeled)


@pytest.mark.parametrize(
    "graph",
    [
        {1: [2, 3], 2: [1, 3], 3: [1, 2]},
        {1: [2], 2: [1], 3: [4], 4: [3]},
        {1: [2, 3], 2: [1, 3], 3: [1, 2], 4: []},
        {1: [2, 2], 2: [1, 1], 3: []},
        {1: [1, 2], 2: [1], 3: [3, 4], 4: [3]},
        {1: [2], 2: [1, 3], 3: [2, 4], 4: [1]},
    ],
    ids=["cycle3", "two_edges", "triangle_and_point", "doubled_edge", "two_loops", "one_sided"],
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
