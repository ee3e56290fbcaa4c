"""Kernel operations: faces, links, joins, boundaries, f/h-vectors."""

from __future__ import annotations

import copy
import itertools
import pickle
import random
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csspheres import core
from csspheres.builders import build_B, build_delta, cross_polytope, sew
from csspheres.core import (
    Complex,
    antipode_face,
    canon_face,
    cone,
    face_key,
    facet_ridge_graph,
    fh_vectors,
    from_walk,
    is_cs,
    simplex,
    sort_face,
    topology_report,
    vertex_key,
    z2_betti_numbers,
)
from csspheres.errors import InvalidParameters, SearchBudgetExceeded
from csspheres.fileio import ComplexFile
from csspheres.flips import build_gamma
from csspheres.gf2 import gf2_pivots
from csspheres.iso import automorphisms, isomorphic
from csspheres.props import (
    StackednessReport,
    cs_neighborliness,
    edge_link_census,
    is_subcomplex,
    stackedness,
)
from csspheres.sew3 import build_delta_I, enum_I

from oracles import closure, coface_counts, connected, f_vector, gf2_rank, h_vector, maximal_faces, pack_rows, z2_betti

import networkx as nx


def _torus() -> Complex:
    # minimal 7-vertex torus (cyclic {i, i+1, i+3} / {i, i+2, i+3} mod 7)
    facets = []
    for i in range(7):
        facets.append(tuple(sorted((i % 7 + 1, (i + 1) % 7 + 1, (i + 3) % 7 + 1))))
        facets.append(tuple(sorted((i % 7 + 1, (i + 2) % 7 + 1, (i + 3) % 7 + 1))))
    return Complex(facets, 7)


# minimal 6-vertex real projective plane: GF(2) betti (1,1,1), euler 1
RP2_FACETS = [
    (1, 2, 6), (2, 3, 6), (3, 4, 6), (4, 5, 6), (1, 5, 6),
    (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5),
]
THETA_FACETS = [(1, 3), (2, 3), (1, 4), (2, 4), (1, 5), (2, 5)]
# a tetrahedron, a triangle on one of its vertices, a hollow triangle through
# that triangle's free edge and an isolated vertex
NON_PURE_FACETS = [(1, 2, 3, 4), (3, 5, 6), (5, -1), (6, -1), (-2,)]


def test_canonical_face_order():
    assert canon_face([3, -1, 2]) == (-1, 2, 3)
    assert canon_face([-3, 1]) == (1, -3)
    assert face_key((1, 3, 4)) < face_key((1, -3))  # positive before negative at equal abs
    with pytest.raises(InvalidParameters):
        canon_face([0, 1])
    with pytest.raises(InvalidParameters):
        canon_face([2, 2])


labels = st.integers(-9, 9).filter(bool)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.lists(labels, max_size=5), min_size=2, max_size=6))
def test_face_key_orders_faces_as_the_vertex_key_tuples(faces):
    # prefixes, repeats and equal |v| of both signs included
    by_rank = sorted(faces, key=face_key)
    assert by_rank == sorted(faces, key=lambda f: tuple(map(vertex_key, f)))
    for a, b in itertools.combinations(faces, 2):
        assert (face_key(a) == face_key(b)) == (a == b)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.sets(labels, max_size=5), max_size=8))
@example([{v} for v in range(1, 2**16 + 9)] + [{1, 3}, {1, 2**16 + 5}, {2, -(2**16 + 2)}, {2, -5}])
def test_sorted_facets_follow_face_key(faces):
    # the example ranks vertices past 2^16, where the high digit decides
    c = Complex(faces, max((abs(v) for f in faces for v in f), default=0))
    assert c.sorted_facets() == tuple(sorted(c.facets, key=face_key))


def test_canon_face_checks_labels_before_ordering():
    for bad in ("a", True, 2.0, None):
        with pytest.raises(InvalidParameters, match=repr(bad)):
            canon_face([1, bad])
    with pytest.raises(InvalidParameters):
        Complex([(1, 2)], True)


# each label 1..12 enters as v, -v, or both (in either order), then shuffled
signed_faces = st.lists(
    st.tuples(st.integers(1, 12), st.sampled_from([(1,), (-1,), (1, -1), (-1, 1)])),
    unique_by=lambda t: t[0],
    max_size=6,
).map(lambda pairs: [s * a for a, signs in pairs for s in signs]).flatmap(st.permutations)


@settings(derandomize=True, max_examples=300)
@given(signed_faces)
def test_sort_face_is_the_vertex_key_order(vertices):
    assert sort_face(vertices) == tuple(sorted(vertices, key=vertex_key))
    assert canon_face(vertices) == sort_face(vertices)


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_delta(3, 8),
        lambda: build_delta(4, 7),
        lambda: build_B(3, 1, 8),
        lambda: build_gamma(3, 12, [3]),
        lambda: build_delta(1, 6),
        lambda: sew(build_delta(3, 7), build_B(3, 1, 7)),
    ],
    ids=["delta38", "delta47", "B318", "gamma3_12_3", "delta16", "sew37"],
)
def test_trusted_constructor_outputs_are_canonical(build):
    """Outputs built without re-validation match the validating constructor."""
    c = build()
    v = c.vertices()[0]
    edge = min(c.edge_incidence(), key=face_key)
    outputs = [
        c,
        c.link((v,)),
        c.link(edge),
        c.link(c.sorted_facets()[0]),
        c.star((v,)),
        c.star(edge),
        c.antipode(),
        c.relabel(lambda v: v + 1 if v > 0 else v - 1, c.ambient_n + 1),
        c.relabel(lambda v: -v if v % 3 else v, c.ambient_n),
        c.boundary(),
        c.star((v,)).boundary(),
        c.difference(c.star((v,))),
    ]
    for x in outputs:
        assert Complex(x.facets, x.ambient_n) == x
        assert all(canon_face(f) == f for f in x.facets)


def test_antipode_roundtrip():
    assert antipode_face(()) == ()
    assert antipode_face((1, -3)) == (-1, 3)
    d15 = build_delta(1, 5)
    assert d15.antipode() == d15  # equal facet sets
    b = build_B(3, 1, 6)
    assert b.antipode().antipode() == b


@settings(derandomize=True, max_examples=300)
@given(signed_faces)
@example([1, -1, 2])  # a pair first
@example([3, 1, -3])  # a pair last
@example([2, -5, 4])  # no pair
def test_antipode_face_is_the_sorted_negation(vertices):
    face = sort_face(vertices)
    assert antipode_face(face) == sort_face(-v for v in face)


def test_relabel_refuses_a_map_that_is_not_injective():
    # 1 and 3 share no edge, so no single facet shows the collision
    square = Complex([(1, 2), (2, 3), (3, 4), (1, 4)], 4)
    with pytest.raises(InvalidParameters, match="1 and 3 both map to 1"):
        square.relabel({1: 1, 2: 2, 3: 1, 4: 4}.__getitem__, 4)
    for image, message in [(0, "nonzero integers"), (2.0, "nonzero integers"),
                           (5, "exceeds ambient bound 4")]:
        with pytest.raises(InvalidParameters, match=message):
            square.relabel({1: 1, 2: 2, 3: 3, 4: image}.__getitem__, 4)


def test_has_face():
    c3 = cross_polytope(3)
    assert c3.has_face((1, -2))
    assert not c3.has_face((1, -1))
    d36 = build_delta(3, 6)
    assert d36.has_face((1, 3, 5))  # inside the facet {1,2,3,5}
    assert not d36.has_face((1, -1))
    assert Complex([], 3).has_face(()) is False
    assert Complex([[]], 3).has_face(()) is True


def test_link():
    d38 = build_delta(3, 8)
    assert d38.link((7, 8)).with_ambient(6) == build_delta(1, 6)
    c = build_delta(2, 5)
    assert c.link(()) == c
    lk1 = cross_polytope(3).link((1,))
    assert lk1 == from_walk([2, 3, -2, -3, 2], 3)
    report = topology_report(lk1)
    assert report.closed_pseudomanifold and report.euler == 0  # a 4-cycle
    with pytest.raises(InvalidParameters, match="not in complex"):
        cross_polytope(2).link((1, -1))


def test_link_and_star_of_an_absent_face_raise_and_keep_only_the_bitsets():
    c = Complex(build_delta(3, 7).facets, 7)
    for op in (c.link, c.star):
        for face in [(1, -1), (1, 2, 3, 4, 5), (8,)]:
            with pytest.raises(InvalidParameters, match="not in complex"):
                op(face)
    assert c.link((1, 2)).facets and c.star((1, 2)).facets
    assert c.link((1, 2, 3, -4)).facets == {()}  # (1, 2, 3, -4) is a facet
    assert set(c._cache) == {"facet_bits", "vertices"}, list(c._cache)
    for void in (Complex([], 3), Complex([], 0)):
        for face in [(), (1,)]:
            with pytest.raises(InvalidParameters, match="not in complex"):
                void.link(face)
            with pytest.raises(InvalidParameters, match="not in complex"):
                void.star(face)
    assert Complex([[]], 3).link(()) == Complex([[]], 3)


def test_star_and_link_invariant():
    c2 = cross_polytope(2)
    assert c2.star(()) == c2
    assert c2.star((1,)).facets == {(1, 2), (1, -2)}
    d36 = build_delta(3, 6)
    st = d36.star((5, 6))
    assert st == d36.link((5, 6)).join(simplex([5, 6], 6))
    # link joined with the simplex on the face reproduces the star, facet-for-facet
    for f in [(1,), (1, 2), (3,)]:
        assert d36.star(f) == d36.link(f).join(simplex(f, 6))
    octa = cross_polytope(3)
    for f in closure(octa.facets):
        if f:
            assert octa.star(f) == octa.link(f).join(simplex(f, 3)), f


def test_join():
    s0 = lambda i: Complex([(i,), (-i,)], abs(i))
    octa = s0(1).join(s0(2)).join(s0(3))
    assert octa == cross_polytope(3).with_ambient(3)
    tri = simplex([1, 2, 3], 5).boundary()
    coned = cone(tri, 5)
    assert coned.facets == {(1, 2, 5), (1, 3, 5), (2, 3, 5)}
    with pytest.raises(InvalidParameters, match="join requires disjoint vertex sets"):
        tri.join(simplex([3, 4], 5))
    # join identities: void absorbs, {∅} is neutral
    assert Complex([], 5).join(tri).is_void
    assert Complex([[]], 5).join(tri) == tri


def test_join_b31_block():
    # the 5 long facets of build_B(3,1,5) arise as path * edge
    path = from_walk([3, 2, 1, -3, -2, -1], 5)
    prod = path.join(from_walk([4, 5], 5))
    expected = {(2, 3, 4, 5), (1, 2, 4, 5), (1, -3, 4, 5), (-2, -3, 4, 5), (-1, -2, 4, 5)}
    assert prod.facets == expected
    assert prod.facets <= build_B(3, 1, 5).facets


def test_difference():
    d35 = build_delta(3, 5)
    assert d35.difference(d35).is_void
    assert d35.difference(Complex([], 5)) == d35
    b = build_B(3, 1, 5)
    both = Complex(b.facets | b.antipode().facets, 5)
    diff = d35.difference(both)
    assert len(diff.facets) == 30 - 14
    # regeneration: the difference plus the shared facets rebuilds the sphere
    assert Complex(diff.facets | both.facets, 5) == d35
    with pytest.raises(InvalidParameters, match="difference requires equal dimensions"):
        d35.difference(simplex([1, 2], 5))
    with pytest.raises(InvalidParameters, match="difference requires pure complexes"):
        Complex([(1, 2, 3), (4,)], 4).difference(simplex([1, 2, 3], 4))


def test_boundary():
    tri = simplex([1, 2, 3], 3)
    assert tri.boundary().facets == {(1, 2), (1, 3), (2, 3)}
    assert build_B(4, 2, 6).boundary().with_ambient(6) == build_delta(3, 6)
    # closed pseudomanifold has empty boundary
    assert cross_polytope(3).boundary().is_void
    # boundary of a ball's boundary is empty
    assert build_B(3, 1, 6).boundary().boundary().is_void
    assert Complex([(1,)], 1).boundary().facets == {()}
    with pytest.raises(InvalidParameters, match="lies in 3 facets"):
        Complex([(1, 2), (1, 3), (1, 4)], 4).boundary()
    with pytest.raises(InvalidParameters, match="boundary requires a pure complex"):
        Complex([(1, 2, 3), (4,)], 4).boundary()


@pytest.mark.parametrize(
    "c, rim, graph, h, ball",
    [
        (Complex([], 0), Complex([], 0), {}, (0,), False),
        (Complex([], 3), Complex([], 3), {}, (0,), False),
        (Complex([()], 3), Complex([], 3), {(): ()}, (1,), False),
        (Complex([(1,)], 1), Complex([()], 1), {(1,): ()}, (1, 0), True),
    ],
    ids=["void0", "void3", "empty_face", "point"],
)
def test_degenerate_complexes_take_the_general_path(c, rim, graph, h, ball):
    assert c.boundary() == rim
    assert facet_ridge_graph(c) == graph
    assert fh_vectors(c).h == h
    report = topology_report(c)
    assert not report.is_sphere() and report.is_ball() == ball
    identity = {v: v for v in c.vertices()}
    assert isomorphic(c, Complex(c.facets, 5)) == identity
    assert isomorphic(c, Complex([], 5)) == ({} if c.is_void else None)
    assert automorphisms(c) == [identity]
    # the budget counts the root node, also when there are no vertices
    with pytest.raises(SearchBudgetExceeded):
        automorphisms(c, budget=0)
    with pytest.raises(SearchBudgetExceeded):
        isomorphic(c, c, budget=0)
    if c.dim < 0:
        with pytest.raises(InvalidParameters, match="requires a nonempty complex"):
            stackedness(c)
    else:
        assert stackedness(c) == StackednessReport(min_i=0, witness_interior_face=(1,))
    with pytest.raises(InvalidParameters, match="requires dim >= 2"):
        edge_link_census(c)


@pytest.mark.parametrize(
    "walk",
    [[], [2], [1, 2], [1, 2, 3], [1, 2, 3, 1], [1, 2, 1], [1, -2, 3, -2, 1], [3, 1, 2, 1, 3, -1]],
)
def test_from_walk_joins_consecutive_vertices(walk):
    pairs = [walk[i:i + 2] for i in range(len(walk) - 1)]
    assert from_walk(walk, 3) == Complex([walk] if len(walk) == 1 else pairs, 3)


def test_boundary_recursion_formula():
    # ∂B(d,i,n) = (∂B(d-1,i,n-1)*n) ∪ (∂(-B(d-1,i-1,n-1))*(-n)) ∪ (B(d-1,i,n-1) \ -B(d-1,i-1,n-1))
    for d, i, n in [(3, 1, 5), (3, 1, 7), (4, 1, 7), (4, 2, 7), (5, 2, 8), (2, 1, 6)]:
        lhs = build_B(d, i, n).boundary()
        up = build_B(d - 1, i, n - 1)
        down = build_B(d - 1, i - 1, n - 1).antipode()
        parts = set()
        if not up.is_void:
            parts |= cone(up.boundary(), n).facets
        if not down.is_void:
            parts |= cone(down.boundary(), -n).facets
        parts |= up.with_ambient(n).difference(down.with_ambient(n)).facets
        assert lhs.facets == Complex(parts, n).facets, (d, i, n)


def test_fh_vectors():
    assert fh_vectors(simplex([1, 2, 3, 4], 4)).f == (1, 4, 6, 4, 1)
    d35 = build_delta(3, 5)
    got = fh_vectors(d35)
    assert got.f == (1, 10, 40, 60, 30)
    assert got.h == (1, 6, 16, 6, 1)
    assert got.h == got.h[::-1]
    # oracle: brute-force closure and polynomial identity
    assert got.f == f_vector(d35.facets)
    assert got.h == h_vector(got.f)
    # degenerate complexes: void has no faces, {∅} has exactly the empty one
    assert fh_vectors(Complex([], 3)).f == (0,)
    assert fh_vectors(Complex([[]], 3)).f == (1,)
    assert fh_vectors(Complex([[]], 3)).h == (1,)


@pytest.mark.parametrize("d,n", [(1, 6), (2, 6), (3, 7), (4, 7)])
def test_fh_oracle_against_closure(d, n):
    c = build_delta(d, n)
    assert fh_vectors(c).f == f_vector(c.facets)


def test_facet_ridge_graph():
    g = nx.Graph(facet_ridge_graph(cross_polytope(2)))
    assert g.number_of_nodes() == 4 and nx.is_connected(g)
    assert sorted(dict(g.degree).values()) == [2, 2, 2, 2]  # a 4-cycle
    for n in (5, 7, 9):
        gb = nx.Graph(facet_ridge_graph(build_B(3, 1, n)))
        assert nx.is_tree(gb) and gb.number_of_nodes() == 2 * n - 3
    lone = nx.Graph(facet_ridge_graph(simplex([1, 2, 3], 3)))
    assert lone.number_of_nodes() == 1 and lone.number_of_edges() == 0
    with pytest.raises(InvalidParameters, match="facet-ridge graph requires a pure complex"):
        facet_ridge_graph(Complex([(1, 2, 3), (4,)], 4))


def test_topology_report():
    r4 = topology_report(cross_polytope(4))
    assert r4.z2_betti == (1, 0, 0, 1) and r4.closed_pseudomanifold and r4.euler == 0
    r58 = topology_report(build_delta(5, 8))
    assert r58.z2_betti == (1, 0, 0, 0, 0, 1) and r58.is_sphere()
    rb = topology_report(build_B(3, 1, 6))
    assert not rb.closed_pseudomanifold and rb.z2_betti == (1, 0, 0, 0) and rb.is_ball()
    # euler equals the alternating f-sum in the report
    for c in (cross_polytope(3), build_delta(2, 6), build_B(2, 1, 5)):
        f = fh_vectors(c).f
        assert topology_report(c).euler == sum((-1) ** i * fi for i, fi in enumerate(f[1:]))
    # S^0: two points
    assert topology_report(Complex([(1,), (-1,)], 1)).closed_pseudomanifold
    assert not topology_report(Complex([(1,), (-1,), (2,)], 2)).closed_pseudomanifold
    assert topology_report(Complex([(1,), (-1,)], 1)).is_sphere()
    assert not topology_report(Complex([(1,), (-1,), (2,)], 2)).is_sphere()
    # theta graph: every vertex lies in two or more edges, vertices 1 and 2 in three
    theta = Complex(THETA_FACETS, 5)
    assert not topology_report(theta).closed_pseudomanifold


def test_torus_betti_distinguishes_nonspheres():
    c = _torus()
    rep = topology_report(c)
    assert rep.pure and rep.connected and rep.closed_pseudomanifold
    assert rep.euler == 0
    assert rep.z2_betti == (1, 2, 1)
    assert not rep.is_sphere()


def test_dehn_sommerville_for_spheres():
    for d, n in [(2, 5), (3, 6), (4, 7), (5, 8)]:
        h = fh_vectors(build_delta(d, n)).h
        assert h == h[::-1], (d, n)


def _support(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _as_mask(support) -> int:
    """A support as a bitmask."""
    return sum(1 << i for i in support)


def _flat(rows) -> list[int]:
    """Rows of one width as the flat key list that gf2_pivots reads."""
    return list(itertools.chain.from_iterable(rows))


def _pivot_support(pivot, keys: list[int], width: int):
    """The keys of a pivot: its input row, given by number, or a reduced row's set."""
    return keys[pivot * width : (pivot + 1) * width] if type(pivot) is int else pivot


def test_gf2_rank_small_cases():
    ident = pack_rows([[1 if i == j else 0 for j in range(5)] for i in range(5)])
    # boundary of a triangle: rank 2 over GF(2)
    triangle = pack_rows([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    cases = [
        ([], 0),
        ([0b1, 0b10, 0b100], 3),
        ([0b11, 0b110, 0b101], 2),  # third row is the XOR of the first two
        (ident, 5),
        (triangle, 2),
    ]
    for rows, rank in cases:
        supports = list(map(_support, rows))
        width = len(supports[0]) if supports else 1
        assert {len(row) for row in supports} <= {width}
        assert len(gf2_pivots(_flat(supports), width)) == gf2_rank(rows) == rank, rows


def test_top_h_entry_tracks_euler():
    # h_{d+1} = (-1)^d (euler - 1): vanishes for balls, 1 for odd spheres
    cases = [
        cross_polytope(3),
        build_delta(3, 6),
        build_delta(2, 5),
        build_B(3, 1, 6),
        build_B(4, 2, 6),
        simplex([1, 2, 3], 3),
    ]
    for c in cases:
        fh = fh_vectors(c)
        euler = sum((-1) ** i * fi for i, fi in enumerate(fh.f[1:]))
        assert fh.h[-1] == (-1) ** c.dim * (euler - 1), c


def test_projective_plane_z2_homology():
    rep = topology_report(Complex(RP2_FACETS, 6))
    assert rep.closed_pseudomanifold and rep.euler == 1
    assert rep.z2_betti == (1, 1, 1)
    assert not rep.is_sphere() and not rep.is_ball()


def test_euler_equals_alternating_betti_sum():
    # chi computed from face counts must equal the alternating GF(2) betti sum
    surfaces = [
        cross_polytope(2),
        cross_polytope(4),
        build_delta(3, 7),
        build_B(3, 1, 6),
        build_B(4, 2, 6),
        simplex([1, 2, 3, 4], 4),
    ]
    for c in surfaces:
        rep = topology_report(c)
        assert rep.euler == sum((-1) ** i * b for i, b in enumerate(rep.z2_betti)), c


ORACLE_COMPLEXES = {
    **{f"delta{d}_{n}": (lambda d=d, n=n: build_delta(d, n))
       for d, n in [(3, 10), (4, 8), (5, 9), (6, 8), (7, 10)]},
    **{f"B{d}{i}_{n}": (lambda d=d, i=i, n=n: build_B(d, i, n))
       for d, i, n in [(3, 1, 10), (4, 2, 8), (5, 2, 9), (6, 3, 8), (7, 3, 10)]},
    "gamma3_14_34": lambda: build_gamma(3, 14, (3, 4)),
    **{f"delta_I{s.indices}": (lambda s=s: build_delta_I(s)) for s in enum_I(12)},
    "torus": _torus,
    "rp2": lambda: Complex(RP2_FACETS, 6),
    "theta": lambda: Complex(THETA_FACETS, 5),
    "s0": lambda: Complex([(1,), (-1,)], 1),
    "void": lambda: Complex([], 3),
    "empty_face": lambda: Complex([()], 3),
    "non_pure": lambda: Complex(NON_PURE_FACETS, 6),
    # homology-heavy: in the 2-skeleton 286 rows reduce to 0 against input
    # rows; in the random 3-complex reduced rows also meet longer reduced
    # pivots, which the reduction swaps for the shorter row (beta_3 = 533)
    "skeleton2_14": lambda: Complex(itertools.combinations(range(1, 15), 3), 14),
    "random3_20": lambda: Complex(random.Random(1).sample(list(itertools.combinations(range(1, 21), 4)), 1500), 20),
}


def _check_face_walk(c: Complex) -> None:
    """The one face walk against the oracles, asked for in both orders on
    fresh copies, and the report's connectivity against a graph search."""
    f_first, betti_first = Complex(c.facets, c.ambient_n), Complex(c.facets, c.ambient_n)
    assert f_first.f_counts() == f_vector(c.facets)
    assert z2_betti_numbers(f_first) == z2_betti(c.facets)
    assert z2_betti_numbers(betti_first) == z2_betti(c.facets)
    assert betti_first.f_counts() == f_vector(c.facets)
    assert topology_report(c).connected == connected(c.facets)


@pytest.mark.parametrize("build", ORACLE_COMPLEXES.values(), ids=ORACLE_COMPLEXES.keys())
def test_face_walk_matches_elimination_oracle(build):
    _check_face_walk(build())


def test_elimination_oracle_known_values():
    assert z2_betti(_torus().facets) == (1, 2, 1)
    assert z2_betti(NON_PURE_FACETS) == (2, 1, 0, 0)
    assert z2_betti([]) == () and z2_betti([()]) == ()
    assert not connected(NON_PURE_FACETS) and connected([]) and connected([()])


small_complexes = st.lists(
    st.sets(st.sampled_from([1, -1, 2, -2, 3, -3, 4, -4, 5]), max_size=5).map(tuple),
    max_size=8,
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(small_complexes)
def test_face_walk_matches_oracle_on_random_complexes(facets):
    _check_face_walk(Complex(facets, 5))


# antipode-free faces on ±{1..5}, each joined by its negation
cs_complexes = st.lists(
    st.dictionaries(st.integers(1, 5), st.sampled_from([1, -1]), max_size=5).map(
        lambda signs: tuple(v * s for v, s in signs.items())),
    max_size=8,
).map(lambda faces: faces + [tuple(-v for v in f) for f in faces])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(cs_complexes)
@example(sorted(cross_polytope(4).facets))  # closed cs spheres, where clearing drops the most rows
@example(sorted(cross_polytope(5).facets))
@example(sorted(build_delta(3, 5).facets))
@example(sorted(build_delta(4, 5).facets))
def test_face_walk_matches_oracle_on_random_cs_complexes(facets):
    c = Complex(facets, 5)
    assert is_cs(c)
    _check_face_walk(c)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(small_complexes, st.lists(st.sampled_from([1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6]),
                                 min_size=10, max_size=10))
def test_relabel_maps_each_vertex_once(facets, images):
    c = Complex(facets, 5)
    table = dict(zip([1, -1, 2, -2, 3, -3, 4, -4, 5, -5], images))
    calls = []

    def mapping(v):
        calls.append(v)
        return table[v]

    if len({table[v] for v in c.vertices()}) < len(c.vertices()):
        with pytest.raises(InvalidParameters, match="not injective"):
            c.relabel(mapping, 6)
        return
    # an injective map: the facets of the validating constructor, one call per vertex
    assert c.relabel(mapping, 6) == Complex([[table[v] for v in f] for f in c.facets], 6)
    assert sorted(calls) == sorted(c.vertices())


@settings(derandomize=True, max_examples=300, deadline=None)
@given(small_complexes)
def test_antichain_reduction_matches_brute_force(faces):
    # mixed sizes, repeats and () included: the facets are the maximal faces
    assert {frozenset(f) for f in Complex(faces, 5).facets} == maximal_faces(faces)


def test_antichain_reduction_of_half_a_sphere_and_the_other_halfs_ridges():
    # every other facet of Δ(7,14) in canonical order and the ridges of the
    # others; a ridge is kept iff no kept facet holds it.  The bound is far
    # above the bitset reduction and below a reduction that tests each face
    # against the kept faces one by one.
    facets = build_delta(7, 14).sorted_facets()
    kept, rest = facets[::2], facets[1::2]
    ridges = {r for f in rest for r in itertools.combinations(f, 7)}
    faces = [*kept, *ridges]
    assert len(faces) == 30_316
    start = time.perf_counter()
    c = Complex(faces, 14)
    elapsed = time.perf_counter() - start
    covered = {r for f in kept for r in itertools.combinations(f, 7)}
    assert c.facets == set(kept) | (ridges - covered)
    assert elapsed < 1.0, elapsed


@pytest.mark.parametrize(
    "make, by_bits",
    [
        (lambda: build_delta(7, 12), True),  # 24 vertices, 215 040 facet 3-subsets
        (lambda: build_delta_I(enum_I(12)[3]), True),
        (lambda: build_gamma(3, 14, (3,)), True),
        (lambda: build_delta(3, 40), False),  # 80 vertices, 12 160 facet 3-subsets
    ],
    ids=["delta7_12", "delta_I", "gamma3_14", "delta3_40"],
)
def test_edge_incidence_walks_agree_and_the_cheaper_one_runs(monkeypatch, make, by_bits):
    c = make()
    by_triangles = core._edges_by_triangles(Complex(c.facets, c.ambient_n))
    assert by_triangles == core._edges_by_bitsets(Complex(c.facets, c.ambient_n))

    def not_this_walk(_):
        raise AssertionError("the costlier edge walk ran")

    monkeypatch.setattr(core, "_edges_by_triangles" if by_bits else "_edges_by_bitsets", not_this_walk)
    assert dict(Complex(c.facets, c.ambient_n).edge_incidence()) == by_triangles


def test_labels_beyond_the_ambient_bound_are_refused():
    with pytest.raises(InvalidParameters, match="label 5 exceeds ambient bound 3"):
        Complex([(5,)], 3)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(small_complexes)
@example([(1, 2, 3), (1, 2, 4), (1, 2, -3)])  # a ridge in three facets
@example([(1, 2), (1, 3), (1, 4)])  # the tripod: a contractible non-pseudomanifold
@example([(1, 2, 3), (1, 2, 4), (3, 4), (5,)])  # maximal edges and a lone vertex
@example([()])  # {∅}
@example([(1,), (-1,)])  # S^0: its one ridge, ∅, lies in both points
@example([(1,), (2,), (-3,)])  # three points: ∅ lies in three
@example([(1, 2), (2, 3), (1, 3), (3, 4)])  # ridge degrees 1 and 3 sum to twice the ridge count
def test_facet_degree_counts_match_closure_oracle(facets):
    # v is a link vertex of the edge e exactly when e ∪ {v} is a face, on impure complexes too
    c = Complex(facets, 5)
    tops = maximal_faces(facets)
    links = coface_counts(facets, 2)
    want = {e: (k, sum(1 for f in tops if set(e) <= f)) for e, k in links.items()}
    assert dict(c.edge_incidence()) == want
    # both triangle walks, whichever edge_incidence picked
    assert core._edges_by_bitsets(c) == core._edges_by_triangles(c) == want
    if not c.is_pure:
        assert not topology_report(c).pseudomanifold
        return
    ridges = coface_counts(facets, c.dim)
    assert topology_report(c).pseudomanifold == (c.dim >= 0 and all(k <= 2 for k in ridges.values()))
    if any(k > 2 for k in ridges.values()):
        with pytest.raises(InvalidParameters, match=r"ridge .* lies in [3-9] facets"):
            c.boundary()
    else:
        assert c.boundary().facets == {r for r, k in ridges.items() if k == 1}
    assert topology_report(c).closed_pseudomanifold == (c.dim >= 0 and all(k == 2 for k in ridges.values()))


# labels up to 6 (the complexes stop at 5) and up to 6 of them (facets hold 5)
query_faces = st.sets(st.sampled_from([1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6]), max_size=6).map(tuple)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(small_complexes, small_complexes, query_faces)
@example([], [[]], ())  # void in {∅}
@example([[]], [], ())  # {∅} in void
@example([(1, 2, 3), (4,)], [(1, 2, 3, 4, 5)], (1, 2, 3, 4, 5))  # non-pure; face above the dim
@example([(1, -1)], [(1, 2)], (6,))  # a label the complex lacks
def test_face_membership_matches_closure_oracle(facets_a, facets_b, face):
    a, b = Complex(facets_a, 5), Complex(facets_b, 5)
    present = sort_face(face) in closure(facets_a)
    assert a.has_face(face) == present
    # star and link: the facets containing the face, and a raise iff it is absent
    star = {t for t in maximal_faces(facets_a) if t >= set(face)}
    if present:
        assert {frozenset(f) for f in a.star(face).facets} == star
        assert {frozenset(f) for f in a.link(face).facets} == {t - set(face) for t in star}
    else:
        for op in (a.star, a.link):
            with pytest.raises(InvalidParameters, match="not in complex"):
                op(face)
    # all three read the facet bitsets, whose rows are a's memoised vertices
    assert set(a._cache) <= {"facet_bits", "vertices"}, list(a._cache)
    assert is_subcomplex(a, b) == (closure(facets_a) <= closure(facets_b))
    # is_subcomplex reads b's bitsets only, whose rows are b's memoised vertices
    assert set(b._cache) <= {"facet_bits", "vertices"}, list(b._cache)


def _reduces_to_zero(row: int, masks: dict[int, int]) -> bool:
    while row and row.bit_length() - 1 in masks:
        row ^= masks[row.bit_length() - 1]
    return row == 0


def _check_pivots(rows: list[list[int]], width: int) -> None:
    """gf2_pivots on rows of `width` distinct keys each, against the oracle."""
    keys = _flat(rows)
    pivots = gf2_pivots(keys, width)
    masks = {lead: _as_mask(_pivot_support(pivot, keys, width)) for lead, pivot in pivots.items()}
    assert all(mask.bit_length() - 1 == lead for lead, mask in masks.items())
    assert len({mask.bit_length() - 1 for mask in masks.values()}) == len(pivots)
    assert gf2_rank(list(map(_as_mask, rows))) == len(pivots)
    # the pivots span every input row, and are independent by their distinct leads
    assert all(_reduces_to_zero(_as_mask(row), masks) for row in rows)


def _rows_of_width(width: int, columns: int, **size) -> st.SearchStrategy[list[list[int]]]:
    """Lists of rows of `width` distinct keys below `columns`, in any order within a row."""
    return st.lists(st.lists(st.integers(0, columns - 1), min_size=width, max_size=width, unique=True), **size)


fixed_width_rows = st.integers(1, 6).flatmap(lambda w: st.tuples(st.just(w), _rows_of_width(w, 12, max_size=20)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(fixed_width_rows)
def test_gf2_pivots_are_keyed_by_their_leading_bit(case):
    width, rows = case
    _check_pivots(rows, width)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda w: st.tuples(
    st.just(w), _rows_of_width(w, 6, max_size=10), _rows_of_width(w - 1, 6, min_size=2, max_size=10))))
def test_gf2_pivots_reduce_rows_that_share_a_lead(case):
    # the rows with lead 6 after the first are reduced, against the input
    # rows and the reduced rows kept below 6, keeping the shorter at a lead
    width, lows, highs = case
    _check_pivots(lows + [high + [6] for high in highs], width)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(fixed_width_rows)
def test_gf2_pivots_depend_only_on_the_order_of_the_keys(case):
    # a strictly increasing key map with gaps of 2^40 maps the leads and
    # keeps the rank; a kernel whose work grows with the key values, as a
    # bitmask over them does, breaks the memory bound or fails outright
    width, rows = case
    keys = _flat(rows)
    near = gf2_pivots(keys, width)
    tracemalloc.start()
    try:
        far = gf2_pivots([(k + 1) * 2**40 for k in keys], width)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert set(far) == {(k + 1) * 2**40 for k in near} and len(far) == len(near)
    assert peak < 64 * 2**10, peak


def _boundary_supports(faces: list, order: dict, card: int) -> list[tuple[int, ...]]:
    return [tuple(order[sub] for sub in itertools.combinations(f, card - 1)) for f in faces]


@pytest.mark.parametrize(
    "facets",
    [_torus().facets, RP2_FACETS, build_delta(3, 7).facets, build_B(3, 1, 6).facets,
     cross_polytope(3).facets, THETA_FACETS, NON_PURE_FACETS],
    ids=["torus", "rp2", "delta37", "B316", "cross3", "theta", "non_pure"],
)
def test_clearing_leaves_boundary_ranks_unchanged(facets):
    faces = closure(facets)
    top = max(len(f) for f in faces)
    for seed in range(3):  # the sorted order, then two shuffled ones
        by_card = [sorted(f for f in faces if len(f) == card) for card in range(top + 1)]
        for level in by_card[1:] if seed else ():
            random.Random(seed).shuffle(level)
        order = [{f: i for i, f in enumerate(level)} for level in by_card]
        for card in range(2, top):
            above = gf2_pivots(_flat(_boundary_supports(by_card[card + 1], order[card], card + 1)), card + 1)
            rows = list(map(_as_mask, _boundary_supports(by_card[card], order[card - 1], card)))
            kept = [row for i, row in enumerate(rows) if i not in above]
            assert gf2_rank(kept) == gf2_rank(rows), (seed, card)


def test_topology_report_then_fh_vectors_walk_the_faces_once(monkeypatch):
    c = Complex(build_delta(5, 10).facets, 10)  # fresh caches
    walks = []
    real_walk = core._face_walk
    monkeypatch.setattr(core, "_face_walk", lambda x: walks.append(x) or real_walk(x))

    def no_count(self, card):
        raise AssertionError("_facet_degrees called")

    monkeypatch.setattr(Complex, "_facet_degrees", no_count)  # closedness comes from the walk
    report = topology_report(c)
    assert fh_vectors(c).f == c.f_counts() == f_vector(c.facets)
    assert report.is_sphere() and walks == [c]


# every memo key the library uses; a face level kept per size would add more
MEMO_KEYS = {"dim", "pure", "vertices", "sorted_facets", "facet_bits", "cs", "walk", "edges", "iso.canon"}


def test_no_face_level_is_memoised(monkeypatch):
    keys = set()
    memo = Complex.memo
    monkeypatch.setattr(Complex, "memo", lambda c, key, compute: keys.add(key) or memo(c, key, compute))
    touched = []
    for d, n in [(3, 40), (7, 12)]:  # the ladder rungs on each side of the edge-walk choice
        sphere, ball = (Complex(c.facets, n) for c in (build_delta(d, n), build_B(d, (d - 1) // 2, n)))
        for check in (is_cs, cs_neighborliness, topology_report, fh_vectors, edge_link_census):
            check(sphere)
        stackedness(ball)
        touched += [sphere, ball]
    a = Complex(build_delta_I(enum_I(12)[3]).facets, 13)
    b = a.relabel(lambda v: (14 - abs(v)) * (1 if v > 0 else -1), 13)
    assert isomorphic(a, b) is not None
    touched += [a, b]
    assert keys | {key for c in touched for key in c._cache} <= MEMO_KEYS


# a fixed signed relabelling of V_12, odd under negation
SIGMA_12 = {1: 1, 2: -10, 3: 8, 4: -9, 5: 12, 6: -11, 7: -4, 8: 3, 9: 7, 10: 6, 11: -5, 12: 2}


def _sigma_12(c: Complex) -> Complex:
    """`c` relabelled by SIGMA_12 and its negation, with fresh caches."""
    sigma = {**SIGMA_12, **{-v: -w for v, w in SIGMA_12.items()}}
    return c.relabel(sigma.__getitem__, 12)


@pytest.mark.parametrize(
    "relabel, reduced",
    [(False, [1, 3, 6, 11, 0, 0, 0]), (True, [33, 166, 186, 62, 0, 0, 0])],
    ids=["canonical", "relabelled"],
)
def test_face_walk_fill_in_on_delta_7_12(monkeypatch, relabel, reduced):
    """The rows that gf2_pivots must reduce, level by level from the top,
    stay as few as the canonical facet order and first-appearance columns
    make them: a row is reduced unless it is kept as its row number."""
    c = build_delta(7, 12)
    if relabel:
        c = _sigma_12(c)
    counts = []

    def counting(keys, width):
        pivots = gf2_pivots(keys, width)
        counts.append(len(keys) // width - sum(type(p) is int for p in pivots.values()))
        return pivots

    monkeypatch.setattr(core, "gf2_pivots", counting)
    assert z2_betti_numbers(Complex(c.facets, 12)) == (1, 0, 0, 0, 0, 0, 0, 1)
    assert counts == reduced


@pytest.mark.parametrize("relabel", [False, True], ids=["canonical", "relabelled"])
def test_face_walk_lists_the_subfaces_of_kept_faces_only(monkeypatch, relabel):
    """A face that leads a pivot of the boundary above is cleared before its
    subfaces are listed, and the kept faces still reach every face below."""
    c = build_delta(7, 12)
    c = _sigma_12(c) if relabel else Complex(c.facets, 12)
    handed, listed, leads = [], [], []
    real_subfaces = core._subfaces

    def recording_subfaces(faces, card):
        handed.append(list(faces))
        listed.append(list(real_subfaces(handed[-1], card)))
        return iter(listed[-1])

    def recording_pivots(keys, width):
        pivots = gf2_pivots(keys, width)
        leads.append(set(pivots))
        return pivots

    monkeypatch.setattr(core, "_subfaces", recording_subfaces)
    monkeypatch.setattr(core, "gf2_pivots", recording_pivots)
    f = c.f_counts()
    top = len(f) - 1
    # a level's faces are keyed by where they first appear in the subfaces of the level above
    for above, faces, pivots in zip(listed, handed[1:], leads):
        first = {}
        for key, face in enumerate(above):
            first.setdefault(face, key)
        assert all(first[above[key]] == key for key in pivots)
        cleared = {above[key] for key in pivots}
        assert cleared.isdisjoint(faces) and cleared | set(faces) == set(above)
    ranks = {top - i: len(pivots) for i, pivots in enumerate(leads)}  # from card to card - 1
    total = sum(map(len, listed))
    assert total == sum(card * (f[card] - ranks.get(card + 1, 0)) for card in range(2, top + 1))
    assert total == 227_011  # 417 648 when every face of every level was listed


def test_topology_report_memory_peak_on_delta_7_12():
    sphere = build_delta(7, 12)
    for c in (Complex(sphere.facets, 12), _sigma_12(sphere)):  # fresh caches
        tracemalloc.start()
        try:
            report = topology_report(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.is_sphere()
        assert peak < 16 * 2**20, peak  # 27.8 MB when every boundary row was a bitmask


def test_complex_pickles_and_copies_without_its_memo():
    c = build_delta(3, 6)
    topology_report(c)
    assert c._cache
    for twin in (pickle.loads(pickle.dumps(c)), copy.copy(c), copy.deepcopy(c)):
        assert type(twin) is Complex and twin == c and twin.ambient_n == c.ambient_n
        assert twin._cache == {}
    record = ComplexFile(c, "W")
    assert pickle.loads(pickle.dumps(record)) == record
