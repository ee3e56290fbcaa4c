"""Kernel operations: faces, links, joins, skeleta, boundaries, f/h-vectors."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
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
    simplex,
    sort_face,
    topology_report,
    vertex_key,
    z2_betti_numbers,
)
from csspheres.errors import InvalidParameters
from csspheres.flips import build_gamma
from csspheres.gf2 import gf2_pivots
from csspheres.sew3 import build_delta_I, enum_I

from oracles import closure, connected, f_vector, gf2_rank, h_vector, maximal_faces, pack_rows, z2_betti

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
    edge = min(c.faces_of_card(2), key=face_key)
    outputs = [
        c,
        c.link((v,)),
        c.link(edge),
        c.link(c.sorted_facets()[0]),
        c.star((v,)),
        c.star(edge),
        c.antipode(),
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


def test_has_face():
    c3 = cross_polytope(3)
    assert c3.has_face((1, -2))
    assert not c3.has_face((1, -1))
    d36 = build_delta(3, 6)
    assert d36.has_face((1, 3, 5))  # inside the facet {1,2,3,5}
    assert ((1, 3, 5) in d36) and ((1, -1) not in d36)
    assert Complex([], 3).has_face(()) is False
    assert Complex([[]], 3).has_face(()) is True


def test_link():
    d38 = build_delta(3, 8)
    assert d38.link((7, 8)).with_ambient(6) == build_delta(1, 6)
    c = build_delta(2, 5)
    assert c.link(()) == c
    lk1 = cross_polytope(3).link((1,))
    assert lk1.facets == cross_polytope(3).restriction([2, -2, 3, -3]).facets
    report = topology_report(lk1)
    assert report.closed_pseudomanifold and report.euler == 0  # a 4-cycle
    with pytest.raises(InvalidParameters, match="not in complex"):
        cross_polytope(2).link((1, -1))


def test_link_and_star_of_an_absent_face_raise_without_the_vertex_index():
    c = Complex(build_delta(3, 7).facets, 7)
    for op in (c.link, c.star):
        for face in [(1, -1), (1, 2, 3, 4, 5), (8,)]:
            with pytest.raises(InvalidParameters, match="not in complex"):
                op(face)
    assert c.link((1, 2)).facets and c.star((1, 2)).facets
    assert c.link((1, 2, 3, -4)).facets == {()}  # (1, 2, 3, -4) is a facet
    assert "vindex" not in c._cache
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


def test_skeleton():
    c3 = cross_polytope(3)
    assert c3.skeleton(0).facets == {(v,) for v in [1, -1, 2, -2, 3, -3]}
    assert c3.skeleton(c3.dim) == c3
    assert c3.skeleton(5) == c3
    d58 = build_delta(5, 8)
    assert d58.skeleton(2) == cross_polytope(8).skeleton(2)
    mixed = Complex([(1, 2, 3), (4,)], 4)
    assert mixed.skeleton(1).facets == {(1, 2), (1, 3), (2, 3), (4,)}
    with pytest.raises(InvalidParameters):
        c3.skeleton(-2)


def test_restriction():
    c2 = cross_polytope(2)
    assert c2.restriction([1, 2]).facets == {(1, 2)}
    assert c2.restriction([]).facets == {()}
    d510 = build_delta(5, 10)
    positives = d510.restriction(range(1, 11))
    assert (1, 2, 3, 5, 7, 9) in positives.facets


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
        assert len(gf2_pivots(rows)) == gf2_rank(rows) == rank, rows


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


@settings(derandomize=True, max_examples=300, deadline=None)
@given(small_complexes)
def test_antichain_reduction_matches_brute_force(faces):
    # mixed sizes, repeats and () included: the facets are the maximal faces
    assert {frozenset(f) for f in Complex(faces, 5).facets} == maximal_faces(faces)


def _reduces_to_zero(row: int, pivots: dict[int, int]) -> bool:
    while row and row.bit_length() - 1 in pivots:
        row ^= pivots[row.bit_length() - 1]
    return row == 0


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**12 - 1), max_size=20))
def test_gf2_pivots_are_keyed_by_their_leading_bit(rows):
    pivots = gf2_pivots(rows)
    assert all(row.bit_length() - 1 == lead for lead, row in pivots.items())
    assert len({row.bit_length() - 1 for row in pivots.values()}) == len(pivots)
    assert gf2_rank(rows) == len(pivots)
    # the pivots span every input row, and are independent by their distinct leads
    assert all(_reduces_to_zero(row, pivots) for row in rows)


def _boundary_masks(faces: list, order: dict, card: int) -> list[int]:
    rows = []
    for f in faces:
        mask = 0
        for sub in itertools.combinations(f, card - 1):
            mask |= 1 << order[sub]
        rows.append(mask)
    return rows


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
            above = gf2_pivots(_boundary_masks(by_card[card + 1], order[card], card + 1))
            rows = _boundary_masks(by_card[card], order[card - 1], card)
            kept = [row for i, row in enumerate(rows) if i not in above]
            assert gf2_rank(kept) == gf2_rank(rows), (seed, card)


def test_topology_report_then_fh_vectors_walk_the_faces_once(monkeypatch):
    c = Complex(build_delta(5, 10).facets, 10)  # fresh caches
    walks = []
    real_walk = core._face_walk
    monkeypatch.setattr(core, "_face_walk", lambda x: walks.append(x) or real_walk(x))

    def no_closure(self, card):
        raise AssertionError("faces_of_card called")

    monkeypatch.setattr(Complex, "faces_of_card", no_closure)
    report = topology_report(c)
    assert not [key for key in c._cache if isinstance(key, tuple) and key[0] == "card"]
    assert fh_vectors(c).f == c.f_counts() == f_vector(c.facets)
    assert report.is_sphere() and walks == [c]
