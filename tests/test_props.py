"""Property predicates: symmetry, neighborliness, stackedness, facet
conditions, guaranteed-facet families, and edge-link censuses."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csspheres.builders import (
    build_B,
    build_delta,
    build_lambda,
    cross_polytope,
)
from csspheres.core import Complex, canon_face, simplex, topology_report
from csspheres.errors import InvalidParameters
from csspheres.flips import build_gamma
from csspheres.props import (
    census_at_least,
    cs_neighborliness,
    delta3_facet_formula,
    edge_link_census,
    enum_S,
    facet_necessary_check,
    is_cs,
    is_subcomplex,
    stackedness,
)

from oracles import coface_counts, cs_neighborliness as neighborliness_oracle


def test_is_cs():
    assert is_cs(cross_polytope(5))
    assert not is_cs(Complex([(1, -1, 2)], 2))  # {1,-1} is fixed by negation
    assert not is_cs(Complex([(1, 2)], 2))  # antipodal facet missing
    assert is_cs(Complex([], 3)) and is_cs(Complex([[]], 3))
    for d, n in [(2, 5), (3, 6), (4, 6)]:
        assert is_cs(build_delta(d, n))


def test_cs_neighborliness_cross():
    rep = cs_neighborliness(cross_polytope(4))
    assert rep.max_i == 4 and not rep.exact and rep.witness is None


def test_cs_neighborliness_delta36():
    d = build_delta(3, 6)
    # face-count argument rules out cs-3: f_2 = 2 f_3 = 192/2 < 8 C(6,3)
    f2 = len(d.faces_of_card(3))
    assert f2 < 8 * math.comb(6, 3)
    rep = cs_neighborliness(d)
    assert rep.max_i == 2 and rep.exact
    assert rep.witness is not None and len(rep.witness) == 3
    assert not d.has_face(rep.witness)
    # witness is the canonically least missing antipode-free triple: every
    # {1,2,x} triple lies in the link cycle of {1,2} and {1,-2,3} is in the
    # base facet {1,-2,3,-4}, so the first gap is {1,-2,-3}
    assert rep.witness == (1, -2, -3)


def test_cs_neighborliness_balls():
    rep = cs_neighborliness(build_B(5, 2, 8))
    assert rep.max_i == 2 and rep.exact
    rep0 = cs_neighborliness(build_B(4, 0, 7))
    assert rep0.max_i == 0  # a simplex misses most vertices


def test_cs_neighborliness_w_ground():
    lam = build_lambda(3, 8)
    rep = cs_neighborliness(lam, range(3, 8 + 3))
    assert rep.max_i == 2
    # against the default V-ground the vertex 1 is missing entirely
    assert cs_neighborliness(lam).max_i == 0


@pytest.mark.parametrize(
    "build,ground,want",
    [
        (lambda: cross_polytope(4), None, (4, None)),
        (lambda: build_delta(3, 6), None, (2, (1, -2, -3))),
        (lambda: build_B(5, 2, 8), None, None),
        (lambda: build_B(4, 0, 7), None, None),
        (lambda: build_lambda(3, 8), range(3, 8 + 3), None),
        (lambda: build_lambda(3, 8), None, (0, (1,))),
        (lambda: build_delta(3, 6), (1, 3, 4), None),
        # the facet (1,-1,2) carries the edges (1,-1), (1,2), (-1,2): four
        # edges in all, but (-1,-2) is missing and (1,-1) must not count
        (lambda: Complex([(1, -1, 2), (1, -2)], 2), None, (1, (-1, -2))),
    ],
    ids=["cross4", "delta36", "B528", "B407", "lambda38_w", "lambda38_v", "delta36_134", "antipodal"],
)
def test_cs_neighborliness_matches_enumeration_oracle(build, ground, want):
    c = build()
    rep = cs_neighborliness(c, ground)
    oracle = neighborliness_oracle(c.facets, range(1, c.ambient_n + 1) if ground is None else ground)
    assert (rep.max_i, rep.witness) == oracle
    assert rep.exact == (rep.witness is not None)
    if want is not None:
        assert oracle == want


# a random set of cross-polytope facets (so every level can be the first
# incomplete one) plus a few random faces, which may hold an antipodal pair
# or a label outside the ground
CROSS4 = sorted(cross_polytope(4).facets)
random_complexes = st.tuples(
    st.lists(st.sampled_from(CROSS4), unique=True),
    st.lists(st.sets(st.sampled_from([1, -1, 2, -2, 3, -3, 4, -4]), max_size=5).map(tuple), max_size=4),
).map(lambda parts: Complex(parts[0] + parts[1], 4))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(random_complexes, st.sets(st.integers(1, 5), max_size=5))
def test_cs_neighborliness_matches_oracle_on_random_complexes(c, ground):
    rep = cs_neighborliness(c, ground)
    assert (rep.max_i, rep.witness) == neighborliness_oracle(c.facets, ground)
    assert rep.exact == (rep.witness is not None)


def test_stackedness():
    rep = stackedness(simplex([1, 2, 3, 4], 4))
    assert rep.min_i == 0
    rep = stackedness(build_B(3, 1, 7))
    assert rep.min_i == 1 and len(rep.witness_interior_face) == 3
    rep = stackedness(build_B(4, 2, 6))
    assert rep.min_i == 2
    with pytest.raises(InvalidParameters, match="complex has empty boundary"):
        stackedness(cross_polytope(3))


def test_facet_necessary_check():
    assert facet_necessary_check((1, 2, 5, 6))
    assert not facet_necessary_check((2, 4, 5, 6))  # first gap 2 without |p1|=1
    assert facet_necessary_check((1, -4, 6, 8))  # first-pair exemption
    assert not facet_necessary_check((1, 2, 5, 8))  # second pair gap 3
    with pytest.raises(InvalidParameters, match="has odd cardinality 3"):
        facet_necessary_check((1, 2, 3))
    with pytest.raises(InvalidParameters, match="requires a nonempty face"):
        facet_necessary_check(())
    with pytest.raises(InvalidParameters):
        facet_necessary_check((1, -1, 2, 3))


@pytest.mark.parametrize("k,n", [(1, 6), (2, 6), (2, 9), (3, 9), (3, 12)])
def test_all_facets_pass_necessary_conditions(k, n):
    for f in build_delta(2 * k - 1, n).facets:
        assert facet_necessary_check(f), f


def test_enum_S_examples():
    fam = enum_S(3, 9)
    assert canon_face((-3, -4, 5, 7, 8, 9)) in fam.by_m[2]
    assert canon_face((1, 2, 3, 5, 7, 9)) in fam.by_m[3]
    assert canon_face((1, 2, -6, -7, 8, 9)) in fam.by_m[1]
    # |S(2k,n)_k| = 2^k C(n-2k+1, k)
    for k, n in [(1, 5), (2, 7), (2, 10), (3, 9), (3, 12)]:
        got = len(enum_S(k, n).by_m[k])
        assert got == 2**k * math.comb(n - 2 * k + 1, k), (k, n)
    with pytest.raises(InvalidParameters):
        enum_S(2, 3)


@pytest.mark.parametrize("k,n", [(1, 5), (1, 8), (2, 6), (2, 9), (3, 8), (3, 11)])
def test_S_members_are_facets_and_positive_facets_match(k, n):
    delta = build_delta(2 * k - 1, n)
    fam = enum_S(k, n)
    assert fam.members <= delta.facets
    positive_facets = {f for f in delta.facets if min(f) > 0}
    positive_members = {f for f in fam.members if min(f) > 0}
    assert positive_facets == positive_members
    # the restriction to positive vertices is generated by exactly these
    restricted = delta.restriction(range(1, n + 1))
    top = {f for f in restricted.facets if len(f) == 2 * k}
    assert top == positive_facets
    # the positive restriction may carry lower-dimensional maximal faces (it
    # is already non-pure at k=3, e.g. {1,2,3,4,6} at n=8); only the
    # top-dimensional ones are facets of the sphere
    for f in restricted.facets - top:
        assert len(f) < 2 * k


def test_delta3_formula():
    fam = delta3_facet_formula(4)
    for f in [(1, 2, -3, 4), (1, 2, 3, -4), (1, -2, 3, -4)]:
        assert canon_face(f) in fam
    for n in range(4, 13):
        fam = delta3_facet_formula(n)
        assert len(fam) == 2 * n * n - 4 * n
        assert fam == build_delta(3, n).facets
    with pytest.raises(InvalidParameters):
        delta3_facet_formula(3)


def test_edge_link_census_delta3():
    n = 8
    census = edge_link_census(build_delta(3, n))
    assert census[(1, 2)] == 2 * n - 4
    assert census[canon_face((n - 1, n))] == 2 * n - 4
    assert census[canon_face((6, 8))] == 2 * n - 5  # {n-2, n}
    assert census[canon_face((2, 3))] == 2 * (n - 2) - 1
    assert census[canon_face((4, 6))] == 2 * 4 + 1
    # the full case table: ±{i,i+1}, ±{ell,ell+2}, everything else <= 6
    for i in range(2, n - 2):
        assert census[canon_face((i, i + 1))] == 2 * (n - i) - 1
        assert census[canon_face((-i, -i - 1))] == 2 * (n - i) - 1
    for ell in range(3, n - 2):
        assert census[canon_face((ell, ell + 2))] == 2 * ell + 1
    special = {canon_face(e) for e in [(1, 2), (-1, -2), (n - 1, n), (-n + 1, -n)]}
    special |= {canon_face((s * i, s * (i + 1))) for i in range(2, n - 2) for s in (1, -1)}
    special |= {canon_face((s * ell, s * (ell + 2))) for ell in range(3, n - 1) for s in (1, -1)}
    for e, size in census.items():
        if e not in special:
            assert size <= 6, (e, size)


def test_edge_link_census_simplex_boundary():
    census = edge_link_census(simplex([1, 2, 3, 4], 4).boundary())
    assert set(census.values()) == {2}
    with pytest.raises(InvalidParameters):
        edge_link_census(build_delta(1, 5))


def test_census_threshold_helper():
    n = 9
    census = edge_link_census(build_delta(3, n))
    big = census_at_least(census, 2 * n - 4)
    assert big == sorted(
        [canon_face((1, 2)), canon_face((-1, -2)), canon_face((n - 1, n)), canon_face((-n + 1, -n))],
        key=lambda f: tuple((abs(v), v < 0) for v in f),
    )


def test_census_counts_link_vertices():
    sphere = build_delta(3, 6)
    census = edge_link_census(sphere)
    for e in census:
        assert len(sphere.link(e).vertices()) == census[e]


def test_is_subcomplex():
    assert is_subcomplex(build_delta(3, 6), build_delta(4, 6))
    assert is_subcomplex(build_B(3, 1, 6), build_B(3, 2, 6).antipode())
    c = cross_polytope(3)
    assert not is_subcomplex(c, c.skeleton(0))
    assert is_subcomplex(Complex([], 5), c)


def test_link_of_12_in_balls():
    # links of {1,2} in ±B(d,i,n): antipodal pair, cs-(i-1)-neighborly, (i-1)-stacked
    for d, i, n in [(3, 1, 7), (4, 1, 7), (4, 2, 7), (5, 2, 8), (3, 2, 7), (6, 3, 9)]:
        pos = build_B(d, i, n).link((1, 2))
        neg = build_B(d, i, n).antipode().link((1, 2))
        assert neg == pos.antipode(), (d, i, n)
        ground = [g for g in range(1, n + 1) if g > 2]
        rep = cs_neighborliness(pos, ground)
        assert rep.max_i == i - 1, (d, i, n, rep)
        if i >= 1:
            st = stackedness(pos)
            assert st.min_i == i - 1, (d, i, n, st)
        if i <= d / 2:
            assert not (pos.facets & neg.facets), (d, i, n)


def test_only_special_edges_have_large_cs_links():
    # in the 3-sphere the only edges with cs, fully-covering links are ±{1,2}, ±{n-1,n}
    for n in (8, 9, 10):
        d = build_delta(3, n)
        hits = []
        for e in edge_link_census(d):
            link = d.link(e)
            ground = sorted(set(range(1, n + 1)) - {abs(v) for v in e})
            if is_cs(link) and cs_neighborliness(link, ground).max_i >= 1:
                hits.append(e)
        expected = {
            canon_face((1, 2)),
            canon_face((-1, -2)),
            canon_face((n - 1, n)),
            canon_face((-n + 1, -n)),
        }
        assert set(hits) == expected, n


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_delta(3, 8),
        lambda: build_delta(4, 7),
        lambda: build_B(3, 1, 8),
        lambda: build_gamma(3, 12, [3]),
        lambda: build_delta(1, 6),  # dim < 2: only the edge pass isomorphism search uses
    ],
    ids=["delta38", "delta47", "B318", "gamma3_12_3", "delta16"],
)
def test_edge_and_ridge_passes_match_closure_oracle(build):
    c = build()
    census = coface_counts(c.facets, 2)
    degrees = {e: sum(1 for f in c.facets if set(e) <= set(f)) for e in census}
    assert dict(c.edge_incidence()) == {e: (census[e], degrees[e]) for e in census}
    if c.dim >= 2:
        assert edge_link_census(c) == census
    else:
        with pytest.raises(InvalidParameters):
            edge_link_census(c)
    ridges = coface_counts(c.facets, c.dim)
    assert c.boundary().facets == {r for r, k in ridges.items() if k == 1}
    assert topology_report(c).closed_pseudomanifold == all(k == 2 for k in ridges.values())
