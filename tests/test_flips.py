"""Bistellar flips: the generic move, the (F_i, G_i) pairs, and the flipped spheres."""

from __future__ import annotations

import pytest

from csspheres.builders import build_delta, cross_polytope
from csspheres.core import Complex, simplex, topology_report
from csspheres.errors import InvalidParameters
from csspheres.flips import bistellar_flip, build_gamma, fg_pair
from csspheres.props import cs_neighborliness, is_cs

from oracles import closure, suspension


def test_bistellar_flip_bipyramid():
    bp = Complex(suspension(simplex([1, 2, 3], 5).boundary().facets, (4, 5)), 5)
    out = bistellar_flip(bp, (1, 2), (4, 5))
    assert (1, 4, 5) in out.facets and (2, 4, 5) in out.facets
    assert (1, 2, 4) not in out.facets and (1, 2, 5) not in out.facets
    assert topology_report(out).is_sphere()
    # flipping back restores the original
    assert bistellar_flip(out, (4, 5), (1, 2)) == bp


def test_bistellar_flip_errors():
    bd = simplex([1, 2, 3, 4], 4).boundary()
    with pytest.raises(InvalidParameters, match="already in complex"):
        bistellar_flip(bd, (1,), (2, 3, 4))
    with pytest.raises(InvalidParameters, match="not in complex"):
        bistellar_flip(bd, (1, 2, 3, 4), (1, 2))
    bp = Complex(suspension(simplex([1, 2, 3], 6).boundary().facets, (4, 5)), 6)
    with pytest.raises(InvalidParameters, match="is not the boundary of the simplex"):
        bistellar_flip(bp, (4,), (1, 6))  # vertex 6 absent, link of 4 is a triangle


def test_fg_pair_values():
    p = fg_pair(2, 3)
    assert p.f == (3, 6) and p.g == (2, 4, 8)
    p = fg_pair(3, 4)
    assert p.f == (4, 7, 11) and p.g == (3, 5, 9, 13)
    for k in range(2, 6):
        p = fg_pair(k, 3)
        assert len(p.f) == k and len(p.g) == k + 1
    with pytest.raises(InvalidParameters):
        fg_pair(1, 3)


@pytest.mark.parametrize("k,ns", [(2, (8, 10, 13)), (3, (12, 13))])
def test_fg_links_are_simplex_boundaries(k, ns):
    for n in ns:
        delta = build_delta(2 * k - 1, n)
        for i in range(3, n - 4 * k + 3 + 1):
            pair = fg_pair(k, i)
            assert not delta.has_face(pair.g), (k, n, i)
            link = delta.link(pair.f)
            expected = {tuple(v for v in pair.g if v != drop) for drop in pair.g}
            assert link.facets == frozenset(expected), (k, n, i)


def test_flip_single_fg_on_delta():
    d = build_delta(3, 10)
    p = fg_pair(2, 3)
    out = bistellar_flip(d, p.f, p.g)
    assert len(out.facets) == len(d.facets) - 1
    assert topology_report(out).is_sphere()


def test_build_gamma_counts_and_skeleton():
    n, k = 13, 2
    delta = build_delta(3, n)

    def low_faces(c):  # the faces with at most k - 1 vertices: the (k-2)-skeleton
        return {f for f in closure(c.facets) if len(f) < k}

    for j in [(), (3,), (3, 5), (3, 5, 7)]:
        gamma = build_gamma(k, n, j)
        assert len(delta.facets) - len(gamma.facets) == 2 * len(j)
        assert is_cs(gamma)
        if j:
            assert topology_report(gamma).is_sphere()
        assert low_faces(gamma) == low_faces(delta)
    assert build_gamma(k, n, ()) == delta


def test_build_gamma_missing_faces_are_exactly_the_flipped_ones():
    n, k = 13, 2
    gamma = build_gamma(k, n, (3, 6))
    for i in (3, 6):
        p = fg_pair(k, i)
        assert not gamma.has_face(p.f)
        assert not gamma.has_face(tuple(-v for v in p.f))
        assert gamma.has_face(p.g)
    for i in (4, 5, 7):
        assert gamma.has_face(fg_pair(k, i).f)


def test_flip_edits_read_the_facet_bitsets():
    # a flip of the octahedron across the edge (1, 2), whose link is ∂(3, -3);
    # the edit reads the star and the missing face off the facet bitsets
    octa = Complex(cross_polytope(3).facets, 3)  # fresh caches
    out = bistellar_flip(octa, (1, 2), (3, -3))
    assert out.facets == octa.facets - {(1, 2, 3), (1, 2, -3)} | {(1, 3, -3), (2, 3, -3)}
    assert set(octa._cache) == {"facet_bits", "vertices"}, list(octa._cache)
    bd = Complex(simplex([1, 2, 3, 4], 4).boundary().facets, 4)
    with pytest.raises(InvalidParameters, match="already in complex"):
        bistellar_flip(bd, (1,), (2, 3, 4))
    assert set(bd._cache) == {"facet_bits", "vertices"}, list(bd._cache)
    gamma = build_gamma(2, 13, (3, 6))
    assert len(build_delta(3, 13).facets) - len(gamma.facets) == 4 and is_cs(gamma)


def test_gamma_neighborliness():
    gamma = build_gamma(3, 13, (3,))
    assert cs_neighborliness(gamma).max_i >= 2


def test_build_gamma_index_bounds():
    build_gamma(3, 13, (3, 4))  # [3, n-4k+3] is admissible
    with pytest.raises(InvalidParameters, match="build_gamma requires index <= 4, got 5$"):
        build_gamma(3, 13, (5,))  # G_5 would need vertex 14
    with pytest.raises(InvalidParameters, match="build_gamma requires index >= 3, got 2$"):
        build_gamma(2, 10, (2,))
