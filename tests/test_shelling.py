"""Shelling verification against a purity-based oracle, plus the explicit
symmetric shellings."""

from __future__ import annotations

import random

import pytest

from csspheres.builders import build_B, build_delta, cross_polytope, squeezed_ball
from csspheres.core import antipode_face, canon_face, simplex
from csspheres.errors import InvalidParameters
from csspheres.shelling import is_shelling, shelling_B42, symmetric_shelling_delta3

from oracles import is_shelling_by_purity


def test_single_facet_trivial():
    s = simplex([1, 2, 3], 3)
    res = is_shelling(s, [(1, 2, 3)])
    assert res.valid and res.restriction_faces == ((),)


def test_not_permutation_and_not_pure():
    s = simplex([1, 2, 3], 3).boundary()
    with pytest.raises(InvalidParameters, match="not a permutation of the facet set"):
        is_shelling(s, [(1, 2), (1, 3)])
    with pytest.raises(InvalidParameters, match="not a permutation of the facet set"):
        is_shelling(s, [(1, 2), (1, 2), (1, 3)])
    from csspheres.core import Complex

    with pytest.raises(InvalidParameters, match="shellings are defined for pure complexes"):
        is_shelling(Complex([(1, 2, 3), (4,)], 4), [(1, 2, 3), (4,)])


def test_failure_position_reported():
    # two far-apart triangles of an octahedron cannot start a shelling
    octa = cross_polytope(3)
    order = sorted(octa.facets, key=lambda f: tuple((abs(v), v < 0) for v in f))
    first = canon_face((1, 2, 3))
    opposite = canon_face((-1, -2, -3))
    rest = [f for f in order if f not in (first, opposite)]
    res = is_shelling(octa, [first, opposite] + rest)
    assert not res.valid and res.failed_at == 1


def test_verifier_agrees_with_purity_oracle():
    rng = random.Random(42)
    fixtures = [
        simplex([1, 2, 3, 4], 4).boundary(),
        cross_polytope(2),
        cross_polytope(3),
        build_B(3, 1, 5),
        build_B(2, 1, 6),
        squeezed_ball(2, 6),
        build_delta(2, 4),
    ]
    for c in fixtures:
        facets = list(c.sorted_facets())
        assert len(facets) <= 12
        orders = [facets, facets[::-1]]
        for _ in range(12):
            shuffled = facets[:]
            rng.shuffle(shuffled)
            orders.append(shuffled)
        for order in orders:
            fast = is_shelling(c, order).valid
            slow = is_shelling_by_purity(order)
            assert fast == slow, (c, order)


@pytest.mark.parametrize("n", range(4, 10))
def test_symmetric_shelling_delta3(n):
    d = build_delta(3, n)
    res = is_shelling(d, symmetric_shelling_delta3(n))
    assert res.valid
    m = len(res.facets) // 2
    assert m == n * n - 2 * n
    # symmetric shape: second half is the reversed antipodal first half
    for j in range(m):
        assert res.facets[m + j] == antipode_face(res.facets[m - 1 - j])
    # no antipodal pair inside the first half
    first = set(res.facets[:m])
    assert not any(antipode_face(f) in first for f in first)


def test_symmetric_shelling_restriction_faces():
    n = 7
    res = is_shelling(build_delta(3, n), symmetric_shelling_delta3(n))
    # ball block: restriction faces are single vertices (after the root)
    block = 2 * n - 3
    assert res.restriction_faces[0] == ()
    assert all(len(r) == 1 for r in res.restriction_faces[1:block])
    # shell blocks: the two lead facets pin the edges from the construction
    for k in range(n, 4, -1):
        fk1 = canon_face((-(k - 3), -(k - 2), -(k - 1), k))
        fk2 = canon_face((1, -(k - 3), -(k - 1), k))
        assert res.restriction_faces[res.facets.index(fk1)] == canon_face((-(k - 3), -(k - 1)))
        assert res.restriction_faces[res.facets.index(fk2)] == canon_face((1, -(k - 3)))
    # closers
    assert res.restriction_faces[res.facets.index(canon_face((-1, -2, -3, 4)))] == (-1, -3)
    assert res.restriction_faces[res.facets.index(canon_face((1, -2, 3, -4)))] == (3, -4)
    assert res.restriction_faces[res.facets.index(canon_face((1, 2, -3, 4)))] == (2, -3)
    # everything after the ball block restricts to a 2-face or larger only in
    # the second half; within the first half restrictions are edges
    m = len(res.facets) // 2
    assert all(len(r) == 2 for r in res.restriction_faces[block:m])


def test_second_half_restrictions_are_complements():
    n = 6
    res = is_shelling(build_delta(3, n), symmetric_shelling_delta3(n))
    m = len(res.facets) // 2
    for j in range(m):
        mirrored = antipode_face(res.restriction_faces[m - 1 - j])
        expected = set(res.facets[m + j]) - set(mirrored)
        assert set(res.restriction_faces[m + j]) == expected


def test_reverse_of_sphere_shelling_is_shelling():
    for n in (4, 5, 6):
        d = build_delta(3, n)
        assert is_shelling(d, symmetric_shelling_delta3(n)[::-1]).valid


def test_shelling_b42():
    for n in range(5, 9):
        b = build_B(4, 2, n)
        order = shelling_B42(n)
        assert set(order) == b.facets
        assert is_shelling(b, order).valid
    with pytest.raises(InvalidParameters):
        shelling_B42(4)
    with pytest.raises(InvalidParameters):
        symmetric_shelling_delta3(3)
