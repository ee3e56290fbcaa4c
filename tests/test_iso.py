"""Fingerprints, automorphism enumeration, and isomorphism search."""

from __future__ import annotations

import itertools

import pytest

from csspheres.builders import build_B, build_delta, build_lambda, cross_polytope
from csspheres.core import Complex, simplex, suspension
from csspheres.errors import SearchBudgetExceeded
from csspheres.props import edge_link_census
from csspheres.iso import (
    antipodal_map,
    apply_vertex_map,
    automorphisms,
    identity_map,
    isomorphic,
    necessary_conditions,
    vertex_fingerprints,
)

from oracles import brute_force_automorphisms, brute_force_isomorphism


def test_fingerprints_cross_polytope():
    fps = vertex_fingerprints(cross_polytope(4))
    assert len(set(fps.values())) == 1  # vertex-transitive


def test_fingerprints_delta38():
    fps = vertex_fingerprints(build_delta(3, 8))
    # the census table separates 1 from 2: vertex 2 sees the length-11 link
    # of {2,3} while vertex 1 sees only the length-12 link of {1,2}
    assert fps[1] == fps[-1] and fps[2] == fps[-2]
    assert fps[1] != fps[2]
    assert fps[1] != fps[5] and fps[2] != fps[5]
    assert max(fps[1].incident_link_sizes) == 12
    assert 11 in fps[2].incident_link_sizes
    # invariant under the antipodal relabeling
    assert all(fps[v] == fps[-v] for v in fps)


def test_automorphisms_cross():
    auts = automorphisms(cross_polytope(3))
    assert len(auts) == 48  # signed permutations: 2^3 * 3!
    ids = identity_map(cross_polytope(3))
    assert ids in auts and antipodal_map(cross_polytope(3)) in auts
    for m in auts[:10]:
        assert apply_vertex_map(m, cross_polytope(3)) == cross_polytope(3)


def test_automorphisms_delta():
    for n in (7, 8):
        d = build_delta(3, n)
        auts = automorphisms(d)
        assert auts == sorted(
            [identity_map(d), antipodal_map(d)],
            key=lambda m: tuple((abs(m[v]), m[v] < 0) for v in sorted(m, key=lambda x: (abs(x), x < 0))),
        )


def test_automorphisms_small_sphere_exception():
    # the 6-pair sphere has an extra symmetry swapping ±{1,2} with ±{5,6}
    auts = automorphisms(build_delta(3, 6))
    assert len(auts) == 4


def test_isomorphic_lambda_delta():
    for n in (4, 5, 6):
        lam, d = build_lambda(3, n), build_delta(3, n)
        witness = isomorphic(lam, d)
        assert witness is not None
        assert apply_vertex_map(witness, lam, d.ambient_n) == d
    assert isomorphic(build_lambda(3, 7), build_delta(3, 7)) is None


def test_isomorphic_relabeled():
    d = build_delta(3, 6)
    relabeled = apply_vertex_map(antipodal_map(d), d)
    w = isomorphic(d, relabeled)
    assert w is not None
    # composing the witness with itself through the map identity checks out
    assert apply_vertex_map(w, d) == relabeled


def test_necessary_conditions_cascade():
    a = build_delta(3, 6)
    b = build_delta(3, 7)
    names = [name for name, ok in necessary_conditions(a, b) if not ok]
    assert "f-vector" in names
    assert isomorphic(a, b) is None


def test_agrees_with_brute_force_on_small_fixtures():
    fixtures = [
        cross_polytope(2),
        simplex([1, 2, 3, 4], 4).boundary(),
        suspension(simplex([1, 2, 3], 5).boundary(), (4, 5)),
        build_B(3, 1, 4),
        build_delta(1, 4),
        Complex([(1, 2), (2, 3), (3, 4)], 4),
    ]
    for c in fixtures:
        assert len(c.vertices()) <= 8
        fast = automorphisms(c)
        slow = brute_force_automorphisms(c.facets, c.vertices())
        assert len(fast) == len(slow), c
    for a, b in itertools.combinations(fixtures, 2):
        fast = isomorphic(a, b)
        slow = brute_force_isomorphism(a.facets, a.ambient_n, b.facets)
        assert (fast is None) == (slow is None), (a, b)
    # a relabeled twin must be found isomorphic by both routes
    twin = Complex([(10, 20), (20, 30), (30, 40)], 40)
    path = Complex([(1, 2), (2, 3), (3, 4)], 4)
    assert isomorphic(path, twin) is not None
    assert brute_force_isomorphism(path.facets, 4, twin.facets) is not None


def test_every_witness_is_a_real_map():
    lam, d = build_lambda(3, 5), build_delta(3, 5)
    w = isomorphic(lam, d)
    assert sorted(w.keys(), key=lambda v: (abs(v), v < 0)) == list(lam.vertices())
    assert sorted(w.values(), key=lambda v: (abs(v), v < 0)) == list(d.vertices())
    inverse = {b: a for a, b in w.items()}
    assert all(inverse[w[v]] == v for v in w)


def test_budget():
    d = build_delta(3, 9)
    with pytest.raises(SearchBudgetExceeded):
        automorphisms(d, budget=2)
    assert len(automorphisms(d, budget=10**7)) == 2


def test_degenerate_inputs():
    assert automorphisms(Complex([], 3)) == [{}]
    assert isomorphic(Complex([], 3), Complex([], 5)) == {}
    assert isomorphic(Complex([[]], 3), Complex([], 3)) is None


def test_second_isomorphic_call_makes_no_link_calls(monkeypatch):
    # fresh objects, so no invariant is memoised from an earlier test
    a = Complex(build_delta(3, 8).facets, 8)
    b = a.relabel(lambda v: -v if abs(v) % 3 == 0 else v, 8)
    calls = []
    original = Complex.link

    def counted(self, face):
        calls.append(face)
        return original(self, face)

    monkeypatch.setattr(Complex, "link", counted)
    assert isomorphic(a, b) is not None
    first = len(calls)
    assert first > 0
    assert isomorphic(a, b) is not None
    assert len(calls) == first


def test_memoised_invariants_are_handed_out_read_only():
    c = Complex(build_delta(3, 7).facets, 7)
    vertex_fingerprints(c).clear()
    assert len(vertex_fingerprints(c)) == 14
    edge_link_census(c).clear()
    assert len(edge_link_census(c)) == 2 * 7 * 6
    with pytest.raises(TypeError):
        c.edge_incidence()[(1, 2)] = (0, 0)
