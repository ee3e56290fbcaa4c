"""Canonical forms, automorphism enumeration, isomorphism witnesses and the
cheap necessary conditions that the `iso` command prints first."""

from __future__ import annotations

import functools
import gc
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csspheres import iso
from csspheres.builders import build_B, build_delta, build_lambda, cross_polytope
from csspheres.core import Complex, is_cs, simplex, sort_face
from csspheres.errors import SearchBudgetExceeded
from csspheres.flips import build_gamma
from csspheres.props import cs_neighborliness, edge_link_census, stackedness
from csspheres.sew3 import build_delta_I, enum_I
from csspheres.iso import automorphisms, canonical_form, isomorphic, necessary_conditions

from oracles import brute_force_automorphisms, brute_force_isomorphism, suspension


def test_automorphisms_cross():
    octa = cross_polytope(3)
    auts = automorphisms(octa)
    assert len(auts) == 48  # signed permutations: 2^3 * 3!
    assert {v: v for v in octa.vertices()} in auts and {v: -v for v in octa.vertices()} in auts
    for m in auts[:10]:
        assert octa.relabel(m.__getitem__, 3) == octa


def test_automorphisms_delta():
    for n in (7, 8):
        d = build_delta(3, n)
        auts = automorphisms(d)
        assert auts == sorted(
            [{v: v for v in d.vertices()}, {v: -v for v in d.vertices()}],
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
        assert lam.relabel(witness.__getitem__, d.ambient_n) == d
    assert isomorphic(build_lambda(3, 7), build_delta(3, 7)) is None


def test_isomorphic_relabeled():
    d = build_delta(3, 6)
    relabeled = d.antipode()
    w = isomorphic(d, relabeled)
    assert w is not None
    # composing the witness with itself through the map identity checks out
    assert d.relabel(w.__getitem__, d.ambient_n) == relabeled


def test_necessary_conditions_cascade():
    a = build_delta(3, 6)
    b = build_delta(3, 7)
    names = [name for name, ok in necessary_conditions(a, b) if not ok]
    assert "f-vector" in names
    assert isomorphic(a, b) is None


def _maps_onto(w, a, b) -> bool:
    return w is not None and {sort_face(w[v] for v in f) for f in a.facets} == b.facets


def test_agrees_with_brute_force_on_small_fixtures():
    fixtures = [
        cross_polytope(2),
        cross_polytope(3),
        simplex([1, 2, 3, 4], 4).boundary(),
        Complex(suspension(simplex([1, 2, 3], 5).boundary().facets, (4, 5)), 5),
        build_B(3, 1, 4),
        build_delta(1, 4),
        build_lambda(1, 4),  # an 8-cycle, like build_delta(1, 4)
        build_delta(3, 4),
        Complex([(1, 2), (2, 3), (3, 4)], 4),
    ]
    for c in fixtures:
        assert len(c.vertices()) <= 8
        fast = automorphisms(c)
        slow = brute_force_automorphisms(c.facets, c.vertices())
        assert {frozenset(m.items()) for m in fast} == {frozenset(m.items()) for m in slow}, c
        assert len(fast) == len(slow), c
    for a, b in itertools.combinations(fixtures, 2):
        fast = isomorphic(a, b)
        slow = brute_force_isomorphism(a.facets, a.ambient_n, b.facets)
        assert (canonical_form(a) == canonical_form(b)) == (slow is not None), (a, b)
        assert (fast is None) == (slow is None), (a, b)
        assert fast is None or _maps_onto(fast, a, b), (a, b)
    # a relabeled twin must be found isomorphic by both routes
    twin = Complex([(10, 20), (20, 30), (30, 40)], 40)
    path = Complex([(1, 2), (2, 3), (3, 4)], 4)
    assert isomorphic(path, twin) is not None
    assert brute_force_isomorphism(path.facets, 4, twin.facets) is not None


SEED_FIXTURES = {
    "cross2": functools.partial(cross_polytope, 2),
    "cross3": functools.partial(cross_polytope, 3),
    "delta1_4": functools.partial(build_delta, 1, 4),
    "delta2_4": functools.partial(build_delta, 2, 4),
    "delta3_4": functools.partial(build_delta, 3, 4),
    # vertex sets closed under negation, facet sets not: v -> -v is no automorphism
    "path": lambda: Complex([(1, 2), (2, -1), (-1, -2)], 2),
    "cross3_less_one": lambda: Complex(sorted(cross_polytope(3).facets)[1:], 3),
    "delta3_4_less_one": lambda: Complex(sorted(build_delta(3, 4).facets)[1:], 4),
}


@pytest.mark.parametrize("name", SEED_FIXTURES)
def test_antipodal_seed_keeps_forms_groups_and_witnesses(name, monkeypatch):
    """The search starts from the antipodal map exactly on a cs complex: it
    finds the form of the unseeded search, the brute-force group and valid
    witnesses, in fewer nodes; otherwise it is the unseeded search."""
    c = SEED_FIXTURES[name]()
    verts = list(c.vertices())
    image = verts[:]
    random.Random(name).shuffle(image)
    twin = c.relabel(dict(zip(verts, image)).__getitem__, c.ambient_n)
    seeded = iso._search(c, None)
    slow = brute_force_automorphisms(c.facets, verts)
    assert {frozenset(m.items()) for m in automorphisms(c)} == {frozenset(m.items()) for m in slow}
    assert _maps_onto(isomorphic(c, twin), c, twin)
    monkeypatch.setattr(iso, "is_cs", lambda c: False)
    unseeded = iso._search(c, None)
    assert seeded.form == unseeded.form
    if is_cs(c):
        assert seeded.nodes < unseeded.nodes
    else:
        assert seeded == unseeded


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
        automorphisms(d, budget=1)
    assert len(automorphisms(d, budget=10**7)) == 2


def test_degenerate_inputs():
    assert automorphisms(Complex([], 3)) == [{}]
    assert isomorphic(Complex([], 3), Complex([], 5)) == {}
    assert isomorphic(Complex([[]], 3), Complex([], 3)) is None


def test_isomorphic_makes_no_link_calls_and_searches_once(monkeypatch):
    # fresh objects, so no search is memoised from an earlier test
    a = Complex(build_delta(3, 8).facets, 8)
    b = a.relabel(lambda v: -v if abs(v) % 3 == 0 else v, 8)
    links, searches = [], []
    original_link, original_search = Complex.link, iso._search

    def counted_link(self, face):
        links.append(face)
        return original_link(self, face)

    def counted_search(c, budget):
        searches.append(c)
        return original_search(c, budget)

    monkeypatch.setattr(Complex, "link", counted_link)
    monkeypatch.setattr(iso, "_search", counted_search)
    assert isomorphic(a, b) is not None
    assert len(searches) == 2
    assert isomorphic(a, b) is not None
    assert automorphisms(a) and canonical_form(b)
    assert len(searches) == 2 and links == []


def test_memoised_invariants_are_handed_out_read_only():
    c = Complex(build_delta(3, 7).facets, 7)
    edge_link_census(c).clear()
    assert len(edge_link_census(c)) == 2 * 7 * 6
    with pytest.raises(TypeError):
        c.edge_incidence()[(1, 2)] = (0, 0)


RELABELLING_FIXTURES = {
    **{f"delta3_{n}": functools.partial(build_delta, 3, n) for n in range(4, 10)},
    **{f"B31_{n}": functools.partial(build_B, 3, 1, n) for n in (5, 7)},
    **{f"lambda3_{n}": functools.partial(build_lambda, 3, n) for n in (5, 7, 8)},
    **{f"gamma2_10_J{''.join(map(str, j))}": functools.partial(build_gamma, 2, 10, j)
       for j in ((), (3,), (4,), (3, 5))},
    **{f"delta_I10_I{''.join(map(str, s.indices))}": functools.partial(build_delta_I, s) for s in enum_I(10)},
}


@pytest.mark.parametrize("name", RELABELLING_FIXTURES)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_relabelling_leaves_the_canonical_form_unchanged(name, data):
    c = RELABELLING_FIXTURES[name]()
    verts = list(c.vertices())
    if data.draw(st.booleans(), label="signed"):
        # a signed permutation of the antipodal pairs keeps v -> -v an involution
        pairs = [v for v in verts if v > 0]
        image = data.draw(st.permutations(pairs))
        signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=len(pairs), max_size=len(pairs)))
        sigma = {v: s * w for v, w, s in zip(pairs, image, signs)}
        sigma.update({-v: -w for v, w in sigma.items()})
    else:
        sigma = dict(zip(verts, data.draw(st.permutations(verts))))
    relabelled = c.relabel(sigma.__getitem__, c.ambient_n)
    assert canonical_form(relabelled) == canonical_form(c)
    w = isomorphic(c, relabelled)
    assert _maps_onto(w, c, relabelled)


def test_isomorphic_on_cross_polytopes_stays_within_budget():
    for n in range(3, 8):
        c = cross_polytope(n)
        shifted = c.relabel(lambda v: (abs(v) % n + 1) * (1 if v < 0 else -1), n)
        assert _maps_onto(isomorphic(c, shifted, budget=100), c, shifted), n


def test_budget_bounds_the_automorphisms_listed():
    # the tree of cross_polytope(6) has 42 nodes, its group 46 080 elements
    with pytest.raises(SearchBudgetExceeded):
        automorphisms(cross_polytope(6), budget=100)
    assert len(automorphisms(cross_polytope(3), budget=48)) == 48


def test_budget_verdict_does_not_depend_on_the_cache():
    c = Complex(build_delta(3, 9).facets, 9)
    assert len(automorphisms(c)) == 2
    with pytest.raises(SearchBudgetExceeded):
        automorphisms(c, budget=1)
    with pytest.raises(SearchBudgetExceeded):
        isomorphic(c, c, budget=1)


def test_witness_is_checked_against_the_facets():
    # two non-isomorphic complexes with equal vertex and facet counts, one
    # of them handed the other's canonical form
    a = Complex([(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 3)], 5)
    b = Complex([(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (2, 4)], 5)
    c = Complex([(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 3)], 5)
    assert isomorphic(a, b) is not None and isomorphic(a, c) is None
    forged = iso._canon(c, None)._replace(form=canonical_form(a))
    c._cache["iso.canon"] = forged
    with pytest.raises(RuntimeError):
        isomorphic(a, c)


def test_necessary_conditions_stop_at_the_first_failure(monkeypatch):
    a, b = Complex(build_delta(3, 6).facets, 6), Complex(build_delta(3, 7).facets, 7)
    links = []
    original = Complex.link
    monkeypatch.setattr(Complex, "link", lambda self, face: links.append(face) or original(self, face))
    checks = necessary_conditions(a, b)
    assert next(checks) == ("f-vector", False)
    assert "edges" not in a._cache and "edges" not in b._cache
    assert [name for name, _ in checks] == ["edge-link census multiset"]
    assert links == []


def _latin_square_graph(rows: list[str], offset: int) -> list[tuple[int, int]]:
    """Cells of a Latin square, adjacent when they share a row, a column or a symbol."""
    cells = [(r, c, rows[r][c]) for r in range(len(rows)) for c in range(len(rows))]
    return [
        (offset + i, offset + j)
        for (i, a), (j, b) in itertools.combinations(enumerate(cells, 1), 2)
        if any(x == y for x, y in zip(a, b))
    ]


def _shuffled(c: Complex, seed: int) -> Complex:
    verts = list(c.vertices())
    image = verts[:]
    random.Random(seed).shuffle(image)
    return c.relabel(dict(zip(verts, image)).__getitem__, c.ambient_n)


@pytest.mark.parametrize(
    "name, seeds",
    [("cycles_3_4_5", range(100)), ("latin_squares_5", (13, 22))],
    ids=["cycles_3_4_5", "latin_squares_5"],
)
def test_canonical_form_where_refinement_splits_nothing(name, seeds):
    # regular graphs as 1-dimensional complexes: every vertex keeps one
    # colour until the search individualises, so the tree is deep and its
    # pruning decides the answer
    if name == "cycles_3_4_5":
        c = Complex([(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 7), (7, 4),
                     (8, 9), (9, 10), (10, 11), (11, 12), (12, 8)], 12)
    else:
        # the two main classes of Latin squares of order 5 give strongly
        # regular graphs with equal parameters, which refinement cannot tell apart
        other = _latin_square_graph(["01234", "10342", "23401", "34120", "42013"], 0)
        cyclic = _latin_square_graph(["01234", "12340", "23401", "34012", "40123"], 25)
        c = Complex(other + cyclic, 50)
        assert canonical_form(Complex(other, 25)) != canonical_form(Complex(cyclic, 50))
    for seed in seeds:
        relabelled = _shuffled(c, seed)
        assert canonical_form(relabelled) == canonical_form(c), seed
        assert _maps_onto(isomorphic(c, relabelled), c, relabelled), seed


@pytest.mark.parametrize(
    "make, call",
    [
        (lambda: build_gamma(3, 14, (3,)), canonical_form),
        (lambda: build_delta(7, 12), cs_neighborliness),
        (lambda: build_B(7, 3, 12), stackedness),
    ],
    ids=["canonical_form", "cs_neighborliness", "stackedness"],
)
def test_recursive_searches_leave_no_reference_cycles(make, call):
    """A nested function that recursed through its own closure cell would
    keep its scope alive until the cyclic collector ran."""
    c = make()
    c = Complex(c.facets, c.ambient_n)  # fresh caches
    gc.collect()
    gc.disable()
    try:
        call(c)
        assert gc.collect() == 0
    finally:
        gc.enable()
