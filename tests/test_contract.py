"""The integer contract: every public callable that takes an int refuses one
that is no int (bool included) or out of range with a `CsspheresError`,
before it allocates, and gives the same verdict on a cold and a warm cache."""

from __future__ import annotations

import re
import tracemalloc
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csspheres
from csspheres import builders
from csspheres.builders import (
    build_B,
    build_delta,
    build_lambda,
    cross_polytope,
    squeezed_ball,
    squeezed_facet_family,
)
from csspheres.core import Complex, canon_face, cone, face_key, from_walk, simplex, vertex_key
from csspheres.errors import CsspheresError, InvalidParameters
from csspheres.flips import build_gamma, fg_pair
from csspheres.iso import automorphisms, isomorphic
from csspheres.props import census_at_least, cs_neighborliness, edge_link_census, enum_S, facet_necessary_check
from csspheres.sew3 import MIN_N, IndexSet, enum_I
from csspheres.shelling import shelling_B42, symmetric_shelling_delta3

HOSTILE = (6.0, 2.5, True, False, "3", None, [3], -1, 10**30)

# Each public callable that takes an int, a vertex label included, as a call
# of its int arguments alone, and arguments it admits.  Complexes are built
# inside the call, after the memo is cleared, so that a cold call meets an
# empty cache.  The sort keys `vertex_key`, `face_key` and `sort_face` are
# left out: they order labels that `canon_face` has already admitted, and
# check nothing.
CASES = {
    "cross_polytope": (cross_polytope, (3,)),
    "build_delta": (build_delta, (3, 6)),
    "build_B": (build_B, (3, 1, 6)),
    "build_lambda": (build_lambda, (1, 3)),
    "squeezed_facet_family": (squeezed_facet_family, (2, 5)),
    "squeezed_ball": (squeezed_ball, (2, 5)),
    "Complex": (lambda v, n: Complex([(1, v)], n), (2, 2)),
    "Complex.has_face": (lambda v: cross_polytope(3).has_face((1, v)), (2,)),
    "Complex.link": (lambda v: cross_polytope(3).link((v,)), (2,)),
    "Complex.relabel": (lambda n: simplex((1, 2), 2).relabel(lambda v: -v, n), (2,)),
    "Complex.with_ambient": (lambda n: simplex((1, 2), 2).with_ambient(n), (3,)),
    "simplex": (lambda v, n: simplex((1, v), n), (2, 2)),
    "from_walk": (lambda v, n: from_walk([1, v, 3], n), (2, 3)),
    "canon_face": (lambda v: canon_face((1, v)), (2,)),
    "cone": (lambda apex: cone(simplex((1, 2), 2), apex), (3,)),
    "fg_pair": (fg_pair, (3, 3)),
    "build_gamma": (lambda k, n, i: build_gamma(k, n, (i,)), (2, 8, 3)),
    "isomorphic": (lambda budget: isomorphic(cross_polytope(3), cross_polytope(3), budget), (1000,)),
    "isomorphic_of_unequal_sizes": (lambda budget: isomorphic(cross_polytope(2), cross_polytope(3), budget), (1000,)),
    "automorphisms": (lambda budget: automorphisms(cross_polytope(3), budget), (1000,)),
    "cs_neighborliness": (lambda g: cs_neighborliness(cross_polytope(3), [1, g]), (2,)),
    "census_at_least": (lambda t: census_at_least(edge_link_census(cross_polytope(3)), t), (4,)),
    "facet_necessary_check": (lambda v: facet_necessary_check((1, v)), (2,)),
    "enum_S": (enum_S, (2, 6)),
    "IndexSet": (lambda n, i: IndexSet(n, (i,)), (12, 3)),
    "enum_I": (enum_I, (10,)),
    "symmetric_shelling_delta3": (symmetric_shelling_delta3, (5,)),
    "shelling_B42": (shelling_B42, (6,)),
}


def _outcome(call, args):
    """What `call(*args)` returns, or the type and message of the
    `CsspheresError` it raises, within a traced peak of 64 MiB."""
    tracemalloc.start()
    try:
        try:
            outcome = ("returned", call(*args))
        except CsspheresError as exc:
            outcome = (type(exc), str(exc))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, (args, peak)
    return outcome


def _check(name: str, args: tuple) -> None:
    """Cold, then after a valid call has warmed the cache: the same verdict."""
    call, valid = CASES[name]
    builders.cache_clear()
    cold = _outcome(call, args)
    call(*valid)
    assert _outcome(call, args) == cold, (name, args)


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_int_position_takes_every_hostile_value(name):
    valid = CASES[name][1]
    for position in range(len(valid)):
        for value in HOSTILE:
            _check(name, valid[:position] + (value,) + valid[position + 1:])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_hostile_values_in_several_positions_at_once(data):
    name = data.draw(st.sampled_from(sorted(CASES)))
    args = tuple(data.draw(st.sampled_from((v, *HOSTILE))) for v in CASES[name][1])
    _check(name, args)


def test_a_float_or_bool_size_is_refused_whatever_is_cached():
    builders.cache_clear()
    for _ in range(2):  # cold, then with build_delta(3, 6) in the memo
        with pytest.raises(InvalidParameters, match=re.escape("build_delta requires n to be an int, got 6.0")):
            build_delta(3, 6.0)
        build_delta(3, 6)
    build_delta(1, 4)
    with pytest.raises(InvalidParameters, match="build_delta requires d to be an int, got True$"):
        build_delta(True, 4)  # at the parent, the cycle Delta(1, 4)
    with pytest.raises(InvalidParameters, match=re.escape("fg_pair requires i to be an int, got 4.0")):
        fg_pair(3, 4.0)  # at the parent, float labels


def test_sort_keys_check_nothing_and_stay_exported():
    # as their docstrings say: a label without `abs` is a TypeError, and
    # neither key is a check that a label is admitted
    assert {"vertex_key", "face_key"} <= set(csspheres.__all__)
    for bad in ("3", None):
        with pytest.raises(TypeError):
            vertex_key(bad)
        with pytest.raises(TypeError):
            face_key([1, bad])
    assert vertex_key(-3) == (3, True) and face_key((1, -1, 2)) == (2, 3, 4)


def test_build_gamma_checks_its_indices_before_sorting_them():
    with pytest.raises(InvalidParameters, match="build_gamma requires index to be an int, got '3'$"):
        build_gamma(2, 8, [3, "3"])  # mixed types do not sort


@pytest.mark.parametrize("budget", [2.5, True, "3", [3], -1])
def test_search_budget_is_checked_before_the_memo(budget):
    c = build_delta(3, 6)
    for _ in range(2):  # cold, then with the search memoised on c
        for search in (lambda: isomorphic(c, c, budget), lambda: automorphisms(c, budget)):
            with pytest.raises(InvalidParameters, match="^(isomorphic|automorphisms) requires budget"):
                search()
        automorphisms(c)


def test_enumerators_refuse_sizes_they_cannot_list():
    # enum_I lists 2^(n-9) + 1 sets, so n stops at MIN_N + 19 (2^20 + 1 sets)
    assert [len(enum_I(n)) for n in (10, 12, 14, 16)] == [3, 9, 33, 129]
    with pytest.raises(InvalidParameters, match=f"enum_I requires n <= {MIN_N + 19}, got {MIN_N + 20}$"):
        enum_I(MIN_N + 20)
    # enum_S lists 2^k C(n-2k+1, m) members for each m = 1..k, at most 2^20 in all
    for k, n in [(1, 2), (2, 6), (3, 9), (3, 12)]:
        members = sum(len(by_m) for by_m in enum_S(k, n).values())
        assert members == 2**k * sum(comb(n - 2 * k + 1, m) for m in range(1, k + 1))
    for k, n in [(5, 10**9), (10, 40)]:
        with pytest.raises(InvalidParameters, match=re.escape(f"enum_S({k}, {n}) would list more than 2^20 members")):
            enum_S(k, n)
    with pytest.raises(InvalidParameters, match="enum_S requires k <= 20, got 21$"):
        enum_S(21, 42)
    # fg_pair stops at the largest k with a build_delta(2k - 1, .) sphere
    assert len(fg_pair(11, 5).g) == 12
    with pytest.raises(InvalidParameters, match="fg_pair requires k <= 11, got 12$"):
        fg_pair(12, 5)
