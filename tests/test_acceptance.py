"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Three sub-claims are encoded as strict xfail because the constructions
themselves rule them out (see notes in the repository history / the test
bodies): the flip-plan index 5 at (k=3, n=13), the sewn-sphere census
exclusivity at ±{2,3}, and the {id, antipode} automorphism claim at the
smallest ambient sizes n = d+3.  Each such test is paired with a green
companion that verifies the corrected fact and the intended substance.
"""

from __future__ import annotations

import itertools
import math
import time

import pytest

from csspheres.builders import (
    build_B,
    build_delta,
    build_lambda,
    cross_polytope,
    lambda_squeezed,
    rho_embed,
    sew,
    squeezed_ball,
)
from csspheres.core import (
    Complex,
    antipode_face,
    canon_face,
    cone,
    fh_vectors,
    simplex,
    suspension,
    topology_report,
)
from csspheres.errors import InvalidParameters
from csspheres.flips import build_gamma, fg_pair
from csspheres.iso import automorphisms, isomorphic
from csspheres.props import (
    cs_neighborliness,
    delta3_facet_formula,
    edge_link_census,
    enum_S,
    facet_necessary_check,
    is_cs,
    is_subcomplex,
    stackedness,
)
from csspheres.sew3 import IndexSet, build_B_I, build_T, build_delta_I, enum_I, tree_isomorphic
from csspheres.shelling import is_shelling, shelling_B42, symmetric_shelling_delta3

from oracles import (
    brute_force_automorphisms,
    brute_force_isomorphism,
    is_shelling_by_purity,
    sphere_facet_count,
)


def _report(number: int, text: str, t0: float) -> None:
    print(f"ACCEPTANCE {number:2d} PASS  {text}  [{time.time() - t0:.1f}s]")


def test_criterion_01_facet_formula():
    t0 = time.time()
    for n in range(4, 13):
        delta = build_delta(3, n)
        assert delta.facets == delta3_facet_formula(n)
        # facet count derived through Dehn-Sommerville from f_0, f_1
        assert len(delta.facets) == sphere_facet_count(2, n) == 2 * n * n - 4 * n
    _report(1, "facets(delta(3,n)) = closed formula, |facets| = 2n^2-4n, n=4..12", t0)


def test_criterion_02_neighborliness():
    t0 = time.time()
    cases = [(d, n) for d in range(1, 7) for n in range(d + 1, 11)]
    cases += [(5, 11), (5, 12)]
    for d, n in cases:
        delta = build_delta(d, n)
        assert is_cs(delta), (d, n)
        rep = cs_neighborliness(delta)
        if n == d + 1:
            assert rep.max_i == n, (d, n)  # the cross-polytope boundary
        else:
            assert rep.max_i == (d + 1) // 2, (d, n, rep.max_i)
    for k in (1, 2, 3):
        for n in range(2 * k, 11):
            delta = build_delta(2 * k - 1, n)
            assert len(delta.faces_of_card(k)) == 2**k * math.comb(n, k), (k, n)
            # facet count matches the closed form the h-symmetry forces
            assert len(delta.facets) == sphere_facet_count(k, n), (k, n)
    _report(2, "cs + cs-ceil(d/2)-neighborly for d<=6, n<=10 and (5,<=12)", t0)


def test_criterion_03_ball_suite():
    t0 = time.time()
    for d in range(1, 7):
        top = (d + 1) // 2
        for n in range(d + 1, 11):
            for i in range(0, top + 1):
                ball = build_B(d, i, n)
                assert stackedness(ball).min_i == i, (d, i, n)
                assert cs_neighborliness(ball).max_i == i, (d, i, n)
                if i <= d // 2:
                    assert not (ball.facets & ball.antipode().facets), (d, i, n)
            # containment B(d, k-1, n) in -B(d, k, n)
            for k in range(0, top + 1):
                assert is_subcomplex(build_B(d, k - 1, n), build_B(d, k, n).antipode())
            # boundary recursion and skeleton containments (d >= 2)
            if d >= 2:
                for i in range(0, d // 2 + 1):
                    lhs = build_B(d, i, n).boundary()
                    up = build_B(d - 1, i, n - 1)
                    down = build_B(d - 1, i - 1, n - 1).antipode()
                    parts = set(cone(up.boundary(), n).facets)
                    if not down.is_void:
                        parts |= cone(down.boundary(), -n).facets
                    parts |= up.with_ambient(n).difference(down.with_ambient(n)).facets
                    assert lhs.facets == frozenset(parts), (d, i, n)
                for j in range(0, d // 2 + 1):
                    rim = build_B(d, j, n).boundary()
                    for i in range(0, j + 1):
                        assert is_subcomplex(build_B(d - 1, i, n), rim), (d, i, j, n)
            # two-step expansion of the recursion
            if d >= 3:
                from csspheres.builders import eq1_expansion

                for i in range(0, top):
                    assert eq1_expansion(d, i, n) == build_B(d, i, n), (d, i, n)
            # sewn cones of step n contain the ±balls of step n+1
            if n < 10:
                c = top - 1
                ball = build_B(d, c, n)
                cones = Complex(
                    cone(ball.boundary(), n + 1).facets
                    | cone(ball.antipode().boundary(), -(n + 1)).facets,
                    n + 1,
                )
                nxt = build_B(d, c, n + 1)
                both = Complex(nxt.facets | nxt.antipode().facets, n + 1)
                assert is_subcomplex(both, cones), (d, n)
    # sphere = ball boundary, and the facet partition of the sewing history
    for k in (1, 2, 3):
        for n in range(2 * k + 1, 11):
            assert build_B(2 * k, k, n).boundary() == build_delta(2 * k - 1, n)
    for k in (2, 3):
        for n in range(2 * k, 11):
            delta = build_delta(2 * k - 1, n)
            blocks = []
            base, b0 = build_delta(2 * k - 1, 2 * k), build_B(2 * k - 1, k - 1, 2 * k)
            blocks.append(base.facets - b0.facets - b0.antipode().facets)
            for s in range(2 * k + 1, n + 1):
                prev = build_B(2 * k - 1, k - 1, s - 1)
                shell = (
                    cone(prev.boundary(), s).facets
                    | cone(prev.antipode().boundary(), -s).facets
                )
                cur = build_B(2 * k - 1, k - 1, s)
                blocks.append(shell - cur.facets - cur.antipode().facets)
            last = build_B(2 * k - 1, k - 1, n)
            blocks.append(last.facets | last.antipode().facets)
            seen: set = set()
            for blk in blocks:
                assert not (seen & blk), (k, n)
                seen |= blk
            assert seen == delta.facets, (k, n)
    _report(3, "ball suite: stackedness, neighborliness, containments, partitions (d<=6, n<=10)", t0)


def test_criterion_04_facet_conditions():
    t0 = time.time()
    for k in (1, 2, 3):
        for n in range(2 * k, 13):
            delta = build_delta(2 * k - 1, n)
            for f in delta.facets:
                assert facet_necessary_check(f), (k, n, f)
            fam = enum_S(k, n)
            assert fam.members <= delta.facets, (k, n)
            positive_facets = {f for f in delta.facets if min(f) > 0}
            assert positive_facets == {f for f in fam.members if min(f) > 0}, (k, n)
            assert len(fam.by_m[k]) == 2**k * math.comb(n - 2 * k + 1, k), (k, n)
    _report(4, "facet conditions + guaranteed families S(2k,n), k<=3, n<=12", t0)


def test_criterion_05_lambda_suite():
    t0 = time.time()
    for k in (1, 2):
        for n in range(2 * k, 11):
            lam = build_lambda(2 * k - 1, n)
            assert is_cs(lam), (k, n)
            assert cs_neighborliness(lam, range(3, n + 3)).max_i >= k, (k, n)
    for n in (4, 5, 6):
        assert isomorphic(build_lambda(3, n), build_delta(3, n)) is not None, n
    assert isomorphic(build_lambda(3, 7), build_delta(3, 7)) is None
    for n in (8, 9, 10):
        delta = build_delta(3, n)
        hits = set()
        for e in edge_link_census(delta):
            link = delta.link(e)
            ground = sorted(set(range(1, n + 1)) - {abs(v) for v in e})
            if is_cs(link) and cs_neighborliness(link, ground).max_i >= 1:
                hits.add(e)
        assert hits == {
            canon_face((1, 2)),
            canon_face((-1, -2)),
            canon_face((n - 1, n)),
            canon_face((-n + 1, -n)),
        }, n
    _report(5, "edge-link spheres: cs, cs-k-neighborly, iso/non-iso vs delta, special edges", t0)


@pytest.mark.parametrize("k", [3, 4])
def test_criterion_05_lambda_threshold_beyond_k2(k):
    """For k > 2 the edge-link sphere is a second cs-k-neighborly (2k-1)-sphere.

    It is isomorphic to Δ(2k-1, n) up to n = 2k+2 and first differs at
    n = 2k+3, the threshold criterion 5 asserts at k = 2 (n = 7).
    """
    t0 = time.time()
    for n in (2 * k + 1, 2 * k + 2, 2 * k + 3):
        lam = build_lambda(2 * k - 1, n)
        assert is_cs(lam), n
        assert cs_neighborliness(lam, range(3, n + 3)).max_i >= k, n
        same = isomorphic(lam, build_delta(2 * k - 1, n)) is not None
        assert same == (n < 2 * k + 3), n
    _report(5, f"edge-link spheres at k={k}: cs-{k}-neighborly, non-iso to delta first at n={2 * k + 3}", t0)


def test_criterion_06_squeezed_embedding():
    t0 = time.time()
    for k, n_hi in [(1, 8), (2, 7), (3, 6)]:
        for n in range(k + 1, n_hi + 1):
            image = rho_embed(squeezed_ball(k, n))
            lam = build_lambda(2 * k - 1, 2 * n - 1)
            assert is_subcomplex(image.with_ambient(lam.ambient_n), lam), (k, n)
    _report(6, "squeezed balls embed via i -> 2i+1, (k,n) in (1,<=8),(2,<=7),(3,<=6)", t0)


def test_criterion_07_flip_links():
    t0 = time.time()
    for k, n_lo in [(2, 8), (3, 12)]:
        for n in range(n_lo, 14):
            delta = build_delta(2 * k - 1, n)
            for i in range(3, n - 4 * k + 3 + 1):
                pair = fg_pair(k, i)
                assert not delta.has_face(pair.g), (k, n, i)
                expected = frozenset(
                    tuple(v for v in pair.g if v != drop) for drop in pair.g
                )
                assert delta.link(pair.f).facets == expected, (k, n, i)
    _report(7, "flip pairs: lk(F_i) = simplex boundary on G_i, G_i absent (k=2,3, n<=13)", t0)


@pytest.mark.xfail(
    strict=True,
    reason="spec defect: at k=3, n=13 the admissible flip indices are [3, 4] "
    "(G_5 = {4,6,10,14} needs the vertex 14), so J over {3,4,5} cannot be "
    "realized; the full 8-subset family is verified at n=15 instead",
)
def test_criterion_07_gamma_family_as_stated():
    subsets = [tuple(j) for r in range(4) for j in itertools.combinations((3, 4, 5), r)]
    gammas = {}
    failures = []
    for j in subsets:
        try:
            gammas[j] = build_gamma(3, 13, j)
        except InvalidParameters as exc:
            failures.append((j, str(exc)))
    delta = build_delta(5, 13)
    for j, gamma in gammas.items():
        assert is_cs(gamma)
        assert topology_report(gamma).is_sphere()
        assert cs_neighborliness(gamma).max_i >= 2
        assert len(delta.facets) - len(gamma.facets) == 2 * len(j)
    print(f"ACCEPTANCE  7 FAIL  gamma family at (k=3, n=13): {len(failures)} of 8 "
          f"subsets inadmissible: {[j for j, _ in failures]}")
    assert not failures, "J over {3,4,5} is not admissible at n=13"


def test_criterion_07_gamma_family_at_admissible_n():
    t0 = time.time()
    n = 15  # smallest n with {3,4,5} inside the non-isomorphism window [3, n-4k+2]
    subsets = [tuple(j) for r in range(4) for j in itertools.combinations((3, 4, 5), r)]
    delta = build_delta(5, n)
    gammas = {}
    for j in subsets:
        gamma = build_gamma(3, n, j)
        gammas[j] = gamma
        assert is_cs(gamma), j
        assert topology_report(gamma).is_sphere(), j
        assert cs_neighborliness(gamma).max_i >= 2, j
        assert len(delta.facets) - len(gamma.facets) == 2 * len(j), j
        assert gamma.skeleton(1) == delta.skeleton(1), j
    pairs = list(itertools.combinations(subsets, 2))
    assert len(pairs) == 28
    for a, b in pairs:
        assert isomorphic(gammas[a], gammas[b]) is None, (a, b)
    _report(7, "gamma family at n=15: 8 spheres, sphere reports, 28 pairs non-isomorphic", t0)


def test_criterion_08_sewing_suite():
    t0 = time.time()
    for n in (10, 12):
        index_sets = enum_I(n)
        assert len(index_sets) == {10: 3, 12: 9}[n]
        spheres = []
        trees = []
        for index_set in index_sets:
            ball = build_B_I(index_set)
            assert len(ball.facets) == 2 * n - 3 and len(ball.vertices()) == 2 * n
            assert topology_report(ball).is_ball()
            assert cs_neighborliness(ball).max_i == 1
            assert stackedness(ball).min_i == 1
            assert not (ball.facets & ball.antipode().facets)
            sphere = build_delta_I(index_set)
            assert sphere.ambient_n == n + 1
            assert is_cs(sphere)
            assert topology_report(sphere).is_sphere()
            assert cs_neighborliness(sphere).max_i == 2
            census = edge_link_census(sphere)
            assert census[canon_face((2, 3))] == 2 * n - 3
            assert census[canon_face((1, 2))] == n + 2
            assert census[canon_face((2, n + 1))] == n - 1
            assert census[canon_face((3, 4))] == 2 * n - 6
            spheres.append(sphere)
            trees.append(build_T(index_set))
        for i, j in itertools.combinations(range(len(index_sets)), 2):
            assert not tree_isomorphic(trees[i], trees[j]), (n, i, j)
            assert isomorphic(spheres[i], spheres[j]) is None, (n, i, j)
    _report(8, "sewn 3-spheres at n=10,12: ball/sphere reports, censuses, pairwise non-iso", t0)


@pytest.mark.xfail(
    strict=True,
    reason="spec defect inherited from the source construction: the antipode "
    "{-1, n-2, n-1, n} of the short-path facet lies in -B(I) and contains the "
    "edge {n-2, n}, so sewing lifts that edge's link to 2n-3 vertices as well; "
    "the edges at >= 2n-3 are ±{2,3} and ±{n-2,n}, not ±{2,3} alone",
)
def test_criterion_08_census_exclusivity_as_stated():
    n = 10
    bad = []
    for index_set in enum_I(n):
        census = edge_link_census(build_delta_I(index_set))
        top = {e for e, c in census.items() if c >= 2 * n - 3}
        if top != {canon_face((2, 3)), canon_face((-2, -3))}:
            bad.append((index_set.indices, sorted(top)))
    print(f"ACCEPTANCE  8 FAIL  census 2n-3 exclusivity at ±{{2,3}}: "
          f"also attained at ±{{n-2,n}} for all {len(bad)} index sets")
    assert not bad


def test_criterion_08_census_corrected():
    t0 = time.time()
    for n in (10, 12):
        for index_set in enum_I(n):
            census = edge_link_census(build_delta_I(index_set))
            top = {e for e, c in census.items() if c >= 2 * n - 3}
            assert top == {
                canon_face((2, 3)),
                canon_face((-2, -3)),
                canon_face((n - 2, n)),
                canon_face((-n + 2, -n)),
            }, (n, index_set.indices)
            assert all(census[e] == 2 * n - 3 for e in top)
    _report(8, "corrected census: links of >= 2n-3 vertices exactly at ±{2,3}, ±{n-2,n}", t0)


def test_criterion_09_shelling_suite():
    t0 = time.time()
    for n in range(4, 13):
        delta = build_delta(3, n)
        res = is_shelling(delta, symmetric_shelling_delta3(n))
        assert res.valid, n
        m = len(res.facets) // 2
        assert all(res.facets[m + j] == antipode_face(res.facets[m - 1 - j]) for j in range(m))
        for k in range(n, 4, -1):
            fk1 = canon_face((-(k - 3), -(k - 2), -(k - 1), k))
            fk2 = canon_face((1, -(k - 3), -(k - 1), k))
            assert res.restriction_faces[res.facets.index(fk1)] == canon_face((-(k - 3), -(k - 1)))
            assert res.restriction_faces[res.facets.index(fk2)] == canon_face((1, -(k - 3)))
        assert res.restriction_faces[res.facets.index(canon_face((-1, -2, -3, 4)))] == (-1, -3)
        assert res.restriction_faces[res.facets.index(canon_face((1, -2, 3, -4)))] == (3, -4)
        assert res.restriction_faces[res.facets.index(canon_face((1, 2, -3, 4)))] == (2, -3)
    for n in range(5, 10):
        ball = build_B(4, 2, n)
        assert is_shelling(ball, shelling_B42(n)).valid, n
    assert build_B(4, 2, 6).boundary().with_ambient(6) == build_delta(3, 6)
    _report(9, "symmetric shellings n=4..12 + stacked-4-ball shellings n=5..9", t0)


def test_criterion_10_automorphisms():
    t0 = time.time()
    for n in range(7, 11):
        delta = build_delta(3, n)
        assert automorphisms(delta) == sorted(
            [{v: v for v in delta.vertices()}, {v: -v for v in delta.vertices()}],
            key=lambda m: tuple(
                (abs(m[v]), m[v] < 0) for v in sorted(m, key=lambda x: (abs(x), x < 0))
            ),
        ), n
    for n in range(9, 13):
        delta = build_delta(5, n)
        maps = automorphisms(delta)
        identity, antipodal = {v: v for v in delta.vertices()}, {v: -v for v in delta.vertices()}
        assert len(maps) == 2 and identity in maps and antipodal in maps, n
    _report(10, "only {id, antipode}: delta(3, 7..10) and delta(5, 9..12) by exhaustive search", t0)


@pytest.mark.xfail(
    strict=True,
    reason="spec defect: the edge pairs ±{1,2} and ±{n-1,n} can be swapped at "
    "the smallest ambient size n = d+3, so delta(3,6) and delta(5,8) each have "
    "4 automorphisms; the {id, antipode} claim holds from n = d+4 on",
)
def test_criterion_10_smallest_n_as_stated():
    extra = {}
    for d, n in [(3, 6), (5, 8)]:
        maps = automorphisms(build_delta(d, n))
        # every returned map really is an automorphism
        for m in maps:
            image = {canon_face(tuple(m[v] for v in f)) for f in build_delta(d, n).facets}
            assert image == build_delta(d, n).facets
        extra[(d, n)] = len(maps)
    print(f"ACCEPTANCE 10 FAIL  {{id, antipode}} at the stated lower endpoints: "
          f"counts {extra} (both have an extra symmetry swapping ±{{1,2}} and ±{{n-1,n}})")
    assert all(v == 2 for v in extra.values())


def test_criterion_11_oracle_equivalence():
    t0 = time.time()
    # shelling verifier vs purity oracle on <= 12-facet fixtures
    import random

    rng = random.Random(2024)
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
        for _ in range(10):
            shuffled = facets[:]
            rng.shuffle(shuffled)
            orders.append(shuffled)
        for order in orders:
            assert is_shelling(c, order).valid == is_shelling_by_purity(order)
    # isomorphism search vs brute-force bijections on <= 8-vertex fixtures
    small = [
        cross_polytope(2),
        simplex([1, 2, 3, 4], 4).boundary(),
        suspension(simplex([1, 2, 3], 5).boundary(), (4, 5)),
        build_B(3, 1, 4),
        build_delta(1, 4),
        build_delta(3, 4),
    ]
    for c in small:
        assert len(c.vertices()) <= 8
        assert len(automorphisms(c)) == len(brute_force_automorphisms(c.facets, c.vertices()))
    for a, b in itertools.combinations(small, 2):
        assert (isomorphic(a, b) is None) == (
            brute_force_isomorphism(a.facets, a.ambient_n, b.facets) is None
        )
    # GF(2) homology of every constructed sphere equals sphere homology
    spheres = [
        cross_polytope(2),
        cross_polytope(4),
        build_delta(1, 6),
        build_delta(2, 6),
        build_delta(3, 8),
        build_delta(4, 8),
        build_delta(5, 10),
        build_lambda(3, 8),
        build_gamma(2, 10, (3, 5)),
        build_delta_I(IndexSet(10, (3,))),
        lambda_squeezed(2, 5, squeezed_ball(2, 5)),
        sew(build_delta(3, 6), build_B(3, 1, 6)),
    ]
    for s in spheres:
        report = topology_report(s)
        assert report.is_sphere(), s
        d = s.dim
        expected = tuple(1 if i in (0, d) else 0 for i in range(d + 1)) if d else (2,)
        assert report.z2_betti == expected, s
        fh = fh_vectors(s)
        assert fh.h == fh.h[::-1], s
    _report(11, "oracle equivalence: shelling purity, brute-force iso, sphere homology", t0)
