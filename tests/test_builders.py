"""Constructions: cross-polytopes, sewn spheres, stacked sewing balls,
edge-link spheres, squeezed balls, and their defining identities."""

from __future__ import annotations

import pytest

from csspheres import builders
from csspheres.builders import (
    b31_paths,
    build_B,
    build_delta,
    build_lambda,
    cross_polytope,
    eq1_expansion,
    lambda_squeezed,
    rho_embed,
    sew,
    squeezed_ball,
)
from csspheres.core import Complex, cone, from_walk, simplex, topology_report
from csspheres.errors import InvalidParameters
from csspheres.props import is_cs, is_subcomplex

from oracles import sphere_facet_count


def test_cross_polytope():
    c1 = cross_polytope(1)
    assert c1.facets == {(1,), (-1,)}
    assert len(cross_polytope(3).facets) == 8
    assert cross_polytope(4) == build_delta(3, 4)
    with pytest.raises(InvalidParameters):
        cross_polytope(0)


def test_delta_one_is_the_doubled_cycle():
    d13 = build_delta(1, 3)
    walk = from_walk([1, 2, 3, -1, -2, -3, 1], 3)
    assert d13 == walk
    assert len(d13.facets) == 6


def test_delta_one_matches_sewing_route():
    # the explicit cycle must agree with one sewing step applied by hand
    for n in range(2, 8):
        prev = build_delta(1, n)
        ball = build_B(1, 0, n)
        assert sew(prev, ball) == build_delta(1, n + 1)


def test_b31_explicit_formula():
    got = build_B(3, 1, 5)
    expected = {
        (2, 3, 4, 5),
        (1, 2, 4, 5),
        (1, -3, 4, 5),
        (-2, -3, 4, 5),
        (-1, -2, 4, 5),
        (1, -3, -4, 5),
        (1, -3, -4, -5),
    }
    assert got.facets == {tuple(sorted(f, key=lambda v: (abs(v), v < 0))) for f in expected}
    # independent route: path * edge plus edge * path
    for n in (5, 6, 9):
        long_path, short_path = b31_paths(n)
        by_joins = Complex(
            long_path.join(from_walk([n - 1, n], n)).facets
            | simplex([1, -(n - 2)], n).join(short_path).facets,
            n,
        )
        assert by_joins == build_B(3, 1, n)
        assert len(by_joins.facets) == 2 * n - 3


def test_b_base_cases():
    assert build_B(1, 0, 7).facets == {(-1, 7)}
    assert build_B(5, 0, 9) == simplex([-1, 5, 6, 7, 8, 9], 9)
    assert build_B(2, -1, 5).is_void
    # B(1,1,n) is the cycle minus the edge {-1, n}
    b11 = build_B(1, 1, 6)
    assert b11.facets == build_delta(1, 6).facets - {(-1, 6)}
    with pytest.raises(InvalidParameters):
        build_B(3, 3, 7)
    with pytest.raises(InvalidParameters):
        build_B(3, 1, 3)
    with pytest.raises(InvalidParameters):
        build_delta(2, 2)


def test_delta3_facet_count():
    for n in range(4, 13):
        d = build_delta(3, n)
        assert len(d.facets) == 2 * n * n - 4 * n
        assert len(d.facets) == sphere_facet_count(2, n)


def test_sew_regression():
    for n in (5, 6, 7):
        assert sew(build_delta(3, n), build_B(3, 1, n)) == build_delta(3, n + 1)
    with pytest.raises(InvalidParameters, match="sew needs a pure full-dimensional ball"):
        sew(build_delta(3, 5), Complex([], 5))
    # a ball sharing facets with its antipode is rejected
    d = build_delta(3, 5)
    sym = Complex(build_B(3, 1, 5).facets | build_B(3, 1, 5).antipode().facets, 5)
    with pytest.raises(InvalidParameters, match="ball shares facets with its antipode"):
        sew(d, sym)
    # a pure full-dim complex that is not a subcomplex is rejected
    with pytest.raises(InvalidParameters, match="is not a full-dimensional subcomplex"):
        sew(d, simplex([1, 2, 3, 4], 5))


def test_eq1_two_step_expansion():
    for d, i, n in [(3, 1, 5), (3, 1, 8), (4, 1, 7), (5, 1, 8), (5, 2, 8), (6, 2, 9)]:
        assert eq1_expansion(d, i, n) == build_B(d, i, n), (d, i, n)


def test_delta_is_ball_boundary():
    # Delta(2k-1, n) = ∂B(2k, k, n)
    for k, n in [(1, 4), (1, 6), (2, 5), (2, 7), (3, 7)]:
        assert build_B(2 * k, k, n).boundary() == build_delta(2 * k - 1, n), (k, n)


def test_b_ball_containments():
    # B(d, k-1, n) ⊆ -B(d, k, n)
    for d, n in [(3, 6), (4, 7), (5, 8)]:
        for k in range(1, (d + 1) // 2 + 1):
            inner = build_B(d, k - 1, n)
            outer = build_B(d, k, n).antipode()
            assert is_subcomplex(inner, outer), (d, k, n)
    # B(d-1, i, n) ⊆ ∂B(d, j, n) for i <= j <= floor(d/2)
    for d, n in [(3, 6), (4, 7)]:
        for j in range(0, d // 2 + 1):
            rim = build_B(d, j, n).boundary()
            for i in range(0, j + 1):
                assert is_subcomplex(build_B(d - 1, i, n), rim), (d, i, j, n)


def test_delta_nested_in_higher_dimension():
    for d, n in [(1, 5), (2, 6), (3, 6), (4, 7)]:
        assert is_subcomplex(build_delta(d, n), build_delta(d + 1, n))


def test_sewn_cones_contain_next_balls():
    # B(d, c, n+1) ∪ -B(d, c, n+1) sits inside the two sewn cones, c = ⌈d/2⌉-1
    for d, n in [(2, 5), (3, 6), (4, 6), (5, 7)]:
        c = (d + 1) // 2 - 1
        ball = build_B(d, c, n)
        cones = Complex(
            cone(ball.boundary(), n + 1).facets
            | cone(ball.antipode().boundary(), -(n + 1)).facets,
            n + 1,
        )
        nxt = build_B(d, c, n + 1)
        union = Complex(nxt.facets | nxt.antipode().facets, n + 1)
        assert is_subcomplex(union, cones), (d, n)


def test_decomposition_partitions_facets():
    # facet-disjoint blocks: base leftovers, sewing shells, final ±ball
    for k, n in [(1, 6), (2, 7), (2, 10), (3, 8)]:
        delta = build_delta(2 * k - 1, n)
        blocks = []
        base = build_delta(2 * k - 1, 2 * k)
        b0 = build_B(2 * k - 1, k - 1, 2 * k)
        blocks.append(base.facets - b0.facets - b0.antipode().facets)
        for s in range(2 * k + 1, n + 1):
            prev = build_B(2 * k - 1, k - 1, s - 1)
            shell = cone(prev.boundary(), s).facets | cone(prev.antipode().boundary(), -s).facets
            cur = build_B(2 * k - 1, k - 1, s)
            blocks.append(shell - cur.facets - cur.antipode().facets)
        last = build_B(2 * k - 1, k - 1, n)
        blocks.append(last.facets | last.antipode().facets)
        seen: set = set()
        for blk in blocks:
            assert not (seen & blk), (k, n)
            seen |= blk
        assert seen == delta.facets, (k, n)


def test_lambda_basics():
    lam14 = build_lambda(1, 4)
    assert len(lam14.facets) == 8 and len(lam14.vertices()) == 8
    assert lam14.has_face((3, 5)) and lam14.has_face((4, 6))
    for n in (4, 6, 8):
        assert len(build_lambda(1, n).vertices()) == 2 * n
    norm = build_lambda(1, 4, normalize=True)
    assert norm.ambient_n == 4 and set(norm.vertices()) == {v for v in range(-4, 5) if v}
    assert is_cs(build_lambda(3, 6))


def test_memoization_transparency():
    builders.cache_clear()
    cold = build_delta(3, 6)
    builders.cache_clear()
    build_delta(3, 7)  # populates the n=6 entry on the way
    warm = build_delta(3, 6)
    assert cold == warm
    builders.cache_clear()


def test_cache_clear_survives_rebound_builders(monkeypatch):
    # cache_clear must not look the memoized builders up by module name
    original = builders.build_delta
    monkeypatch.setattr(builders, "build_delta", lambda d, n: original(d, n))
    warm = build_delta(3, 6)
    builders.cache_clear()
    assert original.cache_info().currsize == 0
    cold = builders.build_delta(3, 6)
    assert cold is not warm and cold == warm


def test_squeezed_ball():
    sq = squeezed_ball(2, 5)
    assert sq.facets == {(1, 2, 3, 4), (1, 2, 4, 5), (2, 3, 4, 5)}
    path = squeezed_ball(1, 6)
    assert path.facets == {(i, i + 1) for i in range(1, 6)}
    # below 2k vertices the family is empty
    assert squeezed_ball(3, 5).is_void
    import networkx as nx

    from csspheres.core import facet_ridge_graph

    g = nx.Graph(facet_ridge_graph(squeezed_ball(2, 5)))
    assert nx.is_connected(g) and g.number_of_nodes() == 3


def test_rho_embed():
    assert rho_embed(Complex([(1, 2, 3, 4)], 4)) == Complex([(3, 5, 7, 9)], 9)
    assert rho_embed(Complex([], 4)).is_void
    with pytest.raises(InvalidParameters, match="requires all labels positive"):
        rho_embed(Complex([(-1, 2)], 2))
    for k, n in [(1, 5), (2, 5), (2, 6)]:
        image = rho_embed(squeezed_ball(k, n))
        lam = build_lambda(2 * k - 1, 2 * n - 1)
        assert is_subcomplex(image.with_ambient(lam.ambient_n), lam), (k, n)


def test_lambda_squeezed():
    lamsq = lambda_squeezed(2, 5, squeezed_ball(2, 5))
    assert is_cs(lamsq)
    rep = topology_report(lamsq)
    assert rep.is_sphere() and len(rep.z2_betti) == 4
    assert lamsq.ambient_n == 12  # vertices ±3..±11 plus ±12
    # single-facet squeezed ball also sews
    single = Complex([(1, 2, 3, 4)], 5)
    lamsq1 = lambda_squeezed(2, 5, single)
    assert topology_report(lamsq1).is_sphere()
    # distinct balls leave distinct links at the new vertex
    assert lamsq.link((12,)) != lamsq1.link((12,))
    assert lamsq.link((12,)) == rho_embed(squeezed_ball(2, 5)).with_ambient(12).boundary()


def test_lambda_squeezed_rejects_bad_balls():
    with pytest.raises(InvalidParameters, match="Gale"):
        lambda_squeezed(2, 5, Complex([(1, 2, 3, 5)], 5))  # not Gale form
    with pytest.raises(InvalidParameters, match=r"Gale-form .* on \[5\]"):
        lambda_squeezed(2, 5, Complex([(1, 2, 6, 7)], 7))  # Gale form, but not on [5]
    with pytest.raises(InvalidParameters):
        lambda_squeezed(2, 5, Complex([(1, 2, 3)], 5))  # wrong dimension
    with pytest.raises(InvalidParameters):
        lambda_squeezed(2, 5, Complex([], 5))  # void
    with pytest.raises(InvalidParameters):
        lambda_squeezed(0, 5, squeezed_ball(1, 5))  # k < 1


def test_concurrent_builds_are_consistent():
    # builders are pure given the memo cache; parallel builds must agree
    from concurrent.futures import ThreadPoolExecutor

    builders.cache_clear()
    jobs = [(3, n) for n in range(4, 10)] * 3 + [(5, 8)] * 4
    with ThreadPoolExecutor(max_workers=6) as pool:
        results = list(pool.map(lambda a: build_delta(*a), jobs))
    for (d, n), got in zip(jobs, results):
        assert got == build_delta(d, n)
    builders.cache_clear()


def test_top_edge_link_recursion():
    # lk({n-1, n}, delta(2k-1, n)) is delta(2k-3, n-2): ties the whole
    # mutual recursion together across two dimensions
    for k, n in [(2, 7), (2, 9), (3, 9), (3, 10)]:
        sphere = build_delta(2 * k - 1, n)
        link = sphere.link((n - 1, n)).with_ambient(n - 2)
        assert link == build_delta(2 * k - 3, n - 2), (k, n)


def test_lambda_even_dimension():
    lam = build_lambda(2, 6)
    assert is_cs(lam)
    from csspheres.props import cs_neighborliness

    assert cs_neighborliness(lam, range(3, 6 + 3)).max_i >= 1
    assert topology_report(lam).is_sphere()
