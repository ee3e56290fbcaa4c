"""Constructions of the centrally symmetric spheres and balls.

``build_delta(d, n)`` produces the cs combinatorial d-sphere on vertex set
V_n = {±1,...,±n} that is cs-⌈d/2⌉-neighborly; ``build_B(d, i, n)`` the
cs-i-neighborly, i-stacked combinatorial d-ball used in its inductive
(sewing) construction.  Both are defined by mutual recursion:

* Delta(1, n) is the cycle (1, 2, ..., n, -1, -2, ..., -n, 1);
* Delta(d, d+1) is the boundary of the (d+1)-dimensional cross-polytope;
* B(d, j, n) is the void complex for j < 0, and B(1, 0, n) the edge {-1, n};
* B(2k-1, k, n) = Delta(2k-1, n) minus B(2k-1, k-1, n);
* B(d, i, n) = (B(d-1, i, n-1) * n) ∪ ((-B(d-1, i-1, n-1)) * (-n));
* Delta(d, n+1) is obtained from Delta(d, n) by the sewing step that
  replaces ±B(d, ⌈d/2⌉-1, n) with the cones ±(∂B * (n+1)).

``cross_polytope``, ``build_delta``, ``build_B`` and ``build_lambda`` are
memoized with ``functools.cache``, which is safe to call from several threads.
"""

from __future__ import annotations

import functools

from .core import Complex, antipode_face, cone, from_walk
from .errors import InvalidParameters


@functools.cache
def cross_polytope(n: int) -> Complex:
    """Boundary of the n-dimensional cross-polytope: one sign choice per pair."""
    if n < 1:
        raise InvalidParameters(f"cross_polytope needs n >= 1, got {n}")
    facets: list[tuple[int, ...]] = [()]
    for i in range(1, n + 1):
        facets = [f + (s * i,) for f in facets for s in (1, -1)]
    return Complex(facets, n)


@functools.cache
def build_delta(d: int, n: int) -> Complex:
    """The cs combinatorial d-sphere on V_n (cs-⌈d/2⌉-neighborly)."""
    if d < 1 or n < d + 1:
        raise InvalidParameters(f"build_delta requires d >= 1 and n >= d+1, got d={d}, n={n}")
    if d == 1:
        return from_walk(list(range(1, n + 1)) + list(range(-1, -n - 1, -1)) + [1], n)
    if n == d + 1:
        return cross_polytope(d + 1)
    return sew(build_delta(d, n - 1), build_B(d, (d + 1) // 2 - 1, n - 1))


@functools.cache
def build_B(d: int, i: int, n: int) -> Complex:
    """The cs-i-neighborly, i-stacked d-ball B(d, i, n) on V_n; void for i < 0."""
    if d < 1 or n < d + 1:
        raise InvalidParameters(f"build_B requires d >= 1 and n >= d+1, got d={d}, n={n}")
    if i > (d + 1) // 2:
        raise InvalidParameters(f"build_B requires i <= ceil(d/2), got d={d}, i={i}")
    if i < 0:
        return Complex([], n)
    if d % 2 == 1 and i == (d + 1) // 2:
        return build_delta(d, n).difference(build_B(d, i - 1, n))
    if d == 1:  # i == 0 here
        return Complex([(-1, n)], n)
    upper = cone(build_B(d - 1, i, n - 1), n)
    lower = cone(build_B(d - 1, i - 1, n - 1).antipode(), -n)
    return Complex(upper.facets | lower.facets, n)


def sew(gamma: Complex, ball: Complex) -> Complex:
    """Replace ±ball inside the cs sphere `gamma` by cones over its boundary.

    The facets of `ball` and its antipode are removed and the cones
    ∂ball * v and ∂(-ball) * (-v) inserted, for the new vertex
    v = gamma.ambient_n + 1; the result lives on V_{ambient_n + 1}.
    Requires `ball` to be a full-dimensional pure subcomplex of `gamma`
    sharing no facets with its antipode.
    """
    if ball.is_void or not ball.is_pure or ball.dim != gamma.dim:
        raise InvalidParameters("sew needs a pure full-dimensional ball inside the sphere")
    neg = ball.antipode()
    if not ball.facets <= gamma.facets or not neg.facets <= gamma.facets:
        raise InvalidParameters("ball (or its antipode) is not a full-dimensional subcomplex")
    if ball.facets & neg.facets:
        raise InvalidParameters("ball shares facets with its antipode")
    v = gamma.ambient_n + 1
    rim = ball.boundary()
    new_facets = set(gamma.facets) - ball.facets - neg.facets
    new_facets.update(f + (v,) for f in rim.facets)
    new_facets.update(antipode_face(f) + (-v,) for f in rim.facets)
    # v exceeds every old label in absolute value, so appending it keeps faces canonical
    return Complex._derived(new_facets, v)


@functools.cache
def build_lambda(d: int, n: int, normalize: bool = False) -> Complex:
    """The cs d-sphere arising as the link of the edge {1,2} in Delta(d+2, n+2).

    Lives on W_n = {±3, ..., ±(n+2)} by default; with ``normalize=True`` the
    labels are shifted down by two onto V_n.
    """
    if d < 1 or n < d + 1:
        raise InvalidParameters(f"build_lambda requires d >= 1 and n >= d+1, got d={d}, n={n}")
    if normalize:
        return build_lambda(d, n).relabel(lambda v: v - 2 if v > 0 else v + 2, n)
    return build_delta(d + 2, n + 2).link((1, 2))


# Captured here, not looked up by module name when clearing: a caller may
# rebind ``builders.build_delta`` and the others to wrappers without
# ``cache_clear``.
_MEMOIZED = (cross_polytope, build_delta, build_B, build_lambda)


def cache_clear() -> None:
    """Drop all memoized spheres and balls (mainly for tests)."""
    for f in _MEMOIZED:
        f.cache_clear()


def squeezed_facet_family(k: int, n: int) -> list[tuple[int, ...]]:
    """Gale-form facets {i_1, i_1+1, ..., i_k, i_k+1} in [n] with gaps >= 2."""
    if k < 1 or n < k + 1:
        raise InvalidParameters(f"squeezed family requires k >= 1 and n >= k+1, got k={k}, n={n}")
    out: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], start: int, remaining: int) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for i in range(start, n):
            extend(prefix + (i, i + 1), i + 2, remaining - 1)

    extend((), 1, k)
    return out


def squeezed_ball(k: int, n: int) -> Complex:
    """The ball generated by the full Gale-form facet family on [n]."""
    return Complex(squeezed_facet_family(k, n), n)


def rho_embed(c: Complex) -> Complex:
    """Relabel the all-positive complex `c` by i -> 2i+1, onto V_{2n+1}."""
    if any(v < 0 for v in c.vertices()):
        raise InvalidParameters("rho_embed requires all labels positive")
    return c.relabel(lambda v: 2 * v + 1, 2 * c.ambient_n + 1)


def lambda_squeezed(k: int, n: int, ball: Complex) -> Complex:
    """Sew the image of a squeezed (2k-1)-ball on [n] into the edge-link sphere.

    Replaces ±rho(ball) inside build_lambda(2k-1, 2n-1) by cones over their
    boundaries from the new vertex pair ±(2n+2); the result is a cs
    combinatorial (2k-1)-sphere whose link at 2n+2 remembers the ball.
    """
    family = set(squeezed_facet_family(k, n))  # also checks k and n
    if ball.dim != 2 * k - 1:
        raise InvalidParameters(f"ball must be ({2 * k - 1})-dimensional, got dim {ball.dim}")
    if not ball.facets <= family:
        raise InvalidParameters(f"ball facets must be Gale-form (squeezed) facets on [{n}]")
    lam = build_lambda(2 * k - 1, 2 * n - 1)
    image = rho_embed(ball).with_ambient(lam.ambient_n)
    return sew(lam, image)


def eq1_expansion(d: int, i: int, n: int) -> Complex:
    """Two-step unrolling of the B(d, i, n) recursion (d >= 3, i <= ⌈d/2⌉ - 1).

    B(d,i,n) = (B(d-2,i,n-2) * (n-1, n))
             ∪ ((-B(d-2,i-1,n-2)) * (n, -n+1, -n))
             ∪ (B(d-2,i-2,n-2) * (n-1, -n)).
    """
    if d < 3 or i > (d + 1) // 2 - 1:
        raise InvalidParameters("expansion defined for d >= 3 and i <= ceil(d/2)-1")
    parts = [
        build_B(d - 2, i, n - 2).join(from_walk([n - 1, n], n)),
        build_B(d - 2, i - 1, n - 2).antipode().join(from_walk([n, -n + 1, -n], n)),
        build_B(d - 2, i - 2, n - 2).join(from_walk([n - 1, -n], n)),
    ]
    facets = set()
    for p in parts:
        facets |= p.facets
    return Complex(facets, n)


def b31_paths(n: int) -> tuple[Complex, Complex]:
    """The two explicit join factors of B(3, 1, n): a long path and an edge path.

    B(3,1,n) = (path(n-2, ..., 1, -(n-2), ..., -1) * (n-1, n))
             ∪ ((1, -(n-2)) * path(n, -(n-1), -n)).
    """
    long_path = from_walk(list(range(n - 2, 0, -1)) + list(range(-n + 2, 0)), n)
    short_path = from_walk([n, -n + 1, -n], n)
    return long_path, short_path
