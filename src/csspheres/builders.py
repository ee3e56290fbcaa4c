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
memoized by ``_memoized``, which is safe to call from several threads.
"""

from __future__ import annotations

import functools
import itertools
from math import comb

from .core import Complex, antipode_face, from_walk, h_from_f
from .errors import InvalidParameters, check_int


# Largest cross-polytope built: 2^20 facets.  Larger ones, and squeezed
# families of more facets, are refused before anything is allocated.
MAX_CROSS_N = 20
# The spheres that one build_delta request keeps in its memo hold at most
# 2^22 facets in all; larger requests are refused before anything is built.
# Delta(d, d+1) alone has 2^(d+1) facets, so build_delta and build_B refuse d >= 22.
_DELTA_MEMO_BITS = 22
# Every memo, held here: a caller may rebind ``builders.build_delta`` and the rest.
_MEMOS: list = []


def _memoized(f):
    """`f` memoised by argument type, so that 6.0 and True never find 6 and
    1; an unhashable argument skips the memo and meets `f`'s own check."""
    memo = functools.lru_cache(maxsize=None, typed=True)(f)
    _MEMOS.append(memo)

    def call(*args):
        try:
            hash(args)
        except TypeError:
            return f(*args)
        return memo(*args)

    call.cache_info = memo.cache_info
    return functools.update_wrapper(call, f)


@_memoized
def cross_polytope(n: int) -> Complex:
    """Boundary of the n-dimensional cross-polytope: one sign choice per pair."""
    check_int("cross_polytope", "n", n, 1, MAX_CROSS_N)
    facets: list[tuple[int, ...]] = [()]
    for i in range(1, n + 1):
        facets = [f + (s * i,) for f in facets for s in (1, -1)]
    return Complex._derived(facets, n)  # distinct, one size, and canonical: |label| grows


@_memoized
def build_delta(d: int, n: int) -> Complex:
    """The cs combinatorial d-sphere on V_n (cs-⌈d/2⌉-neighborly)."""
    check_int("build_delta", "d", d, 1)
    check_int("build_delta", "n", n, d + 1)
    _refuse_huge_delta(d, n)
    if d == 1:
        return from_walk(list(range(1, n + 1)) + list(range(-1, -n - 1, -1)) + [1], n)
    if n == d + 1:
        return cross_polytope(d + 1)
    for m in range(d + 2, n):  # fill the memo from below: each call recurses one step of n
        build_delta(d, m)
    return sew(build_delta(d, n - 1), build_B(d, (d + 1) // 2 - 1, n - 1))


def _refuse_huge_delta(d: int, n: int) -> None:
    """Raise unless the memo of build_delta(d, n) stays within 2^22 facets:
    every Delta(d, m) with d < m <= n for d >= 2, the cycle alone for d = 1.

    Delta(d, m) is cs-⌈d/2⌉-neighborly, so f_{i-1} = 2^i C(m, i) for
    i <= ⌈d/2⌉ fixes h_0..h_⌈d/2⌉; the Dehn-Sommerville mirror h_j = h_{d+1-j}
    gives the rest, and the facet count is the h-sum.  That count is linear
    in the f-vector, so the memo's total comes from the f-vector summed over
    the memo's m = low..n (low = d + 1, or n for the cycle), using
    sum_{m=low}^{n} C(m, i) = C(n+1, i+1) - C(low, i+1).  Delta(d, d+1) alone
    has 2^(d+1) facets, so d is compared first and no count is huge.
    """
    if d < _DELTA_MEMO_BITS:
        k, low = (d + 1) // 2, n if d == 1 else d + 1
        f = [2**i * (comb(n + 1, i + 1) - comb(low, i + 1)) for i in range(k + 1)]
        h = h_from_f((*f, *[0] * (d + 1 - k)))  # h_0..h_k read only f_{-1}..f_{k-1}
        if sum(h[min(j, d + 1 - j)] for j in range(d + 2)) <= 2**_DELTA_MEMO_BITS:
            return
    raise InvalidParameters(
        f"build_delta({d}, {n}) would keep more than 2^{_DELTA_MEMO_BITS} facets in its memo")


@_memoized
def build_B(d: int, i: int, n: int) -> Complex:
    """The cs-i-neighborly, i-stacked d-ball B(d, i, n) on V_n; void for i < 0."""
    check_int("build_B", "d", d, 1, _DELTA_MEMO_BITS - 1)  # before the recursion, one step per d
    check_int("build_B", "n", n, d + 1)
    check_int("build_B", "i", i, hi=(d + 1) // 2)
    if i < 0:
        return Complex([], n)
    if d % 2 == 1 and i == (d + 1) // 2:
        return build_delta(d, n).difference(build_B(d, i - 1, n))
    if d == 1:  # i == 0 here
        return Complex([(-1, n)], n)
    # every label below has |v| < n, so appending ±n keeps faces canonical;
    # the union of the cones is an antichain: one side's facets hold n, the other's -n
    upper = [f + (n,) for f in build_B(d - 1, i, n - 1).facets]
    lower = [antipode_face(f) + (-n,) for f in build_B(d - 1, i - 1, n - 1).facets]
    return Complex._derived(upper + lower, n)


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


@_memoized
def build_lambda(d: int, n: int) -> Complex:
    """The cs d-sphere arising as the link of the edge {1,2} in Delta(d+2, n+2).

    Lives on W_n = {±3, ..., ±(n+2)}.
    """
    check_int("build_lambda", "d", d, 1)
    check_int("build_lambda", "n", n, d + 1)
    return build_delta(d + 2, n + 2).link((1, 2))


def cache_clear() -> None:
    """Drop all memoized spheres and balls (mainly for tests)."""
    for memo in _MEMOS:
        memo.cache_clear()


def squeezed_facet_family(k: int, n: int) -> list[tuple[int, ...]]:
    """Gale-form facets {i_1, i_1+1, ..., i_k, i_k+1} in [n] with gaps >= 2."""
    check_int("squeezed_facet_family", "k", k, 1)
    check_int("squeezed_facet_family", "n", n, k + 1)
    # i_j = c_j + j maps the k-subsets c of [n-k], in order, onto the
    # starts with gaps >= 2 and i_k <= n-1: C(n-k, k) facets.
    # C(n-k, k) >= C(2m, m) >= 2^m for m = min(k, n-2k), so comb runs on small arguments only
    if min(k, n - 2 * k) > MAX_CROSS_N or comb(n - k, k) > 2**MAX_CROSS_N:
        raise InvalidParameters(
            f"squeezed family k={k}, n={n} has C({n - k}, {k}) facets, above 2^{MAX_CROSS_N}")
    return [
        tuple(v for j, c in enumerate(combo) for v in (c + j, c + j + 1))
        for combo in itertools.combinations(range(1, n - k + 1), k)
    ]


def squeezed_ball(k: int, n: int) -> Complex:
    """The ball generated by the full Gale-form facet family on [n]."""
    return Complex(squeezed_facet_family(k, n), n)


def rho_embed(c: Complex) -> Complex:
    """Relabel the all-positive complex `c` by i -> 2i+1, onto V_{2n+1}."""
    if any(v < 0 for v in c.vertices()):
        raise InvalidParameters("rho_embed requires all labels positive")
    return c.relabel(lambda v: 2 * v + 1, 2 * c.ambient_n + 1)

