"""Bistellar flips and the symmetric multi-flip spheres.

A flip replaces the star A * ∂B̄ by ∂Ā * B̄ whenever lk(A) = ∂B̄ and B is
not a face.  ``fg_pair`` produces the arithmetic-progression face pairs
(F_i, G_i) whose flips exist in every build_delta(2k-1, n) sphere with
3 <= i <= n - 4k + 3, and ``build_gamma`` applies a whole set of them (and
their antipodes) simultaneously.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .core import Complex, Face, antipode_face, canon_face
from .errors import InvalidParameters, check_int
from .builders import _DELTA_MEMO_BITS, build_delta


def _flip_edit(c: Complex, a: Face, b: Face) -> tuple[frozenset[Face], set[Face]]:
    """The star of `a` and the facets replacing it, once the flip is validated."""
    star = c.star(a).facets
    if c.has_face(b):
        raise InvalidParameters(f"face {b} already in complex")
    expected = {tuple(v for v in b if v != drop) for drop in b}
    if {tuple(v for v in f if v not in a) for f in star} != expected:
        raise InvalidParameters(f"link of {a} is not the boundary of the simplex on {b}")
    replacement = {canon_face(tuple(v for v in a if v != drop) + b) for drop in a}
    return star, replacement


def bistellar_flip(c: Complex, a: Iterable[int], b: Iterable[int]) -> Complex:
    """Single bistellar flip removing face `a` and introducing face `b`."""
    star, replacement = _flip_edit(c, canon_face(a), canon_face(b))
    return Complex._canonical((c.facets - star) | replacement, c.ambient_n)


class FlipPair(NamedTuple):
    """The faces F_i = {i, i+3, i+7, ...} (size k) and G_i = {i-1, i+1, i+5, ...} (size k+1)."""

    f: Face
    g: Face


def fg_pair(k: int, i: int) -> FlipPair:
    """Arithmetic-progression flip pair at index i; defined for 2 <= k <= 11 (2k-1 < 22)."""
    check_int("fg_pair", "k", k, 2, _DELTA_MEMO_BITS // 2)
    check_int("fg_pair", "i", i)
    f = (i,) + tuple(i + 3 + 4 * j for j in range(k - 1))
    g = (i - 1,) + tuple(i + 1 + 4 * j for j in range(k))
    return FlipPair(f=f, g=g)


def build_gamma(k: int, n: int, indices: Iterable[int]) -> Complex:
    """Apply the symmetric flips at all indices in J to build_delta(2k-1, n).

    Indices must lie in [3, n-4k+3], the full range where the (F_i, G_i)
    flip is admissible (G_i must fit inside [n]).  All stars (those of F_i,
    -F_i over i in J) are checked to be pairwise facet-disjoint, then
    removed and replaced in one batched edit.  The result is a cs
    combinatorial (2k-1)-sphere with the same (k-2)-skeleton.  Its
    cs-(k-1)-neighborly pairwise non-isomorphism guarantee additionally
    needs k >= 3 and indices at most n-4k+2, which leaves the last
    admissible flip untouched.
    """
    check_int("build_gamma", "k", k, 2, _DELTA_MEMO_BITS // 2)
    check_int("build_gamma", "n", n, 2 * k)
    indices = tuple(indices)
    for i in indices:  # before sorting: mixed types do not sort
        check_int("build_gamma", "index", i, 3, n - 4 * k + 3)
    delta = build_delta(2 * k - 1, n)
    removed: set[Face] = set()
    added: set[Face] = set()
    for i in sorted(set(indices)):
        pair = fg_pair(k, i)
        for face_a, face_b in ((pair.f, pair.g), (antipode_face(pair.f), antipode_face(pair.g))):
            star, replacement = _flip_edit(delta, face_a, face_b)
            if star & removed:
                raise InvalidParameters(f"star of {face_a} overlaps an earlier flip")
            removed |= star
            added |= replacement
    return Complex._derived((delta.facets - removed) | added, n)
