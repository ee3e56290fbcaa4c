"""Property predicates: central symmetry, neighborliness, stackedness,
facet conditions, and edge-link censuses.  `is_cs` is defined and memoised
in core, so that the isomorphism search reads it without importing this
module.

Neighborliness is always measured against a ground set of positive labels
(default 1..ambient_n; for the edge-link spheres on W_n it is 3..n+2): a
complex is cs-i-neighborly w.r.t. that ground when every i of the vertices
±ground, no two antipodal, span a face.  `cs_neighborliness` checks exactly that, size
by size, and reports the least antipode-free subset that is not a face.  It
builds no face level: a vertex set is a face iff the AND of the memoised
per-vertex facet bitsets (`Complex.facet_bits`) over it is nonzero, and the
subsets of one size are walked depth-first, ANDing the prefix.  `stackedness`
walks a ball's vertex sets the same way, against the bitsets of the ball
and of its boundary.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, NamedTuple

from .core import Complex, Face, canon_face, face_key, is_cs
from .errors import InvalidParameters


class NeighborlinessReport(NamedTuple):
    """Largest i such that all antipode-free i-subsets of the ground are faces."""

    max_i: int
    exact: bool
    witness: Face | None  # least missing (max_i+1)-subset, when one exists


def _least_missing(bits: Mapping[int, int], ground: tuple[int, ...], size: int, cs: bool) -> Face | None:
    """The least antipode-free `size`-subset of ±ground, in canonical order,
    whose vertices' facet bitsets AND to 0, or None.

    The subsets are walked depth-first, pair by pair with +g before -g, ANDing
    the prefix; once a prefix ANDs to 0 every completion is missing, and the
    least is the one that takes the positive labels of the next pairs.  The
    walk starts from -1, the AND of no bitsets, and needs every vertex of
    ±ground in `bits`.  With `cs`, the bitsets are those of a cs complex, in
    which S is missing iff -S is; -S comes first when S starts with a
    negative label, so only positive first labels are tried.  `walk`
    recurses through its first argument, so that no closure cell refers to
    it and no reference cycle is left behind.
    """
    pairs = [(g, -g) for g in ground]

    def walk(walk, start: int, acc: int, prefix: Face, choices: list[tuple[int, ...]]) -> Face | None:
        depth = len(prefix) + 1
        for p in range(start, len(ground) - size + depth):
            for v in choices[p]:
                here = acc & bits[v]
                if not here:
                    return prefix + (v,) + ground[p + 1 : p + 1 + size - depth]
                if depth < size:
                    found = walk(walk, p + 1, here, prefix + (v,), pairs)
                    if found is not None:
                        return found
        return None

    return walk(walk, 0, -1, (), [(g,) for g in ground] if cs else pairs)


def cs_neighborliness(c: Complex, ground: Iterable[int] | None = None) -> NeighborlinessReport:
    """The definition, level by level: the least missing antipode-free subset.

    `ground` is the set of positive labels of the reference vertex pairs
    (defaults to 1..ambient_n).  For i = 1, 2, ... the antipode-free
    i-subsets of ±ground are tested, in canonical order, against the
    per-vertex facet bitsets of `c`; the first one missing is the witness and
    max_i = i - 1.  When none is missing at any size, max_i = |ground| and
    `exact` is False.  Level 1 walks an increasing range lazily and stops at
    the first label with no vertex, so the ground is materialised only once
    every label has both its vertices, that is when it has at most
    |vertices|/2 labels.  On a cs complex (`is_cs`, memoised) the walk
    tries only positive first labels.
    """
    if ground is None:
        ground = range(1, c.ambient_n + 1)
    if not (isinstance(ground, range) and ground.step > 0):
        ground = sorted(set(ground))
    if ground and ground[0] <= 0:
        raise InvalidParameters("ground must consist of positive labels")
    bits = c.facet_bits()
    witness = next(((v,) for g in ground for v in (g, -g) if v not in bits), None)
    if witness is not None:
        return NeighborlinessReport(max_i=0, exact=True, witness=witness)
    ground, cs = tuple(ground), is_cs(c)
    for i in range(2, len(ground) + 1):
        witness = _least_missing(bits, ground, i, cs)
        if witness is not None:
            return NeighborlinessReport(max_i=i - 1, exact=True, witness=witness)
    return NeighborlinessReport(max_i=len(ground), exact=False, witness=None)


class StackednessReport(NamedTuple):
    """Smallest i such that all interior faces have dimension >= d - i."""

    min_i: int
    witness_interior_face: Face | None


def _least_interior(b: Complex, rim: Complex, size: int) -> Face | None:
    """The least face of `b` with `size` vertices, in canonical order, that is
    not a face of `rim`, or None; every smaller face of `b` must be a face of
    `rim`, a subcomplex of `b`.

    The vertex sets are walked depth-first in canonical order, ANDing the
    facet bitsets of both complexes along the prefix.  A proper prefix whose
    `rim` AND is 0 is not a face of `rim`, so, being smaller, not a face of
    `b` either, and is pruned; a full set is the answer when its `b` AND is
    nonzero and its `rim` AND is 0.  `walk` recurses through its first
    argument, as in `_least_missing`.
    """
    verts = b.vertices()
    bits, rim_bits = b.facet_bits(), rim.facet_bits()
    rows, rim_rows = [bits[v] for v in verts], [rim_bits.get(v, 0) for v in verts]

    def walk(walk, start: int, acc: int, rim_acc: int, prefix: Face) -> Face | None:
        depth = len(prefix) + 1
        for p in range(start, len(verts) - size + depth):
            here, rim_here = acc & rows[p], rim_acc & rim_rows[p]
            if depth == size:
                if here and not rim_here:
                    return prefix + (verts[p],)
            elif rim_here:
                found = walk(walk, p + 1, here, rim_here, prefix + (verts[p],))
                if found is not None:
                    return found
        return None

    return walk(walk, 0, -1, -1, ())


def stackedness(b: Complex) -> StackednessReport:
    """min_i = d - (least interior dim): the least face of the ball that is
    not a face of its boundary, found size by size by `_least_interior` from
    the memoised facet bitsets, with no face level built."""
    if not b.is_pure:
        raise InvalidParameters("stackedness requires a pure complex")
    if b.dim < 0:
        raise InvalidParameters("stackedness requires a nonempty complex")
    rim = b.boundary()
    if rim.is_void:
        raise InvalidParameters("complex has empty boundary")
    d = b.dim
    for card in range(1, d + 2):  # at d + 1 every facet is interior: the boundary has dim d - 1
        witness = _least_interior(b, rim, card)
        if witness is not None:
            break
    return StackednessReport(min_i=d - (card - 1), witness_interior_face=witness)


def facet_necessary_check(face: Iterable[int]) -> bool:
    """Arithmetic facet conditions on a face of even cardinality 2k.

    With entries sorted as |p_1| < ... < |p_2k|: (1) |p_2s| - |p_2s-1| <= 2
    for 2 <= s <= k, and (2) |p_2| - |p_1| = 1, waived when |p_1| = 1.
    """
    face = canon_face(face)
    if not face:
        raise InvalidParameters("facet condition check requires a nonempty face")
    if len(face) % 2:
        raise InvalidParameters(f"face {face} has odd cardinality {len(face)}")
    p = sorted(abs(v) for v in face)
    if len(set(p)) != len(p):
        raise InvalidParameters(f"face {face} repeats an absolute label")
    k = len(p) // 2
    for s in range(2, k + 1):
        if p[2 * s - 1] - p[2 * s - 2] > 2:
            return False
    if p[1] - p[0] != 1 and p[0] != 1:
        return False
    return True


def enum_S(k: int, n: int) -> dict[int, frozenset[Face]]:
    """All of S(2k, n)_m for 1 <= m <= k, keyed by m.

    A member has abs-pattern (a_1, a_1+1), then gap-2 pairs (a_i, a_i+2) for
    i <= m, then the fixed tail pairs {n-2(k-i)-1, n-2(k-i)} for i > m; the
    two entries of each pair carry a common, independently chosen sign.
    """
    if k < 1 or n < 2 * k:
        raise InvalidParameters(f"enum_S requires k >= 1 and n >= 2k, got k={k}, n={n}")
    by_m: dict[int, frozenset[Face]] = {}
    for m in range(1, k + 1):
        tail = [(n - 2 * (k - i) - 1, n - 2 * (k - i)) for i in range(m + 1, k + 1)]
        members: set[Face] = set()
        # The m-subsets c of [n-2k+1] give the head pairs (c_0, c_0+1) and
        # (c_j+2j-1, c_j+2j+1), which end below the tail: 2^k C(n-2k+1, m) members.
        for c in itertools.combinations(range(1, n - 2 * k + 2), m):
            head = [(c[0], c[0] + 1)] + [(c[j] + 2 * j - 1, c[j] + 2 * j + 1) for j in range(1, m)]
            for signs in itertools.product((1, -1), repeat=k):
                members.add(canon_face(s * v for s, pair in zip(signs, head + tail) for v in pair))
        by_m[m] = frozenset(members)
    return by_m


def edge_link_census(c: Complex) -> dict[Face, int]:
    """Number of vertices in the link of every edge (the triangles that
    contain it), as a fresh dict."""
    if c.dim < 2:
        raise InvalidParameters("edge_link_census requires dim >= 2")
    return {e: size for e, (size, _) in c.edge_incidence().items()}


def census_at_least(census: dict[Face, int], threshold: int) -> list[Face]:
    """Edges whose link has at least `threshold` vertices, in canonical order."""
    return sorted((e for e, v in census.items() if v >= threshold), key=face_key)


def is_subcomplex(a: Complex, b: Complex) -> bool:
    """True iff every facet of `a` is a face of `b`: some facet of `b`
    contains it (`Complex.star_bits` is nonzero)."""
    return all(map(b.star_bits, a.facets))
