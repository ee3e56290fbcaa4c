"""Property predicates: central symmetry, neighborliness, stackedness,
facet conditions, and edge-link censuses.  `is_cs` is defined and memoised
in core, so that the isomorphism search reads it without importing this
module.

Neighborliness is always measured against a ground set of positive labels
(default 1..ambient_n; for the edge-link spheres on W_n it is 3..n+2): a
complex is cs-i-neighborly w.r.t. that ground when every i of the vertices
±ground, no two antipodal, span a face.  `cs_neighborliness` and
`stackedness` ask the memoised per-vertex facet bitsets
(`Complex.facet_bits`) one question, which `_least_set` answers by one
depth-first walk: the least vertex set, smallest first, whose "has" rows AND
to nonzero and whose "miss" rows AND to 0.  No face level is built.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Iterable, NamedTuple, Sequence

from .core import Complex, Face, canon_face, face_key, is_cs
from .errors import InvalidParameters, check_int


def _least_set(options: Sequence[Sequence[tuple]], sizes: Iterable[int],
               first: Sequence | None = None) -> Face | None:
    """The least set over `sizes`, smallest size first and then in the order
    of `options`, that takes one `(vertex, has row, miss row)` choice of
    `options[p]` at each of some increasing positions p, whose has rows AND
    to nonzero and whose miss rows AND to 0; or None.  `first`, when given,
    replaces the choices at the first position taken.

    The sets of one size are walked depth-first, position by position and
    choice by choice, ANDing both rows along the prefix from -1, the AND of
    none.  A prefix is pruned only when its has AND is 0, since no completion
    can then qualify; one whose miss AND is 0 may still be completed.  `walk`
    recurses through its first argument, so that no closure cell refers to it
    and no reference cycle is left behind.
    """

    def walk(walk, start: int, has: int, miss: int, prefix: Face, choices: Sequence) -> Face | None:
        depth = len(prefix) + 1
        positions = range(start, len(options) - size + depth)
        if depth == size:
            for p in positions:
                for v, has_row, miss_row in choices[p]:
                    if has & has_row and not miss & miss_row:
                        return prefix + (v,)
            return None
        for p in positions:
            for v, has_row, miss_row in choices[p]:
                has_here = has & has_row
                if has_here:
                    found = walk(walk, p + 1, has_here, miss & miss_row, prefix + (v,), options)
                    if found is not None:
                        return found
        return None

    for size in sizes:
        found = walk(walk, 0, -1, -1, (), first or options)
        if found is not None:
            return found
    return None


class NeighborlinessReport(NamedTuple):
    """Largest i such that all antipode-free i-subsets of the ground are faces."""

    max_i: int
    witness: Face | None  # least missing (max_i+1)-subset, when one exists

    @property
    def exact(self) -> bool:
        """True iff a missing subset bounds max_i; else max_i is the ground's size."""
        return self.witness is not None


def cs_neighborliness(c: Complex, ground: Iterable[int] | None = None) -> NeighborlinessReport:
    """The definition, level by level: the least missing antipode-free subset.

    `ground` is the set of positive labels of the reference vertex pairs
    (defaults to 1..ambient_n); a label that is no positive int (bool
    included) is refused.  The witness is the least antipode-free subset of
    ±ground, in canonical order, whose facet bitsets AND to 0, and max_i is
    one less than its size; with none, max_i = |ground| and `exact` is False.
    Level 1 walks an increasing range lazily and stops at the first label
    with no vertex, so the ground is materialised only once every label has
    both its vertices, that is when it has at most |vertices|/2 labels.
    Larger sets are left to `_least_set`, with -1 as every has row and the
    facet bitsets as miss rows, +g before -g.  On a cs complex (`is_cs`,
    memoised) S is missing iff -S is, and -S comes first when S starts with
    a negative label, so only positive first labels are tried.
    """
    if ground is None:
        ground = range(1, c.ambient_n + 1)
    if isinstance(ground, range) and ground.step > 0:
        labels = ground[:1]  # a range holds ints, and this one starts at its least
    else:
        labels = ground = tuple(ground)
    for g in labels:
        check_int("cs_neighborliness", "ground label", g, 1)
    if labels is ground:
        ground = sorted(set(ground))
    bits = c.facet_bits()
    witness = next(((v,) for g in ground for v in (g, -g) if v not in bits), None)
    if witness is not None:
        return NeighborlinessReport(max_i=0, witness=witness)
    options = [((g, -1, bits[g]), (-g, -1, bits[-g])) for g in ground]
    first = [pair[:1] for pair in options] if is_cs(c) else None
    witness = _least_set(options, range(2, len(ground) + 1), first)
    max_i = len(ground) if witness is None else len(witness) - 1
    return NeighborlinessReport(max_i=max_i, witness=witness)


class StackednessReport(NamedTuple):
    """Smallest i such that all interior faces have dimension >= d - i."""

    min_i: int
    witness_interior_face: Face | None


def stackedness(b: Complex) -> StackednessReport:
    """min_i = d - (least interior dim): the least face of the ball that is
    not a face of its boundary, found by `_least_set` with the ball's facet
    bitsets as has rows and the boundary's as miss rows (0 for a vertex off
    the boundary), with no face level built."""
    if not b.is_pure:
        raise InvalidParameters("stackedness requires a pure complex")
    if b.dim < 0:
        raise InvalidParameters("stackedness requires a nonempty complex")
    rim = b.boundary()
    if rim.is_void:
        raise InvalidParameters("complex has empty boundary")
    bits, rim_bits = b.facet_bits(), rim.facet_bits()
    options = [((v, bits[v], rim_bits.get(v, 0)),) for v in b.vertices()]
    # at d + 1 every facet is interior: the boundary has dim d - 1
    witness = _least_set(options, range(1, b.dim + 2))
    return StackednessReport(min_i=b.dim + 1 - len(witness), witness_interior_face=witness)


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
    check_int("enum_S", "k", k, 1, 20)  # 2^k members alone exceed 2^20 for k > 20
    check_int("enum_S", "n", n, 2 * k)
    if 2**k * sum(comb(n - 2 * k + 1, m) for m in range(1, k + 1)) > 2**20:
        raise InvalidParameters(f"enum_S({k}, {n}) would list more than 2^20 members")
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
    check_int("census_at_least", "threshold", threshold)
    return sorted((e for e, v in census.items() if v >= threshold), key=face_key)


def is_subcomplex(a: Complex, b: Complex) -> bool:
    """True iff every facet of `a` is a face of `b`: some facet of `b`
    contains it (`Complex.star_bits` is nonzero)."""
    return all(map(b.star_bits, a.facets))
