"""Property predicates: central symmetry, neighborliness, stackedness,
facet conditions, and edge-link censuses.

Neighborliness is always measured against a ground set of positive labels
(default 1..ambient_n; for the edge-link spheres on W_n it is 3..n+2): a
complex is cs-i-neighborly w.r.t. that ground when every i of the vertices
±ground, no two antipodal, span a face.  `cs_neighborliness` checks exactly that, size
by size, and reports the least antipode-free subset that is not a face.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .core import Complex, Face, antipode_face, canon_face, face_key
from .errors import InvalidParameters


def is_cs(c: Complex) -> bool:
    """True iff negation is a free involution on the faces of `c`.

    Freeness fails exactly when some facet contains an antipodal pair; the
    involution property reduces to the facet set being closed under negation.
    """
    for f in c.facets:
        if len({abs(v) for v in f}) != len(f):
            return False
        if antipode_face(f) not in c.facets:
            return False
    return True


@dataclass(frozen=True)
class NeighborlinessReport:
    """Largest i such that all antipode-free i-subsets of the ground are faces."""

    max_i: int
    exact: bool
    witness: Face | None  # least missing (max_i+1)-subset, when one exists


def _antipode_free_subsets(ground: tuple[int, ...], size: int):
    """Antipode-free `size`-subsets of ±ground, canonical and in canonical order."""
    signed = [s * g for g in ground for s in (1, -1)]
    for combo in itertools.combinations(signed, size):
        if len({abs(v) for v in combo}) == size:
            yield combo


def cs_neighborliness(c: Complex, ground: Iterable[int] | None = None) -> NeighborlinessReport:
    """The definition, level by level: the least missing antipode-free subset.

    `ground` is the set of positive labels of the reference vertex pairs
    (defaults to 1..ambient_n).  For i = 1, 2, ... the antipode-free
    i-subsets of ±ground are looked up, in canonical order, in the memoised
    i-faces of `c`; the first one missing is the witness and max_i = i - 1.
    When none is missing at any size, max_i = |ground| and `exact` is False.
    Level 1 walks an increasing range lazily and stops at the first label
    with no vertex, so the ground is materialised only once every label has
    both its vertices, that is when it has at most |vertices|/2 labels.
    """
    if ground is None:
        ground = range(1, c.ambient_n + 1)
    if not (isinstance(ground, range) and ground.step > 0):
        ground = sorted(set(ground))
    if ground and ground[0] <= 0:
        raise InvalidParameters("ground must consist of positive labels")
    vertices = c.faces_of_card(1)
    witness = next(((v,) for g in ground for v in (g, -g) if (v,) not in vertices), None)
    if witness is not None:
        return NeighborlinessReport(max_i=0, exact=True, witness=witness)
    ground = tuple(ground)
    for i in range(2, len(ground) + 1):
        have = c.faces_of_card(i)
        witness = next((s for s in _antipode_free_subsets(ground, i) if s not in have), None)
        if witness is not None:
            return NeighborlinessReport(max_i=i - 1, exact=True, witness=witness)
    return NeighborlinessReport(max_i=len(ground), exact=False, witness=None)


@dataclass(frozen=True)
class StackednessReport:
    """Smallest i such that all interior faces have dimension >= d - i."""

    min_i: int
    witness_interior_face: Face | None


def stackedness(b: Complex) -> StackednessReport:
    """Compare skeleta of a ball and its boundary: min_i = d - (least interior dim)."""
    if not b.is_pure:
        raise InvalidParameters("stackedness requires a pure complex")
    if b.is_void or b.dim < 0:
        raise InvalidParameters("stackedness requires a nonempty complex")
    rim = b.boundary()
    if rim.is_void:
        raise InvalidParameters("complex has empty boundary")
    d = b.dim
    for card in range(1, d + 2):
        interior = b.faces_of_card(card) - rim.faces_of_card(card)
        if interior:
            witness = min(interior, key=face_key)
            return StackednessReport(min_i=d - (card - 1), witness_interior_face=witness)
    raise InvalidParameters("no interior face found; boundary equals the complex")


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


@dataclass(frozen=True)
class SWitnessFamily:
    """The guaranteed-facet families S(2k, n)_m and their union."""

    k: int
    n: int
    by_m: dict[int, frozenset[Face]]

    @property
    def members(self) -> frozenset[Face]:
        out: set[Face] = set()
        for fam in self.by_m.values():
            out |= fam
        return frozenset(out)


def enum_S(k: int, n: int) -> SWitnessFamily:
    """Enumerate all of S(2k, n)_m for 1 <= m <= k.

    A member has abs-pattern (a_1, a_1+1), then gap-2 pairs (a_i, a_i+2) for
    i <= m, then the fixed tail pairs {n-2(k-i)-1, n-2(k-i)} for i > m; the
    two entries of each pair carry a common, independently chosen sign.
    """
    if k < 1 or n < 2 * k:
        raise InvalidParameters(f"enum_S requires k >= 1 and n >= 2k, got k={k}, n={n}")
    by_m: dict[int, frozenset[Face]] = {}
    for m in range(1, k + 1):
        tail = [(n - 2 * (k - i) - 1, n - 2 * (k - i)) for i in range(m + 1, k + 1)]
        limit = tail[0][0] if tail else n + 1  # next abs value must stay below this
        patterns: list[list[tuple[int, int]]] = []

        def extend(pairs: list[tuple[int, int]], low: int, remaining: int) -> None:
            if remaining == 0:
                if pairs[-1][1] < limit:
                    patterns.append(pairs)
                return
            width = 1 if not pairs else 2
            for a in range(low, n):
                if a + width > n:
                    break
                extend(pairs + [(a, a + width)], a + width + 1, remaining - 1)

        extend([], 1, m)
        members: set[Face] = set()
        for pat in patterns:
            full = pat + tail
            for signs in itertools.product((1, -1), repeat=k):
                members.add(
                    canon_face(s * v for s, pair in zip(signs, full) for v in pair)
                )
        by_m[m] = frozenset(members)
    return SWitnessFamily(k=k, n=n, by_m=by_m)


def delta3_facet_formula(n: int) -> frozenset[Face]:
    """Closed-form facet list of the 3-dimensional sewn sphere on V_n.

    Three families: the 1-stacked ball block and its antipode; the sewing
    shells for 5 <= s <= n; the six base facets left over at n = 4.
    """
    if n < 4:
        raise InvalidParameters(f"delta3_facet_formula requires n >= 4, got {n}")
    half: set[Face] = set()
    # ball block
    for i in range(1, n - 2):
        half.add(canon_face((i, i + 1, n - 1, n)))
        half.add(canon_face((-i, -i - 1, n - 1, n)))
    half.add(canon_face((1, -n + 2, n - 1, n)))
    half.add(canon_face((1, -n + 2, -n + 1, n)))
    half.add(canon_face((1, -n + 2, -n + 1, -n)))
    # sewing shells
    for ell in range(3, n - 1):
        for i in range(1, ell - 1):
            half.add(canon_face((i, i + 1, ell, ell + 2)))
            half.add(canon_face((-i, -i - 1, ell, ell + 2)))
        half.add(canon_face((1, -ell + 1, ell, ell + 2)))
    for ell in range(2, n - 2):
        half.add(canon_face((ell, ell + 1, ell + 2, -ell - 3)))
        half.add(canon_face((-1, ell, ell + 2, -ell - 3)))
    # base leftovers
    half.update(
        (canon_face((1, 2, -3, 4)), canon_face((1, 2, 3, -4)), canon_face((1, -2, 3, -4)))
    )
    return frozenset(half | {antipode_face(f) for f in half})


def edge_link_census(c: Complex) -> dict[Face, int]:
    """Number of vertices in the link of every edge, as a fresh dict."""
    if c.is_void or c.dim < 2:
        raise InvalidParameters("edge_link_census requires dim >= 2")
    return {e: size for e, (size, _) in c.edge_incidence().items()}


def census_at_least(census: dict[Face, int], threshold: int) -> list[Face]:
    """Edges whose link has at least `threshold` vertices, in canonical order."""
    return sorted((e for e, v in census.items() if v >= threshold), key=face_key)


def is_subcomplex(a: Complex, b: Complex) -> bool:
    """True iff every facet of `a` is a face of `b`."""
    return all(b.has_face(f) for f in a.facets)
