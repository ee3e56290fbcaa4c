"""Shelling verification and the explicit symmetric shellings.

A facet order is a shelling when, at every step, the new faces contributed
by the incoming facet form a filter with a unique minimal element (the
restriction face).  Verification maintains the downward-closed set of
covered faces; the restriction face of F is r = {v in F : F - v covered},
and the step is valid iff r itself is still uncovered.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .builders import build_B
from .core import Complex, Face, antipode_face, canon_face, facet_ridge_graph
from .errors import InvalidParameters


@dataclass(frozen=True)
class ShellingOrder:
    """A facet order checked by ``is_shelling``, with its restriction faces.

    ``failed_at`` is the 0-based index of the first violating position, or
    None when the order is a valid shelling.  ``restriction_faces`` is filled
    up to (excluding) the failure.
    """

    facets: tuple[Face, ...]
    restriction_faces: tuple[Face, ...]
    failed_at: int | None

    @property
    def valid(self) -> bool:
        return self.failed_at is None


def is_shelling(c: Complex, order: Sequence[Iterable[int]]) -> ShellingOrder:
    """Verify a candidate facet order; compute restriction faces on success."""
    if not c.is_pure:
        raise InvalidParameters("shellings are defined for pure complexes")
    facets = tuple(canon_face(f) for f in order)
    if len(facets) != len(set(facets)) or set(facets) != c.facets:
        raise InvalidParameters("order is not a permutation of the facet set")
    covered: set[Face] = set()
    restrictions: list[Face] = []
    for pos, f in enumerate(facets):
        r = tuple(v for v in f if tuple(w for w in f if w != v) in covered)
        if pos and r in covered:
            return ShellingOrder(facets, tuple(restrictions), failed_at=pos)
        restrictions.append(r)
        for card in range(0, len(f) + 1):
            covered.update(itertools.combinations(f, card))
    return ShellingOrder(facets, tuple(restrictions), failed_at=None)


def _b31_block(n: int) -> list[Face]:
    """Facets of build_B(3, 1, n) in a tree-connected (BFS) order.

    Rooted at the facet {1, -(n-2), -(n-1), -n}; children visited in
    canonical facet order.  Any connected order of a 1-stacked ball shells it.
    """
    ball = build_B(3, 1, n)
    graph = facet_ridge_graph(ball)
    root = canon_face((1, -(n - 2), -(n - 1), -n))
    order = [root]
    seen = {root}
    queue = [root]
    while queue:
        current = queue.pop(0)
        for nb in graph[current]:
            if nb not in seen:
                seen.add(nb)
                order.append(nb)
                queue.append(nb)
    return order


def symmetric_shelling_delta3(n: int) -> tuple[Face, ...]:
    """Symmetric shelling order (F_1..F_m, -F_m..-F_1) of build_delta(3, n).

    First half: the 1-stacked ball block, then for k = n down to 5 the shell
    block F_{k,1}, F_{k,2} followed by the path facets of
    (k-3, ..., 1, -(k-3), ..., -1) * (k-2, k), then three closing facets.
    The second half lists the antipodes in reverse.
    """
    if n < 4:
        raise InvalidParameters(f"symmetric shelling defined for n >= 4, got {n}")
    half: list[Face] = list(_b31_block(n))
    for k in range(n, 4, -1):
        half.append(canon_face((-(k - 3), -(k - 2), -(k - 1), k)))
        half.append(canon_face((1, -(k - 3), -(k - 1), k)))
        walk = list(range(k - 3, 0, -1)) + list(range(-(k - 3), 0))
        for a, b in zip(walk, walk[1:]):
            half.append(canon_face((a, b, k - 2, k)))
    # Closing block: one facet from each remaining antipodal pair.  The third
    # is {1, 2, -3, 4}; listing {1, 2, 3, -4} here instead would repeat the
    # antipodal class of the first closer and break the symmetric completion.
    half.append(canon_face((-1, -2, -3, 4)))
    half.append(canon_face((1, -2, 3, -4)))
    half.append(canon_face((1, 2, -3, 4)))
    return tuple(half) + tuple(antipode_face(f) for f in reversed(half))


def shelling_B42(n: int) -> tuple[Face, ...]:
    """Shelling of build_B(4, 2, n) induced by the symmetric 3-sphere shelling.

    Reverse the symmetric shelling of build_delta(3, n-1); its prefix on the
    antipodal ball block shells -B(3,1,n-1) and extends to a shelling of
    B(3,2,n-1).  Cone the two pieces over n and -n respectively.
    """
    if n < 5:
        raise InvalidParameters(f"shelling_B42 requires n >= 5, got {n}")
    m = n - 1
    reversed_order = symmetric_shelling_delta3(m)[::-1]
    block_size = 2 * m - 3  # facets of the 1-stacked ball block
    o1 = reversed_order[:block_size]
    o2 = reversed_order[: len(reversed_order) - block_size]
    neg_ball = build_B(3, 1, m).antipode()
    assert set(o1) == neg_ball.facets, "reversed order does not start on the antipodal ball"
    return tuple(canon_face(f + (n,)) for f in o2) + tuple(canon_face(f + (-n,)) for f in o1)
