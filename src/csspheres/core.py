"""Immutable simplicial-complex kernel.

Vertices are nonzero signed integers; the ambient vertex set of a complex on
``ambient_n = n`` is ``V_n = {±1, ..., ±n}``.  Faces are stored as tuples
sorted by the canonical vertex order (|label| ascending, positive before
negative), and a complex is the antichain of its facets.  Two conventions
matter throughout:

* the *void* complex has no faces at all (not even the empty one) and is
  absorbing for joins;
* the complex ``{∅}`` whose only face is empty has f-vector ``(1,)`` and is
  the identity for joins.

All objects are immutable after construction; every operation returns a new
object and is safe to call concurrently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from types import MappingProxyType
from typing import Callable, Hashable, Iterable, Iterator, Mapping

from .errors import InvalidParameters
from .gf2 import gf2_pivots

Face = tuple[int, ...]

# Dimension assigned to the void complex (no faces); the complex {∅} has
# dimension -1.
VOID_DIM = -2


def vertex_key(v: int) -> tuple[int, bool]:
    """Sort key realizing the canonical vertex order 1 < -1 < 2 < -2 < ..."""
    return (abs(v), v < 0)


def face_key(face: Iterable[int]) -> tuple[tuple[int, bool], ...]:
    """Sort key for faces: lexicographic in the canonical vertex order."""
    return tuple(vertex_key(v) for v in face)


def sort_face(vertices: Iterable[int]) -> Face:
    """Canonical order (that of ``key=vertex_key``) of distinct labels, unchecked:
    descending puts v before -v, and the stable sort by |v| keeps that."""
    return tuple(sorted(sorted(vertices, reverse=True), key=abs))


def canon_face(vertices: Iterable[int]) -> Face:
    """Return the canonical tuple form of a face.

    Raises InvalidParameters on a label that is not a nonzero integer (bool
    included) and on a repeated label.
    """
    face = tuple(vertices)
    for v in face:
        if type(v) is not int or v == 0:
            raise InvalidParameters(f"vertex labels must be nonzero integers, got {v!r}")
    face = sort_face(face)
    if len(set(face)) != len(face):
        raise InvalidParameters(f"repeated vertex in face {face}")
    return face


def antipode_face(face: Iterable[int]) -> Face:
    """Negate every label of a face and restore canonical order."""
    return sort_face(-v for v in face)


class Complex:
    """A simplicial complex stored as the antichain of its facets.

    Lower faces are materialized on demand; membership of an arbitrary face is
    decided by containment in some facet via a per-vertex facet index.
    """

    __slots__ = ("ambient_n", "facets", "_cache")

    def __init__(self, facets: Iterable[Iterable[int]], ambient_n: int):
        if type(ambient_n) is not int or ambient_n < 0:
            raise InvalidParameters(f"ambient_n must be a nonnegative integer, got {ambient_n!r}")
        canon = {canon_face(f) for f in facets}
        for face in canon:
            for v in face:
                if abs(v) > ambient_n:
                    raise InvalidParameters(f"label {v} exceeds ambient bound {ambient_n}")
        # Reduce to an antichain. Distinct faces of one size never nest, so
        # only faces below the top size are checked, each against the kept
        # faces through its vertex with the fewest of them.
        if len({len(f) for f in canon}) > 1:
            top = max(map(len, canon))
            index: dict[int, list[frozenset[int]]] = {}
            maximal = set()
            for face in sorted(canon, key=len, reverse=True):
                fs = frozenset(face)
                if len(face) < top and (
                    not face or any(fs <= big for big in min((index.get(v, ()) for v in face), key=len))
                ):
                    continue
                maximal.add(face)
                for v in face:
                    index.setdefault(v, []).append(fs)
            canon = maximal
        self._assign(frozenset(canon), ambient_n)

    def _assign(self, facets: frozenset[Face], ambient_n: int) -> None:
        object.__setattr__(self, "ambient_n", ambient_n)
        object.__setattr__(self, "facets", facets)
        object.__setattr__(self, "_cache", {})

    @classmethod
    def _derived(cls, facets: Iterable[Face], ambient_n: int) -> "Complex":
        """Trusted constructor for facets that are a canonical antichain within
        `ambient_n` by construction: no canonicalisation, bound check or
        antichain reduction."""
        c = object.__new__(cls)
        c._assign(frozenset(facets), ambient_n)
        return c

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Complex is immutable")

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def dim(self) -> int:
        """Dimension; -1 for the complex {∅} and VOID_DIM for the void complex."""
        if self.is_void:
            return VOID_DIM
        return max(len(f) for f in self.facets) - 1

    @property
    def is_pure(self) -> bool:
        return len({len(f) for f in self.facets}) <= 1

    def sorted_facets(self) -> tuple[Face, ...]:
        """Facets in canonical lexicographic order (deterministic output)."""
        return self.memo("sorted_facets", lambda c: tuple(sorted(c.facets, key=face_key)))

    def vertices(self) -> tuple[int, ...]:
        return self.memo(
            "vertices", lambda c: tuple(sorted({v for f in c.facets for v in f}, key=vertex_key))
        )

    def _vertex_index(self) -> dict[int, tuple[frozenset[int], ...]]:
        def build(c: Complex) -> dict[int, tuple[frozenset[int], ...]]:
            index: dict[int, list[frozenset[int]]] = {}
            for f in c.facets:
                fs = frozenset(f)
                for v in f:
                    index.setdefault(v, []).append(fs)
            return {v: tuple(fl) for v, fl in index.items()}

        return self.memo("vindex", build)

    def has_face(self, face: Iterable[int]) -> bool:
        """True iff the given vertex set is contained in some facet."""
        face = canon_face(face)
        if not face:
            return not self.is_void
        index = self._vertex_index()
        candidates = None
        for v in face:
            lists = index.get(v)
            if lists is None:
                return False
            if candidates is None or len(lists) < len(candidates):
                candidates = lists
        fs = frozenset(face)
        return any(fs <= c for c in candidates)

    def __contains__(self, face) -> bool:
        return self.has_face(face)

    def faces_of_card(self, card: int) -> frozenset[Face]:
        """All faces with `card` vertices, materialized from the facets."""
        if card <= 0:
            return frozenset([()]) if card == 0 and not self.is_void else frozenset()
        return self.memo(
            ("card", card),
            lambda c: frozenset(
                sub for f in c.facets if len(f) >= card for sub in itertools.combinations(f, card)
            ),
        )

    def f_counts(self) -> tuple[int, ...]:
        """(f_-1, f_0, ..., f_d); (0,) for the void complex.

        Read from the memoised face walk that also gives `z2_betti_numbers`.
        """
        return self.memo("walk", _face_walk)[0]

    def edge_incidence(self) -> Mapping[Face, tuple[int, int]]:
        """Read-only map from every edge to (link vertex count, facet degree).

        One pass over the facets, memoised: the link vertex count is the
        number of vertices in the link of the edge, the facet degree the
        number of facets that contain it.
        """
        def build(c: Complex) -> Mapping[Face, tuple[int, int]]:
            link_verts: dict[Face, set[int]] = {}
            degree: dict[Face, int] = {}
            for f in c.facets:
                for e in itertools.combinations(f, 2):
                    link_verts.setdefault(e, set()).update(f)
                    degree[e] = degree.get(e, 0) + 1
            return MappingProxyType({e: (len(vs) - 2, degree[e]) for e, vs in link_verts.items()})

        return self.memo("edges", build)

    def _ridge_map(self) -> dict[Face, list[Face]]:
        """Facets of a pure complex grouped by their ridges.

        Not cached: on the larger spheres it holds every ridge at once.
        """
        by_ridge: dict[Face, list[Face]] = {}
        for f in self.facets:
            for r in itertools.combinations(f, len(f) - 1):
                by_ridge.setdefault(r, []).append(f)
        return by_ridge

    def memo(self, key: Hashable, compute: Callable[["Complex"], object]):
        """`compute(self)`, evaluated once per complex and kept under `key`.

        The one cache of every derived invariant, here and in other modules.
        The stored value is shared: callers hand out copies or read-only
        views of it.
        """
        if key not in self._cache:
            self._cache[key] = compute(self)
        return self._cache[key]

    # ------------------------------------------------------------------
    # structural operations
    # ------------------------------------------------------------------

    def link(self, face: Iterable[int]) -> "Complex":
        """Faces disjoint from `face` whose union with it is a face."""
        face = canon_face(face)
        fs = frozenset(face)
        new_facets = [tuple(v for v in f if v not in fs) for f in self.facets if fs.issubset(f)]
        if not new_facets:
            raise InvalidParameters(f"face {face} not in complex")
        return Complex._derived(new_facets, self.ambient_n)

    def star(self, face: Iterable[int]) -> "Complex":
        """Subcomplex generated by the facets containing `face`."""
        face = canon_face(face)
        fs = frozenset(face)
        kept = [f for f in self.facets if fs.issubset(f)]
        if not kept:
            raise InvalidParameters(f"face {face} not in complex")
        return Complex._derived(kept, self.ambient_n)

    def join(self, other: "Complex") -> "Complex":
        """Pairwise unions of facets; vertex sets must be disjoint."""
        mine = set(self.vertices())
        if mine & set(other.vertices()):
            raise InvalidParameters(
                f"join requires disjoint vertex sets, shared: {sorted(mine & set(other.vertices()))}"
            )
        ambient = max(self.ambient_n, other.ambient_n)
        return Complex([f + g for f in self.facets for g in other.facets], ambient)

    def skeleton(self, k: int) -> "Complex":
        """All faces of dimension at most k."""
        if k < -1:
            raise InvalidParameters(f"skeleton dimension must be >= -1, got {k}")
        if self.is_void or k >= self.dim:
            return self
        small = [f for f in self.facets if len(f) <= k + 1]
        return Complex(list(self.faces_of_card(k + 1)) + small, self.ambient_n)

    def restriction(self, vertices: Iterable[int]) -> "Complex":
        """Faces contained in the given vertex set, as maximal faces."""
        allowed = set(vertices)
        if self.is_void:
            return self
        pieces = {tuple(v for v in f if v in allowed) for f in self.facets}
        return Complex(pieces, self.ambient_n)

    def difference(self, other: "Complex") -> "Complex":
        """Complex generated by the facets of self that are not facets of other."""
        if other.is_void:
            return self
        if not self.is_pure or not other.is_pure:
            raise InvalidParameters("difference requires pure complexes")
        if self.dim != other.dim:
            raise InvalidParameters(
                f"difference requires equal dimensions, got {self.dim} and {other.dim}"
            )
        return Complex._derived(self.facets - other.facets, self.ambient_n)

    def boundary(self) -> "Complex":
        """Complex generated by the ridges lying in exactly one facet."""
        if not self.is_pure:
            raise InvalidParameters("boundary requires a pure complex")
        if self.is_void:
            return self
        by_ridge = self._ridge_map()
        bad = [r for r, fs in by_ridge.items() if len(fs) > 2]
        if bad:
            raise InvalidParameters(f"ridge {bad[0]} lies in {len(by_ridge[bad[0]])} facets")
        return Complex._derived([r for r, fs in by_ridge.items() if len(fs) == 1], self.ambient_n)

    def antipode(self) -> "Complex":
        """Image under the involution v -> -v."""
        return Complex._derived([antipode_face(f) for f in self.facets], self.ambient_n)

    def relabel(self, mapping: Callable[[int], int], ambient_n: int) -> "Complex":
        """Apply an injective label map to every vertex."""
        return Complex([[mapping(v) for v in f] for f in self.facets], ambient_n)

    def with_ambient(self, ambient_n: int) -> "Complex":
        """Same facets inside a different ambient bound."""
        return Complex(self.facets, ambient_n)

    # ------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Complex)
            and self.ambient_n == other.ambient_n
            and self.facets == other.facets
        )

    def __hash__(self) -> int:
        return hash((self.ambient_n, self.facets))

    def __repr__(self) -> str:
        return f"Complex(dim={self.dim}, ambient_n={self.ambient_n}, facets={len(self.facets)})"


# ----------------------------------------------------------------------
# module-level operations
# ----------------------------------------------------------------------


def simplex(vertices: Iterable[int], ambient_n: int) -> Complex:
    """The full simplex on the given vertices."""
    return Complex([canon_face(vertices)], ambient_n)


def cone(base: Complex, apex: int) -> Complex:
    """Join of `base` with the single vertex `apex`."""
    ambient = max(base.ambient_n, abs(apex))
    return base.join(Complex([(apex,)], ambient))


def suspension(base: Complex, poles: tuple[int, int]) -> Complex:
    """Join of `base` with the two-point complex on `poles`."""
    a, b = poles
    ambient = max(base.ambient_n, abs(a), abs(b))
    return base.join(Complex([(a,), (b,)], ambient))


def from_walk(vertices: list[int], ambient_n: int) -> Complex:
    """Path complex through `vertices`; a cycle when the walk closes up.

    A single vertex gives a point; two vertices give an edge.
    """
    if not vertices:
        return Complex([], ambient_n)
    if len(vertices) == 1:
        return Complex([(vertices[0],)], ambient_n)
    closed = vertices[0] == vertices[-1]
    seq = vertices[:-1] if closed else vertices
    edges = [
        (seq[i], seq[(i + 1) % len(seq)])
        for i in range(len(seq) if closed else len(seq) - 1)
    ]
    return Complex(edges, ambient_n)


@dataclass(frozen=True)
class FHVectors:
    """Face counts by dimension and the derived h-vector."""

    f: tuple[int, ...]  # f_{-1} .. f_d
    h: tuple[int, ...]  # h_0 .. h_{d+1}


def h_from_f(f: tuple[int, ...]) -> tuple[int, ...]:
    """h-vector from (f_-1, ..., f_d) via sum_i h_i t^{d+1-i} = sum_i f_{i-1}(t-1)^{d+1-i}."""
    d = len(f) - 2
    return tuple(
        sum((-1) ** (j - i) * comb(d + 1 - i, j - i) * f[i] for i in range(j + 1))
        for j in range(d + 2)
    )


def fh_vectors(c: Complex) -> FHVectors:
    """Exact f-vector from the face walk plus the matching h-vector."""
    f = c.f_counts()
    if c.is_void:
        return FHVectors(f=f, h=(0,))
    return FHVectors(f=f, h=h_from_f(f))


def facet_ridge_graph(c: Complex) -> dict[Face, tuple[Face, ...]]:
    """Adjacency of the facets of a pure complex, adjacent when sharing a ridge.

    Keys and each neighbour tuple follow the canonical facet order.
    """
    if not c.is_pure:
        raise InvalidParameters("facet-ridge graph requires a pure complex")
    adjacency: dict[Face, list[Face]] = {f: [] for f in c.sorted_facets()}
    for group in c._ridge_map().values():
        for a, b in itertools.combinations(group, 2):
            adjacency[a].append(b)
            adjacency[b].append(a)
    return {f: tuple(sorted(nbs, key=face_key)) for f, nbs in adjacency.items()}


@dataclass(frozen=True)
class TopologyReport:
    """Cheap desk-scale sanity report: pseudomanifold checks plus GF(2) homology."""

    pure: bool
    connected: bool
    closed_pseudomanifold: bool
    euler: int
    z2_betti: tuple[int, ...]

    def is_sphere(self) -> bool:
        """Betti/pseudomanifold profile of a d-sphere (d >= 0).

        The profile's beta_0 fixes connectivity: one component for d >= 1,
        the two points of S^0 for d = 0.
        """
        d = len(self.z2_betti) - 1
        if d < 0:
            return False
        return (
            self.pure
            and self.closed_pseudomanifold
            and self.z2_betti == tuple((i == 0) + (i == d) for i in range(d + 1))
        )

    def is_ball(self) -> bool:
        """Betti profile of a d-ball (contractible, not closed)."""
        d = len(self.z2_betti) - 1
        if d < 0:
            return False
        return (
            self.pure
            and not self.closed_pseudomanifold
            and self.z2_betti == tuple(1 if i == 0 else 0 for i in range(d + 1))
        )


def _boundary_rows(level: dict[Face, int], below: dict[Face, int], skip, card: int) -> Iterator[int]:
    """Boundary row masks, over the indices in `below`, of the faces in `level`
    (cardinality `card`) whose positions are not in `skip`, in order."""
    for i, f in enumerate(level):
        if i not in skip:
            mask = 0
            for sub in itertools.combinations(f, card - 1):
                mask |= 1 << below[sub]
            yield mask


def _face_walk(c: Complex) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(f-vector, unreduced GF(2) Betti numbers) from one top-down pass.

    The walk takes the facets in canonical order and indexes each lower face
    where it first appears; facets of a smaller size join at their own
    level.  Only one level of faces is held at a time.  The same loop
    reduces the boundary ranks top-down with clearing.  A face that leads a
    pivot row of the boundary above has, since the boundary of a boundary is
    zero, the boundary of the sum of that row's other, lower-indexed faces,
    so its own row lies in the span of the rows before it and is skipped.
    """
    if c.is_void:
        return (0,), ()
    top = c.dim + 1
    by_card: dict[int, list[Face]] = {}
    for f in c.sorted_facets():  # the order only sets fill-in
        by_card.setdefault(len(f), []).append(f)
    counts = [1] + [0] * top
    ranks = [0] * (top + 2)  # ranks[card]: rank of the boundary from card to card - 1
    level: dict[Face, int] = {}
    cleared: set[int] = set()
    for card in range(top, 0, -1):
        for f in by_card.get(card, ()):
            level[f] = len(level)
        counts[card] = len(level)
        if card == 1:
            break
        subs = itertools.chain.from_iterable(map(itertools.combinations, level, itertools.repeat(card - 1)))
        below = dict(zip(dict.fromkeys(subs), itertools.count()))
        cleared = set(gf2_pivots(_boundary_rows(level, below, cleared, card)))
        ranks[card] = len(cleared)
        level = below
    return tuple(counts), tuple(counts[k] - ranks[k] - ranks[k + 1] for k in range(1, top + 1))


def z2_betti_numbers(c: Complex) -> tuple[int, ...]:
    """Unreduced GF(2) Betti numbers beta_0..beta_d; () for the void complex and {∅}.

    Memoised with the f-vector of the same walk.
    """
    return c.memo("walk", _face_walk)[1]


def topology_report(c: Complex) -> TopologyReport:
    """Purity, connectivity (beta_0 = 1), closed-pseudomanifold check, Euler
    number, GF(2) Betti; the counts all come from the one memoised face walk."""
    pure = c.is_pure
    closed = pure and c.dim >= 0 and all(len(fs) == 2 for fs in c._ridge_map().values())
    betti = z2_betti_numbers(c)
    euler = sum((-1) ** i * fi for i, fi in enumerate(c.f_counts()[1:]))
    return TopologyReport(
        pure=pure,
        connected=not betti or betti[0] == 1,
        closed_pseudomanifold=closed,
        euler=euler,
        z2_betti=betti,
    )
