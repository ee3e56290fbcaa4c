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

import functools
import itertools
import operator
from collections import Counter
from math import comb
from types import MappingProxyType
from typing import Callable, Collection, Hashable, Iterable, Iterator, Mapping, NamedTuple

from .errors import InvalidParameters, check_int
from .gf2 import gf2_pivots

Face = tuple[int, ...]

# Dimension assigned to the void complex (no faces); the complex {∅} has
# dimension -1.
VOID_DIM = -2


def vertex_key(v: int) -> tuple[int, bool]:
    """Sort key realizing the canonical vertex order 1 < -1 < 2 < -2 < ...

    It orders labels that `canon_face` admits and checks nothing: a label
    without `abs`, such as a `str` or `None`, raises `TypeError`, and a
    float or a bool gets a key unchecked."""
    return (abs(v), v < 0)


def face_key(face: Iterable[int]) -> tuple[int, ...]:
    """Sort key for faces: lexicographic in the canonical vertex order, each
    label v ranked 2|v| + (v < 0), an int in the order of `vertex_key`.

    Like `vertex_key`, it orders labels that `canon_face` admits and checks
    nothing: a label without `abs` raises `TypeError`."""
    return tuple(2 * abs(v) + (v < 0) for v in face)


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


def antipode_face(face: Face) -> Face:
    """Negate every label of a canonical face and restore canonical order: a
    face without a pair v, -v (neighbours if present) is ordered by |v| alone,
    so its label-wise negation is canonical as it stands."""
    negated = tuple(map(operator.neg, face))
    return sort_face(negated) if any(map(operator.eq, face[1:], negated)) else negated


def _subfaces(faces: Iterable[Face], card: int) -> Iterator[Face]:
    """Every `card`-subset of each face in turn, repeats included; none of a
    face with fewer than `card` vertices."""
    return itertools.chain.from_iterable(map(itertools.combinations, faces, itertools.repeat(card)))


def _vertex_bits(faces: Collection[Face], vertices: Iterable[int]) -> dict[int, int]:
    """Map each of `vertices`, which hold every vertex of `faces`, to the
    bitset of the faces that contain it: bit j stands for the j-th face."""
    size = (len(faces) + 7) >> 3
    rows = {v: bytearray(size) for v in vertices}
    for j, f in enumerate(faces):
        byte, bit = j >> 3, 1 << (j & 7)
        for v in f:
            rows[v][byte] |= bit
    return {v: int.from_bytes(row, "little") for v, row in rows.items()}


def _meet(bits: Mapping[int, int], face: Iterable[int], every: int) -> int:
    """AND of the bitsets of `face`'s vertices (0 for a vertex without one);
    `every`, the set of all bits, for the empty face."""
    return functools.reduce(operator.and_, map(bits.get, face, itertools.repeat(0)), every)


def _check_bound(labels: Iterable[int], ambient_n: int) -> None:
    """Refuse an `ambient_n` that is no nonnegative int, then any label beyond it."""
    check_int("Complex", "ambient_n", ambient_n, 0)
    for v in labels:
        if abs(v) > ambient_n:
            raise InvalidParameters(f"label {v} exceeds ambient bound {ambient_n}")


class Complex:
    """A simplicial complex stored as the antichain of its facets.

    The facets that contain a vertex set, and so its membership, are found
    by ANDing the memoised per-vertex facet bitsets (`star_bits`).
    """

    __slots__ = ("ambient_n", "facets", "_cache")

    def __init__(self, facets: Iterable[Iterable[int]], ambient_n: int):
        self._build(map(canon_face, facets), ambient_n)

    @classmethod
    def _canonical(cls, faces: Iterable[Face], ambient_n: int) -> "Complex":
        """`Complex(faces, ambient_n)` for faces that `canon_face` returned:
        the label checks and the sort are not repeated."""
        c = object.__new__(cls)
        c._build(faces, ambient_n)
        return c

    def _build(self, faces: Iterable[Face], ambient_n: int) -> None:
        """Check `ambient_n` and the canonical `faces` against it; keep the
        maximal faces."""
        canon = set(faces)
        _check_bound(itertools.chain.from_iterable(canon), ambient_n)
        # Reduce to an antichain one size level at a time, from the top down:
        # a face is kept iff no face kept above contains it, that is iff the
        # AND of its vertices' bitsets of the kept faces is 0.  Distinct
        # faces of one size never nest, so each level joins the bitsets at once.
        if len({len(f) for f in canon}) > 1:
            kept: list[Face] = []
            bits: dict[int, int] = {}
            for _, group in itertools.groupby(sorted(canon, key=len, reverse=True), len):
                every = (1 << len(kept)) - 1
                level = [f for f in group if not _meet(bits, f, every)]
                for v, row in _vertex_bits(level, {v for f in level for v in f}).items():
                    bits[v] = bits.get(v, 0) | row << len(kept)
                kept += level
            canon = kept
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

    def __reduce__(self):
        """Pickle and copy through `_derived`, so the copy starts with an empty cache."""
        return (type(self)._derived, (self.facets, self.ambient_n))

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def dim(self) -> int:
        """Dimension; -1 for the complex {∅} and VOID_DIM for the void complex.  Memoised."""
        return self.memo("dim", lambda c: max(map(len, c.facets), default=VOID_DIM + 1) - 1)

    @property
    def is_pure(self) -> bool:
        """All facets have one size (the void complex too).  Memoised."""
        return self.memo("pure", lambda c: len(set(map(len, c.facets))) <= 1)

    def sorted_facets(self) -> tuple[Face, ...]:
        """Facets in canonical lexicographic order (deterministic output)."""
        def build(c: Complex) -> tuple[Face, ...]:
            # each vertex as its rank in two base-2^16 digits: strings compare
            # code point by code point, in the order of `face_key`, and faster
            # than tuples; one character would cap the rank at sys.maxunicode
            rank = {v: chr(r >> 16) + chr(r & 0xFFFF) for r, v in enumerate(c.vertices())}
            return tuple(sorted(c.facets, key=lambda f: "".join(map(rank.__getitem__, f))))

        return self.memo("sorted_facets", build)

    def vertices(self) -> tuple[int, ...]:
        return self.memo(
            "vertices", lambda c: tuple(sorted({v for f in c.facets for v in f}, key=vertex_key))
        )

    def has_face(self, face: Iterable[int]) -> bool:
        """True iff the given vertex set is contained in some facet."""
        return bool(self.star_bits(canon_face(face)))

    def facet_bits(self) -> Mapping[int, int]:
        """Read-only map from each vertex to the bitset of the facets that
        contain it: bit j is set when the vertex lies in the j-th facet of
        `facets`.  Memoised.  A vertex set is a face iff the AND of its
        vertices' bitsets is nonzero, the AND of none being every facet.
        """
        return self.memo("facet_bits", lambda c: MappingProxyType(_vertex_bits(c.facets, c.vertices())))

    def star_bits(self, face: Iterable[int]) -> int:
        """Bitset of the facets that contain `face`, read off `facet_bits`:
        bit j is set iff the j-th facet of `facets` contains it."""
        return _meet(self.facet_bits(), face, (1 << len(self.facets)) - 1)

    def f_counts(self) -> tuple[int, ...]:
        """(f_-1, f_0, ..., f_d); (0,) for the void complex.

        Read from the memoised face walk that also gives `z2_betti_numbers`.
        """
        return self.memo("walk", _face_walk)[0]

    def edge_incidence(self) -> Mapping[Face, tuple[int, int]]:
        """Read-only map from every edge to (link vertex count, facet degree).

        Memoised.  A vertex v lies in the link of the edge e exactly when
        e ∪ {v} is a triangle, so the link vertex count is the number of
        triangles that contain e; the facet degree is the number of facets
        that contain it.  The triangles are found by whichever of two walks
        does less work: the facet bitsets test every vertex triple once,
        the triangle count hashes every 3-subset of every facet, and one
        test costs about a quarter of one hash.  Few vertices in large
        facets take the bitsets (Δ(7,12): 24 vertices, 215 040 subsets),
        many vertices in small facets the count (Δ(3,40): 80 and 12 160).
        """
        def build(c: Complex) -> Mapping[Face, tuple[int, int]]:
            subsets = sum(map(comb, map(len, c.facets), itertools.repeat(3)))
            walk = _edges_by_bitsets if len(c.vertices()) ** 3 <= 24 * subsets else _edges_by_triangles
            return MappingProxyType(walk(c))

        return self.memo("edges", build)

    def _facet_degrees(self, card: int) -> Counter[Face]:
        """How many facets contain each face with `card` vertices.  Not cached:
        at the ridges of a large sphere it holds every ridge at once."""
        return Counter(_subfaces(self.facets, card)) if card >= 0 else Counter()

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
        fs = frozenset(canon_face(face))
        return Complex._derived(
            [tuple(v for v in f if v not in fs) for f in self.star(face).facets], self.ambient_n
        )

    def star(self, face: Iterable[int]) -> "Complex":
        """Subcomplex generated by the facets containing `face`, read off `star_bits`."""
        face = canon_face(face)
        mask = self.star_bits(face)
        if not mask:
            raise InvalidParameters(f"face {face} not in complex")
        picked = map("1".__eq__, bin(mask)[:1:-1])  # bit j of the mask, j = 0, 1, ...
        return Complex._derived(itertools.compress(self.facets, picked), self.ambient_n)

    def join(self, other: "Complex") -> "Complex":
        """Pairwise unions of facets; vertex sets must be disjoint."""
        mine = set(self.vertices())
        if mine & set(other.vertices()):
            raise InvalidParameters(
                f"join requires disjoint vertex sets, shared: {sorted(mine & set(other.vertices()))}"
            )
        ambient = max(self.ambient_n, other.ambient_n)
        return Complex([f + g for f in self.facets for g in other.facets], ambient)

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
        """Complex generated by the ridges of facet degree 1; refuses degree > 2."""
        if not self.is_pure:
            raise InvalidParameters("boundary requires a pure complex")
        degrees = self._facet_degrees(self.dim)
        bad = next((r for r, k in degrees.items() if k > 2), None)
        if bad is not None:
            raise InvalidParameters(f"ridge {bad} lies in {degrees[bad]} facets")
        return Complex._derived([r for r, k in degrees.items() if k == 1], self.ambient_n)

    def antipode(self) -> "Complex":
        """Image under the involution v -> -v."""
        return Complex._derived([antipode_face(f) for f in self.facets], self.ambient_n)

    def relabel(self, mapping: Callable[[int], int], ambient_n: int) -> "Complex":
        """Apply an injective label map to every vertex, calling it once per
        vertex; it keeps the antichain, so each facet's image is only sorted."""
        image = {v: mapping(v) for v in self.vertices()}
        source: dict[int, int] = {}
        for v, w in image.items():
            if type(w) is int and source.setdefault(w, v) != v:
                raise InvalidParameters(f"relabel is not injective: {source[w]} and {v} both map to {w}")
        order = canon_face(image.values())  # the images are nonzero ints
        _check_bound(order, ambient_n)
        rank = dict(zip(order, itertools.count())).__getitem__
        images = [tuple(sorted(map(image.__getitem__, f), key=rank)) for f in self.facets]
        return Complex._derived(images, ambient_n)

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
    face = canon_face((apex,))  # refuses an apex that is no nonzero int
    return base.join(Complex._canonical([face], max(base.ambient_n, abs(apex))))


def from_walk(vertices: list[int], ambient_n: int) -> Complex:
    """Path complex through `vertices`; a cycle when the walk closes up.

    A single vertex gives a point; two vertices give an edge.
    """
    if len(vertices) == 1:
        return Complex([(vertices[0],)], ambient_n)
    return Complex(zip(vertices, vertices[1:]), ambient_n)


def is_cs(c: Complex) -> bool:
    """True iff negation is a free involution on the faces of `c`.  Memoised.

    An antipode-free facet is ordered by |v| alone, so its label-wise
    negation is canonical as it stands; a facet that holds a pair v, -v
    negates to a tuple that puts -v first, which is no canonical face.  So
    when the negation of every facet with a positive first label is a facet
    (one with a negative first label), and the facets with a negative first
    label are no more, negation maps each kind onto the other and no facet
    holds an antipodal pair.  The empty facet, of {∅} alone, is its own
    negation.
    """
    def build(c: Complex) -> bool:
        facets = c.facets
        positive = [f for f in facets if f and f[0] > 0]
        return 2 * len(positive) == len(facets) - (() in facets) and all(map(
            facets.__contains__, map(tuple, map(map, itertools.repeat(operator.neg), positive))))

    return c.memo("cs", build)


class FHVectors(NamedTuple):
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
    return FHVectors(f=f, h=h_from_f(f))


def facet_ridge_graph(c: Complex) -> dict[Face, tuple[Face, ...]]:
    """Adjacency of the facets of a pure complex, adjacent when sharing a ridge.

    Keys and each neighbour tuple follow the canonical facet order.
    """
    if not c.is_pure:
        raise InvalidParameters("facet-ridge graph requires a pure complex")
    adjacency: dict[Face, list[Face]] = {f: [] for f in c.sorted_facets()}
    by_ridge: dict[Face, list[Face]] = {}
    for f in filter(None, c.facets):  # the empty face has no ridges
        for r in itertools.combinations(f, len(f) - 1):
            by_ridge.setdefault(r, []).append(f)
    for group in by_ridge.values():
        for a, b in itertools.combinations(group, 2):
            adjacency[a].append(b)
            adjacency[b].append(a)
    return {f: tuple(sorted(nbs, key=face_key)) for f, nbs in adjacency.items()}


class TopologyReport(NamedTuple):
    """Cheap desk-scale sanity report: pseudomanifold checks plus GF(2) homology."""

    pure: bool
    connected: bool
    closed_pseudomanifold: bool
    euler: int
    z2_betti: tuple[int, ...]
    pseudomanifold: bool

    def is_sphere(self) -> bool:
        """Betti/pseudomanifold profile of a d-sphere (d >= 0).

        The profile's beta_0 fixes connectivity: one component for d >= 1,
        the two points of S^0 for d = 0.
        """
        d = len(self.z2_betti) - 1
        return (
            self.pure
            and self.closed_pseudomanifold
            and self.z2_betti == tuple((i == 0) + (i == d) for i in range(d + 1))
        )

    def is_ball(self) -> bool:
        """Betti profile of a d-ball on a pseudomanifold (contractible, not closed)."""
        d = len(self.z2_betti) - 1
        return (
            self.pseudomanifold
            and not self.closed_pseudomanifold
            and self.z2_betti == tuple(1 if i == 0 else 0 for i in range(d + 1))
        )


def _edges_by_triangles(c: Complex) -> dict[Face, tuple[int, int]]:
    """`Complex.edge_incidence` from the set of 3-subsets of the facets, kept
    only while it is counted: each triangle counts once at each of its edges."""
    links = Counter(_subfaces(set(_subfaces(c.facets, 3)), 2))
    return {e: (links[e], k) for e, k in c._facet_degrees(2).items()}


def _edges_by_bitsets(c: Complex) -> dict[Face, tuple[int, int]]:
    """`Complex.edge_incidence` from `Complex.facet_bits`, in canonical order.

    Two vertices span an edge iff their bitsets meet, and its facet degree
    is the number of facets in the meet; three span a triangle iff all
    three meet.  Each triangle is found once, from its first two vertices,
    and counts at each of its edges; the edges come in canonical order, so
    the count of each is complete once its own third vertices are added.
    """
    bits = c.facet_bits()
    verts = c.vertices()
    rows = [bits[v] for v in verts]
    n = len(verts)
    after = [(range(j + 1, n), rows[j + 1 :]) for j in range(n)]
    links = [[0] * n for _ in range(n)]
    edges = {}
    for i in range(n):
        row, link = rows[i], links[i]
        for j in range(i + 1, n):
            common = row & rows[j]
            if common:
                later, later_rows = after[j]
                thirds = list(itertools.compress(later, map(common.__and__, later_rows)))
                edges[verts[i], verts[j]] = (link[j] + len(thirds), common.bit_count())
                link_j = links[j]
                for k in thirds:
                    link[k] += 1
                    link_j[k] += 1
    return edges


def _face_walk(c: Complex) -> tuple[tuple[int, ...], tuple[int, ...], bool, bool]:
    """(f-vector, unreduced GF(2) Betti numbers, closed pseudomanifold,
    pseudomanifold) from one top-down pass.

    The walk takes the facets in canonical order and keys each lower face by
    the position in the stream of subfaces where it first appears, so keys
    rise in order of first appearance, with gaps; facets of a smaller size
    join at their own level, keyed -1.  A level is keyed by one
    `dict.setdefault` per subface in the same pass that lists the boundary
    rows of the level above, and only two levels are held at a time.  The
    same loop reduces the boundary ranks top-down with clearing.
    A face that leads a pivot of the boundary above has, since the boundary
    of a boundary is zero, the boundary of the sum of that pivot's other,
    earlier faces; so, by induction, its row lies in the span of the kept
    rows and is dropped before its subfaces are listed.  Every face below
    still lies in a kept face: one in none would have a 1 in a cleared row
    and 0 in every kept row, outside their span.  The kept rows go to
    `gf2_pivots` as one flat list of the keys of their faces below, `card`
    to a row; only the order of the keys matters there.

    A pure complex is a pseudomanifold when every ridge lies in at most two
    facets, closed when in exactly two, read off the key counts of the top
    level, where nothing is cleared; the only ridge of a 0-dimensional
    complex is ∅, in every point.
    """
    if c.is_void:
        return (0,), (), False, False
    top = c.dim + 1
    by_card: dict[int, list[Face]] = {}
    for f in c.sorted_facets():  # the order only sets fill-in
        by_card.setdefault(len(f), []).append(f)
    counts = [1] + [0] * top
    ranks = [0] * (top + 2)  # ranks[card]: rank of the boundary from card to card - 1
    closed, manifold = top == 1 and len(c.facets) == 2, top == 1 and len(c.facets) <= 2
    level: dict[Face, int] = {}
    cleared: dict[int, object] = {}  # the leads of the boundary above
    for card in range(top, 0, -1):
        level.update(dict.fromkeys(by_card.get(card, ()), -1))
        counts[card] = len(level)
        if card == 1:
            break
        below: dict[Face, int] = {}
        kept = map(operator.not_, map(cleared.__contains__, level.values()))
        subfaces = _subfaces(itertools.compress(level, kept), card - 1)
        keys = list(map(below.setdefault, subfaces, itertools.count()))
        if card == top and c.is_pure:
            degrees = set(Counter(keys).values())
            closed, manifold = degrees == {2}, max(degrees) <= 2
            if closed:  # the rows sum to 0, so the last one reduces to 0
                del keys[-card:]
        cleared = gf2_pivots(keys, card)
        ranks[card] = len(cleared)
        level = below
    betti = tuple(counts[k] - ranks[k] - ranks[k + 1] for k in range(1, top + 1))
    return tuple(counts), betti, closed, manifold


def z2_betti_numbers(c: Complex) -> tuple[int, ...]:
    """Unreduced GF(2) Betti numbers beta_0..beta_d; () for the void complex and {∅}.

    Memoised with the f-vector of the same walk.
    """
    return c.memo("walk", _face_walk)[1]


def topology_report(c: Complex) -> TopologyReport:
    """Purity, connectivity (beta_0 = 1), closed-pseudomanifold check (pure,
    every ridge has facet degree 2), Euler number, GF(2) Betti and
    pseudomanifold check (pure, no ridge of facet degree above 2); all but
    purity are read off the one memoised face walk."""
    f, betti, closed, manifold = c.memo("walk", _face_walk)
    euler = sum((-1) ** i * fi for i, fi in enumerate(f[1:]))
    return TopologyReport(
        pure=c.is_pure,
        connected=not betti or betti[0] == 1,
        closed_pseudomanifold=closed,
        euler=euler,
        z2_betti=betti,
        pseudomanifold=manifold,
    )
