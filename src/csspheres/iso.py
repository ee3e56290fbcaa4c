"""Isomorphism and automorphism search via invariant-pruned backtracking.

Vertices are matched class-by-class on isomorphism-invariant fingerprints
(degree, multiset of incident edge-link sizes, link f-vector), rarest class
first.  Partial maps are pruned by edge-link census equality on assigned
pairs and by face-indicator consistency on small cardinalities.  When both
complexes are cs and cs-2-neighborly, the unique non-neighbor of a vertex is
its antipode, so any isomorphism satisfies phi(-v) = -phi(v); the search
then assigns one representative per antipodal pair.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import comb

from .core import Complex, Face, fh_vectors, sort_face, vertex_key
from .errors import SearchBudgetExceeded
from .props import is_cs

VertexMap = dict[int, int]


@dataclass(frozen=True)
class Fingerprint:
    """Isomorphism-invariant per-vertex signature."""

    degree: int
    incident_link_sizes: tuple[int, ...]
    link_f: tuple[int, ...]


def _fingerprints(c: Complex) -> dict[int, Fingerprint]:
    incident: dict[int, list[int]] = {v: [] for v in c.vertices()}
    for e, (size, _) in c.edge_incidence().items():
        for v in e:
            incident[v].append(size)
    return {
        v: Fingerprint(
            degree=len(sizes),
            incident_link_sizes=tuple(sorted(sizes)),
            link_f=fh_vectors(c.link((v,))).f,
        )
        for v, sizes in incident.items()
    }


def vertex_fingerprints(c: Complex) -> dict[int, Fingerprint]:
    """Deterministic fingerprint for every vertex of `c`, memoised per complex."""
    return dict(c.memo("iso.fingerprints", _fingerprints))


def _triangle_profile(c: Complex) -> dict[int, tuple]:
    """Per-vertex sorted multiset of facet-degrees of incident triangles."""
    deg: Counter[Face] = Counter()
    for f in c.facets:
        for t in itertools.combinations(f, 3):
            deg[t] += 1
    per_vertex: dict[int, Counter] = {v: Counter() for v in c.vertices()}
    for t, d in deg.items():
        for v in t:
            per_vertex[v][d] += 1
    return {v: tuple(sorted(cnt.items())) for v, cnt in per_vertex.items()}


def _vertex_classes(c: Complex) -> dict[int, tuple]:
    """Refined vertex classes for the search.

    Fingerprint plus incident (link size, facet degree) pairs plus incident
    triangle degrees.  Purely invariant, so restricting candidate images to
    equal classes is sound.
    """
    fps = vertex_fingerprints(c)
    incident: dict[int, list[tuple[int, int]]] = {v: [] for v in c.vertices()}
    for e, sizes in c.edge_incidence().items():
        for v in e:
            incident[v].append(sizes)
    tri = _triangle_profile(c)
    return {v: (fps[v], tuple(sorted(incident[v])), tri[v]) for v in c.vertices()}


def _census_multiset(c: Complex) -> Counter:
    return Counter(size for size, _ in c.edge_incidence().values())


class _Search:
    def __init__(self, a: Complex, b: Complex, budget: int | None):
        self.a, self.b = a, b
        self.budget = budget
        self.nodes = 0
        self.ka = a.memo("iso.classes", _vertex_classes)
        self.kb = b.memo("iso.classes", _vertex_classes)
        self.ea, self.eb = a.edge_incidence(), b.edge_incidence()
        # cs with an edge on every non-antipodal vertex pair: the unique
        # non-neighbour of each vertex is its antipode
        self.antipodal = all(
            is_cs(c) and len(c.edge_incidence()) == comb(len(c.vertices()), 2) - len(c.vertices()) // 2
            for c in (a, b)
        )
        d = a.dim
        fcounts = a.f_counts()
        self.prune_cards = [
            t
            for t in range(2, min(d + 1, 4) + 1)
            if t < len(fcounts) and fcounts[t] < comb(len(a.vertices()), t)
        ]
        self.faces_a = {t: a.faces_of_card(t) for t in self.prune_cards}
        self.faces_b = {t: b.faces_of_card(t) for t in self.prune_cards}
        self.facets_b = b.facets

    def order_and_domains(self) -> tuple[list[int], dict[int, list[int]]]:
        class_sizes = Counter(self.ka.values())
        verts = sorted(self.a.vertices(), key=vertex_key)
        if self.antipodal:
            verts = [v for v in verts if v > 0]
        verts.sort(key=lambda v: (class_sizes[self.ka[v]], vertex_key(v)))
        domains = {
            v: [w for w in sorted(self.b.vertices(), key=vertex_key) if self.kb[w] == self.ka[v]]
            for v in verts
        }
        return verts, domains

    def _consistent(self, mapping: VertexMap, assigned: list[int], v: int, w: int) -> bool:
        for u in assigned:
            if self.ea.get(sort_face((u, v))) != self.eb.get(sort_face((mapping[u], w))):
                return False
        for t in self.prune_cards:
            if t - 1 > len(assigned):
                continue
            have, want = self.faces_a[t], self.faces_b[t]
            for combo in itertools.combinations(assigned, t - 1):
                face = sort_face(combo + (v,))
                image = sort_face(tuple(mapping[u] for u in combo) + (w,))
                if (face in have) != (image in want):
                    return False
        return True

    def run(self, find_all: bool) -> list[VertexMap]:
        verts, domains = self.order_and_domains()
        results: list[VertexMap] = []
        mapping: VertexMap = {}
        assigned: list[int] = []
        used: set[int] = set()

        def extend(v: int, w: int) -> list[tuple[int, int]]:
            pairs = [(v, w)]
            if self.antipodal:
                pairs.append((-v, -w))
            return pairs

        def backtrack(idx: int) -> bool:
            if idx == len(verts):
                image = {sort_face(mapping[x] for x in f) for f in self.a.facets}
                if image == self.facets_b:
                    results.append(dict(mapping))
                    return not find_all
                return False
            v = verts[idx]
            for w in domains[v]:
                if w in used:
                    continue
                if self.antipodal and -w in used:
                    continue
                self.nodes += 1
                if self.budget is not None and self.nodes > self.budget:
                    raise SearchBudgetExceeded(f"exceeded {self.budget} search nodes")
                ok = True
                trail = []
                for vv, ww in extend(v, w):
                    if not self._consistent(mapping, assigned, vv, ww):
                        ok = False
                        break
                    mapping[vv] = ww
                    used.add(ww)
                    assigned.append(vv)
                    trail.append((vv, ww))
                if ok and backtrack(idx + 1):
                    return True
                for vv, ww in reversed(trail):
                    del mapping[vv]
                    used.discard(ww)
                    assigned.pop()
            return False

        backtrack(0)
        return results


def necessary_conditions(a: Complex, b: Complex) -> list[tuple[str, bool]]:
    """Cheap isomorphism invariants compared in order; any False settles it."""
    checks = [("f-vector", fh_vectors(a).f == fh_vectors(b).f)]
    fa, fb = vertex_fingerprints(a), vertex_fingerprints(b)
    checks.append(("fingerprint multiset", Counter(fa.values()) == Counter(fb.values())))
    checks.append(("edge-link census multiset", _census_multiset(a) == _census_multiset(b)))
    return checks


def isomorphic(a: Complex, b: Complex, budget: int | None = None) -> VertexMap | None:
    """A witness vertex bijection mapping facets onto facets, or None.

    None is a certificate: the backtracking is exhaustive (unless `budget`
    is given and exceeded, which raises instead).
    """
    if not a.vertices() or not b.vertices():
        return {} if a.facets == b.facets else None
    if any(not ok for _, ok in necessary_conditions(a, b)):
        return None
    found = _Search(a, b, budget).run(find_all=False)
    return found[0] if found else None


def automorphisms(c: Complex, budget: int | None = None) -> list[VertexMap]:
    """All vertex bijections of `c` onto itself preserving the facet set.

    Always contains the identity; for cs complexes also the antipodal map.
    Sorted deterministically by image sequence.
    """
    if not c.vertices():
        return [{}]
    maps = _Search(c, c, budget).run(find_all=True)
    verts = sorted(c.vertices(), key=vertex_key)
    maps.sort(key=lambda m: tuple(vertex_key(m[v]) for v in verts))
    return maps


def apply_vertex_map(mapping: VertexMap, c: Complex, ambient_n: int | None = None) -> Complex:
    """Relabel `c` through a vertex bijection."""
    return Complex(
        [[mapping[v] for v in f] for f in c.facets],
        c.ambient_n if ambient_n is None else ambient_n,
    )


def identity_map(c: Complex) -> VertexMap:
    return {v: v for v in c.vertices()}


def antipodal_map(c: Complex) -> VertexMap:
    return {v: -v for v in c.vertices()}
