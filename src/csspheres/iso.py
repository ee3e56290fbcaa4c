"""Isomorphism and automorphisms from canonical forms.

Each complex gets one individualisation-refinement search (McKay & Piperno,
"Practical graph isomorphism II", 2014), memoised on the complex.  Vertex
colours are refined on the edge labels of `Complex.edge_incidence` (link
vertex count, facet degree), non-edges carrying one label of their own.  A
new colour is the rank of the sorted signature (old colour, sorted pairs of
edge label and neighbour colour), so the order of the cells never depends
on the input labels.  A node individualises in turn each vertex of its
first smallest non-singleton cell.  At a leaf every colour is a single
vertex; the leaf's form is the sorted tuple of the facets relabelled by
colour and sorted, and the canonical form is the least leaf form.

Two sound prunings keep the tree small.  A leaf whose form equals that of
the first leaf gives an automorphism mapping its path onto the first path;
the search jumps back to the deepest first-path ancestor, since the
automorphism maps the abandoned subtree onto one already explored.  A child
in the orbit of an explored sibling, under the automorphisms found so far
that fix the path above it, is skipped.  On a cs complex the antipodal
map v -> -v, a known automorphism, is among them from the start, so the
root skips -v once v is explored.  The automorphisms found this way
generate the whole group.

Isomorphic complexes have equal canonical forms, so `isomorphic` returning
None is a certificate.  Its witness is composed from the two canonical
labellings and checked against the facets before it is returned.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from typing import Iterator, NamedTuple

from .core import Complex, fh_vectors, is_cs, sort_face
from .errors import SearchBudgetExceeded, check_int

VertexMap = dict[int, int]
Form = tuple[tuple[int, ...], ...]


class _Canon(NamedTuple):
    form: Form  # the least leaf form
    labelling: VertexMap  # vertex -> its position in `form`
    generators: tuple[tuple[int, ...], ...]  # automorphisms on positions in c.vertices()
    nodes: int  # search tree nodes, root included


def _refine(colours: list[int], labels: list[list[int]]) -> list[int]:
    """Refine until stable; colours stay ranks 0..k-1 in canonical cell order."""
    count = len(set(colours))
    while count < len(colours):
        sigs = [(c, tuple(sorted(zip(row, colours)))) for c, row in zip(colours, labels)]
        rank = {s: r for r, s in enumerate(sorted(set(sigs)))}
        colours = [rank[s] for s in sigs]
        if len(rank) == count:
            break
        count = len(rank)
    return colours


def _orbit(seeds: list[int], gens: list[tuple[int, ...]]) -> set[int]:
    orbit, stack = set(seeds), list(seeds)
    while stack:
        x = stack.pop()
        for g in gens:
            if g[x] not in orbit:
                orbit.add(g[x])
                stack.append(g[x])
    return orbit


def _search(c: Complex, budget: int | None) -> _Canon:
    verts = c.vertices()
    n = len(verts)
    pos = dict(zip(verts, itertools.count()))
    facets = list(map(tuple, map(map, itertools.repeat(pos.__getitem__), c.facets)))
    incidence = c.edge_incidence()
    code = {lab: r for r, lab in enumerate(sorted(set(incidence.values())), 1)}
    labels = [[-1 if i == j else 0 for j in range(n)] for i in range(n)]  # 0: non-edge
    for (u, v), lab in incidence.items():
        labels[pos[u]][pos[v]] = labels[pos[v]][pos[u]] = code[lab]
    first = best = None  # (form, colours, path) of the first and of the least leaf
    gens = [tuple(map(pos.__getitem__, map(operator.neg, verts)))] if is_cs(c) else []
    nodes = 0

    def visit(visit, colours: list[int], path: list[int]) -> int:
        """Explore the subtree at `path`; return the depth to resume at.  It
        recurses through its argument `visit`: a closure cell holding it
        would make a reference cycle, left to the cyclic collector."""
        nonlocal first, best, nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise SearchBudgetExceeded(f"exceeded {budget} search nodes")
        cells: dict[int, list[int]] = {}
        for i, col in enumerate(colours):
            cells.setdefault(col, []).append(i)
        if len(cells) == n:
            form = map(tuple, map(sorted, map(map, itertools.repeat(colours.__getitem__), facets)))
            leaf = (tuple(sorted(form)), colours, path)
            if first is None:
                first = best = leaf
            elif leaf[0] == first[0]:
                vertex_of = {col: i for i, col in enumerate(first[1])}
                gens.append(tuple(vertex_of[col] for col in colours))
                return next(d for d, (x, y) in enumerate(zip(path, first[2])) if x != y)
            elif leaf[0] < best[0]:
                best = leaf
            return len(path)
        t = min((len(cell), col) for col, cell in cells.items() if len(cell) > 1)[1]
        explored: list[int] = []
        for v in cells[t]:
            if v in _orbit(explored, [g for g in gens if all(g[x] == x for x in path)]):
                continue
            explored.append(v)
            child = [col + (col > t or (col == t and i != v)) for i, col in enumerate(colours)]
            back = visit(visit, _refine(child, labels), path + [v])
            if back < len(path):
                return back
        return len(path)

    visit(visit, _refine([0] * n, labels), [])
    form, colours, _ = best
    return _Canon(form, dict(zip(verts, colours)), tuple(gens), nodes)


def _canon(c: Complex, budget: int | None) -> _Canon:
    """The memoised search; its node count is checked against `budget` on
    every call, so the verdict does not depend on what is cached."""
    canon = c.memo("iso.canon", lambda c: _search(c, budget))
    if budget is not None and canon.nodes > budget:
        raise SearchBudgetExceeded(f"exceeded {budget} search nodes")
    return canon


def canonical_form(c: Complex) -> Form:
    """Sorted facets over the vertex positions 0..n-1 of the canonical
    labelling; equal exactly for isomorphic complexes."""
    return _canon(c, None).form


def necessary_conditions(a: Complex, b: Complex) -> Iterator[tuple[str, bool]]:
    """Cheap isomorphism invariants compared in order, each computed only when
    the one before it is reached; any False settles it."""
    yield "f-vector", fh_vectors(a).f == fh_vectors(b).f
    census = [Counter(size for size, _ in c.edge_incidence().values()) for c in (a, b)]
    yield "edge-link census multiset", census[0] == census[1]


def isomorphic(a: Complex, b: Complex, budget: int | None = None) -> VertexMap | None:
    """A witness vertex bijection mapping facets onto facets, or None.

    None is a certificate: the canonical forms differ.  `budget` bounds the
    search tree of each complex; exceeding it raises.
    """
    if budget is not None:
        check_int("isomorphic", "budget", budget, 0)
    if len(a.vertices()) != len(b.vertices()) or len(a.facets) != len(b.facets):
        return None
    ca, cb = _canon(a, budget), _canon(b, budget)
    if ca.form != cb.form:
        return None
    vertex_at = {i: w for w, i in cb.labelling.items()}
    witness = {v: vertex_at[i] for v, i in ca.labelling.items()}
    if {sort_face(witness[v] for v in f) for f in a.facets} != b.facets:
        raise RuntimeError("equal canonical forms, but the labellings do not map facets onto facets")
    return witness


def automorphisms(c: Complex, budget: int | None = None) -> list[VertexMap]:
    """All vertex bijections of `c` onto itself preserving the facet set.

    The group generated by the automorphisms the canonical search found.
    Always contains the identity; for cs complexes also the antipodal map.
    Sorted deterministically by image sequence.  `budget` bounds both the
    search tree and the number of maps listed.
    """
    if budget is not None:
        check_int("automorphisms", "budget", budget, 0)
    verts = c.vertices()
    gens = _canon(c, budget).generators
    group = {tuple(range(len(verts)))}
    stack = list(group)
    while stack:
        g = stack.pop()
        for s in gens:
            h = tuple(s[i] for i in g)
            if h not in group:
                group.add(h)
                stack.append(h)
        if budget is not None and len(group) > budget:
            raise SearchBudgetExceeded(f"more than {budget} automorphisms")
    # positions follow the canonical vertex order, so sorting the position
    # tuples sorts the maps by image sequence
    return [dict(zip(verts, (verts[i] for i in g))) for g in sorted(group)]

