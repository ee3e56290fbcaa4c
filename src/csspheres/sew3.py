"""Three-dimensional sewing with facet trees.

For an admissible index set I the tree T(I) is a subgraph of the facet-ridge
graph of build_delta(3, n): a vertical column of facets through the edge
{1,2}, a short vertical path through the edge {1, -(n-2)}, and horizontal
row paths through row edges {n-1, n} and {n-i-1, n-i+1} for i in I.  The
complex B(I) generated by its nodes is a cs-1-neighborly 1-stacked 3-ball,
and sewing ±B(I) out of the sphere yields the cs-2-neighborly 3-sphere
Delta(I) on V_{n+1}.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping

from .builders import build_delta, sew
from .core import Complex, Face, canon_face, face_key
from .errors import InvalidParameters

MIN_N = 10


@dataclass(frozen=True)
class IndexSet:
    """Sorted subset of [3, n-6]; when it has two or more elements the first
    gap must exceed one."""

    n: int
    indices: tuple[int, ...]

    def __post_init__(self):
        if self.n < MIN_N:
            raise InvalidParameters(f"index sets need n >= {MIN_N}, got {self.n}")
        idx = self.indices
        if tuple(sorted(set(idx))) != idx:
            raise InvalidParameters(f"indices must be strictly sorted, got {idx}")
        if any(i < 3 or i > self.n - 6 for i in idx):
            raise InvalidParameters(f"indices {idx} outside [3, {self.n - 6}]")
        if len(idx) >= 2 and idx[1] - idx[0] <= 1:
            raise InvalidParameters(f"first gap must exceed 1, got {idx[:2]}")


def enum_I(n: int) -> list[IndexSet]:
    """All admissible index sets for the given n, in lexicographic order."""
    if n < MIN_N:
        raise InvalidParameters(f"enum_I requires n >= {MIN_N}, got {n}")
    pool = range(3, n - 5)
    out = []
    for size in range(0, len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            if size >= 2 and combo[1] - combo[0] <= 1:
                continue
            out.append(IndexSet(n=n, indices=combo))
    return sorted(out, key=lambda s: s.indices)


@dataclass(frozen=True)
class FacetTree:
    """Tree on facets of build_delta(3, n); edges are ridge-sharing pairs."""

    source: IndexSet
    nodes: tuple[Face, ...]
    edges: tuple[tuple[Face, Face], ...]

    def edge_list_text(self) -> str:
        """One edge per line, endpoints as comma-joined facet labels."""
        lines = [
            ",".join(str(v) for v in a) + "\t" + ",".join(str(v) for v in b)
            for a, b in self.edges
        ]
        return "\n".join(lines) + "\n"


def _column_path(n: int) -> list[Face]:
    """Facets through {1,2} with all-positive complements, end to end.

    This is the sub-path of the edge-link cycle of {1,2} from {3,5} up the
    odd pairs {a, a+2} to {n-1, n}, then down the even pairs to {4,6}.
    """
    up = [(a, a + 2) for a in range(3, n - 1, 2)]
    down = [(a, a + 2) for a in range(4, n - 1, 2)]
    return [(1, 2) + e for e in up + [(n - 1, n)] + down[::-1]]


def _row_nodes(n: int, row: int, steps: int) -> list[Face]:
    """Nodes of the horizontal path in the given row.

    Row 0 lies in the link of {n-1, n}; row i >= 1 in the link of
    {n-i-1, n-i+1}.  The walk starts at the column facet through {1,2} and
    proceeds through {1, -(ell-1)} into descending negative pairs.
    """
    if row == 0:
        base = (n - 1, n)
        ell = n - 1  # walk leaves through {1, -(n-2)}
    else:
        base = (n - row - 1, n - row + 1)
        ell = n - row - 1
    edges: list[tuple[int, int]] = [(1, 2)]
    if steps >= 1:
        edges.append((1, -(ell - 1)))
    for t in range(2, steps + 1):
        edges.append((-(ell - t + 1), -(ell - t)))
    return [canon_face(e + base) for e in edges]


def build_T(index_set: IndexSet) -> FacetTree:
    """Assemble and validate the facet tree T(I)."""
    n = index_set.n
    delta = build_delta(3, n)
    rows = (0,) + index_set.indices
    row_ends = index_set.indices + (n - 2,)

    column = _column_path(n)
    nodes: list[Face] = list(column)
    edges: list[tuple[Face, Face]] = list(zip(column, column[1:]))

    for row, end in zip(rows, row_ends):
        path = _row_nodes(n, row, end - row)
        assert path[0] in nodes, f"row {row} does not attach to the column"
        for a, b in zip(path, path[1:]):
            edges.append((a, b))
        nodes.extend(p for p in path[1:] if p not in nodes)

    short = [
        canon_face((1, -(n - 2), n - 1, n)),
        canon_face((1, -(n - 2), -(n - 1), n)),
        canon_face((1, -(n - 2), -(n - 1), -n)),
    ]
    assert short[0] in nodes, "short vertical path does not attach to row 0"
    edges.extend(zip(short, short[1:]))
    nodes.extend(p for p in short[1:] if p not in nodes)

    for f in nodes:
        assert f in delta.facets, f"generated node {f} is not a facet"
    assert len(nodes) == 2 * n - 3, f"expected {2 * n - 3} nodes, got {len(nodes)}"
    for a, b in edges:
        assert len(set(a) & set(b)) == 3, f"tree edge {a}-{b} shares no ridge"
    adjacency = _adjacency(nodes, edges)
    assert len(adjacency) == len(nodes), "a tree edge leaves the node set"
    _center(adjacency)  # raises unless the nodes and edges form a tree

    order = sorted(nodes, key=face_key)
    canon_edges = tuple(
        sorted((tuple(sorted(e, key=face_key)) for e in edges), key=lambda p: (face_key(p[0]), face_key(p[1])))
    )
    return FacetTree(source=index_set, nodes=tuple(order), edges=canon_edges)


def build_B_I(index_set: IndexSet) -> Complex:
    """The 3-ball generated by the nodes of T(I)."""
    tree = build_T(index_set)
    return Complex(tree.nodes, index_set.n)


def build_delta_I(index_set: IndexSet) -> Complex:
    """The cs 3-sphere on V_{n+1} obtained by sewing ±B(I) out of the base sphere."""
    return sew(build_delta(3, index_set.n), build_B_I(index_set))


def _adjacency(nodes: Iterable[Hashable], edges: Iterable[tuple]) -> dict[Hashable, list]:
    adjacency: dict[Hashable, list] = {v: [] for v in nodes}
    for a, b in edges:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    return adjacency


def _ahu_code(adj: dict, root, parent) -> str:
    children = sorted(
        (_ahu_code(adj, c, root) for c in adj[root] if c != parent)
    )
    return "(" + "".join(children) + ")"


def _center(adj: dict) -> list:
    """The one or two middle vertices of a tree, by iterative leaf stripping.

    This is the one tree check: raises InvalidParameters unless `adj` is a
    simple symmetric graph (no loop, no repeated neighbour, every neighbour a
    node that lists it back), the degree sum is 2(|V| - 1) and stripping
    leaves reaches the last two vertices.  With |V| - 1 edges, a graph that
    is not a tree has a cycle, which is never stripped.
    """
    for v, nb in adj.items():
        if v in nb or len(set(nb)) != len(nb) or any(v not in adj.get(u, ()) for u in nb):
            raise InvalidParameters(f"not a tree: node {v!r} has a loop, a repeated or a one-sided edge")
    degrees = {v: len(nb) for v, nb in adj.items()}
    if sum(degrees.values()) != 2 * (len(adj) - 1):
        raise InvalidParameters(f"not a tree: {len(adj)} nodes need {len(adj) - 1} edges")
    layer = [v for v, d in degrees.items() if d <= 1]
    remaining = len(adj)
    removed = set()
    while remaining > 2:
        if not layer:
            raise InvalidParameters("not a tree: the graph has a cycle")
        nxt = []
        for leaf in layer:
            removed.add(leaf)
            remaining -= 1
            for nb in adj[leaf]:
                if nb in removed:
                    continue
                degrees[nb] -= 1
                if degrees[nb] == 1:
                    nxt.append(nb)
        layer = nxt
    return [v for v in adj if v not in removed]


def tree_canonical_code(tree: Mapping) -> str:
    """Least rooted encoding over the center rootings (unlabeled invariant).

    `tree` maps every node to an iterable of its neighbours.  The center
    (one or two middle vertices) is preserved by isomorphisms, so equal
    codes characterize isomorphic trees.
    """
    if len(tree) == 0:
        return ""
    adj = {v: sorted(tree[v]) for v in tree}
    return min(_ahu_code(adj, c, None) for c in _center(adj))


def tree_isomorphic(t1: FacetTree | Mapping, t2: FacetTree | Mapping) -> bool:
    """Unlabeled tree isomorphism via canonical centroid-rooted encodings.

    Each tree is a FacetTree or a mapping from every node to its neighbours.
    """
    g1 = _adjacency(t1.nodes, t1.edges) if isinstance(t1, FacetTree) else t1
    g2 = _adjacency(t2.nodes, t2.edges) if isinstance(t2, FacetTree) else t2
    return tree_canonical_code(g1) == tree_canonical_code(g2)
