"""Three-dimensional sewing along facet trees.

For an admissible index set I the ball B(I) is generated by facets of
build_delta(3, n): a vertical column of facets through the edge {1,2}, a
short vertical path through the edge {1, -(n-2)}, and horizontal row paths
through row edges {n-1, n} and {n-i-1, n-i+1} for i in I.  B(I) is a
cs-1-neighborly 1-stacked 3-ball, so its facet-ridge graph is a tree: that
graph is the facet tree T(I).  Sewing ±B(I) out of the sphere yields the
cs-2-neighborly 3-sphere Delta(I) on V_{n+1}.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .builders import build_delta, sew
from .core import Complex, Face, canon_face, facet_ridge_graph
from .errors import InvalidParameters, check_int

MIN_N = 10


class _IndexSetFields(NamedTuple):
    n: int
    indices: tuple[int, ...]


class IndexSet(_IndexSetFields):
    """Sorted subset of [3, n-6]; when it has two or more elements the first
    gap must exceed one.  A list of indices is read as its tuple."""

    __slots__ = ()

    def __new__(cls, n: int, indices: tuple[int, ...]):
        check_int("IndexSet", "n", n, MIN_N)
        if type(indices) not in (tuple, list):
            raise InvalidParameters(f"indices must be a tuple of integers, got {indices!r}")
        indices = tuple(indices)
        for i in indices:
            check_int("IndexSet", "index", i, 3, n - 6)
        if tuple(sorted(set(indices))) != indices:
            raise InvalidParameters(f"indices must be strictly sorted, got {indices}")
        if len(indices) >= 2 and indices[1] - indices[0] <= 1:
            raise InvalidParameters(f"first gap must exceed 1, got {indices[:2]}")
        return super().__new__(cls, n, indices)

    @classmethod
    def _make(cls, iterable):  # `_replace` builds through here, so it checks too
        return cls(*iterable)

    @classmethod
    def _trusted(cls, n: int, indices: tuple[int, ...]) -> "IndexSet":
        """Trusted constructor for a set that is admissible by construction: no checks."""
        return tuple.__new__(cls, (n, indices))


def enum_I(n: int) -> list[IndexSet]:
    """All 2^(n-9) + 1 admissible index sets, in lexicographic order; n <= MIN_N + 19.

    The sets are walked in that order, each from the one before: extend by
    the least admissible index (two past a lone first index, one past any
    later one), or else, past the last index n - 6, drop it and raise the
    index before.  Only admissible sets are met, so nothing is filtered or
    sorted.
    """
    check_int("enum_I", "n", n, MIN_N, MIN_N + 19)
    last = n - 6
    out = [IndexSet._trusted(n, ())]
    combo = [3]
    while combo:
        out.append(IndexSet._trusted(n, tuple(combo)))
        step = 2 if len(combo) == 1 else 1
        if combo[-1] + step <= last:
            combo.append(combo[-1] + step)
            continue
        if combo[-1] == last:
            combo.pop()
        if combo:
            combo[-1] += 1
    return out


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


def build_B_I(index_set: IndexSet) -> Complex:
    """The 3-ball generated by the column, the row paths and the short path.

    Raises unless these are 2n - 3 facets of build_delta(3, n) whose
    facet-ridge graph is a tree.
    """
    n, indices = index_set
    delta = build_delta(3, n)
    nodes = set(_column_path(n))
    for row, end in zip((0, *indices), (*indices, n - 2)):  # row 0 and a row per index
        nodes.update(_row_nodes(n, row, end - row))
    short = ((1, -(n - 2), n - 1, n), (1, -(n - 2), -(n - 1), n), (1, -(n - 2), -(n - 1), -n))
    nodes.update(canon_face(f) for f in short)
    for f in nodes:
        if f not in delta.facets:
            raise RuntimeError(f"generated node {f} is not a facet")
    if len(nodes) != 2 * n - 3:
        raise RuntimeError(f"expected {2 * n - 3} nodes, got {len(nodes)}")
    ball = Complex._derived(nodes, n)
    _center(facet_ridge_graph(ball))  # raises unless the facet-ridge graph is a tree
    return ball


def build_T(index_set: IndexSet) -> dict[Face, tuple[Face, ...]]:
    """The facet tree T(I): the facet-ridge graph of B(I), in canonical order."""
    return facet_ridge_graph(build_B_I(index_set))


def build_delta_I(index_set: IndexSet) -> Complex:
    """The cs 3-sphere on V_{n+1} obtained by sewing ±B(I) out of the base sphere."""
    return sew(build_delta(3, index_set.n), build_B_I(index_set))


def _center(adj: dict) -> tuple[list, list]:
    """The stripped vertices in stripping order and the one or two middle
    vertices of a tree, by iterative leaf stripping.

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
    removed: dict = {}  # insertion-ordered: the stripping order
    while remaining > 2:
        if not layer:
            raise InvalidParameters("not a tree: the graph has a cycle")
        nxt = []
        for leaf in layer:
            removed[leaf] = None
            remaining -= 1
            for nb in adj[leaf]:
                if nb in removed:
                    continue
                degrees[nb] -= 1
                if degrees[nb] == 1:
                    nxt.append(nb)
        layer = nxt
    return list(removed), [v for v in adj if v not in removed]


def tree_canonical_code(tree: Mapping) -> str:
    """Least rooted encoding over the center rootings (unlabeled invariant).

    `tree` maps every node to an iterable of its neighbours.  The center
    (one or two middle vertices) is preserved by isomorphisms, so equal
    codes characterize isomorphic trees.  The rooted (AHU) codes are built
    bottom-up in leaf-stripping order, so no recursion bounds the depth: the
    children of a stripped vertex are its neighbours stripped before it.
    """
    adj = {v: sorted(tree[v]) for v in tree}
    stripped, centers = _center(adj)
    code: dict = {}

    def encode(v, extra=()) -> str:
        return "(" + "".join(sorted([*(code[u] for u in adj[v] if u in code), *extra])) + ")"

    for v in stripped:
        code[v] = encode(v)
    return min(encode(c, [encode(o) for o in centers if o != c]) for c in centers)


def tree_isomorphic(t1: Mapping, t2: Mapping) -> bool:
    """Unlabeled tree isomorphism via canonical centroid-rooted encodings.

    Each tree is a mapping from every node to its neighbours.
    """
    return tree_canonical_code(t1) == tree_canonical_code(t2)
