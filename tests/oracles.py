"""Independent brute-force oracles used to cross-check library results.

Everything here recomputes from first principles (itertools over facet
tuples, permutation enumeration, explicit intersection complexes) and never
calls the code paths it is checking: nothing is imported from `csspheres`,
and `test_source.py` checks that.

The paper's closed forms of objects the builders sew live here too, as
facet sets: Jockusch's facet list of Δ^3_n (`delta3_facets`), the two-step
unrolling Eq. (1) of B(d, i, n) (`eq1_expansion`), the path joins of
B(3, 1, n) (`b31_paths`), the suspension of a complex (`suspension`), and
the path description of the facet tree T(I) (`facet_tree_edges`).
"""

from __future__ import annotations

import itertools
from collections import Counter, deque


def _face(vertices) -> tuple[int, ...]:
    """The vertices as a tuple sorted by (abs, sign): 1, -1, 2, -2, ..."""
    return tuple(sorted(vertices, key=lambda v: (abs(v), v < 0)))


def closure(facets) -> set[tuple[int, ...]]:
    """All faces (sorted-by-(abs,sign) tuples) of the given facets, incl. ()."""
    out: set[tuple[int, ...]] = set()
    for f in facets:
        f = _face(f)
        for r in range(len(f) + 1):
            out.update(itertools.combinations(f, r))
    return out


def is_cs(facets) -> bool:
    """Whether v -> -v is a free involution on the faces: the closure is
    closed under negation and no face holds a vertex with its antipode."""
    faces = closure(facets)
    return {_face(-v for v in f) for f in faces} == faces and not any(-v in f for f in faces for v in f)


def least_missing(faces, ground, size: int) -> tuple[int, ...] | None:
    """The least antipode-free `size`-subset of ±ground, in the (abs, sign)
    order, that is not in the set `faces`; None when there is none.

    Each `size`-subset of the ground with each sign choice is looked up.
    """
    missing = [
        face
        for combo in itertools.combinations(sorted(set(ground)), size)
        for signs in itertools.product((1, -1), repeat=size)
        if (face := _face(s * g for s, g in zip(signs, combo))) not in faces
    ]
    return min(missing, key=lambda f: [(abs(v), v < 0) for v in f], default=None)


def cs_neighborliness(facets, ground) -> tuple[int, tuple[int, ...] | None]:
    """(max_i, least missing subset) by testing every antipode-free subset
    against the full closure, for i = 1, 2, ... until one is missing."""
    faces = closure(facets)
    ground = sorted(set(ground))
    for i in range(1, len(ground) + 1):
        witness = least_missing(faces, ground, i)
        if witness is not None:
            return i - 1, witness
    return len(ground), None


def maximal_faces(faces) -> set[frozenset[int]]:
    """The inclusion-maximal members of a family of vertex sets, by comparing
    every pair."""
    sets = {frozenset(f) for f in faces}
    return {f for f in sets if not any(f < g for g in sets)}


def coface_counts(facets, card: int) -> dict[tuple[int, ...], int]:
    """For every face with `card` vertices, how many vertices extend it to a face.

    At card 2 this is the edge-link census: the link of an edge has one
    vertex per extending vertex.  At card d of a pure d-complex it is the
    number of facets on each ridge.
    """
    faces = closure(facets)
    sets = {frozenset(f) for f in faces}
    verts = {f[0] for f in faces if len(f) == 1}
    return {
        f: sum(1 for v in verts if v not in f and frozenset(f) | {v} in sets)
        for f in faces
        if len(f) == card
    }


def f_vector(facets) -> tuple[int, ...]:
    """(f_-1, f_0, ..., f_d) by explicit downward closure."""
    faces = closure(facets)
    if not faces:
        return (0,)
    top = max(len(f) for f in faces)
    counts = Counter(len(f) for f in faces)
    return tuple(counts.get(card, 0) for card in range(0, top + 1))


def z2_betti(facets) -> tuple[int, ...]:
    """Unreduced GF(2) Betti numbers by full elimination of every boundary matrix.

    Faces come from `closure`, each cardinality sorted in the canonical
    order; every boundary row is reduced (no clearing).  () for the void
    complex and for {∅}.
    """
    faces = closure(facets)
    top = max((len(f) for f in faces), default=0)
    by_card = [
        sorted((f for f in faces if len(f) == card), key=lambda f: [(abs(v), v < 0) for v in f])
        for card in range(top + 1)
    ]
    ranks = [0] * (top + 2)  # ranks[card]: rank of the boundary from card to card - 1
    for card in range(2, top + 1):
        index = {f: i for i, f in enumerate(by_card[card - 1])}
        pivots: dict[int, int] = {}
        for f in by_card[card]:
            row = 0
            for sub in itertools.combinations(f, card - 1):
                row |= 1 << index[sub]
            while row and row.bit_length() - 1 in pivots:
                row ^= pivots[row.bit_length() - 1]
            if row:
                pivots[row.bit_length() - 1] = row
        ranks[card] = len(pivots)
    return tuple(len(by_card[card]) - ranks[card] - ranks[card + 1] for card in range(1, top + 1))


def connected(facets) -> bool:
    """Whether the vertex graph (two vertices adjacent when some facet holds
    both) is connected, by breadth-first search.  True with no vertices."""
    neighbours: dict[int, set[int]] = {}
    for f in facets:
        for v in f:
            neighbours.setdefault(v, set()).update(f)
    if not neighbours:
        return True
    start = next(iter(neighbours))
    seen, queue = {start}, deque([start])
    while queue:
        for w in neighbours[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(neighbours)


def h_vector(f: tuple[int, ...]) -> tuple[int, ...]:
    """h from f via the defining polynomial identity, evaluated symbolically."""
    import math

    d = len(f) - 2
    h = []
    for j in range(d + 2):
        total = 0
        for i in range(j + 1):
            total += (-1) ** (j - i) * math.comb(d + 1 - i, j - i) * f[i]
        h.append(total)
    return tuple(h)


def sphere_facet_count(k: int, n: int) -> int:
    """Facet count of a cs-k-neighborly (2k-1)-sphere on 2n vertices.

    Dehn-Sommerville symmetry pins h_{2k-j} = h_j, and cs-k-neighborliness
    pins f_{j-1} = 2^j C(n, j) for j <= k; the facet count is the h-sum.
    """
    import math

    d = 2 * k - 1
    f_low = [1] + [2**j * math.comb(n, j) for j in range(1, k + 1)]
    h = []
    for j in range(k + 1):
        total = 0
        for i in range(j + 1):
            total += (-1) ** (j - i) * math.comb(d + 1 - i, j - i) * f_low[i]
        h.append(total)
    return h[k] + 2 * sum(h[:k])


def is_shelling_by_purity(facets_in_order) -> bool:
    """Shelling check via purity of each intersection with the prior union."""
    order = [_face(f) for f in facets_in_order]
    if not order:
        return True
    d = len(order[0]) - 1
    for k in range(1, len(order)):
        prior = closure(order[:k])
        inter = {f for f in closure([order[k]]) if f in prior}
        maximal = [
            f for f in inter if not any(f != g and set(f) < set(g) for g in inter)
        ]
        if not maximal or any(len(f) != d for f in maximal):
            return False
    return True


def brute_force_isomorphism(facets_a, ambient_a, facets_b) -> dict | None:
    """Try every vertex bijection; None certifies non-isomorphism."""
    va = sorted({v for f in facets_a for v in f})
    vb = sorted({v for f in facets_b for v in f})
    if len(va) != len(vb):
        return None
    target = {frozenset(f) for f in facets_b}
    for perm in itertools.permutations(vb):
        mapping = dict(zip(va, perm))
        image = {frozenset(mapping[v] for v in f) for f in facets_a}
        if image == target:
            return mapping
    return None


def brute_force_automorphisms(facets, vertices) -> list[dict]:
    """All vertex bijections preserving the facet set."""
    verts = sorted(vertices)
    target = {frozenset(f) for f in facets}
    out = []
    for perm in itertools.permutations(verts):
        mapping = dict(zip(verts, perm))
        if {frozenset(mapping[v] for v in f) for f in facets} == target:
            out.append(mapping)
    return out


def gf2_rank(rows) -> int:
    """Rank over GF(2) of bit-mask rows, by an elimination of its own.

    Each row is reduced against the basis kept so far with r = min(r, r ^ b),
    which clears the leading bit of b whenever r has it; a nonzero remainder
    joins the basis.
    """
    basis: list[int] = []
    for r in rows:
        for b in basis:
            r = min(r, r ^ b)
        if r:
            basis.append(r)
    return len(basis)


def pack_rows(matrix) -> list[int]:
    """Bit-pack a dense 0/1 row-major matrix into bit-mask rows."""
    rows = []
    for r in matrix:
        mask = 0
        for j, v in enumerate(r):
            if v:
                mask |= 1 << j
        rows.append(mask)
    return rows


def gale_family(k: int, n: int) -> list[tuple[int, ...]]:
    """The 2k-subsets x of [n], in combinations order, that pair up into
    consecutive labels: x[2j+1] = x[2j] + 1 for every j."""
    return [
        x
        for x in itertools.combinations(range(1, n + 1), 2 * k)
        if all(x[2 * j + 1] == x[2 * j] + 1 for j in range(k))
    ]


def s_family(k: int, n: int, m: int) -> set[tuple[int, ...]]:
    """S(2k, n)_m from its definition, by filtering every 2k-subset of [n].

    Pair 0 differs by 1, pairs 1..m-1 differ by 2, and pair j >= m is the
    fixed tail pair (n - 2(k-j-1) - 1, n - 2(k-j-1)).  Each pair takes a sign
    of its own; faces are sorted by (abs, sign).
    """
    tail = [(n - 2 * (k - j - 1) - 1, n - 2 * (k - j - 1)) for j in range(m, k)]
    out: set[tuple[int, ...]] = set()
    for x in itertools.combinations(range(1, n + 1), 2 * k):
        pairs = [x[2 * j : 2 * j + 2] for j in range(k)]
        if pairs[0][1] - pairs[0][0] != 1:
            continue
        if any(b - a != 2 for a, b in pairs[1:m]):
            continue
        if pairs[m:] != tail:
            continue
        for signs in itertools.product((1, -1), repeat=k):
            face = [s * v for s, pair in zip(signs, pairs) for v in pair]
            out.add(_face(face))
    return out


def delta3_facets(n: int) -> set[tuple[int, ...]]:
    """Jockusch's closed-form facet list of the 3-sphere Δ^3_n on V_n, n >= 4.

    Half the facets are listed, in three families, and the other half are
    their antipodes: the 1-stacked ball block; the sewing shells for
    5 <= s <= n; the three base facets left over at n = 4.
    """
    half = {(1, -n + 2, n - 1, n), (1, -n + 2, -n + 1, n), (1, -n + 2, -n + 1, -n)}  # ball block
    for i in range(1, n - 2):
        half |= {(i, i + 1, n - 1, n), (-i, -i - 1, n - 1, n)}
    for ell in range(3, n - 1):  # sewing shells
        half.add((1, -ell + 1, ell, ell + 2))
        for i in range(1, ell - 1):
            half |= {(i, i + 1, ell, ell + 2), (-i, -i - 1, ell, ell + 2)}
    for ell in range(2, n - 2):
        half |= {(ell, ell + 1, ell + 2, -ell - 3), (-1, ell, ell + 2, -ell - 3)}
    half |= {(1, 2, -3, 4), (1, 2, 3, -4), (1, -2, 3, -4)}  # base leftovers
    return {_face(f) for g in half for f in (g, [-v for v in g])}


def eq1_expansion(n: int, b0, b1, b2) -> set[tuple[int, ...]]:
    """Facets of B(d, i, n) by Eq. (1), the two-step unrolling of its recursion,
    from the facets b0, b1, b2 of B(d-2, i, n-2), B(d-2, i-1, n-2), B(d-2, i-2, n-2):

    B(d,i,n) = (B(d-2,i,n-2) * (n-1, n))
             ∪ ((-B(d-2,i-1,n-2)) * (n, -n+1, -n))
             ∪ (B(d-2,i-2,n-2) * (n-1, -n)).
    """
    joins = (
        (b0, [(n - 1, n)]),
        ([[-v for v in f] for f in b1], [(n, -n + 1), (-n + 1, -n)]),
        (b2, [(n - 1, -n)]),
    )
    return {_face((*f, *edge)) for facets, path in joins for f in facets for edge in path}


def b31_paths(n: int) -> tuple[set[tuple[int, ...]], set[tuple[int, ...]]]:
    """Facets of the two joins whose union is B(3, 1, n):

    B(3,1,n) = (path(n-2, ..., 1, -(n-2), ..., -1) * (n-1, n))
             ∪ ((1, -(n-2)) * path(n, -(n-1), -n)).
    """
    walk = [*range(n - 2, 0, -1), *range(-n + 2, 0)]
    long_join = {_face((a, b, n - 1, n)) for a, b in zip(walk, walk[1:])}
    short_join = {_face((1, -n + 2, a, b)) for a, b in [(n, -n + 1), (-n + 1, -n)]}
    return long_join, short_join


def suspension(facets, poles: tuple[int, int]) -> set[tuple[int, ...]]:
    """Facets of the join of `facets` with the two-point complex on `poles`."""
    return {_face((*f, p)) for f in facets for p in poles}


def admissible_index_sets(n: int) -> list[tuple[int, ...]]:
    """Every subset of [3, n-6] whose first gap, when it has two elements or
    more, exceeds one, found by filtering all subsets and sorted."""
    pool = range(3, n - 5)
    subsets = itertools.chain.from_iterable(itertools.combinations(pool, size) for size in range(len(pool) + 1))
    return sorted(s for s in subsets if len(s) < 2 or s[1] - s[0] > 1)


def facet_tree_edges(n: int, indices) -> set[frozenset[tuple[int, ...]]]:
    """Edges of the facet tree T(I) of the index set I = (i_1 < ... < i_m), as
    pairs of consecutive facets on the paths that the paper joins:

    column  (1, 2) * path(3, 5, ..., the odd labels up to n, then the even
            labels down from n, ..., 6, 4);
    row r   (n-1, n) * path(2, 1, -(n-2), ..., -(n-1-i_1)) for r = 0, and
            (n-i-1, n-i+1) * path(2, 1, -(n-i-2), ..., -(n-1-i_{r+1})) for
            i = i_r, where i_{m+1} = n-2;
    short   (1, -(n-2)) * path(n-1, n, -(n-1), -n).
    """
    joins = [((1, 2), [*range(3, n + 1, 2), *range(n - n % 2, 3, -2)]),
             ((1, -(n - 2)), [n - 1, n, -(n - 1), -n])]
    for i, end in zip((0, *indices), (*indices, n - 2)):
        row_edge = (n - 1, n) if i == 0 else (n - i - 1, n - i + 1)
        joins.append((row_edge, [2, 1, *range(-(n - 2 - i), -(n - 2 - end))]))
    edges = set()
    for edge, walk in joins:
        facets = [_face((*edge, a, b)) for a, b in zip(walk, walk[1:])]
        edges.update(frozenset(pair) for pair in zip(facets, facets[1:]))
    return edges
