"""Canonical forms for small graphs.

Colour refinement seeded with (degree, triangle count), then backtracking over
individualization choices; the canonical form is the lexicographically least
graph6 encoding over all leaves, and its perm is that of the first leaf, in
depth-first order, to reach it.  Sound and complete for the enforced n <= 20
cap (the largest graph needing dedupe here has 18 vertices).

The search tree is pruned with automorphisms, after McKay and Piperno,
"Practical graph isomorphism, II" (J. Symbolic Comput. 60, 2014).  Twins
(vertices with equal rows away from each other) give transpositions for free;
more automorphisms come from leaves whose encoding equals that of the first
leaf or of the best leaf so far.  At each node only one child per orbit of
the known automorphisms fixing the individualised vertices is explored, and a
leaf that yields an automorphism abandons the rest of its subtree back to
where its path left the reference leaf's.  Refinement and individualisation
never look at vertex labels, so an automorphism fixing a node's path carries
each skipped subtree onto an explored earlier one with the same leaf
encodings.  The first leaf to reach the minimum therefore lies in no skipped
subtree: the pruned search returns the same bytes and the same perm as the
full one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TooLarge
from .graphs import Graph, graph6_encode

CANONICAL_CAP = 20


@dataclass(frozen=True)
class CanonicalForm:
    bytes: bytes
    perm: tuple[int, ...]  # perm[old vertex] = canonical position


def _refine(nbrs: list[list[int]], colors: list[int],
            split: list[int]) -> tuple[list[int], list[list[int]]]:
    """Refine to the fixpoint of v -> (colour, sorted neighbour colours).

    Each round renumbers vertices by the rank of that key, so relabelling the
    graph permutes the result without changing any colour number.  Colours
    are 0..k-1 throughout.  `split` holds the vertices whose cells split since
    `colors` was last stable (all of them if it never was); a cell none of
    whose members has a neighbour in a cell split last round keeps equal keys,
    so only the others are re-sorted.  Returns the colours and their cells.
    """
    while True:
        cells: list[list[int]] = [[] for _ in range(max(colors, default=-1) + 1)]
        for v, c in enumerate(colors):
            cells[c].append(v)
        dirty = {colors[u] for v in split for u in nbrs[v]}
        new = [0] * len(colors)
        split = []
        nxt = 0
        for c, cell in enumerate(cells):
            if len(cell) > 1 and c in dirty:
                keys = [tuple(sorted([colors[u] for u in nbrs[v]])) for v in cell]
                ranks = sorted(set(keys))
                if len(ranks) > 1:
                    rank = {k: nxt + i for i, k in enumerate(ranks)}
                    for v, k in zip(cell, keys):
                        new[v] = rank[k]
                    nxt += len(ranks)
                    split.extend(cell)
                    continue
            for v in cell:
                new[v] = nxt
            nxt += 1
        if not split:
            return colors, cells
        colors = new


def _initial_colors(g: Graph, nbrs: list[list[int]]) -> list[int]:
    adj = g.adj
    # each triangle at v is seen once from either of its other two corners
    keys = [(len(nb), sum((adj[u] & adj[v]).bit_count() for u in nb) // 2)
            for v, nb in enumerate(nbrs)]
    order = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [order[k] for k in keys]


def _leaf_key(nbrs: list[list[int]], perm: list[int]) -> int:
    """The graph6 bit string of g.relabel(perm) read as one integer.

    All leaves have the same order, so these integers compare exactly as the
    graph6 encodings do.  Position p is bit n-1-p of a row, which puts the
    entries (0, j), (1, j), ..., (j-1, j) of column j in graph6 order.
    """
    n = len(perm)
    bit = [1 << (n - 1 - p) for p in perm]
    rows = [0] * n
    for v, nb in enumerate(nbrs):
        rows[perm[v]] = sum([bit[u] for u in nb])
    key = 0
    for j in range(1, n):
        key = key << j | rows[j] >> (n - j)
    return key


def _orbit(seeds: list[int], gens: list[tuple[int, ...]]) -> set[int]:
    orbit = set(seeds)
    stack = list(seeds)
    while stack:
        v = stack.pop()
        for gamma in gens:
            w = gamma[v]
            if w not in orbit:
                orbit.add(w)
                stack.append(w)
    return orbit


def canonical(g: Graph) -> CanonicalForm:
    if g.n > CANONICAL_CAP:
        raise TooLarge(f"canonical form capped at {CANONICAL_CAP} vertices, got {g.n}")
    adj = g.adj
    nbrs = [g.neighbours(v) for v in range(g.n)]
    first = best = None  # key, perm, path: the first leaf and the first least one
    autos: list[tuple[int, ...]] = []

    def walk(colors: list[int], split: list[int], fixed: list[int]) -> int:
        """Explore below the node individualising `fixed`; return the depth
        the search resumes at (len(fixed), unless a subtree was abandoned)."""
        nonlocal first, best
        depth = len(fixed)
        colors, cells = _refine(nbrs, colors, split)
        # first colour class with more than one vertex
        target = next((c for c, cell in enumerate(cells) if len(cell) > 1), None)
        if target is None:
            key = _leaf_key(nbrs, colors)
            if first is None:
                first = best = (key, colors, fixed[:])
                return depth
            ref = first if key == first[0] else best if key == best[0] else None
            if ref is None:
                if key < best[0]:
                    best = (key, colors, fixed[:])
                return depth
            # Equal encodings: v -> the vertex of this leaf sitting at v's
            # position in the reference leaf is an automorphism.  It fixes the
            # paths' common prefix and maps the reference's child there onto
            # ours, so the rest of our subtree repeats an explored one.
            at = [0] * g.n
            for v, p in enumerate(colors):
                at[p] = v
            autos.append(tuple(at[p] for p in ref[1]))
            k = 0
            while ref[2][k] == fixed[k]:
                k += 1
            return k
        # An automorphism fixing every individualised vertex maps this node
        # to itself and child v onto child gamma(v), with the same leaf
        # encodings below; so one child per orbit suffices, and the pruned
        # children all come after their orbit's explored one.  Swapping two
        # twins in the target cell is such an automorphism.
        done: list[int] = []
        for v in cells[target]:
            if done:
                if any((adj[u] ^ adj[v]) & ~((1 << u) | (1 << v)) == 0 for u in done):
                    continue
                stab = [a for a in autos if all(a[u] == u for u in fixed)]
                if v in _orbit(done, stab):
                    continue
            done.append(v)
            branched = [c + (1 if c > target else 0) for c in colors]
            for u in cells[target]:
                if u != v:
                    branched[u] += 1
            fixed.append(v)
            resume = walk(branched, cells[target], fixed)
            fixed.pop()
            if resume < depth:
                return resume
        return depth

    walk(_initial_colors(g, nbrs), list(range(g.n)), [])
    perm = best[1]
    return CanonicalForm(bytes=graph6_encode(g.relabel(perm)).encode("ascii"),
                         perm=tuple(perm))


def canonical_graph(g: Graph) -> Graph:
    return g.relabel(canonical(g).perm)


def are_isomorphic(a: Graph, b: Graph) -> bool:
    """Exact isomorphism test; no size cap (backtracking on refined colours)."""
    if a.n != b.n or sorted(a.degrees()) != sorted(b.degrees()):
        return False
    na = [a.neighbours(v) for v in range(a.n)]
    nb = [b.neighbours(v) for v in range(b.n)]
    ca = _refine(na, _initial_colors(a, na), list(range(a.n)))[0]
    cb = _refine(nb, _initial_colors(b, nb), list(range(b.n)))[0]
    if sorted(ca) != sorted(cb):
        return False
    # order a's vertices most-constrained first
    order = sorted(range(a.n), key=lambda v: (ca.count(ca[v]), ca[v]))
    image = [-1] * a.n
    used = [False] * b.n

    def extend(i: int) -> bool:
        if i == a.n:
            return True
        v = order[i]
        for w in range(b.n):
            if used[w] or cb[w] != ca[v]:
                continue
            ok = True
            for j in range(i):
                u = order[j]
                if a.adjacent(v, u) != b.adjacent(w, image[u]):
                    ok = False
                    break
            if ok:
                image[v] = w
                used[w] = True
                if extend(i + 1):
                    return True
                used[w] = False
                image[v] = -1
        return False

    return extend(0)
