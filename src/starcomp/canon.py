"""Canonical forms for small graphs, and isomorphism tests of any order.

Colour refinement seeded with (degree, triangle count) gives each graph one
stable colouring (stable_colouring).  canonical() backtracks below it over
individualization choices; the form is the lexicographically least graph6
encoding over all leaves, its perm that of the first leaf, in depth-first
order, to reach it.  Sound and complete for the enforced n <= 20 cap.
are_isomorphic has no cap: it maps the vertices of one graph onto those of
the same stable colour in the other.  The engine refines each find once and
hands that colouring to both; canonical forms only key the output order, and
only for classes whose order another class shares.

The search tree is pruned with automorphisms, after McKay and Piperno,
"Practical graph isomorphism, II" (J. Symbolic Comput. 60, 2014).  Twins
(vertices with equal rows away from each other) give transpositions for free,
and a target cell that is one class of k twins is individualised in one
step: its members take consecutive colours in cell order, where the k - 1
one-child levels of the plain tree end.  More automorphisms come from leaves
whose encoding equals that of the first leaf or of the best leaf so far.  At
each node only one child per orbit of the known automorphisms fixing the
individualised vertices is explored, and a leaf that yields an automorphism
abandons the rest of its subtree back to where its path left the reference
leaf's.  Refinement and individualisation never look at vertex labels, so an
automorphism fixing a node's path carries each skipped subtree onto an
explored earlier one with the same leaf encodings.  The first leaf to reach
the minimum therefore lies in no skipped subtree: the pruned search returns
the same bytes and the same perm as the full one.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import TooLarge
from .graphs import Graph, graph6_encode

CANONICAL_CAP = 20


class CanonicalForm(NamedTuple):
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


def canonical(g: Graph, colouring: Optional[tuple] = None) -> CanonicalForm:
    """colouring holds stable_colouring(g), the root of the search, when
    the caller has it already; it changes nothing else."""
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
        cell = cells[target]
        head = cell[0]
        if all((adj[head] ^ adj[v]) & ~((1 << head) | (1 << v)) == 0 for v in cell[1:]):
            # The cell is one twin class (twins form an equivalence).  Its
            # first member is the one child that twin pruning keeps, and
            # individualising it splits nothing else: every other vertex
            # meets all of the class or none of it, and the colouring is
            # equitable.  So the k - 1 one-child levels below give the
            # members consecutive colours in cell order; take them at once
            # and return what that chain would.
            branched = [c + (len(cell) - 1 if c > target else 0) for c in colors]
            for i, v in enumerate(cell):
                branched[v] += i
            fixed.extend(cell[:-1])
            resume = walk(branched, cell, fixed)
            del fixed[depth:]
            return min(resume, depth)
        # An automorphism fixing every individualised vertex maps this node
        # to itself and child v onto child gamma(v), with the same leaf
        # encodings below; so one child per orbit suffices, and the pruned
        # children all come after their orbit's explored one.  Swapping two
        # twins in the target cell is such an automorphism.
        done: list[int] = []
        for v in cell:
            if done:
                if any((adj[u] ^ adj[v]) & ~((1 << u) | (1 << v)) == 0 for u in done):
                    continue
                stab = [a for a in autos if all(a[u] == u for u in fixed)]
                if v in _orbit(done, stab):
                    continue
            done.append(v)
            branched = [c + (1 if c > target else 0) for c in colors]
            for u in cell:
                if u != v:
                    branched[u] += 1
            fixed.append(v)
            resume = walk(branched, cell, fixed)
            fixed.pop()
            if resume < depth:
                return resume
        return depth

    try:
        walk((colouring or stable_colouring(g))[0], [], [])
    finally:
        del walk   # it holds itself in a cell: break that cycle on return
    perm = best[1]
    return CanonicalForm(bytes=graph6_encode(g.relabel(perm)).encode("ascii"),
                         perm=tuple(perm))


def stable_colouring(g: Graph) -> tuple[list[int], tuple]:
    """The stable colouring canonical() starts from, and its signature.

    The signature lists each cell's size and the sorted colours of its
    vertices' neighbours (the refinement key, equal across the cell).  Both
    are isomorphism invariants: an isomorphism carries one graph's colouring
    onto the other's, so isomorphic graphs have equal signatures.
    """
    nbrs = [g.neighbours(v) for v in range(g.n)]
    colors, cells = _refine(nbrs, _initial_colors(g, nbrs), list(range(g.n)))
    return colors, tuple((len(cell), tuple(sorted([colors[u] for u in nbrs[cell[0]]])))
                         for cell in cells)


def are_isomorphic(a: Graph, b: Graph,
                   colourings: Optional[tuple[tuple, tuple]] = None) -> bool:
    """Exact isomorphism test; no size cap.

    colourings holds stable_colouring(a) and stable_colouring(b) when the
    caller has them already.  An isomorphism maps each vertex of a to one
    of the same stable colour in b, so the test backtracks over those,
    placing a's vertices breadth first (each after a neighbour, where one
    exists, which pins its image to a neighbour's).  Rows are bitmasks: w
    may take v when b's row of w on the placed vertices is the image of a's
    row of v on them.  Nothing individualises and refines, so a refutation
    between non-isomorphic graphs with equal colourings can walk many
    nodes on a symmetric pair.
    """
    if a.n != b.n:
        return False
    (ca, sig_a), (cb, sig_b) = colourings or (stable_colouring(a), stable_colouring(b))
    if sig_a != sig_b:
        return False
    n, adj_a, adj_b = a.n, a.adj, b.adj
    cell_b = [0] * len(sig_b)
    for w, c in enumerate(cb):
        cell_b[c] |= 1 << w
    # Breadth first, each component from a vertex of its smallest cell and
    # each vertex's new neighbours queued smallest cell first.  Refuting two
    # of the K_{6,6} mu=-2 r=10 finds (cells of 12 and 6) then takes 31
    # nodes, against about 19,500 in plain breadth-first order; ordering by
    # cell alone, not breadth first, ran past 20 s on one pair of
    # relabelled cycles of order 21 to 27.
    rank = sorted(range(n), key=lambda v: (sig_a[ca[v]][0], ca[v]))
    order: list[int] = []
    seen = 0
    for root in rank:
        if not seen >> root & 1:
            seen |= 1 << root
            queue = [root]
            for v in queue:
                fresh = adj_a[v] & ~seen
                seen |= fresh
                queue.extend(u for u in rank if fresh >> u & 1)
            order += queue
    # back[i]: the neighbours of order[i] placed before it
    back = [[u for u in order[:i] if adj_a[v] >> u & 1] for i, v in enumerate(order)]
    image = [0] * n    # image[v]: the bit of v's image in b
    row = [0] * n      # row[v]: b's row of that image

    def extend(i: int, done: int) -> bool:
        if i == n:
            return True
        v, prior = order[i], back[i]
        target = sum([image[u] for u in prior])
        m = cell_b[ca[v]] & ~done
        if prior:
            m &= row[prior[0]]
        while m:
            low = m & -m
            m ^= low
            w = low.bit_length() - 1
            if adj_b[w] & done == target:
                image[v], row[v] = low, adj_b[w]
                if extend(i + 1, done | low):
                    return True
        return False

    try:
        return extend(0, 0)
    finally:
        del extend   # it holds itself in a cell: break that cycle on return
