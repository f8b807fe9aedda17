"""Canonical labeling and isomorphism testing.

The strongest oracle here is classical: there are exactly 34 graphs on
five vertices up to isomorphism (and 11 on four).  Enumerating all 2^10
labelled graphs and counting distinct canonical encodings must reproduce
those counts exactly; any collision or split would change them.
"""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from oracles import canonical_graph, complement, complete, disjoint_union
from starcomp.canon import (CANONICAL_CAP, CanonicalForm, are_isomorphic,
                            canonical, stable_colouring)
from starcomp.errors import TooLarge
from starcomp.graphs import Graph, cycle, graph6_encode
from starcomp.catalog import named_graph, petersen
from starcomp.kts import make_kts


def all_labelled_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        edges = [p for i, p in enumerate(pairs) if bits >> i & 1]
        yield Graph.from_edges(n, edges)


@pytest.mark.parametrize("n,count", [(3, 4), (4, 11), (5, 34)])
def test_isomorphism_class_counts(n, count):
    forms = {canonical(g).bytes for g in all_labelled_graphs(n)}
    assert len(forms) == count


@st.composite
def graph_and_permutation(draw, max_n=9):
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = [p for p in itertools.combinations(range(n), 2) if draw(st.booleans())]
    perm = draw(st.permutations(range(n)))
    return Graph.from_edges(n, edges), tuple(perm)


@given(graph_and_permutation())
def test_canonical_invariant_under_relabeling(gp):
    g, perm = gp
    assert canonical(g.relabel(perm)).bytes == canonical(g).bytes


def test_canonical_perm_realizes_form():
    for g in (cycle(5), petersen(), disjoint_union(cycle(3), complete(4))):
        form = canonical(g)
        assert g.relabel(form.perm).adj == canonical_graph(g).adj
        # idempotent: canonizing the canonical graph is a fixed point
        assert canonical(canonical_graph(g)).bytes == form.bytes


def test_are_isomorphic_positive():
    g = cycle(6)
    assert are_isomorphic(g, g.relabel((3, 1, 4, 0, 5, 2)))
    # Petersen as the complement of the line graph of K5 (Kneser graph)
    pairs = list(itertools.combinations(range(5), 2))
    edges = [(i, j) for i in range(10) for j in range(i + 1, 10)
             if set(pairs[i]) & set(pairs[j])]
    line_k5 = Graph.from_edges(10, edges)
    assert are_isomorphic(petersen(), complement(line_k5))


def test_are_isomorphic_negative():
    assert not are_isomorphic(cycle(5), cycle(6))
    p5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert not are_isomorphic(cycle(5), p5)
    # same degree sequence, different graphs: C6 vs 2C3
    assert not are_isomorphic(cycle(6), disjoint_union(cycle(3), cycle(3)))
    # cospectral pair (C4 + K1 vs star K_{1,4} share spectrum); not isomorphic
    c4_k1 = disjoint_union(cycle(4), Graph(1, (0,)))
    star = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
    assert not are_isomorphic(c4_k1, star)


def test_canonical_cap_enforced():
    n = CANONICAL_CAP + 1
    ring = cycle(n)
    with pytest.raises(TooLarge):
        canonical(ring)
    # pairwise isomorphism still available above the cap
    perm = tuple((i * 5) % n for i in range(n))  # 5 is invertible mod 21
    assert are_isomorphic(ring, ring.relabel(perm))
    assert not are_isomorphic(ring, disjoint_union(cycle(3), cycle(n - 3)))


# ------------------------------------------------- pinned order-17/18 forms
# Recorded before the automorphism pruning went in; the pruned search must
# reproduce them byte for byte.

K66_R8_FORMS = ["NsaCB|}^b{No}[xrBv_"]
K66_R10_FORMS = ["QsaCB|}^b{No}[|Y|YulYJvG]{W", "QsaCB|}^b{No}[|Y}[}[wJvC]{W",
                 "QsaCB|}^b{No}[}R{}S}YXnG]{W"]


@pytest.mark.parametrize("fixture,forms", [("k66_r8", K66_R8_FORMS),
                                           ("k66_r10", K66_R10_FORMS)])
def test_k66_canonical_forms_pinned(request, fixture, forms):
    graphs = [sol.graph for sol in request.getfixturevalue(fixture)]
    assert [canonical(g).bytes.decode() for g in graphs] == forms
    for g in graphs:
        # a colouring handed in is the one canonical() would compute
        assert canonical(g, stable_colouring(g)) == canonical(g)
        fixed = canonical_graph(g)
        assert canonical(fixed).bytes == canonical(g).bytes
        assert canonical_graph(fixed) == fixed


# ------------------------------------------ the pruned search vs a full one

def _relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def _cyclic_lift(rng, k, m):
    """k copies of a random graph on m vertices, joined so that shifting
    every vertex to the next copy is an automorphism: small groups whose
    orbits are not made of twins, where pruning mistakes would show."""
    base = [e for e in itertools.combinations(range(m), 2) if rng.random() < 0.4]
    cross = [(i, j, d) for i in range(m) for j in range(m) for d in range(1, k)
             if rng.random() < 0.3 / k]
    edges = set()
    for c in range(k):
        edges |= {(c * m + i, c * m + j) for i, j in base}
        edges |= {tuple(sorted((c * m + i, (c + d) % k * m + j)))
                  for i, j, d in cross if (c, i) != ((c + d) % k, j)}
    return Graph.from_edges(k * m, edges)


def _planted_twins(rng, sizes):
    """A random graph with a planted class of k twins for each k in sizes:
    a clique (true twins) or an independent set (false twins), every member
    joined to the same random base vertices, two classes joined completely
    or not at all.  canonical() individualises a target cell that is one
    twin class in one step."""
    m = rng.randint(1, 6)
    edges = [e for e in itertools.combinations(range(m), 2) if rng.random() < 0.5]
    classes = []
    for k in sizes:
        n = m + sum(map(len, classes))
        members = range(n, n + k)
        base = [u for u in range(m) if rng.random() < 0.5]
        edges += [(u, v) for v in members for u in base]
        if rng.random() < 0.5:
            edges += itertools.combinations(members, 2)
        for other in classes:
            if rng.random() < 0.5:
                edges += [(u, v) for u in other for v in members]
        classes.append(members)
    return Graph.from_edges(m + sum(sizes), edges)


def _full_search_canonical(g, max_leaves=500):
    """The same search tree walked in full, with the plain refinement that
    re-sorts every vertex each round: bytes and perm must come out equal.
    None when the tree has more than max_leaves leaves."""
    def refine(colors):
        while True:
            keys = [(colors[v], tuple(sorted(colors[u] for u in g.neighbours(v))))
                    for v in range(g.n)]
            order = {k: i for i, k in enumerate(sorted(set(keys)))}
            new = [order[k] for k in keys]
            if new == colors:
                return colors
            colors = new

    def walk(colors):
        colors = refine(colors)
        cells = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        target = next((c for c in sorted(cells) if len(cells[c]) > 1), None)
        if target is None:
            yield graph6_encode(g.relabel(colors)), tuple(colors)
            return
        for v in cells[target]:
            branched = [c + (c > target or (c == target and u != v))
                        for u, c in enumerate(colors)]
            yield from walk(branched)

    tri = [sum(1 for u, w in itertools.combinations(g.neighbours(v), 2)
               if g.adjacent(u, w)) for v in range(g.n)]
    keys = [(g.degree(v), tri[v]) for v in range(g.n)]
    order = {k: i for i, k in enumerate(sorted(set(keys)))}
    leaves = list(itertools.islice(walk([order[k] for k in keys]), max_leaves + 1))
    if len(leaves) > max_leaves:
        return None
    enc, perm = min(leaves, key=lambda leaf: leaf[0])
    return CanonicalForm(bytes=enc.encode("ascii"), perm=perm)


def test_pruned_search_equals_full_search():
    rng = random.Random(1)
    graphs = [petersen(), make_kts(2, 3), cycle(8)]
    graphs += [_cyclic_lift(rng, k, rng.randint(2, 12 // k))
               for k in (2, 3, 4) for _ in range(60)]
    for _ in range(100):
        n = rng.randint(1, 9)
        graphs.append(Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2)
                                           if rng.random() < 0.5]))
    graphs += [_planted_twins(rng, sizes) for sizes in ([2], [3], [4], [5], [2, 2], [2, 3],
                                                         [3, 3], [2, 4]) for _ in range(25)]
    checked = 0
    for g in graphs:
        h = _relabelled(g, rng)
        full = _full_search_canonical(h)
        if full is not None:
            assert canonical(h) == full, h
            checked += 1
    assert checked >= 430


def test_canonical_invariant_on_cyclic_lifts():
    # Trees too large for the full search above; a pruning slip there shows
    # up as two labellings of one graph getting different forms.
    rng = random.Random(3)
    for _ in range(2000):
        k = rng.choice((2, 3, 4))
        g = _cyclic_lift(rng, k, rng.randint(2, CANONICAL_CAP // k))
        assert canonical(_relabelled(g, rng)).bytes == canonical(_relabelled(g, rng)).bytes, g


# ------------------------------------------- differential test vs networkx

def _switched(g, rng):
    """A degree-preserving edge switch of g when one exists (often, but not
    always, non-isomorphic to g), else g itself."""
    edges = list(g.edges())
    rng.shuffle(edges)
    for (a, b), (c, d) in itertools.combinations(edges, 2):
        if len({a, b, c, d}) == 4 and not g.adjacent(a, d) and not g.adjacent(c, b):
            kept = [e for e in edges if e not in ((a, b), (c, d))]
            return Graph.from_edges(g.n, kept + [(a, d), (c, b)])
    return g


def _to_nx(nx, g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def _agrees_with_networkx(nx, a, b):
    same_form = canonical(a).bytes == canonical(b).bytes
    return same_form == nx.is_isomorphic(_to_nx(nx, a), _to_nx(nx, b))


def test_canonical_matches_networkx_random():
    nx = pytest.importorskip("networkx")
    rng = random.Random(2014)
    outcomes = set()
    for _ in range(300):
        n = rng.randint(1, 12)
        p = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9])
        a = Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2)
                                 if rng.random() < p])
        b = _relabelled(rng.choice([a, _switched(a, rng)]), rng)
        assert _agrees_with_networkx(nx, a, b), (a, b)
        for g in (a, b):
            assert canonical(g, stable_colouring(g)) == canonical(g), g
        outcomes.add(canonical(a).bytes == canonical(b).bytes)
    assert outcomes == {True, False}


def test_canonical_matches_networkx_symmetric(k66_r10):
    nx = pytest.importorskip("networkx")
    rng = random.Random(60)
    graphs = [make_kts(t, s) for t, s in [(1, 7), (2, 5), (3, 3), (4, 6), (6, 6)]]
    graphs += [petersen(), named_graph("Clebsch")]
    graphs += [sol.graph for sol in k66_r10]
    for g in graphs:
        for _ in range(3):
            assert _agrees_with_networkx(nx, g, _relabelled(g, rng))
        assert _agrees_with_networkx(nx, g, _relabelled(_switched(g, rng), rng))
    for a, b in itertools.combinations([sol.graph for sol in k66_r10], 2):
        assert _agrees_with_networkx(nx, _relabelled(a, rng), _relabelled(b, rng))


def _from_nx(h):
    return Graph.from_edges(h.number_of_nodes(), h.edges())


def test_are_isomorphic_matches_networkx():
    # above CANONICAL_CAP too: random graphs and relabelled or switched
    # copies, random regular pairs, and triangle-free cubic pairs, whose
    # stable colourings are one cell each, so only the backtracking decides
    nx = pytest.importorskip("networkx")
    rng = random.Random(1984)
    outcomes = set()
    pairs = []
    for _ in range(200):
        n = rng.randint(1, 24)
        p = rng.choice([0.1, 0.2, 0.5, 0.8])
        a = Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2)
                                 if rng.random() < p])
        pairs.append((a, _relabelled(rng.choice([a, _switched(a, rng)]), rng)))
    for _ in range(60):
        n = rng.randrange(6, 25, 2)
        d = rng.choice([3, 4, n // 2])
        a = _from_nx(nx.random_regular_graph(d, n, seed=rng.randrange(1 << 30)))
        b = _from_nx(nx.random_regular_graph(d, n, seed=rng.randrange(1 << 30)))
        pairs += [(a, b), (a, _relabelled(a, rng))]
    cubic = []
    while len(cubic) < 30:
        h = nx.random_regular_graph(3, rng.randrange(10, 25, 2), seed=rng.randrange(1 << 30))
        if not any(nx.triangles(h).values()):
            cubic.append(_from_nx(h))
    pairs += [(a, b) for a, b in itertools.combinations(cubic, 2) if a.n == b.n]
    for a, b in pairs:
        same = are_isomorphic(a, b)
        assert same == nx.is_isomorphic(_to_nx(nx, a), _to_nx(nx, b)), (a, b)
        assert are_isomorphic(b, a) == same
        outcomes.add(same)
    assert outcomes == {True, False}
