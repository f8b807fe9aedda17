"""Graph container, graph6 codec, and strongly-regular parameter checks.

graph6 oracle strings were produced independently (by hand-packing bits
per the format definition) before the codec existed; "Dhc" is the 5-cycle.
"""

import random

import pytest
from hypothesis import given, strategies as st

from oracles import complement, complete, disjoint_union, edge_count
from starcomp.errors import MalformedGraph6, TooLarge
from starcomp.graphs import (Graph, SrgParams, cycle, graph6_decode, graph6_encode,
                             induced_subgraph, is_connected, regular_degree, set_bits,
                             srg_check)
from starcomp.kts import make_kts


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges.append((i, j))
    return Graph.from_edges(n, edges)


# ------------------------------------------------------------ construction

def test_from_edges_and_accessors():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.n == 4
    assert g.degrees() == [2, 2, 2, 2]
    assert g.adjacent(0, 1) and not g.adjacent(0, 2)
    assert sorted(g.neighbours(1)) == [0, 2]
    assert edge_count(g) == 4
    assert sorted(g.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]


def test_matrix_round_trip():
    g = cycle(5)
    m = g.matrix()
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5) if m[i][j]]
    assert Graph.from_edges(5, edges).adj == g.adj
    assert all(m[i][j] == m[j][i] for i in range(5) for j in range(5))
    assert all(m[i][i] == 0 for i in range(5))


def test_validation():
    with pytest.raises(ValueError):
        Graph(2, (1, 1))          # loop
    with pytest.raises(ValueError):
        Graph(2, (2, 0))          # asymmetric
    with pytest.raises(ValueError):
        Graph(3, (2, 1, 8))       # bit outside range
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2)])


def test_relabel():
    g = Graph.from_edges(3, [(0, 1)])
    h = g.relabel((2, 0, 1))
    # vertex 0 -> 2, 1 -> 0: edge (0,1) becomes (2,0)
    assert h.adjacent(0, 2) and not h.adjacent(0, 1)
    assert sorted(h.degrees()) == sorted(g.degrees())


def test_complement_and_induced():
    g = cycle(5)
    gc = complement(g)
    assert edge_count(gc) == 5 and all(d == 2 for d in gc.degrees())
    assert complement(gc).adj == g.adj
    assert induced_subgraph(g, range(5)).adj == g.adj
    p3 = induced_subgraph(g, [0, 1, 2])
    assert sorted(p3.degrees()) == [1, 1, 2]
    # order of the vertex list fixes the relabeling
    assert induced_subgraph(g, [1, 0, 2]).adjacent(0, 1)


def test_builders():
    assert edge_count(complete(4)) == 6
    assert cycle(3).adj == complete(3).adj
    g = disjoint_union(cycle(3), cycle(4))
    assert g.n == 7 and edge_count(g) == 7
    assert not is_connected(g)
    assert is_connected(cycle(7))
    k = make_kts(2, 3)
    assert k.degrees() == [3, 3, 2, 2, 2]
    assert edge_count(k) == 6
    assert not k.adjacent(0, 1) and k.adjacent(0, 2)


@given(st.integers(min_value=0, max_value=1 << 200))
def test_set_bits_matches_a_bit_scan(m):
    assert list(set_bits(m)) == [i for i in range(m.bit_length()) if m >> i & 1]


def test_is_connected_and_edges_match_brute_force():
    # sparse and dense random graphs, so both verdicts occur often
    rng = random.Random(11)
    verdicts = []
    assert is_connected(Graph(0, [])) and list(Graph(0, []).edges()) == []
    for _ in range(400):
        n = rng.randint(1, 14)
        p = rng.uniform(0.05, 0.5)
        g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                 if rng.random() < p])
        A = g.matrix()
        assert list(g.edges()) == [(u, v) for u in range(n) for v in range(u + 1, n) if A[u][v]]
        reached = [0]
        for v in reached:
            reached += [u for u in range(n) if A[v][u] and u not in reached]
        verdicts.append(len(reached) == n)
        assert is_connected(g) == verdicts[-1]
    assert verdicts.count(True) >= 100 and verdicts.count(False) >= 100


def test_regular_degree():
    assert regular_degree(cycle(6)) == 2
    assert regular_degree(complete(5)) == 4
    assert regular_degree(Graph.from_edges(3, [(0, 1)])) is None


# ----------------------------------------------------------------- graph6

def test_graph6_known_strings():
    assert graph6_encode(cycle(5)) == "Dhc"
    assert graph6_decode("Dhc").adj == cycle(5).adj
    # single vertex, and the 2-path
    assert graph6_decode(graph6_encode(Graph(1, (0,)))).n == 1
    assert graph6_encode(Graph.from_edges(2, [(0, 1)])) == "A_"


def test_graph6_malformed():
    for line in ("", "D", "Dhc~", "D\x19c", "~??"):
        with pytest.raises(MalformedGraph6):
            graph6_decode(line)


def test_graph6_size_cap():
    big = Graph(63, (0,) * 63)
    with pytest.raises(TooLarge):
        graph6_encode(big)
    # 62 is the last size in range
    assert graph6_decode(graph6_encode(Graph(62, (0,) * 62))).n == 62


@given(graphs())
def test_graph6_round_trip(g):
    assert graph6_decode(graph6_encode(g)).adj == g.adj


@given(graphs(max_n=8))
def test_complement_involution(g):
    assert complement(complement(g)).adj == g.adj
    assert edge_count(g) + edge_count(complement(g)) == g.n * (g.n - 1) // 2


# ----------------------------------------------------------------- srg

def test_srg_known_parameters():
    assert srg_check(cycle(5)) == SrgParams(5, 2, 0, 1)
    assert srg_check(make_kts(3, 3)) == SrgParams(6, 3, 0, 3)
    from starcomp.catalog import petersen
    assert srg_check(petersen()) == SrgParams(10, 3, 0, 1)


def test_srg_rejects_non_srg():
    assert srg_check(cycle(6)) is None            # regular, not srg
    assert srg_check(Graph.from_edges(3, [(0, 1)])) is None   # irregular
    assert srg_check(complete(4)) is None         # complete excluded
    assert srg_check(Graph(4, (0, 0, 0, 0))) is None   # empty excluded
    assert srg_check(disjoint_union(cycle(3), cycle(3))) is None


@given(graphs(max_n=9))
def test_srg_identity_reverifies(g):
    params = srg_check(g)
    if params is None:
        return
    n, r, e, f = params.n, params.r, params.e, params.f
    A = g.matrix()
    for i in range(n):
        for j in range(n):
            a2 = sum(A[i][k] * A[k][j] for k in range(n))
            if i == j:
                assert a2 == r
            elif A[i][j]:
                assert a2 == e
            else:
                assert a2 == f
