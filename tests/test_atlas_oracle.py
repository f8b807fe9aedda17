"""End-to-end oracle from the definition of a star set.

For every regular graph G on at most 7 vertices (networkx's graph atlas)
and every eigenvalue mu of A(G) that is an integer or quadratic, each
star set X of mu is a set of mult(mu) vertices such that mu is not an
eigenvalue of G - X.  Searching from H = G - X must find G: with the
degree of G and max_x = |X|, and in a sweep.  When H is K_{t,s}, the
tagged search over make_kts(t, s) must find it too, with symmetry on and
off.  An empty H (X = V(G), so G is edgeless and mu = 0) is the one
case the search refuses, with HypothesisViolated.

The oracle reads nothing from the package but its search: eigenvalues
come from characteristic polynomials that sympy computes and factors over
the integers, and isomorphism from networkx on graphs built with all
their vertices.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

import pytest

from starcomp.algebra import QNum
from starcomp.engine import make_context, search_star_sets, verify_star_pair
from starcomp.errors import HypothesisViolated
from starcomp.graphs import Graph, make_kts

nx = pytest.importorskip("networkx")
sympy = pytest.importorskip("sympy")
DomainMatrix = pytest.importorskip("sympy.polys.matrices").DomainMatrix
x = sympy.Symbol("x")


class StarPair(NamedTuple):
    G: object            # networkx graph on nodes 0..n-1
    mu: QNum
    X: tuple[int, ...]
    H: Graph             # G - X, its vertices renumbered in order
    tag: tuple[int, int] | None


def charpoly(G, nodes) -> sympy.Poly:
    rows = [[sympy.ZZ(int(G.has_edge(u, v))) for v in nodes] for u in nodes]
    return sympy.Poly(DomainMatrix(rows, (len(nodes),) * 2, sympy.ZZ).charpoly(), x)


def eigenvalues(G):
    """(mu, its monic factor over Z, multiplicity) for every integer or
    quadratic eigenvalue."""
    for f, k in sympy.factor_list(charpoly(G, list(G)).as_expr(), x)[1]:
        f = sympy.Poly(f, x)
        coeffs = [int(c) for c in f.all_coeffs()]
        if f.degree() == 1:
            yield QNum(-coeffs[1]), f, k
        elif f.degree() == 2:
            for positive in (True, False):
                yield QNum.quadratic_root(coeffs[2], coeffs[1], positive), f, k


def kts_tag(H):
    q = H.number_of_nodes()
    for t in range(1, q // 2 + 1):
        if nx.is_isomorphic(H, nx.complete_bipartite_graph(t, q - t)):
            return t, q - t
    return None


@pytest.fixture(scope="module")
def star_pairs() -> list[StarPair]:
    pairs = []
    for G in nx.graph_atlas_g():
        degrees = {d for _, d in G.degree()}
        if len(degrees) != 1:
            continue
        for mu, f, k in eigenvalues(G):
            for X in combinations(range(G.number_of_nodes()), k):
                rest = [v for v in G if v not in X]
                if charpoly(G, rest).rem(f).is_zero:
                    continue
                H = G.subgraph(rest)
                index = {v: i for i, v in enumerate(rest)}
                edges = [(index[u], index[v]) for u, v in H.edges()]
                pairs.append(StarPair(G, mu, X, Graph.from_edges(len(rest), edges), kts_tag(H)))
    return pairs


def to_nx(g: Graph):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from((u, v) for u in range(g.n) for v in range(u) if g.adj[u] >> v & 1)
    return h


def finds(pair: StarPair, searches: dict, tagged: bool = False, symmetry: bool = True) -> bool:
    """Whether the regular search and the sweep from pair.H both return G."""
    r = next(d for _, d in pair.G.degree())
    H = make_kts(*pair.tag) if tagged else pair.H
    found = True
    for require in (r, "sweep"):
        key = (H.adj, pair.mu, require, len(pair.X), tagged, symmetry)
        if key not in searches:
            ctx = make_context(H, pair.mu, bipartite_tag=pair.tag if tagged else None)
            searches[key] = [to_nx(sol.graph) for sol in search_star_sets(
                ctx, require_regular=require, max_x=len(pair.X), symmetry=symmetry)]
        found &= any(nx.is_isomorphic(pair.G, g) for g in searches[key])
    return found


def test_atlas_star_pairs_counted(star_pairs):
    pairs = star_pairs
    assert len(pairs) == 321
    assert sum(not p.mu.is_integer for p in pairs) == 20
    # 173 distinct searches (H, mu, |X|); K_{t,s} is H in 50 pairs, 10 of
    # them C_5 at its quadratic mu over K_{1,2}
    assert len({(p.H.adj, p.mu, len(p.X)) for p in pairs}) == 173
    assert sum(p.tag is not None for p in pairs) == 50
    # X = V(G) only for the edgeless graphs at mu = 0
    null = [p for p in pairs if not p.H.n]
    assert sorted(p.G.number_of_nodes() for p in null) == list(range(1, 8))
    assert all(p.G.number_of_edges() == 0 and p.mu == 0 for p in null)


def test_every_star_pair_is_found(star_pairs):
    searches = {}
    missed = [(sorted(p.G.edges()), p.mu, p.X) for p in star_pairs
              if p.H.n and not finds(p, searches)]
    assert not missed


@pytest.mark.parametrize("symmetry", [True, False])
def test_every_tagged_star_pair_is_found(star_pairs, symmetry):
    searches = {}
    missed = [(sorted(p.G.edges()), p.mu, p.X) for p in star_pairs
              if p.tag and not finds(p, searches, tagged=True, symmetry=symmetry)]
    assert not missed


def test_null_complement_is_refused(star_pairs):
    # the certificate accepts X = V(G); the search has no H-vertex to walk
    for p in star_pairs:
        if not p.H.n:
            G = Graph.from_edges(p.G.number_of_nodes(), [])
            assert verify_star_pair(G, p.X, p.mu).passed
            ctx = make_context(p.H, p.mu)
            for require in (0, "sweep"):
                with pytest.raises(HypothesisViolated, match="edgeless"):
                    search_star_sets(ctx, require_regular=require, max_x=len(p.X))
