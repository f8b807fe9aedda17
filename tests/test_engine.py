"""The search core: contexts, candidate enumeration, pair classification,
backtracking search, assembly, and certification.

Candidate-count oracles (9 vectors for K_{3,3} at mu=1, 225 for K_{6,6}
at mu=-2, 10 for K_{1,5} at mu=1) were computed by brute force over all
2^q vectors against the scaled resolvent before the closed-form path
existed, and the brute-force comparison is re-run here.
"""

import itertools
import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from starcomp.algebra import QNum, qnum
from starcomp.canon import are_isomorphic, canonical
from starcomp.catalog import named_graph, petersen
from starcomp.engine import (Compat, make_context, classify_pair,
                             enumerate_candidates, multiplicity_cap, pairing,
                             search_star_sets, solution_from_assembled,
                             verify_star_pair)
from starcomp.errors import (BadTag, DuplicateNeighbourhood, MuIsEigenvalue,
                             TooLarge, Unbounded)
import starcomp
from starcomp.graphs import Graph, cycle, graph6_encode, induced_subgraph
from starcomp.kts import make_kts


# ----------------------------------------------------------------- context

def test_make_context_tagged():
    ctx = make_context(make_kts(3, 3), qnum(1), bipartite_tag=(3, 3))
    assert ctx.q == 6 and ctx.mval == qnum(-8)
    assert not ctx.mu_special
    assert [x.as_int() for x in ctx.N[0]] == [-5, 3, 3, 1, 1, 1]


def test_make_context_untagged_any_graph():
    ctx = make_context(petersen(), qnum(2))
    n = ctx.q
    # two-sided resolvent identity
    C = petersen().matrix()
    for i in range(n):
        for j in range(n):
            acc = qnum(0)
            for k in range(n):
                acc = acc + ctx.N[i][k] * (qnum(2) * (k == j) - C[k][j])
            assert acc == (ctx.mval if i == j else qnum(0))


def test_make_context_rejects_eigenvalues():
    for mu in (qnum(3), qnum(-3), qnum(0)):
        with pytest.raises(MuIsEigenvalue):
            make_context(make_kts(3, 3), mu, bipartite_tag=(3, 3))
    with pytest.raises(MuIsEigenvalue):
        make_context(make_kts(1, 1), qnum(-1), bipartite_tag=(1, 1))


def test_make_context_rejects_wrong_tag():
    with pytest.raises(BadTag):
        make_context(make_kts(3, 3), qnum(1), bipartite_tag=(2, 3))
    with pytest.raises(BadTag):
        make_context(cycle(5), qnum(1), bipartite_tag=(2, 3))
    with pytest.raises(BadTag):
        make_context(make_kts(2, 3), qnum(1), bipartite_tag=(3, 2))


def test_mu_special_flag():
    assert make_context(make_kts(2, 3), qnum(-1), bipartite_tag=(2, 3)).mu_special
    assert make_context(make_kts(2, 3), qnum(1), bipartite_tag=(2, 3)).mu_special is False
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert make_context(p4, qnum(0)).mu_special


# -------------------------------------------------------------- candidates

@pytest.mark.parametrize("t,s,mu,count,types", [
    (3, 3, 1, 9, {(1, 1)}),
    (6, 6, -2, 225, {(4, 4)}),
    (1, 5, 1, 10, {(0, 2)}),
])
def test_candidate_counts(t, s, mu, count, types):
    ctx = make_context(make_kts(t, s), qnum(mu), bipartite_tag=(t, s))
    cands = enumerate_candidates(ctx)
    assert len(cands) == count
    assert {c.type_ab for c in cands} == types
    # each candidate satisfies the scaled self-pairing and non-main checks
    for c in cands:
        assert c.self_pair == ctx.mval * ctx.mu
        assert c.ones_pair == -ctx.mval


def test_candidates_sorted_and_deterministic():
    ctx = make_context(make_kts(3, 3), qnum(1), bipartite_tag=(3, 3))
    a = enumerate_candidates(ctx)
    b = enumerate_candidates(ctx)
    assert [c.bits for c in a] == [c.bits for c in b]
    assert a == sorted(a, key=lambda c: (c.type_ab, c.bits))


def test_candidates_k11_uses_generic_path():
    # tagged (1,1) falls outside the closed-form regime entirely
    ctx = make_context(make_kts(1, 1), qnum(2), bipartite_tag=(1, 1))
    cands = enumerate_candidates(ctx, non_main=False)
    assert [c.bits for c in cands] == [(1, 1)]
    assert cands[0].type_ab == (1, 1)
    # with the non-main condition nothing survives (mu=2 is the main case)
    assert enumerate_candidates(ctx, non_main=True) == []


def test_candidates_brute_force_equivalence():
    # closed-form path vs untagged 2^q scan on the same complement
    for t, s, mu in ((3, 3, qnum(1)), (2, 3, qnum(-3)), (1, 5, qnum(1)),
                     (2, 5, qnum(1)), (3, 18, None)):
        if mu is None:
            continue   # q = 21 > brute cap, skipped by design
        tagged = make_context(make_kts(t, s), mu, bipartite_tag=(t, s))
        untagged = make_context(make_kts(t, s), mu)
        for non_main in (True, False):
            a = {c.bits for c in enumerate_candidates(tagged, non_main=non_main)}
            b = {c.bits for c in enumerate_candidates(untagged, non_main=non_main)}
            assert a == b


def test_candidates_too_large_untagged():
    empty = Graph(31, (0,) * 31)
    ctx = make_context(empty, qnum(1))
    with pytest.raises(TooLarge):
        enumerate_candidates(ctx)


def test_candidates_mu_zero_includes_empty_vector():
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    ctx = make_context(p4, qnum(0))
    bits = {c.bits for c in enumerate_candidates(ctx, non_main=False)}
    assert (0, 0, 0, 0) in bits
    # with mu != 0 the empty vector is never a candidate
    ctx1 = make_context(p4, qnum(1))
    assert all(any(c.bits) for c in enumerate_candidates(ctx1, non_main=False))


# ------------------------------------------------------------ pairing

@given(st.integers(min_value=0, max_value=63), st.integers(min_value=0, max_value=63))
def test_pairing_symmetric_bilinear(xm, ym):
    ctx = make_context(make_kts(3, 3), qnum(1), bipartite_tag=(3, 3))
    x = [xm >> i & 1 for i in range(6)]
    y = [ym >> i & 1 for i in range(6)]
    assert pairing(ctx, x, y) == pairing(ctx, y, x)
    two_x = [2 * v for v in x]
    assert pairing(ctx, two_x, y) == qnum(2) * pairing(ctx, x, y)
    xy = [a + b for a, b in zip(x, y)]
    assert (pairing(ctx, xy, xy)
            == pairing(ctx, x, x) + qnum(2) * pairing(ctx, x, y) + pairing(ctx, y, y))


def test_classify_pair_labels():
    ctx = make_context(make_kts(3, 3), qnum(1), bipartite_tag=(3, 3))
    cands = {c.bits: c for c in enumerate_candidates(ctx)}
    # hand-checked against N = C^2 + C - 8I: disjoint (1,1) vectors pair to
    # 8 = -mval (adjacent); vectors sharing a V-vertex pair to -5+1+1+3 = 0
    u = cands[(1, 0, 0, 1, 0, 0)]
    v = cands[(0, 1, 0, 0, 1, 0)]
    w = cands[(0, 0, 1, 0, 0, 1)]
    x = cands[(1, 0, 0, 0, 1, 0)]
    assert classify_pair(ctx, u, v) == Compat.ADJACENT
    assert classify_pair(ctx, u, w) == Compat.ADJACENT
    assert classify_pair(ctx, u, x) == Compat.NON_ADJACENT
    # labels are symmetric
    assert classify_pair(ctx, x, u) == Compat.NON_ADJACENT


def test_classify_pair_incompatible():
    ctx = make_context(make_kts(6, 6), qnum(-2), bipartite_tag=(6, 6))
    cands = enumerate_candidates(ctx)
    labels = {classify_pair(ctx, cands[0], c) for c in cands[1:]}
    assert Compat.INCOMPATIBLE in labels


def test_classify_pair_duplicates():
    ctx = make_context(make_kts(3, 3), qnum(1), bipartite_tag=(3, 3))
    c = enumerate_candidates(ctx)[0]
    with pytest.raises(DuplicateNeighbourhood):
        classify_pair(ctx, c, c)
    # mu = -1: duplicates allowed and forced adjacent
    ctx_dup = make_context(make_kts(2, 2), qnum(-1), bipartite_tag=(2, 2))
    d = enumerate_candidates(ctx_dup)[0]
    assert classify_pair(ctx_dup, d, d) == Compat.ADJACENT
    # mu = 0: duplicates allowed and forced non-adjacent
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    ctx0 = make_context(p4, qnum(0))
    e = enumerate_candidates(ctx0)[0]
    assert classify_pair(ctx0, e, e) == Compat.NON_ADJACENT


# ---------------------------------------------------------------- search

def test_search_regular_fixed_degree(k33_ctx):
    sols = search_star_sets(k33_ctx, require_regular=4)
    assert len(sols) == 1 and sols[0].order == 9
    assert all(d == 4 for d in sols[0].graph.degrees())


def test_search_results_certified_and_labeled(k33_sweep):
    for sol in k33_sweep:
        assert sol.cert.passed
        assert sol.cert.multiplicity == len(sol.x_vertices)
        # pair labels match assembled adjacency
        g, xs = sol.graph, sol.x_vertices
        for i, u in enumerate(xs):
            for v in xs[i + 1:]:
                assert g.adjacent(u, v) == sol.ax.adjacent(xs.index(u), xs.index(v))


def test_search_deterministic(k33_ctx, k33_sweep):
    again = search_star_sets(k33_ctx, require_regular="sweep")
    assert [graph6_encode(s.graph) for s in again] == \
        [graph6_encode(s.graph) for s in k33_sweep]


def test_search_symmetry_reduction_is_lossless(k33_ctx, k33_sweep):
    plain = search_star_sets(k33_ctx, require_regular="sweep", symmetry=False)
    assert [canonical(s.graph).bytes for s in plain] == \
        [canonical(s.graph).bytes for s in k33_sweep]


def test_search_max_solutions_budget(k33_ctx):
    some = search_star_sets(k33_ctx, require_regular=6, max_solutions=1)
    assert len(some) == 1


def test_search_max_x_restricts(k33_ctx):
    sols = search_star_sets(k33_ctx, require_regular="sweep", max_x=3)
    assert [s.order for s in sols] == [9]


def test_search_special_mu_requires_max_x():
    ctx = make_context(make_kts(2, 2), qnum(-1), bipartite_tag=(2, 2))
    with pytest.raises(Unbounded):
        search_star_sets(ctx, require_regular="sweep")
    sols = search_star_sets(ctx, require_regular="sweep", max_x=4)
    assert all(len(s.x_vertices) <= 4 for s in sols)


def test_search_maximal_mode(k33_ctx):
    sols = search_star_sets(k33_ctx)
    assert len(sols) == 1 and len(sols[0].x_vertices) == 9
    # maximality: every candidate outside X clashes with something inside
    cands = enumerate_candidates(k33_ctx)
    chosen = set()
    g, xs = sols[0].graph, sols[0].x_vertices
    for u in xs:
        row = tuple(1 if g.adjacent(u, h) else 0 for h in range(k33_ctx.q))
        chosen.add(row)
    for c in cands:
        if c.bits in chosen:
            continue
        labels = []
        for d in cands:
            if d.bits in chosen:
                labels.append(classify_pair(k33_ctx, c, d))
        assert Compat.INCOMPATIBLE in labels


def test_search_quadratic_field(capsys):
    gold = QNum.quadratic_root(-1, 1, positive=True)
    ctx = make_context(make_kts(1, 2), gold, bipartite_tag=(1, 2))
    sols = search_star_sets(ctx, require_regular="sweep")
    assert len(sols) == 1
    assert are_isomorphic(sols[0].graph, cycle(5))


def test_search_main_eigenvalue_at_degree():
    # mu = 2 equals the target degree: the non-main filter must be dropped,
    # giving the triangle over K_{1,1}
    ctx = make_context(make_kts(1, 1), qnum(2), bipartite_tag=(1, 1))
    sols = search_star_sets(ctx, require_regular="sweep")
    assert len(sols) == 1
    assert are_isomorphic(sols[0].graph, cycle(3))


# --------------------------------------------------------------- assembly

def test_assembled_vertex_order(k33_sweep):
    # complement vertices first (V then W), star set after
    for sol in k33_sweep:
        h = induced_subgraph(sol.graph, range(6))
        assert h.adj == make_kts(3, 3).adj
        assert list(sol.x_vertices) == list(range(6, sol.order))


def test_solution_from_assembled_fixture():
    g5 = named_graph("G5")
    ctx = make_context(make_kts(6, 6), qnum(-2), bipartite_tag=(6, 6))
    sol = solution_from_assembled(ctx, g5, range(12, 18))
    assert sol.cert.passed and sol.cert.multiplicity == 6
    assert {c.type_ab for c in sol.candidates} == {(4, 4)}


# ----------------------------------------------------------- verification

def test_verify_star_pair_positive():
    cert = verify_star_pair(petersen(), [5, 6, 7, 8, 9], qnum(1))
    assert cert.passed and cert.multiplicity == 5
    assert cert.regular_degree == 3


def test_verify_star_pair_wrong_mu():
    cert = verify_star_pair(cycle(5), [3, 4], qnum(2))
    assert not cert.passed
    assert cert.mu_not_in_complement          # 2 is no eigenvalue of the path
    assert cert.multiplicity == 1             # but multiplicity 1 != |X| = 2
    assert not cert.multiplicity_matches


def test_verify_star_pair_mu_in_complement():
    # X = two adjacent outer vertices: Petersen minus X still has 1 as eigenvalue
    cert = verify_star_pair(petersen(), [0, 1], qnum(1))
    assert not cert.passed and not cert.mu_not_in_complement


def test_verify_never_raises_on_disconnected():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    cert = verify_star_pair(g, [3], qnum(1))
    assert not cert.passed


def test_certificate_gate_survives_optimize_flag():
    # python -O strips asserts; the gate on every returned solution must not
    # depend on them.  A certificate forced to fail has to stop the search.
    script = textwrap.dedent("""
        import dataclasses
        from starcomp import engine
        from starcomp.algebra import qnum
        from starcomp.errors import InternalInconsistency
        from starcomp.kts import make_kts
        assert False, "asserts are live: not running under -O"
        real = engine.verify_star_pair
        engine.verify_star_pair = lambda *a: dataclasses.replace(
            real(*a), reconstruction_ok=False)
        ctx = engine.make_context(make_kts(3, 3), qnum(1), bipartite_tag=(3, 3))
        try:
            engine.search_star_sets(ctx, require_regular=4)
        except InternalInconsistency as exc:
            print("raised:", exc)
    """)
    src = os.path.dirname(os.path.dirname(starcomp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "raised: assembled solution failed certification\n"


# ---------------------------------------------------------------- bounds

def test_multiplicity_cap_values():
    assert multiplicity_cap(12) == 65
    assert multiplicity_cap(6) == 14
    assert multiplicity_cap(3) == 2


def test_sweep_respects_multiplicity_cap(k33_sweep):
    for sol in k33_sweep:
        q = 6
        assert len(sol.x_vertices) <= (q + 1) * (q - 2) // 2
