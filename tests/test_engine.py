"""The search core: contexts, candidate enumeration, pair classification,
backtracking search, assembly, and certification.

Candidate-count oracles (9 vectors for K_{3,3} at mu=1, 225 for K_{6,6}
at mu=-2, 10 for K_{1,5} at mu=1) were computed by brute force over all
2^q vectors against the scaled resolvent before the closed-form path
existed, and the brute-force comparison is re-run here.
"""

import ast
import hashlib
import itertools
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from oracles import pairing, qnum_certificate, qnum_resolvent, solve_types_fixed
from starcomp.algebra import QNum, qnum
from starcomp.canon import are_isomorphic, stable_colouring
from starcomp.catalog import named_graph, petersen
from starcomp import canon, engine
from starcomp.engine import (Compat, make_context, classify_pair,
                             enumerate_candidates, multiplicity_cap,
                             search_star_sets, solution_from_assembled,
                             verify_star_pair, vertex_types)
from starcomp.errors import (BadTag, DuplicateNeighbourhood, HypothesisViolated,
                             MuIsEigenvalue, TooLarge, Unbounded)
import starcomp
from starcomp.graphs import (Graph, complete, cycle, disjoint_union, graph6_encode,
                             induced_subgraph)
from starcomp.kts import make_kts

# (sqrt(5) - 1)/2 = 1/phi; with -1/phi and phi = 1 + 1/phi it covers the
# golden-ratio field Q(sqrt(5))
GOLDEN = QNum.quadratic_root(-1, 1, positive=True)
MUS = [qnum(m) for m in range(-4, 5)] + [GOLDEN, -GOLDEN, 1 + GOLDEN]

# a graph on n <= 9 vertices as (n, bitmask over the pairs i < j)
graphs = st.integers(1, 9).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, 2 ** (n * (n - 1) // 2) - 1)))


def graph_from_mask(n, edge_mask):
    pairs = itertools.combinations(range(n), 2)
    return Graph.from_edges(n, [p for k, p in enumerate(pairs) if edge_mask >> k & 1])


def oracle_N(ctx):
    """The QNum scaled resolvent of the context's complement."""
    return qnum_resolvent(ctx.H.matrix(), ctx.mu)[0]


def ones_sum(N, bits):
    """b^T N j as a sum of QNum entries."""
    return pairing(N, bits, [1] * len(N))


def pack(kern, x):
    """The kernel's int for the QNum x: D x = A + B sqrt(d) as A + B * 2^K."""
    a, b = x.a * kern.D, x.b * kern.D
    assert a.denominator == b.denominator == 1
    return a.numerator + (b.numerator << kern.K)


# ----------------------------------------------------------------- context

def test_make_context_tagged():
    ctx = make_context(make_kts(3, 3), qnum(1), bipartite_tag=(3, 3))
    assert ctx.q == 6 and ctx.mval == qnum(-8)
    assert not ctx.mu_special
    assert ctx.kernel.D == 1 and ctx.kernel.N[0] == (-5, 3, 3, 1, 1, 1)


def test_make_context_untagged_any_graph():
    ctx = make_context(petersen(), qnum(2))
    n = ctx.q
    # resolvent identity on the integer kernel, D N (2I - C) = D mval I
    N, D = ctx.kernel.N, ctx.kernel.D
    C = petersen().matrix()
    for i in range(n):
        for j in range(n):
            acc = sum(N[i][k] * (2 * (k == j) - C[k][j]) for k in range(n))
            assert acc == (ctx.mval * D if i == j else 0)


def test_tagged_kernel_is_the_cubic_closed_form():
    # for t + s >= 3 the minimal polynomial of K_{t,s} is x^3 - ts x, so
    # N = C^2 + mu C + (mu^2 - ts) I and mval = mu (mu^2 - ts)
    checked = 0
    for t in range(1, 5):
        for s in range(max(t, 3 - t), 7):
            C = make_kts(t, s).matrix()
            C2 = [[sum(x * y for x, y in zip(row, col)) for col in zip(*C)] for row in C]
            for mu in MUS:
                try:
                    ctx = make_context(make_kts(t, s), mu, bipartite_tag=(t, s))
                except MuIsEigenvalue:
                    continue
                shift = mu * mu - t * s
                assert ctx.mval == mu * shift, (t, s, mu)
                closed = [[qnum(C2[i][j]) + mu * C[i][j] + (shift if i == j else 0)
                           for j in range(t + s)] for i in range(t + s)]
                kern = ctx.kernel
                assert kern.N == tuple(tuple(pack(kern, x) for x in row)
                                       for row in closed), (t, s, mu)
                checked += 1
    assert checked > 150


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
    N = oracle_N(ctx)
    for c in cands:
        assert pairing(N, c.bits, c.bits) == ctx.mval * ctx.mu
        assert ones_sum(N, c.bits) == -ctx.mval


def test_candidates_sorted_and_deterministic():
    ctx = make_context(make_kts(3, 3), qnum(1), bipartite_tag=(3, 3))
    a = enumerate_candidates(ctx)
    b = enumerate_candidates(ctx)
    assert [c.bits for c in a] == [c.bits for c in b]
    assert a == sorted(a, key=lambda c: (c.type_ab, c.bits))


@pytest.mark.parametrize("mu,non_main,expected", [
    (2, False, [(1, 1)]),
    # with the non-main condition nothing survives (mu=2 is the main case)
    (2, True, []),
    # mu = 0 passes the empty type: b^T N b = mval * mu = 0 at b = 0
    (0, False, [(0, 0), (0, 1), (1, 0)]),
    (0, True, [(0, 1), (1, 0)]),
])
def test_candidates_k11_by_type(mu, non_main, expected):
    # the type equations do not hold on K_{1,1}, but the kernel's type test does
    ctx = make_context(make_kts(1, 1), qnum(mu), bipartite_tag=(1, 1))
    cands = enumerate_candidates(ctx, non_main=non_main)
    assert [c.bits for c in cands] == expected
    assert [c.type_ab for c in cands] == expected


def test_candidate_types_match_closed_form():
    # the closed form in the oracles checks the kernel's type test; 1/2 and
    # -3/2 are non-integer rational mu
    for t in range(1, 7):
        for s in range(max(t, 3 - t), 7):
            for mu in MUS + [qnum(Fraction(1, 2)), qnum(Fraction(-3, 2))]:
                if not mu * (mu * mu - t * s):
                    continue
                ctx = make_context(make_kts(t, s), mu, bipartite_tag=(t, s))
                for non_main in (True, False):
                    counts = Counter(c.type_ab for c in enumerate_candidates(ctx, non_main))
                    assert counts == {tp: comb(t, tp.a) * comb(s, tp.b)
                                      for tp in solve_types_fixed(t, s, mu, non_main)}


def test_vertex_types_past_the_candidate_cap():
    # K_{3,18} at mu=2 has 99,450 candidates: too many to build, but its
    # two types come back without a pool
    ctx = make_context(make_kts(3, 18), qnum(2), bipartite_tag=(3, 18))
    assert vertex_types(ctx) == [(0, 10), (1, 6)]
    with pytest.raises(TooLarge):
        enumerate_candidates(ctx)


def test_vertex_types_need_a_tag():
    with pytest.raises(BadTag):
        vertex_types(make_context(make_kts(2, 3), qnum(1)))


def test_tagged_candidates_build_no_qnum(monkeypatch):
    ctx = make_context(make_kts(6, 6), qnum(-2), bipartite_tag=(6, 6))
    built = []
    init = QNum.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(QNum, "__init__", counting_init)
    assert len(enumerate_candidates(ctx)) == 225
    assert built == []


def test_candidates_brute_force_equivalence(monkeypatch):
    # type-by-type route vs untagged 2^q scan on the same complement; the
    # pool cap is lifted, since K_{3,12} at mu=-2 has 4,323 candidates
    # without the non-main test
    monkeypatch.setattr(engine, "CANDIDATE_CAP", 1 << 15)
    for t, s, mu in ((3, 3, qnum(1)), (2, 3, qnum(-3)), (1, 5, qnum(1)),
                     (2, 5, qnum(1)), (3, 12, qnum(-2)), (2, 13, qnum(1))):
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


def test_candidates_one_past_cap_raise_before_scanning():
    q = engine.BRUTE_FORCE_CAP + 1
    ctx = make_context(Graph(q, (0,) * q), qnum(1))
    with pytest.raises(TooLarge):
        enumerate_candidates(ctx, non_main=False)


@pytest.mark.parametrize("tag", [(6, 6), None], ids=["tagged", "gray-code"])
def test_candidate_cap_is_exact_and_raises_before_building(monkeypatch, tag):
    # K_{6,6} at mu=-2 has 225 candidates by either route
    ctx = make_context(make_kts(6, 6), qnum(-2), bipartite_tag=tag)
    monkeypatch.setattr(engine, "CANDIDATE_CAP", 225)
    assert len(enumerate_candidates(ctx)) == 225
    monkeypatch.setattr(engine, "CANDIDATE_CAP", 224)

    def built(*args):
        raise AssertionError("a candidate was built before the cap check")
    monkeypatch.setattr(engine, "_candidate", built)
    with pytest.raises(TooLarge, match="capped at 224"):
        enumerate_candidates(ctx)


def naive_candidates(ctx):
    """The subset scan as a plain QNum loop over all 2^q vectors, keyed by
    the non_main flag."""
    N = oracle_N(ctx)
    out = {True: [], False: []}
    for mask in range(1 << ctx.q):
        bits = tuple(mask >> i & 1 for i in range(ctx.q))
        if pairing(N, bits, bits) == ctx.mval * ctx.mu:
            out[False].append(bits)
            if ones_sum(N, bits) == -ctx.mval:
                out[True].append(bits)
    return {key: sorted(vecs) for key, vecs in out.items()}


@settings(max_examples=40, deadline=None)
@given(graphs, st.sampled_from(MUS))
@example((4, 0b101001), qnum(0))   # the path P4 at mu = 0
def test_gray_code_scan_matches_naive_loop(g, mu):
    try:
        ctx = make_context(graph_from_mask(*g), mu)
    except MuIsEigenvalue:
        assume(False)
    naive = naive_candidates(ctx)
    for non_main in (True, False):
        cands = enumerate_candidates(ctx, non_main=non_main)
        bits = [c.bits for c in cands]
        assert bits == naive[non_main]
        if mu == 0 and not non_main:
            assert (0,) * ctx.q in bits


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
    N = oracle_N(make_context(make_kts(3, 3), qnum(1), bipartite_tag=(3, 3)))
    x = [xm >> i & 1 for i in range(6)]
    y = [ym >> i & 1 for i in range(6)]
    assert pairing(N, x, y) == pairing(N, y, x)
    two_x = [2 * v for v in x]
    assert pairing(N, two_x, y) == qnum(2) * pairing(N, x, y)
    xy = [a + b for a, b in zip(x, y)]
    assert (pairing(N, xy, xy)
            == pairing(N, x, x) + qnum(2) * pairing(N, x, y) + pairing(N, y, y))


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


def closed_form_pairing(ctx, u, v):
    """Pair relation for typed candidates over K_{t,s}: with rho common
    neighbours, (mu^2 - ts) rho + acs + bdt + mu(ad + bc)."""
    t, s = ctx.tag
    a, b = u.type_ab
    c, d = v.type_ab
    rho = bin(u.mask & v.mask).count("1")
    return (ctx.mu * ctx.mu - t * s) * rho + a * c * s + b * d * t \
        + ctx.mu * (a * d + b * c)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(
           lambda t: st.tuples(st.just(t), st.integers(max(t, 3 - t), 5))),
       st.sampled_from(MUS),
       st.integers(0, 2 ** 10 - 1), st.integers(0, 2 ** 10 - 1))
def test_closed_form_pair_relation_matches_resolvent(ts, mu, xm, ym):
    # the closed form over types and common neighbours, the QNum resolvent
    # pairing x^T N y and the search's integer pair label must all agree
    t, s = ts
    try:
        ctx = make_context(make_kts(t, s), mu, bipartite_tag=(t, s))
    except MuIsEigenvalue:
        assume(False)
    N = oracle_N(ctx)
    vectors = [engine._candidate(ctx, m & ((1 << (t + s)) - 1)) for m in (xm, ym)]
    for non_main in (True, False):
        vectors += enumerate_candidates(ctx, non_main=non_main)
    for u in vectors:
        for v in vectors:
            value = closed_form_pairing(ctx, u, v)
            assert value == pairing(N, u.bits, v.bits)
            if u.bits != v.bits or ctx.mu_special:
                assert classify_pair(ctx, u, v) == label_of(ctx, value)


def label_of(ctx, value):
    if value == 0:
        return Compat.NON_ADJACENT
    if value == -ctx.mval:
        return Compat.ADJACENT
    return Compat.INCOMPATIBLE


def unpack(kern, packed, d):
    """The QNum a packed sum stands for, when its rational part A keeps
    |A| < 2^(K-1); a packing overflow unpacks to a different number."""
    if not d:
        return QNum(Fraction(packed, kern.D))
    low = packed & ((1 << kern.K) - 1)
    if low >> (kern.K - 1):
        low -= 1 << kern.K
    return QNum(Fraction(low, kern.D), Fraction((packed - low) >> kern.K, kern.D), d)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
           st.integers(1, 5).flatmap(lambda t: st.integers(t, 5).map(
               lambda s: (make_kts(t, s), (t, s)))),
           graphs.map(lambda g: (graph_from_mask(*g), None))),
       st.sampled_from(MUS), st.integers(0, 2 ** 10 - 1), st.integers(0, 2 ** 10 - 1))
@example((make_kts(4, 5), (4, 5)), 1 + GOLDEN, 2 ** 10 - 1, 2 ** 10 - 1)
@example((complete(6), None), -GOLDEN, 2 ** 10 - 1, 2 ** 10 - 1)
def test_int_kernel_matches_qnum_pairing(H_tag, mu, xm, ym):
    # every kernel entry is D times the QNum resolvent entry, packed with K,
    # and sums of up to q^2 entries (the all-ones support is the largest)
    # unpack to the QNum pairing
    H, tag = H_tag
    try:
        ctx = make_context(H, mu, bipartite_tag=tag)
    except MuIsEigenvalue:
        assume(False)
    N, mval = qnum_resolvent(H.matrix(), ctx.mu)
    kern = ctx.kernel
    q = ctx.q
    assert kern.N == tuple(tuple(pack(kern, x) for x in row) for row in N)
    assert kern.ones == tuple(pack(kern, sum(row, qnum(0))) for row in N)
    assert kern.self_target == pack(kern, mval * ctx.mu)
    assert kern.adjacent == pack(kern, -mval)
    x = [xm >> i & 1 for i in range(q)]
    y = [ym >> i & 1 for i in range(q)]
    sx = [i for i in range(q) if x[i]]
    sy = [i for i in range(q) if y[i]]
    d = ctx.mu.d
    assert unpack(kern, sum(kern.N[i][j] for i in sx for j in sx), d) == pairing(N, x, x)
    assert unpack(kern, sum(kern.N[i][j] for i in sx for j in sy), d) == pairing(N, x, y)
    assert unpack(kern, sum(kern.ones[i] for i in sx), d) == ones_sum(N, x)
    full = (1 << q) - 1
    adj, compat = engine._build_label_tables(
        ctx, [engine._candidate(ctx, xm & full), engine._candidate(ctx, ym & full)])
    assert table_label(adj, compat, 0, 1) == label_of(ctx, pairing(N, x, y))


def table_label(adj, compat, i, j):
    """The label that bit j of row i of the pair-label tables stands for."""
    if not compat[i] >> j & 1:
        return Compat.INCOMPATIBLE
    return Compat.ADJACENT if adj[i] >> j & 1 else Compat.NON_ADJACENT


P4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


@settings(max_examples=150, deadline=None)
@given(st.one_of(
           st.integers(1, 5).flatmap(lambda t: st.integers(t, 5).map(
               lambda s: (make_kts(t, s), (t, s)))),
           graphs.map(lambda g: (graph_from_mask(*g), None))),
       st.sampled_from(MUS), st.lists(st.integers(0, 2 ** 10 - 1), max_size=8))
# all-ones vectors pair to the widest field values: k = 1 here, and a field
# sized without the q^2 factor overflows on both of the first two
@example((make_kts(2, 2), (2, 2)), qnum(4), [2 ** 10 - 1])
@example((make_kts(2, 4), (2, 4)), GOLDEN, [2 ** 10 - 1, 0b000101, 0b111010, 0b001100])
@example((complete(6), None), -GOLDEN, [2 ** 10 - 1, 0, 2 ** 10 - 1])
# repeats: the diagonal bit for mu = -1 and mu = 0
@example((make_kts(2, 2), (2, 2)), qnum(-1), [0b0101, 0b0101, 0b0011])
@example((P4, None), qnum(0), [0b1001, 0b1001, 0b0110])
@example((make_kts(3, 3), (3, 3)), qnum(1), [])
def test_label_tables_match_pairing(H_tag, mu, masks):
    # every bit of the packed tables, the diagonal included, labels the QNum
    # pairing of arbitrary 0/1 vectors (repeats too), and the tables equal
    # the column-and-sum reference
    H, tag = H_tag
    try:
        ctx = make_context(H, mu, bipartite_tag=tag)
    except MuIsEigenvalue:
        assume(False)
    N = oracle_N(ctx)
    vectors = [engine._candidate(ctx, m & ((1 << ctx.q) - 1)) for m in masks]
    adj, compat = engine._build_label_tables(ctx, vectors)
    assert (adj, compat) == oracles.label_tables(ctx, vectors)
    assert len(adj) == len(compat) == len(vectors)
    assert all(m >> len(vectors) == 0 for m in adj + compat)
    for i, u in enumerate(vectors):
        for j, v in enumerate(vectors):
            assert table_label(adj, compat, i, j) == label_of(ctx, pairing(N, u.bits, v.bits))


def test_label_tables_k66_pinned(k66_ctx):
    # K_{6,6} mu=-2, the pool of both K_{6,6} benchmark searches
    cands = enumerate_candidates(k66_ctx)
    adj, compat = engine._build_label_tables(k66_ctx, cands)
    assert len(cands) == 225
    assert sum(m.bit_count() for m in compat) == 25200
    assert sum(m.bit_count() for m in adj) == 17100
    assert not any((m | a) >> i & 1 for i, (m, a) in enumerate(zip(compat, adj)))
    assert (adj, compat) == oracles.label_tables(k66_ctx, cands)


# ---------------------------------------------------------------- search

def test_search_regular_fixed_degree(k33_ctx):
    sols = search_star_sets(k33_ctx, require_regular=4)
    assert len(sols) == 1 and sols[0].order == 9
    assert all(d == 4 for d in sols[0].graph.degrees())


def test_search_results_certified_and_labeled(k33_ctx, k33_sweep):
    for sol in k33_sweep:
        assert sol.cert.passed
        assert sol.cert.multiplicity == len(sol.x_vertices)
        # pair labels match assembled adjacency
        g, xs, cands = sol.graph, sol.x_vertices, sol.candidates
        for i, u in enumerate(xs):
            for j in range(i + 1, len(xs)):
                label = classify_pair(k33_ctx, cands[i], cands[j])
                assert label is not Compat.INCOMPATIBLE
                assert g.adjacent(u, xs[j]) == (label is Compat.ADJACENT)


def test_search_deterministic(k33_ctx, k33_sweep):
    again = search_star_sets(k33_ctx, require_regular="sweep")
    assert [graph6_encode(s.graph) for s in again] == \
        [graph6_encode(s.graph) for s in k33_sweep]


def solution_lines(sols) -> str:
    """One "graph6 star-set" line per solution, the bytes the pins hash."""
    return "".join(f"{graph6_encode(sol.graph)} {','.join(map(str, sol.x_vertices))}\n"
                   for sol in sols)


def test_search_symmetry_reduction_is_lossless():
    # orderly pruning keeps the first find of every class, so the output
    # is byte-identical: regular sweeps and maximal mode, t = s (with the
    # part swap) and t < s, and mu = -1, where indices repeat
    cases = [((3, 3), 1, "sweep", None), ((2, 5), 1, "sweep", None),
             ((3, 3), 1, None, 4), ((1, 5), 1, None, 4),
             ((2, 2), -1, None, 4), ((2, 3), -1, None, 5),
             ((2, 2), -1, "sweep", 4)]
    for (t, s), mu, require, max_x in cases:
        ctx = make_context(make_kts(t, s), qnum(mu), bipartite_tag=(t, s))
        runs = [solution_lines(search_star_sets(ctx, require_regular=require,
                                                max_x=max_x, symmetry=sym))
                for sym in (True, False)]
        assert runs[0] and runs[0] == runs[1], (t, s, mu, require, max_x)


# the regular contexts of test_search_modes_pinned and
# test_search_symmetry_reduction_is_lossless
@pytest.mark.parametrize("t,s,mu,tag,max_x", [
    (3, 3, 1, True, None),
    (3, 3, 1, False, None),
    (2, 5, 1, True, None),
    (2, 2, -1, True, 4),
])
def test_regular_searches_return_regular_graphs(t, s, mu, tag, max_x):
    # the certificate does not check regularity, and the DFS trusts its
    # pruning masks to keep every degree within r
    ctx = make_context(make_kts(t, s), qnum(mu), bipartite_tag=(t, s) if tag else None)
    sweep = search_star_sets(ctx, require_regular="sweep", max_x=max_x)
    assert sweep and all(sol.cert.regular_degree is not None for sol in sweep)
    cap = max_x if max_x is not None else multiplicity_cap(ctx.q)
    found = 0
    for r in range(max(ctx.H.degrees()), ctx.q + cap + 1):
        sols = search_star_sets(ctx, require_regular=r, max_x=max_x)
        assert all(sol.cert.regular_degree == r for sol in sols), r
        found += len(sols)
    # graphs of different degrees are never isomorphic
    assert found == len(sweep)


def test_search_max_solutions_budget(k33_ctx):
    some = search_star_sets(k33_ctx, require_regular=6, max_solutions=1)
    assert len(some) == 1


@pytest.mark.parametrize("limit", ["max_x", "max_solutions"])
def test_search_rejects_negative_limits(k33_ctx, limit):
    with pytest.raises(ValueError, match=limit):
        search_star_sets(k33_ctx, require_regular="sweep", **{limit: -1})
    # zero is a limit, not an error
    assert search_star_sets(k33_ctx, require_regular="sweep", **{limit: 0}) == []


def _count_raw_finds(monkeypatch) -> list[int]:
    """Count the graphs the search assembles, i.e. raw finds before dedupe."""
    calls = [0]
    real = engine._assemble

    def counted(*args):
        calls[0] += 1
        return real(*args)
    monkeypatch.setattr(engine, "_assemble", counted)
    return calls


@pytest.mark.parametrize("t,s,budget", [
    (3, 3, 2),
    (2, 5, 10),
    (2, 5, 50),
])
def test_sweep_max_solutions_is_one_budget(monkeypatch, t, s, budget):
    # max_solutions counts raw finds over the whole sweep, not per degree
    calls = _count_raw_finds(monkeypatch)
    ctx = make_context(make_kts(t, s), qnum(1), bipartite_tag=(t, s))
    search_star_sets(ctx, require_regular="sweep")
    untruncated, calls[0] = calls[0], 0
    sols = search_star_sets(ctx, require_regular="sweep", max_solutions=budget)
    assert budget < untruncated and calls[0] == budget
    assert sols and all(sol.cert.passed for sol in sols)


# Raw finds, isomorphism classes and the SHA-256 of one
# "graph6 star-set" line per solution.  Classes and digests were recorded
# before the regular and maximal searches shared one function; the raw
# finds of the tagged searches fell with orderly pruning (20, 85, 56, 455
# and 7 before it).  Maximal mode has no benchmark workload, so these pins
# are what guard it.
SEARCH_MODES = [
    ((3, 3), 1, True, None, None, 1, 1,
     "98a87b6f2a7279f0a40fa3fcc9b01a43c9f27cbdfbdf6b15297187a4850eef9e"),
    ((2, 2), -1, True, None, 4, 10, 8,
     "8d926d2dcd83a83b9050886017f126ff9cc0941d5fce6c36dfe93fc1f490acb5"),
    ((2, 3), -1, True, None, 5, 41, 25,
     "16b162749c35be9f2bb58d517a3a0c3c65c599217333dacf3f4965e18945fdee"),
    ((3, 3), 1, True, None, 4, 12, 5,
     "9fb0f567dbb5405e4c54d386cfe7c461aa7e0c8b6e39531c6fcc4b04301f43fa"),
    ("petersen", 2, False, None, None, 0, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ((2, 5), 1, True, "sweep", None, 119, 12,
     "fdb6e9ebfd288cb9ea3abc2afe4ddf25c6e099b11c1121f8b378dd995de7cf49"),
    ((3, 3), 1, False, "sweep", None, 13, 3,
     "72cde243ccde9b474da53e0ef57c7101831dc3943247fa9d5a10879395f3b86c"),
    # tagged: orderly pruning leaves 3 of the 13 finds, one per class
    ((3, 3), 1, True, "sweep", None, 3, 3,
     "72cde243ccde9b474da53e0ef57c7101831dc3943247fa9d5a10879395f3b86c"),
]


def _mode_context(H, mu, tag):
    g = petersen() if H == "petersen" else make_kts(*H)
    return make_context(g, qnum(mu), bipartite_tag=H if tag else None)


@pytest.mark.parametrize("H,mu,tag,require,max_x,raw,classes,digest", SEARCH_MODES)
def test_search_modes_pinned(monkeypatch, H, mu, tag, require, max_x, raw, classes,
                             digest):
    calls = _count_raw_finds(monkeypatch)
    sols = search_star_sets(_mode_context(H, mu, tag), require_regular=require,
                            max_x=max_x)
    assert (calls[0], len(sols)) == (raw, classes)
    assert hashlib.sha256(solution_lines(sols).encode()).hexdigest() == digest


@pytest.mark.parametrize("H,mu,tag,require,max_x,raw,classes,digest", SEARCH_MODES)
def test_dedupe_matches_oracle(monkeypatch, H, mu, tag, require, max_x, raw, classes,
                               digest):
    # the raw finds of each pinned search, deduplicated by the colouring
    # buckets and by the route they replaced (canonical bytes up to the
    # cap, a pairwise scan above it)
    runs = []
    real = engine._dedupe
    monkeypatch.setattr(engine, "_dedupe", lambda found: runs.append(found) or real(found))
    search_star_sets(_mode_context(H, mu, tag), require_regular=require, max_x=max_x)
    (found,) = runs
    assert len(found) == raw
    assert real(found) == oracles.dedupe(found)


def rook_4x4():
    return Graph.from_edges(16, [(u, v) for u, v in itertools.combinations(range(16), 2)
                                 if u // 4 == v // 4 or u % 4 == v % 4])


def shrikhande():
    # Cayley graph of Z_4 x Z_4 on +-(1, 0), +-(0, 1), +-(1, 1)
    steps = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    return Graph.from_edges(16, [(u, v) for u, v in itertools.combinations(range(16), 2)
                                 if ((v // 4 - u // 4) % 4, (v % 4 - u % 4) % 4) in steps])


@pytest.mark.parametrize("a,b", [
    (rook_4x4(), shrikhande()),                               # srg(16, 6, 2, 2)
    (cycle(21), disjoint_union(cycle(10), cycle(11))),       # above CANONICAL_CAP
])
def test_dedupe_bucket_collisions(a, b):
    # non-isomorphic graphs with one stable colouring share a bucket, so
    # only the isomorphism test tells them apart
    assert stable_colouring(a)[1] == stable_colouring(b)[1]
    assert not are_isomorphic(a, b)
    rng = random.Random(a.n)
    perm = list(range(a.n))
    rng.shuffle(perm)
    found = [b, a, b.relabel(perm), a.relabel(perm)]
    reps = engine._dedupe(found)
    assert reps == oracles.dedupe(found)
    # one class each, represented by its first find
    assert sorted(next(i for i, f in enumerate(found) if f is g) for g, _ in reps) == [0, 1]


def part_symmetries(t, s):
    """Aut(K_{t,s}) listed in full: every vertex permutation g (g[v] is
    the image of v) that maps the parts onto parts."""
    q = t + s
    parts = ({*range(t)}, {*range(t, q)})
    return [g for g in itertools.permutations(range(q))
            if {*g[:t]} == parts[0] or (t == s and {*g[:t]} == parts[1])]


def record_searches(monkeypatch):
    """Per _search call, its candidate list and the index tuples it assembled."""
    runs = []
    real_test, real_assemble = engine._orderly_test, engine._assemble

    def test(ctx, cands, symmetry):
        runs.append((cands, []))
        return real_test(ctx, cands, symmetry)

    def assemble(ctx, chosen, adjacency):
        index = {c.bits: i for i, c in enumerate(runs[-1][0])}
        runs[-1][1].append(tuple(index[c.bits] for c in chosen))
        return real_assemble(ctx, chosen, adjacency)
    monkeypatch.setattr(engine, "_orderly_test", test)
    monkeypatch.setattr(engine, "_assemble", assemble)
    return runs


# K_{2,3} has no candidate at mu = 1, so it is taken at mu = -1
@pytest.mark.parametrize("t,s,mu,require,max_x", [
    (2, 2, -1, None, 4),
    (2, 2, -1, "sweep", 4),
    (2, 3, -1, None, 5),
    (3, 3, 1, None, 4),
    (3, 3, 1, "sweep", None),
    (1, 5, 1, None, 4),
])
def test_orderly_test_matches_brute_force(monkeypatch, t, s, mu, require, max_x):
    # the whole group against the one-branch test: a rejected prefix has a
    # lex-smaller image, and every prefix of an orbit's lex-least find passes
    ctx = make_context(make_kts(t, s), qnum(mu), bipartite_tag=(t, s))
    runs = record_searches(monkeypatch)
    search_star_sets(ctx, require_regular=require, max_x=max_x, symmetry=False)
    monkeypatch.undo()
    group = part_symmetries(t, s)
    tuples = (itertools.combinations_with_replacement if ctx.mu_special
              else itertools.combinations)
    rejected = 0
    for cands, finds in runs:
        root, extend = engine._orderly_test(ctx, cands, True)
        index = {c.mask: i for i, c in enumerate(cands)}

        def least_image(P):
            return min(tuple(sorted(index[sum(1 << g[v] for v in range(ctx.q)
                                              if cands[i].mask >> v & 1)]
                                    for i in P))
                       for g in group)

        def passes(P):
            whole = extend(root, list(P), len(P)) is not None
            state = root
            for n in range(1, len(P) + 1):
                state = extend(state, list(P[:n]))
                if state is None:
                    break
            # one index at a time is the from-scratch test of every prefix
            assert (state is not None) == all(
                extend(root, list(P[:n]), n) is not None for n in range(1, len(P) + 1))
            return whole

        prefixes = {F[:n] for F in finds for n in range(1, len(F) + 1)}
        prefixes.update(P for n in (1, 2, 3) for P in tuples(range(len(cands)), n))
        # as in the DFS, each child of a passing prefix extends that prefix's
        # one state, so siblings and descendants share its levels and memos;
        # each verdict must be that of a fresh test from the root
        states = {(): root}
        for P in sorted(prefixes):
            if not passes(P):
                rejected += 1
                assert least_image(P) < P, P
            if P[:-1] in states:
                state = extend(states[P[:-1]], list(P))
                fresh_root, fresh = engine._orderly_test(ctx, cands, True)
                assert (state is not None) == \
                    (fresh(fresh_root, list(P), len(P)) is not None), P
                if state is not None:
                    states[P] = state
        for L in {least_image(F) for F in finds}:
            assert L in finds
            assert all(passes(L[:n]) for n in range(1, len(L) + 1)), L
    assert rejected


def _count_orderly_tests(monkeypatch) -> list[int]:
    """Count the calls of the orderly test's extend."""
    calls = [0]
    real_test = engine._orderly_test

    def test(ctx, cands, symmetry):
        root, extend = real_test(ctx, cands, symmetry)

        def counted(*args):
            calls[0] += 1
            return extend(*args)
        return root, counted
    monkeypatch.setattr(engine, "_orderly_test", test)
    return calls


# The regular DFS runs the orderly test only on nodes that pass its degree
# checks, so a test placed earlier, or run twice, moves these counts.  The
# raw finds of test_search_modes_pinned show that the placement prunes
# nothing the degree checks would keep.
@pytest.mark.parametrize("t,s,mu,require,tests", [
    (2, 5, 1, "sweep", 1184),
    (6, 6, -2, 10, 322),
])
def test_orderly_test_calls_pinned(monkeypatch, t, s, mu, require, tests):
    calls = _count_orderly_tests(monkeypatch)
    ctx = make_context(make_kts(t, s), qnum(mu), bipartite_tag=(t, s))
    assert search_star_sets(ctx, require_regular=require)
    assert calls[0] == tests


# _dedupe refines each find once (119 seed colourings; 127 when each
# canonical() call refined its class again) and calls canonical() once per
# class of order <= CANONICAL_CAP (8 of the 12 here; 68 calls before the
# colouring buckets), and are_isomorphic once per repeat find (107 of 119),
# each against the one representative in its bucket.
def test_dedupe_calls_pinned(monkeypatch):
    calls = Counter()
    for module, name in ((engine, "canonical"), (engine, "are_isomorphic"),
                         (canon, "_initial_colors")):
        def counted(*args, _real=getattr(module, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(module, name, counted)
    ctx = make_context(make_kts(2, 5), qnum(1), bipartite_tag=(2, 5))
    assert len(search_star_sets(ctx, require_regular="sweep")) == 12
    assert calls == {"canonical": 8, "are_isomorphic": 107, "_initial_colors": 119}


# One candidate scan per search: a sweep through mu = r, where the
# non-main filter comes off, filters the same pool instead of scanning the
# context again (2 scans each for the first three before).  The K_{1,1}
# and K_{1,2} mu=2 sweeps find their one graph in that unfiltered pool.
@pytest.mark.parametrize("H,mu,tag,require,classes", [
    (cycle(12), 3, None, "sweep", 0),
    (make_kts(1, 1), 2, (1, 1), "sweep", 1),
    (make_kts(1, 2), 2, (1, 2), "sweep", 1),
    (make_kts(6, 6), -2, (6, 6), 10, 3),
])
def test_one_candidate_scan_per_search(monkeypatch, H, mu, tag, require, classes):
    calls = [0]
    real = engine.enumerate_candidates

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)
    monkeypatch.setattr(engine, "enumerate_candidates", counted)
    ctx = make_context(H, qnum(mu), bipartite_tag=tag)
    sols = search_star_sets(ctx, require_regular=require)
    assert calls[0] == 1
    assert len(sols) == classes
    if require == "sweep" and classes:
        assert sols[0].cert.regular_degree == mu


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
    sol = solution_from_assembled(ctx, g5)
    assert sol.x_vertices == tuple(range(12, 18))
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


def test_verify_star_pair_empty_complement():
    # X = V(G): the minimal polynomial of the 0 x 0 complement is 1, so
    # mval = 1, N is 0 x 0 and the identity reads mu I - A_X = 0
    cert = verify_star_pair(Graph.from_edges(1, []), [0], qnum(0))
    assert cert.passed and cert.multiplicity == 1
    cert = verify_star_pair(complete(3), [0, 1, 2], qnum(2))
    assert cert.mu_not_in_complement and cert.multiplicity == 1
    assert not cert.multiplicity_matches and not cert.reconstruction_ok


# the mu values of the oracle test: integers, halves and the four numbers
# (+-1 +- sqrt 5)/2
CERT_MUS = ([qnum(m) for m in range(-3, 4)] + [qnum(Fraction(1, 2)), qnum(Fraction(-1, 2))]
            + [GOLDEN, -GOLDEN, 1 + GOLDEN, -1 - GOLDEN])


def check_certificate(G, X, mu):
    """verify_star_pair against the QNum oracle and the reconstruction
    theorem: when mu is not an eigenvalue of G - X, the identity holds
    exactly when the multiplicity of mu is |X|."""
    cert = verify_star_pair(G, X, mu)
    mu_ok, mult, recon = qnum_certificate(G, X, mu)
    assert (cert.mu_not_in_complement, cert.multiplicity, cert.reconstruction_ok) == \
        (mu_ok, mult, recon)
    assert cert.multiplicity_matches == (mult == len(X))
    if cert.mu_not_in_complement:
        assert cert.reconstruction_ok == cert.multiplicity_matches
    return cert


@settings(max_examples=150, deadline=None)
@given(graphs, st.integers(0, 2 ** 9 - 1), st.sampled_from(CERT_MUS))
def test_certificate_matches_qnum_oracle(g, xmask, mu):
    G = graph_from_mask(*g)
    check_certificate(G, [v for v in range(G.n) if xmask >> v & 1], mu)


@pytest.mark.parametrize("G,X,mu,passed", [
    (cycle(5), [0, 1], GOLDEN, True),            # C_5 - X is P_3: sqrt 2, 0
    (cycle(5), [0, 2], -1 - GOLDEN, True),
    (cycle(5), [0], GOLDEN, False),              # multiplicity 2, |X| = 1
    (cycle(5), [0, 1, 2], -1 - GOLDEN, False),
    (cycle(5), [0, 1], 1 + GOLDEN, False),
    # the rational part of the identity holds, only the sqrt part fails
    (Graph.from_edges(1, []), [0], QNum.sqrt(2), False),
    (Graph.from_edges(4, [(0, 1), (0, 3), (1, 3)]), [3], -1 - GOLDEN, False),
    (petersen(), [], 1 + GOLDEN, True),          # not an eigenvalue at all
    (petersen(), [0], -GOLDEN, False),
    (petersen(), [5, 6, 7, 8, 9], qnum(1), True),
    (petersen(), [0, 1, 2, 3], qnum(-2), True),
])
def test_certificate_quadratic_and_petersen(G, X, mu, passed):
    assert check_certificate(G, X, mu).passed is passed


def run_fresh(script, *flags):
    """Run script in a fresh interpreter that imports this starcomp."""
    src = os.path.dirname(os.path.dirname(starcomp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, *flags, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)


def test_certificate_gate_survives_optimize_flag():
    # python -O strips asserts; the gate on every returned solution must not
    # depend on them.  A certificate forced to fail has to stop the search.
    script = textwrap.dedent("""
        from starcomp import engine
        from starcomp.algebra import qnum
        from starcomp.errors import InternalInconsistency
        from starcomp.kts import make_kts
        assert False, "asserts are live: not running under -O"
        real = engine.verify_star_pair
        engine.verify_star_pair = lambda *a: real(*a)._replace(
            reconstruction_ok=False)
        ctx = engine.make_context(make_kts(3, 3), qnum(1), bipartite_tag=(3, 3))
        try:
            engine.search_star_sets(ctx, require_regular=4)
        except InternalInconsistency as exc:
            print("raised:", exc)
    """)
    out = run_fresh(script, "-O")
    assert out.returncode == 0, out.stderr
    assert out.stdout == "raised: assembled solution failed certification\n"


def test_runtime_imports_neither_sympy_nor_networkx():
    # both are test oracles only: with them unimportable, the package must
    # still build a tagged context, search it and certify the result
    script = textwrap.dedent("""
        import sys
        sys.modules["sympy"] = sys.modules["networkx"] = None
        import starcomp, starcomp.cli
        from starcomp.engine import make_context, search_star_sets, verify_star_pair
        from starcomp.kts import make_kts
        ctx = make_context(make_kts(3, 3), 1, bipartite_tag=(3, 3))
        sols = search_star_sets(ctx, require_regular=4)
        print(len(sols), verify_star_pair(sols[0].graph, sols[0].x_vertices, 1).passed)
    """)
    out = run_fresh(script)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "1 True\n"


def test_cli_import_leaves_dataclasses_unloaded():
    # every fresh interpreter pays for its imports: records are NamedTuples,
    # so importing the package does not load dataclasses (and inspect)
    out = run_fresh("import sys, starcomp.cli; print('dataclasses' in sys.modules)")
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"


def test_no_assert_statements_in_package():
    # python -O strips assert statements; every check in the package must
    # raise an error instead
    pkg = os.path.dirname(starcomp.__file__)
    found = []
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                tree = ast.parse(fh.read(), filename=name)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert found == []


# ---------------------------------------------------------------- bounds

def test_multiplicity_cap_values():
    assert multiplicity_cap(12) == 65
    assert multiplicity_cap(6) == 14
    assert multiplicity_cap(3) == 2
    with pytest.raises(HypothesisViolated):
        multiplicity_cap(2)


def test_sweep_respects_multiplicity_cap(k33_sweep):
    for sol in k33_sweep:
        q = 6
        assert len(sol.x_vertices) <= (q + 1) * (q - 2) // 2
