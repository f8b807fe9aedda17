"""The search core: contexts, candidate enumeration, pair classification,
backtracking search, assembly, and certification.

Candidate-count oracles (9 vectors for K_{3,3} at mu=1, 225 for K_{6,6}
at mu=-2, 10 for K_{1,5} at mu=1) were computed by brute force over all
2^q vectors against the scaled resolvent before the closed-form path
existed, and the brute-force comparison is re-run here.
"""

import ast
import gc
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
import time
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from oracles import (Compat, DuplicateNeighbourhood, classify_pair, complete,
                     disjoint_union, indicator, pairing, qnum_certificate, qnum_resolvent,
                     solve_types_fixed, type_of)
from starcomp.algebra import QNum, qnum
from starcomp.canon import are_isomorphic, canonical, stable_colouring
from starcomp.catalog import named_graph, petersen
from starcomp import canon, cli, engine, linalg
from starcomp.engine import (make_context, enumerate_candidates, multiplicity_cap,
                             search_star_sets, verify_star_pair, vertex_types)
from starcomp.errors import (BadTag, HypothesisViolated, InternalInconsistency, MuIsEigenvalue,
                             TooLarge, Unbounded)
import starcomp
from starcomp.graphs import Graph, cycle, graph6_encode, induced_subgraph
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
    assert {type_of(m, t) for m in cands} == types
    # each candidate satisfies the scaled self-pairing and non-main checks
    N = oracle_N(ctx)
    for m in cands:
        b = indicator(m, ctx.q)
        assert pairing(N, b, b) == ctx.mval * ctx.mu
        assert ones_sum(N, b) == -ctx.mval


def test_candidates_sorted_and_deterministic():
    ctx = make_context(make_kts(3, 3), qnum(1), bipartite_tag=(3, 3))
    a = enumerate_candidates(ctx)
    b = enumerate_candidates(ctx)
    assert [indicator(m, 6) for m in a] == [indicator(m, 6) for m in b]
    assert a == sorted(a, key=lambda m: (type_of(m, 3), indicator(m, 6)))


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
    assert [indicator(m, 2) for m in cands] == expected
    assert [type_of(m, 1) for m in cands] == expected


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
                    counts = Counter(type_of(m, t) for m in enumerate_candidates(ctx, non_main))
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
            a = set(enumerate_candidates(tagged, non_main=non_main))
            b = set(enumerate_candidates(untagged, non_main=non_main))
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
    # combinations runs only when the tagged route expands a type, so it
    # must not run at all past the cap; the untagged scan counts its hits
    # (vectors that pass both tests) and must stop at the one past the cap.
    # 100 catches a scan that checks the cap only at its end, which also
    # hits 225 = 224 + 1 on this pool
    hits = []
    non_main = engine._non_main

    def counted(ctx, mask):
        hits.append(non_main(ctx, mask))
        return hits[-1]

    def expanded(*args):
        raise AssertionError("a type was expanded before the cap check")
    monkeypatch.setattr(engine, "_non_main", counted)
    monkeypatch.setattr(engine, "combinations", expanded)
    for cap in (224, 100):
        monkeypatch.setattr(engine, "CANDIDATE_CAP", cap)
        hits.clear()
        with pytest.raises(TooLarge, match=f"capped at {cap}"):
            enumerate_candidates(ctx)
        if tag is None:
            assert sum(hits) == cap + 1


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
# quadratic mu where D N has negative entries, so the packed walk's fields
# rest on their bias; each context has two hits without the non-main test
@example((3, 0b011), GOLDEN)        # the path P3
@example((3, 0b011), -GOLDEN)
@example((6, 616), 1 + GOLDEN)
def test_gray_code_scan_matches_naive_loop(g, mu):
    try:
        ctx = make_context(graph_from_mask(*g), mu)
    except MuIsEigenvalue:
        assume(False)
    naive = naive_candidates(ctx)
    for non_main in (True, False):
        cands = enumerate_candidates(ctx, non_main=non_main)
        bits = [indicator(m, ctx.q) for m in cands]
        assert bits == naive[non_main]
        if mu == 0 and not non_main:
            assert (0,) * ctx.q in bits


@pytest.mark.parametrize("H, mu", [(cycle(12), 3), (make_kts(6, 6), -2),
                                   (cycle(10), QNum.quadratic_root(-3, 0, positive=True))],
                         ids=["C12-mu3", "K66-mu-2", "C10-sqrt3"])
@pytest.mark.parametrize("non_main", [True, False])
def test_packed_scan_hits_match_list_walk(monkeypatch, H, mu, non_main):
    # the packed walk hands _candidate the same masks, in the same order,
    # as the walk over a q-long list.  C_12 at mu=3 (the benchmark's scan)
    # has no hit; K_{6,6} has 225 at mu=-2, and C_10 has 40 at sqrt(3)
    # without the non-main test
    ctx = make_context(H, mu)
    seen = []
    candidate = engine._candidate

    def recording(ctx, mask):
        seen.append(mask)
        return candidate(ctx, mask)
    monkeypatch.setattr(engine, "_candidate", recording)
    cands = enumerate_candidates(ctx, non_main=non_main)
    assert seen == oracles.gray_code_scan(ctx, non_main)
    assert sorted(cands) == sorted(seen)


@pytest.mark.parametrize("H, mu, products", [(cycle(12), 3, 7), (make_kts(6, 6), -2, 3),
                                             (make_kts(3, 3), 1, 3)],
                         ids=["C12", "K66", "K33"])
def test_context_builds_each_power_once(monkeypatch, H, mu, products):
    # the minimal polynomial (of degree d) builds I, C, ..., C^d, and the
    # resolvent check and the kernel reuse them: d products, no more
    assert len(linalg.minimal_polynomial_powers(H.matrix())[0]) - 1 == products
    calls = []
    mat_mul = linalg.mat_mul

    def counting(A, B):
        calls.append(len(A))
        return mat_mul(A, B)
    monkeypatch.setattr(linalg, "mat_mul", counting)
    make_context(H, mu)
    assert len(calls) == products


@pytest.mark.parametrize("H, mu, tag", [(make_kts(6, 6), -2, (6, 6)), (cycle(12), 3, None)],
                         ids=["K66", "C12"])
def test_context_builds_only_mu_and_mval_as_qnum(monkeypatch, H, mu, tag):
    # the resolvent is derived in integers: the only QNums a context builds
    # are mu (handed in as an int) and mval, which analyze prints
    built = []
    init = QNum.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(QNum, "__init__", counting_init)
    ctx = make_context(H, mu, bipartite_tag=tag)
    assert len(built) == 2 and built[0] is ctx.mu and built[1] is ctx.mval


@pytest.mark.parametrize("H, mu, part", [(make_kts(3, 3), qnum(1), 1),
                                         (cycle(10), QNum(0, 1, 3), 1),
                                         (cycle(10), QNum(0, 1, 3), 2)],
                         ids=["K33-rational", "C10-rational", "C10-sqrt"])
def test_context_checks_the_resolvent_identity(monkeypatch, H, mu, part):
    # the integer identity check is live on both parts: a_0 off by 1/D in
    # its rational or its sqrt(e) part breaks N (mu I - C) = mval I
    real = engine.resolvent_parts

    def off_by_one(m, mu):
        parts = real(m, mu)
        parts[part][0] += 1
        return parts

    monkeypatch.setattr(engine, "resolvent_parts", off_by_one)
    with pytest.raises(InternalInconsistency, match="resolvent identity"):
        make_context(H, mu)


def test_candidates_mu_zero_includes_empty_vector():
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    ctx = make_context(p4, qnum(0))
    bits = {indicator(m, 4) for m in enumerate_candidates(ctx, non_main=False)}
    assert (0, 0, 0, 0) in bits
    # with mu != 0 the empty vector is never a candidate
    ctx1 = make_context(p4, qnum(1))
    assert all(any(indicator(m, 4)) for m in enumerate_candidates(ctx1, non_main=False))


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
    cands = {indicator(m, 6): m for m in enumerate_candidates(ctx)}
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
    """Pair relation for candidate bitmasks over K_{t,s}: with rho common
    neighbours, (mu^2 - ts) rho + acs + bdt + mu(ad + bc)."""
    t, s = ctx.tag
    a, b = type_of(u, t)
    c, d = type_of(v, t)
    rho = bin(u & v).count("1")
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
    vectors = [m & ((1 << (t + s)) - 1) for m in (xm, ym)]
    for non_main in (True, False):
        vectors += enumerate_candidates(ctx, non_main=non_main)
    for u in vectors:
        for v in vectors:
            value = closed_form_pairing(ctx, u, v)
            assert value == pairing(N, indicator(u, t + s), indicator(v, t + s))
            if u != v or ctx.mu_special:
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
    adj, compat = engine._build_label_tables(ctx, [xm & full, ym & full])
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
    vectors = [m & ((1 << ctx.q) - 1) for m in masks]
    adj, compat = engine._build_label_tables(ctx, vectors)
    assert (adj, compat) == oracles.label_tables(ctx, vectors)
    assert len(adj) == len(compat) == len(vectors)
    assert all(m >> len(vectors) == 0 for m in adj + compat)
    for i, u in enumerate(vectors):
        for j, v in enumerate(vectors):
            assert table_label(adj, compat, i, j) == label_of(
                ctx, pairing(N, indicator(u, ctx.q), indicator(v, ctx.q)))


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
        g, xs = sol.graph, sol.x_vertices
        cands = [g.adj[x] & ((1 << k33_ctx.q) - 1) for x in xs]
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
    lines = []
    for r in range(max(ctx.H.degrees()), ctx.q + cap + 1):
        sols = search_star_sets(ctx, require_regular=r, max_x=max_x)
        assert all(sol.cert.regular_degree == r for sol in sols), r
        lines += solution_lines(sols).splitlines()
    # graphs of different degrees are never isomorphic, and the degrees of a
    # sweep share one pool, its tables and the orderly test with its
    # memos, so each degree must find what a search of that degree alone finds
    assert sorted(solution_lines(sweep).splitlines()) == sorted(lines)


# The search checks each answer's degree against the one asked for: an
# integer r wants r, a sweep any degree; maximal mode wants none.
@pytest.mark.parametrize("require,degree", [(6, 5), (6, None), ("sweep", None)])
def test_search_refuses_answers_of_the_wrong_degree(monkeypatch, k33_ctx, require, degree):
    real = engine.verify_star_pair
    monkeypatch.setattr(engine, "verify_star_pair",
                        lambda *args: real(*args)._replace(regular_degree=degree))
    with pytest.raises(InternalInconsistency, match=f"for degree {require} has degree {degree}$"):
        search_star_sets(k33_ctx, require_regular=require)
    assert search_star_sets(k33_ctx)


def test_search_max_solutions_budget(k33_ctx):
    some = search_star_sets(k33_ctx, require_regular=6, max_solutions=1)
    assert len(some) == 1


@pytest.mark.parametrize("limit", ["max_x", "max_solutions"])
def test_search_rejects_negative_limits(k33_ctx, limit):
    with pytest.raises(ValueError, match=limit):
        search_star_sets(k33_ctx, require_regular="sweep", **{limit: -1})
    # zero is a limit, not an error
    assert search_star_sets(k33_ctx, require_regular="sweep", **{limit: 0}) == []


@pytest.mark.parametrize("limit", ["require_regular", "max_x", "max_solutions"])
def test_search_rejects_bool_limits(k33_ctx, limit):
    # bool is an int: True would silently search degree 1, or cap at 1
    with pytest.raises(ValueError, match=limit):
        search_star_sets(k33_ctx, **{"require_regular": "sweep", limit: True})


def _count_raw_finds(monkeypatch) -> list[int]:
    """Count the graphs the search assembles, i.e. raw finds before dedupe."""
    calls = [0]
    real = engine._assemble

    def counted(*args):
        calls[0] += 1
        return real(*args)
    monkeypatch.setattr(engine, "_assemble", counted)
    return calls


# The K_{2,5} sweep has 13 raw finds, one per orbit: 1, 3, 4, 3, 1 and 1
# at r = 5..10.  Budget 2 stops in r = 6 after the one find of r = 5, and
# 10 stops in r = 8, so a budget spent per degree would assemble more.
@pytest.mark.parametrize("t,s,budget", [
    (3, 3, 2),
    (2, 5, 10),
    (2, 5, 2),
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
# and 7 before it), and again to one per orbit once the orderly test
# listed the part group (10, 41, 12, 119 and 3 with the one-branch cell
# test).  Maximal mode has no benchmark workload, so these pins are what
# guard it.
SEARCH_MODES = [
    ((3, 3), 1, True, None, None, 1, 1,
     "98a87b6f2a7279f0a40fa3fcc9b01a43c9f27cbdfbdf6b15297187a4850eef9e"),
    ((2, 2), -1, True, None, 4, 8, 8,
     "8d926d2dcd83a83b9050886017f126ff9cc0941d5fce6c36dfe93fc1f490acb5"),
    ((2, 3), -1, True, None, 5, 25, 25,
     "16b162749c35be9f2bb58d517a3a0c3c65c599217333dacf3f4965e18945fdee"),
    ((3, 3), 1, True, None, 4, 5, 5,
     "9fb0f567dbb5405e4c54d386cfe7c461aa7e0c8b6e39531c6fcc4b04301f43fa"),
    ("petersen", 2, False, None, None, 0, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ((2, 5), 1, True, "sweep", None, 13, 12,
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


# The same searches on the cell route of the orderly test (PART_GROUP_CAP
# = 0), which follows one tie branch and so hands _dedupe repeats of an
# orbit to merge: 119 finds in 12 classes on the K_{2,5} sweep, where the
# listed route leaves 13.
CELL_RAW = [1, 10, 41, 12, 0, 119, 13, 3]
CELL_MODES = [mode[:5] + (raw,) + mode[6:] for mode, raw in zip(SEARCH_MODES, CELL_RAW)]


@pytest.mark.parametrize("H,mu,tag,require,max_x,raw,classes,digest", CELL_MODES)
def test_dedupe_matches_oracle(monkeypatch, H, mu, tag, require, max_x, raw, classes,
                               digest):
    # the raw finds of each pinned search, deduplicated by the colouring
    # buckets and by the route they replaced (canonical bytes up to the
    # cap, a pairwise scan above it)
    monkeypatch.setattr(engine, "PART_GROUP_CAP", 0)
    runs = []
    real = engine._dedupe
    monkeypatch.setattr(engine, "_dedupe", lambda found: runs.append(found) or real(found))
    search_star_sets(_mode_context(H, mu, tag), require_regular=require, max_x=max_x)
    (found,) = runs
    assert len(found) == raw
    assert_same_representatives(real(found), found)


def assert_same_representatives(reps, found):
    """reps, as _dedupe returns them, are the oracle's representatives, the
    same objects in its order, and that order sorts by the full key
    (n, canonical bytes), which _dedupe computes only for orders that tie."""
    keyed = oracles.dedupe(found)
    assert len(reps) == len(keyed)
    assert all(g is h for g, (h, _) in zip(reps, keyed))
    keys = [key for _, key in keyed]
    assert keys == sorted(keys)


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
    assert_same_representatives(reps, found)
    # one class each, represented by its first find
    assert sorted(next(i for i, f in enumerate(found) if f is g) for g in reps) == [0, 1]


def part_symmetries(t, s):
    """Aut(K_{t,s}) listed in full: every vertex permutation g (g[v] is
    the image of v) that maps the parts onto parts."""
    q = t + s
    parts = ({*range(t)}, {*range(t, q)})
    return [g for g in itertools.permutations(range(q))
            if {*g[:t]} == parts[0] or (t == s and {*g[:t]} == parts[1])]


def image_table(cands, group):
    """Per group element g, the index of g's image of each candidate."""
    index = {m: i for i, m in enumerate(cands)}
    return [[index[sum(1 << g[v] for v in range(len(g)) if m >> v & 1)] for m in cands]
            for g in group]


def least_image(P, table):
    """The lex-least sorted tuple among the images of index tuple P."""
    return min(tuple(sorted(image[i] for i in P)) for image in table)


def record_searches(monkeypatch):
    """Per search_star_sets call, its candidate pool (bitmasks) and the
    index tuples it assembled."""
    runs = []
    real_test, real_assemble = engine._orderly_test, engine._assemble

    def test(ctx, cands, *args):
        runs.append((cands, []))
        return real_test(ctx, cands, *args)

    def assemble(ctx, chosen, adjacency):
        index = {m: i for i, m in enumerate(runs[-1][0])}
        runs[-1][1].append(tuple(index[m] for m in chosen))
        return real_assemble(ctx, chosen, adjacency)
    monkeypatch.setattr(engine, "_orderly_test", test)
    monkeypatch.setattr(engine, "_assemble", assemble)
    return runs


# K_{2,3} has no candidate at mu = 1, so it is taken at mu = -1.  At
# mu = -1 each candidate is also tested max_x times over: with max_x a
# power of two, a count field one bit short carries there
@pytest.mark.parametrize("t,s,mu,require,max_x", [
    (2, 2, -1, None, 4),
    (2, 2, -1, "sweep", 4),
    (2, 2, -1, "sweep", 8),
    (2, 3, -1, None, 5),
    (3, 3, 1, None, 4),
    (3, 3, 1, "sweep", None),
    (1, 5, 1, None, 4),
    (2, 5, 1, "sweep", None),
    (3, 5, -1, None, 5),
])
def test_orderly_test_matches_brute_force(monkeypatch, t, s, mu, require, max_x):
    # the whole group against both routes of the test: a rejected prefix
    # has a lex-smaller image, and every prefix of an orbit's lex-least find
    # passes.  Each group here is listed, and the listed route is complete:
    # a prefix passes iff it is its own least image.  PART_GROUP_CAP = 0
    # runs the cell route, which follows one tie branch, so the listed
    # route rejects every prefix that the cell route rejects
    ctx = make_context(make_kts(t, s), qnum(mu), bipartite_tag=(t, s))
    runs = record_searches(monkeypatch)
    search_star_sets(ctx, require_regular=require, max_x=max_x, symmetry=False)
    monkeypatch.undo()
    group = part_symmetries(t, s)
    listed = engine.PART_GROUP_CAP
    assert len(group) <= listed
    tuples = (itertools.combinations_with_replacement if ctx.mu_special
              else itertools.combinations)
    tables = [image_table(cands, group) for cands, _ in runs]
    images = {}

    def least(run, P):
        # by brute force, once for both routes
        if (run, P) not in images:
            images[run, P] = least_image(P, tables[run])
        return images[run, P]

    rejected = {}
    for cap in (listed, 0):
        monkeypatch.setattr(engine, "PART_GROUP_CAP", cap)
        rejected[cap] = set()
        for run, (cands, finds) in enumerate(runs):
            is_least = engine._orderly_test(ctx, cands, True, max_x)
            prefixes = {F[:n] for F in finds for n in range(1, len(F) + 1)}
            prefixes.update(P for n in (1, 2, 3) for P in tuples(range(len(cands)), n))
            if ctx.mu_special:
                prefixes.update((i,) * max_x for i in range(len(cands)))
            verdicts = {P: is_least(list(P)) for P in sorted(prefixes)}
            for P, passes in verdicts.items():
                if not passes:
                    rejected[cap].add((run, P))
                    assert least(run, P) < P, P
                elif cap:
                    assert least(run, P) == P, P
            # a verdict is the prefix's own, whatever was tested before it:
            # the cell route keeps the levels of the last prefix it tested
            backwards = engine._orderly_test(ctx, cands, True, max_x)
            assert {P: backwards(list(P)) for P in sorted(prefixes, reverse=True)} == verdicts
            for L in {least(run, F) for F in finds}:
                assert L in finds
                assert all(is_least(list(L[:n])) for n in range(1, len(L) + 1)), L
    assert rejected[0] and rejected[0] <= rejected[listed]


# On a listed group each raw find is the lex-least member of its own
# orbit under the group, one find per orbit.  The orbits are counted by
# brute force over the group from the finds of the cell route, which keeps
# every orbit's least member (860, 360 and 1,223 finds for the three mu = -1
# searches, 119 for the K_{2,5} sweep).  At mu = -1 each orbit is one
# isomorphism class; the K_{2,5} sweep has 13 orbits in 12 classes.
@pytest.mark.parametrize("t,s,mu,require,max_x,orbits", [
    (2, 5, 1, "sweep", None, 13),
    (2, 3, -1, None, 12, 249),
    (2, 2, -1, None, 16, 145),
    (3, 4, -1, None, 10, 275),
])
def test_raw_finds_are_orbits(monkeypatch, t, s, mu, require, max_x, orbits):
    ctx = make_context(make_kts(t, s), qnum(mu), bipartite_tag=(t, s))
    listed = engine.PART_GROUP_CAP
    runs = record_searches(monkeypatch)
    for cap in (0, listed):
        monkeypatch.setattr(engine, "PART_GROUP_CAP", cap)
        search_star_sets(ctx, require_regular=require, max_x=max_x)
    (cands, cell), (same, finds) = runs
    assert same == cands
    table = image_table(cands, part_symmetries(t, s))
    least = {least_image(F, table) for F in cell}
    assert len(finds) == len(least) == orbits
    assert set(finds) == least


def test_large_max_x_takes_the_cell_test(monkeypatch):
    # at mu = -1 the listed route packs a count of max_x.bit_length() bits
    # per candidate into each of its |G| fields; past PACKED_BITS_CAP it
    # must not list the group (permutations runs only to list it), whatever
    # max_x asks for.  K_{3,5} has 8 candidates and 720 elements: 10^6 takes
    # 720 (8 * 20 + 1) bits, under the cap, and 2^200 720 (8 * 201 + 1)
    ctx = make_context(make_kts(3, 5), qnum(-1), bipartite_tag=(3, 5))
    cands = [m for m in enumerate_candidates(ctx) if m]
    assert len(cands) == 8
    calls = []
    real = engine.permutations
    monkeypatch.setattr(engine, "permutations", lambda *args: calls.append(args) or real(*args))
    for max_x, listed in ((5, True), (10 ** 6, True), (2 ** 200, False)):
        calls.clear()
        is_least = engine._orderly_test(ctx, cands, True, max_x)
        assert bool(calls) == listed
        assert is_least([0])


def _count_orderly_tests(monkeypatch) -> list[int]:
    """Count the calls of the orderly test's predicate."""
    calls = [0]
    real_test = engine._orderly_test

    def test(*args):
        is_least = real_test(*args)

        def counted(prefix):
            calls[0] += 1
            return is_least(prefix)
        return counted
    monkeypatch.setattr(engine, "_orderly_test", test)
    return calls


# The regular DFS tests each pick at its top once, before that pick's
# walk, and below depth 1 runs the orderly test only on nodes that pass
# its degree checks, so a test placed earlier, or later, or run twice,
# moves these counts.  The raw finds of test_search_modes_pinned show that
# the placement prunes nothing the degree checks would keep.  The K_{2,5}
# sweep took 1,272 calls when the test followed one tie branch; the
# complete test prunes more nodes before they are tested.  K_{6,6} runs
# the cell test.  The mu = -1 maximal walks test their first choices and
# emissions, and otherwise only while more candidates are pickable than
# chosen; K_{2,3} lists its part group and K_{4,4} takes the cell route.
# Explicit ids keep the first three names free of the max_x column.
@pytest.mark.parametrize("t,s,mu,require,max_x,tests", [
    pytest.param(2, 5, 1, "sweep", None, 361, id="2-5-1-sweep-361"),
    pytest.param(6, 6, -2, 10, None, 358, id="6-6--2-10-358"),
    pytest.param(6, 6, -2, "sweep", None, 11836, id="6-6--2-sweep-11836"),
    (2, 3, -1, None, 12, 1236),
    (4, 4, -1, None, 5, 194),
    (6, 6, -2, 8, None, 244),
])
def test_orderly_test_calls_pinned(monkeypatch, t, s, mu, require, max_x, tests):
    calls = _count_orderly_tests(monkeypatch)
    ctx = make_context(make_kts(t, s), qnum(mu), bipartite_tag=(t, s))
    assert search_star_sets(ctx, require_regular=require, max_x=max_x)
    assert calls[0] == tests


# A sweep builds the pair-label tables and the orderly test once,
# on the first degree that reaches the walk (once per degree before: 42 on
# K_{6,6} mu=-2, 7 on K_{2,5} mu=1), and not at all when every degree
# closes before it: K_{2,3} has no candidate at mu = -2.
@pytest.mark.parametrize("t,s,mu,builds", [
    (6, 6, -2, 1),
    (2, 5, 1, 1),
    (2, 3, -2, 0),
])
def test_sweep_builds_tables_once(monkeypatch, t, s, mu, builds):
    names = ("_build_label_tables", "_orderly_test")
    calls = Counter()
    for name in names:
        def counted(*args, _real=getattr(engine, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(engine, name, counted)
    ctx = make_context(make_kts(t, s), qnum(mu), bipartite_tag=(t, s))
    assert bool(search_star_sets(ctx, require_regular="sweep")) == bool(builds)
    assert [calls[name] for name in names] == [builds, builds]


# _dedupe refines each find once (13 seed colourings, one per orbit; 119
# when the orderly test followed one tie branch, 127 before that when each
# canonical() call refined its class again), calls are_isomorphic once per
# repeat find (1 of 13: two orbits are isomorphic; 107 of 119 before), each
# against the one representative in its bucket, and canonical() once per
# class of order <= CANONICAL_CAP whose order another class shares.  The
# 12 classes have orders 12, 15 (3), 18 (4), 21 (2), 24 and 27, so that is
# the 7 classes of orders 15 and 18; 8 when every class of order <= 20 was
# keyed (the one of order 12 too), 68 before the colouring buckets.
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
    assert calls == {"canonical": 7, "are_isomorphic": 1, "_initial_colors": 13}


# canonical() runs only where it decides the output order, for classes
# whose order another class shares; raw finds that repeat a class do not
# count.  The K_{3,3} sweeps find one class each of orders 9, 12 and 15
# (13 raw finds untagged), K_{6,6} r=8 one class, and r=10 three classes of
# order 18.  Before, every class of order <= CANONICAL_CAP took one call.
@pytest.mark.parametrize("H,mu,tag,require,classes,calls", [
    (make_kts(3, 3), 1, (3, 3), "sweep", 3, 0),
    (make_kts(3, 3), 1, None, "sweep", 3, 0),
    (make_kts(6, 6), -2, (6, 6), 8, 1, 0),
    (make_kts(6, 6), -2, (6, 6), 10, 3, 3),
])
def test_canonical_calls_pinned(monkeypatch, H, mu, tag, require, classes, calls):
    counted = []
    real = engine.canonical
    monkeypatch.setattr(engine, "canonical", lambda *args: counted.append(args) or real(*args))
    ctx = make_context(H, qnum(mu), bipartite_tag=tag)
    assert len(search_star_sets(ctx, require_regular=require)) == classes
    assert len(counted) == calls


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


def _k_ctx(t, s, mu):
    return make_context(make_kts(t, s), qnum(mu), bipartite_tag=(t, s))


# The recursive walks (_search's regular and maximal, canonical's walk,
# are_isomorphic's extend) each hold themselves in a closure cell.  Left
# there, that cycle keeps a search's pool, label tables and orderly levels
# alive until the cyclic collector runs: 767 objects after one K_{6,6}
# mu=-2 r=8 search, 951 at r=10, about 30 after canonical(Petersen).
@pytest.mark.parametrize("call", [
    lambda ctx=_k_ctx(6, 6, -2): search_star_sets(ctx, require_regular=8),
    lambda ctx=_k_ctx(6, 6, -2): search_star_sets(ctx, require_regular=10),
    lambda ctx=_k_ctx(2, 5, 1): search_star_sets(ctx),
    # unwinds through _BudgetSpent
    lambda ctx=_k_ctx(2, 5, 1): search_star_sets(ctx, require_regular="sweep",
                                                 max_solutions=3),
    lambda: canonical(petersen()),
    lambda: are_isomorphic(petersen(), petersen().relabel([9 - v for v in range(10)])),
], ids=["k66-r8", "k66-r10", "k25-maximal", "k25-budget", "canonical", "are_isomorphic"])
def test_calls_leave_no_reference_cycle(call):
    call()
    gc.disable()
    try:
        gc.collect()
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_search_max_x_restricts(k33_ctx):
    sols = search_star_sets(k33_ctx, require_regular="sweep", max_x=3)
    assert [s.order for s in sols] == [9]


# Over P_3 + K_1 at mu = -1 the one 3-regular answer has |X| = 4.  The
# H-side bound (the degree needed over the largest candidate) lets
# max_x = 3 reach the walk, so only the walk's |X| cap keeps that answer out.
def test_regular_walk_caps_x_at_max_x():
    ctx = make_context(Graph.from_edges(4, [(0, 1), (0, 2)]), qnum(-1))
    assert search_star_sets(ctx, require_regular=3, max_x=3) == []
    sizes = [len(s.x_vertices) for s in search_star_sets(ctx, require_regular=3, max_x=4)]
    assert sizes == [4]
    sizes = [len(s.x_vertices) for s in search_star_sets(ctx, require_regular="sweep", max_x=3)]
    assert sizes == [2]


# At mu in {-1, 0}, where picks repeat, a new pick can meet more chosen
# picks than its room allows, and the walk drops it before its subtree:
# without that check this search makes 19 orderly-test calls, not 17.
# Untagged, every prefix passes, so the calls count nodes that pass the
# degree checks.
def test_own_slack_check_calls_pinned(monkeypatch):
    calls = _count_orderly_tests(monkeypatch)
    ctx = make_context(Graph.from_edges(4, [(0, 1), (0, 2)]), qnum(-1))
    assert len(search_star_sets(ctx, require_regular=3, max_x=4)) == 1
    assert calls[0] == 17


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
        if indicator(c, k33_ctx.q) in chosen:
            continue
        labels = []
        for d in cands:
            if indicator(d, k33_ctx.q) in chosen:
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


# At mu = -1 two copies of a candidate are adjacent, so the diagonal bit of
# its adj_mask row is set; the X-rows _assemble receives must drop it.
@pytest.mark.parametrize("t,s,require,max_x", [
    (2, 2, "sweep", 8),    # the regular walk
    (2, 3, None, 5),       # the maximal walk
])
def test_assembled_x_rows_match_labels(monkeypatch, t, s, require, max_x):
    tables, finds = [], []
    real_tables, real_assemble = engine._build_label_tables, engine._assemble

    def labels(ctx, masks):
        tables.append((masks, real_tables(ctx, masks)[0]))
        return real_tables(ctx, masks)

    def assemble(ctx, chosen, xadj):
        finds.append((chosen, xadj, real_assemble(ctx, chosen, xadj)))
        return finds[-1][2]
    monkeypatch.setattr(engine, "_build_label_tables", labels)
    monkeypatch.setattr(engine, "_assemble", assemble)
    ctx = make_context(make_kts(t, s), qnum(-1), bipartite_tag=(t, s))
    assert search_star_sets(ctx, require_regular=require, max_x=max_x)
    [(masks, adj_mask)] = tables
    index = {m: i for i, m in enumerate(masks)}
    q = t + s
    assert any(len(set(chosen)) < len(chosen) for chosen, _, _ in finds)
    for chosen, xadj, g in finds:
        picks = [index[m] for m in chosen]
        for j, a in enumerate(picks):
            assert not xadj[j] >> j & 1 and not g.adjacent(q + j, q + j)
            assert g.adj[q + j] & (1 << q) - 1 == chosen[j]
            for i, b in enumerate(picks):
                if i != j:
                    assert g.adjacent(q + i, q + j) == bool(adj_mask[a] >> b & 1)


def test_certified_gate_fixture():
    g5 = named_graph("G5")
    ctx = make_context(make_kts(6, 6), qnum(-2), bipartite_tag=(6, 6))
    [sol] = engine._certified(ctx, [g5], 10)
    assert sol.x_vertices == tuple(range(12, 18))
    assert sol.cert.passed and sol.cert.multiplicity == 6
    assert {type_of(g5.adj[x] & ((1 << 12) - 1), 6) for x in sol.x_vertices} == {(4, 4)}


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
    # at q = 0 the packed target -2 + 1 * 2^K must not read as 0 (K = 1 would)
    (Graph.from_edges(1, []), [0], QNum.sqrt(5) - 2, False),
])
def test_certificate_quadratic_and_petersen(G, X, mu, passed):
    assert check_certificate(G, X, mu).passed is passed


# the non-integer rationals whose denominators z^(d+1) the integer
# resolvent has to reduce, on top of CERT_MUS
RESOLVENT_MUS = CERT_MUS + [qnum(Fraction(1, 3)), qnum(Fraction(3, 2)), qnum(Fraction(-5, 2))]


@settings(max_examples=300, deadline=None)
@given(graphs, st.sampled_from(RESOLVENT_MUS))
@example((0, 0), qnum(Fraction(3, 2)))        # the 0 x 0 matrix: m = 1
@example((0, 0), -1 - GOLDEN)
def test_resolvent_parts_match_qnum_oracle(g, mu):
    # the integer Horner route against the QNum one: the same least common
    # denominator D, the same rational and sqrt parts, the same refusals
    m = linalg.minimal_polynomial_powers(graph_from_mask(*g).matrix())[0]
    try:
        a, mval = oracles.resolvent_coefficients(m, mu)
    except MuIsEigenvalue:
        with pytest.raises(MuIsEigenvalue):
            linalg.resolvent_parts(m, mu)
        return
    assert linalg.resolvent_parts(m, mu) == oracles.scaled_parts(a + [mval * mu, -mval])


def test_certificate_batch_keys_the_half_by_content():
    # one dict of complement halves for a batch, as a search uses it: a find
    # whose G - X differs from the others by one edge (inside the t-part of
    # K_{2,5}) gets its own half, so its certificate still fails.  The half
    # of K_{2,5} itself would pass its reconstruction identity, as B is
    # unchanged
    ctx = make_context(make_kts(2, 5), qnum(1), bipartite_tag=(2, 5))
    sols = search_star_sets(ctx, require_regular="sweep")
    first = sols[0].graph
    rows = list(first.adj)
    rows[0] |= 1 << 1
    rows[1] |= 1 << 0
    odd = Graph(first.n, tuple(rows))
    batch = [(s.graph, s.x_vertices) for s in sols[:6]] + [(odd, sols[0].x_vertices)] + \
        [(s.graph, s.x_vertices) for s in sols[6:]]
    halves = {}
    certs = [verify_star_pair(G, X, qnum(1), halves) for G, X in batch]
    assert certs == [verify_star_pair(G, X, qnum(1)) for G, X in batch]
    assert [c.passed for c in certs] == [True] * 6 + [False] + [True] * 6
    assert certs[6].mu_not_in_complement and not certs[6].reconstruction_ok
    assert len(halves) == 2


def test_search_builds_one_complement_half(monkeypatch):
    # the 12 certificates of the K_{2,5} mu=1 sweep share G - X = K_{2,5}:
    # one minimal polynomial, resolvent and D N for all of them.  The halves
    # live as long as one call, so a second search builds its own
    ctx = make_context(make_kts(2, 5), qnum(1), bipartite_tag=(2, 5))
    builds, certs = [], []
    powers, real = engine.minimal_polynomial_powers, engine.verify_star_pair
    monkeypatch.setattr(engine, "minimal_polynomial_powers",
                        lambda C: builds.append(C) or powers(C))
    monkeypatch.setattr(engine, "verify_star_pair", lambda *a: certs.append(a) or real(*a))
    sols = search_star_sets(ctx, require_regular="sweep")
    assert (len(sols), len(certs), len(builds)) == (12, 12, 1)
    assert builds == [ctx.H.matrix()]
    assert len(search_star_sets(ctx, require_regular="sweep")) == 12
    assert (len(certs), builds) == (24, [ctx.H.matrix()] * 2)


# the searches of the python -O loop in .github/workflows/tests.yml
CI_SEARCHES = ["3 3 1 --sweep", "2 5 1 --sweep", "6 6 -2 --r 10",
               "1 2 root(-1,1):pos --sweep", "1 2 root(-1,-1):pos --sweep", "2 5 1",
               "6 6 -2 --sweep", "2 3 -1 --max-x 8", "3 5 -1 --max-x 5",
               "4 4 -1 --max-x 5", "2 3 -1 --max-x 12"]


@pytest.mark.parametrize("args", CI_SEARCHES)
def test_search_certificates_match_standalone(monkeypatch, capsys, args):
    # every certificate a search emits, from a complement half shared over
    # the call, equals a stand-alone certificate field for field
    seen = []
    real = engine.verify_star_pair
    monkeypatch.setattr(engine, "verify_star_pair",
                        lambda *a: seen.append((a[:3], real(*a))) or seen[-1][1])
    cli.main(["search"] + args.split())
    count = json.loads(capsys.readouterr().out.splitlines()[-1])["summary"]["count"]
    assert len(seen) == count
    for (G, X, mu), cert in seen:
        assert cert._asdict() == real(G, X, mu)._asdict()


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


@pytest.mark.parametrize("require,max_x", [(1, 3), ("sweep", None)])
def test_multiplicity_cap_needs_a_connected_complement(require, max_x):
    # 3K_2, X one end of each edge, has mult(1) = 3 = |X| over H = 3K_1,
    # past the cap (3 + 1)(3 - 2)/2 = 2, which holds for G connected only
    ctx = make_context(Graph(3, [0, 0, 0]), qnum(1))
    sols = search_star_sets(ctx, require_regular=require, max_x=max_x)
    assert [graph6_encode(sol.graph) for sol in sols] == ["E@Q?"]


def test_uncapped_sweep_stops_at_the_pool():
    # without the cap, a sweep over a disconnected H runs up to degree
    # q + |pool|; up to q + 2^q, 2C_8 at mu = 3 took about 5 s
    ctx = make_context(disjoint_union(cycle(8), cycle(8)), qnum(3))
    start = time.perf_counter()
    assert search_star_sets(ctx, require_regular="sweep") == []
    assert time.perf_counter() - start < 1
