"""Closed-form theory over complete bipartite complements: vertex types,
pair relations, the G(r) construction, family parameters, and the
strongly-regular gap.  The last two, and the K_{s,s} roots and bound, are
oracles in tests/oracles.py; the final section holds the search to them.

Type and rho oracles were computed by brute force over explicit vectors
(quadratic-form evaluation against the scaled resolvent) before the
closed forms were written; several appear again in the acceptance suite.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import (edge_count, family_type0b, kss_analysis, non_main_holds,
                     self_pairing_holds, solve_types_fixed, srg_gap, type_of)
from starcomp import engine
from starcomp.algebra import QNum, qnum
from starcomp.engine import VertexType, make_context, vertex_types
from starcomp.cli import main
from starcomp.errors import (DivisibilityViolation, HypothesisViolated, InternalInconsistency,
                             MuIsEigenvalue)
from starcomp.graphs import SrgParams, srg_check
from starcomp.kts import (GrParams, build_Gr, gr_params, make_kts, rho_bounds,
                          rho_of_pair, rho_value, solve_types_parametric)


def kts_types(t, s, mu, non_main=True):
    ctx = make_context(make_kts(t, s), qnum(mu), bipartite_tag=(t, s))
    return vertex_types(ctx, non_main)


# ---------------------------------------------------------------- make_kts

def test_make_kts_layout():
    g = make_kts(2, 3)
    # V-part first (vertices 0..t-1), then W-part
    assert g.degrees() == [3, 3, 2, 2, 2]
    assert not g.adjacent(0, 1) and not g.adjacent(2, 3)
    assert all(g.adjacent(u, w) for u in (0, 1) for w in (2, 3, 4))
    assert edge_count(make_kts(1, 1)) == 1


def test_make_kts_rejects_bad_parts():
    for t, s in ((3, 2), (0, 1), (0, 0), (-1, 2)):
        with pytest.raises(HypothesisViolated):
            make_kts(t, s)


# ------------------------------------------------------------- type solving

@pytest.mark.parametrize("t,s,mu,expected", [
    (3, 3, 1, [(1, 1)]),
    (6, 6, -2, [(4, 4)]),
    (1, 5, 1, [(0, 2)]),
    (3, 18, 2, [(0, 10), (1, 6)]),
    (2, 3, -3, [(0, 3)]),
    (1, 2, -2, [(0, 2)]),
    (2, 2, -1, [(1, 2), (2, 1)]),
    (3, 4, -3, []),
])
def test_solve_types_fixed(t, s, mu, expected):
    # the hand-derived table holds for the engine's types and for the
    # closed-form oracle alike
    assert kts_types(t, s, mu) == expected
    assert solve_types_fixed(t, s, qnum(mu), non_main=True) == expected


def test_types_satisfy_defining_relations():
    for v in kts_types(3, 18, 2):
        assert self_pairing_holds(3, 18, qnum(2), v.a, v.b)
        assert non_main_holds(3, 18, qnum(2), v.a, v.b)
    assert not self_pairing_holds(3, 18, qnum(2), 2, 2)


def test_non_main_filter_is_a_restriction():
    wide = kts_types(3, 3, -1, non_main=False)
    narrow = kts_types(3, 3, -1, non_main=True)
    assert set(narrow) <= set(wide)


def test_solve_types_parametric_t3_mu2():
    rows = solve_types_parametric(3, qnum(2))
    assert [(r.a, r.b, r.s, r.feasible) for r in rows] == [
        (0, qnum(10), qnum(18), True),
        (1, qnum(6), qnum(18), True),
        (2, qnum(Fraction(9, 2)), qnum(Fraction(61, 2)), False),
    ]
    assert rows[2].reason != ""


def test_solve_types_parametric_t1():
    # single row a=0: b = mu^2 + mu, matching the type (0,2) at mu=1, s=5
    rows = solve_types_parametric(1, qnum(1))
    assert len(rows) == 1
    assert (rows[0].a, rows[0].b, rows[0].s) == (0, qnum(2), qnum(5))
    assert rows[0].feasible


# ------------------------------------------------------------ pair relation

def test_rho_values_mu_minus_one():
    mu = qnum(-1)
    # same-type pairs gain rho exactly 1 per common X-neighbour
    for t, s in ((1, 2), (1, 3), (2, 3)):
        one_s = VertexType(1, s)
        t_one = VertexType(t, 1)
        assert rho_value(t, s, mu, one_s, one_s, False) == qnum(s)
        assert rho_value(t, s, mu, one_s, one_s, True) == qnum(s + 1)
        assert rho_value(t, s, mu, t_one, t_one, False) == qnum(t)
        assert rho_value(t, s, mu, t_one, t_one, True) == qnum(t + 1)
        assert rho_value(t, s, mu, one_s, t_one, False) == qnum(1)
        assert rho_value(t, s, mu, one_s, t_one, True) == qnum(2)


def test_rho_values_t3_s18_mu2():
    mu = qnum(2)
    big, small = VertexType(0, 10), VertexType(1, 6)
    assert rho_value(3, 18, mu, big, big, False) == qnum(6)
    assert rho_value(3, 18, mu, big, big, True) == qnum(4)
    assert rho_value(3, 18, mu, big, small, False) == qnum(4)
    assert rho_value(3, 18, mu, big, small, True) == qnum(2)
    assert rho_value(3, 18, mu, small, small, False) == qnum(3)
    assert rho_value(3, 18, mu, small, small, True) == qnum(1)


def test_rho_bounds():
    assert rho_bounds(3, 18, VertexType(0, 10), VertexType(0, 10)) == (2, 10)
    assert rho_bounds(3, 18, VertexType(0, 10), VertexType(1, 6)) == (0, 6)
    assert rho_bounds(3, 18, VertexType(1, 6), VertexType(1, 6)) == (0, 7)
    # lower bound comes from part-overlap counting, per part
    assert rho_bounds(2, 3, VertexType(1, 3), VertexType(2, 1)) == (2, 2)
    assert rho_bounds(1, 2, VertexType(1, 2), VertexType(1, 2)) == (3, 3)


def rho_verdict(t, s, mu, u, v, adjacent):
    return rho_of_pair(t, s, u, v, rho_value(t, s, mu, u, v, adjacent))


def test_rho_of_pair_feasibility():
    mu = qnum(-1)
    # feasible: integer inside bounds
    assert rho_verdict(2, 3, mu, VertexType(1, 3), VertexType(1, 3), False) == 3
    # infeasible: below the overlap lower bound
    assert rho_verdict(2, 3, mu, VertexType(1, 3), VertexType(2, 1), False) is None
    # at mu = (sqrt(5)-1)/2 the adjacent pair has rho = 0, feasible, and the
    # non-adjacent pair has rho = mu, infeasible as it is not an integer
    gold = QNum.quadratic_root(-1, 1)
    assert rho_verdict(1, 2, gold, VertexType(0, 1), VertexType(0, 1), True) == 0
    assert rho_value(1, 2, gold, VertexType(0, 1), VertexType(0, 1), False) == gold
    assert rho_verdict(1, 2, gold, VertexType(0, 1), VertexType(0, 1), False) is None


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=6), st.booleans())
def test_rho_satisfies_pair_relation(t, a, b, c, d, adjacent):
    # recompute the defining relation independently and check rho solves it
    s, mu = 6, qnum(2)
    if (a, b) == (0, 0) or (c, d) == (0, 0) or a > t or c > t:
        return
    u, v = VertexType(a, b), VertexType(c, d)
    rho = rho_value(t, s, mu, u, v, adjacent)
    # the relation: (mu^2-ts) rho + acs + bdt + mu(ad+bc) = -mu(mu^2-ts) a_uv
    a_uv = qnum(1 if adjacent else 0)
    assert (mu * mu - t * s) * rho + qnum(a * c * s + b * d * t) \
        + mu * (a * d + b * c) == -(mu * (mu * mu - t * s)) * a_uv


# ------------------------------------------------------------ G(r) family

def test_gr_params_divisibility():
    p = gr_params(2, 3, 4)
    assert (p.vi_size, p.wi_size) == (1, 0)
    assert gr_params(3, 3, 7) == GrParams(3, 3, 7, 1, 1)
    assert gr_params(2, 2, 5) == GrParams(2, 2, 5, 1, 1)
    with pytest.raises(DivisibilityViolation):
        gr_params(3, 4, 5)
    # r must be -1 mod (ts-1)/gcd stuff; for (2,3) the working degrees step by 5
    assert gr_params(2, 3, 9).vi_size == 3
    with pytest.raises(DivisibilityViolation):
        gr_params(2, 3, 6)
    # r = t = s leaves both blocks empty: K_{t,t} has no eigenvalue -1
    for t in (2, 3):
        with pytest.raises(HypothesisViolated, match="star set is empty"):
            gr_params(t, t, t)


@pytest.mark.parametrize("t,s,r,order,mult", [
    (2, 3, 4, 7, 2),
    (3, 3, 7, 12, 6),
    (2, 2, 5, 8, 4),
    (2, 3, 9, 14, 9),     # blocks of three: a clique with inner edges
])
def test_build_gr_certified(t, s, r, order, mult):
    sol = build_Gr(t, s, r)
    assert sol.order == order
    assert all(d == r for d in sol.graph.degrees())
    assert sol.cert.passed and sol.cert.multiplicity == mult
    p = gr_params(t, s, r)
    assert mult == t * p.vi_size + s * p.wi_size == len(sol.x_vertices)


def test_build_gr_deterministic():
    a, b = build_Gr(3, 3, 7), build_Gr(3, 3, 7)
    assert a.graph.adj == b.graph.adj


def k25_mu1_sweep():
    ctx = make_context(make_kts(2, 5), qnum(1), bipartite_tag=(2, 5))
    return engine.search_star_sets(ctx, require_regular="sweep")


@pytest.mark.parametrize("build", [lambda: build_Gr(2, 3, 4), k25_mu1_sweep],
                         ids=["build_Gr", "search"])
def test_failed_certificate_raises_in_process(monkeypatch, build):
    # both routes to a StarSolution, G(r) and a search's finds, pass the gate
    real = engine.verify_star_pair
    monkeypatch.setattr(engine, "verify_star_pair", lambda *a: real(*a)._replace(
        reconstruction_ok=False))
    with pytest.raises(InternalInconsistency, match="failed certification"):
        build()


# --------------------------------------------------- family and gap reports

def test_family_type0b_t1_is_clebsch_parameters():
    rep = family_type0b(1, qnum(1))
    assert (rep.b, rep.s, rep.r) == (qnum(2), qnum(5), qnum(5))
    assert (rep.order, rep.x_size) == (qnum(16), qnum(10))
    assert rep.srg == SrgParams(16, 5, 0, 2)
    assert rep.status == "ok"


def test_family_type0b_t1_mu2_strongly_regular_candidate():
    rep = family_type0b(1, qnum(2))
    assert rep.srg == SrgParams(100, 22, 0, 6)
    assert rep.status == "ok"


def test_family_type0b_prior_work_note():
    rep = family_type0b(2, qnum(1))
    assert rep.status == "prior-work"
    assert rep.note != ""


def test_srg_gap_values():
    assert srg_gap(9, 3, 3, 6, qnum(1)) == qnum(0)
    assert srg_gap(3, 3, 3, 4, qnum(1)) == qnum(Fraction(36, 5))
    assert srg_gap(6, 3, 3, 5, qnum(1)) == qnum(Fraction(24, 5))


def test_srg_gap_requires_k_bound():
    with pytest.raises(HypothesisViolated):
        srg_gap(2, 3, 3, 9, qnum(1))   # k+t+s-1 = 7 <= r = 9


def test_kss_analysis():
    rep = kss_analysis(6, qnum(-2))
    assert rep.discriminant == qnum(0) and rep.roots == (4, 4)
    assert rep.mu_integral
    rep = kss_analysis(3, qnum(1), r=6)
    assert rep.roots == (1, 1) and rep.bound == 9
    # discriminant not a perfect square: no rational type solution
    rep = kss_analysis(4, qnum(1))
    assert rep.discriminant == qnum(5) and rep.roots is None


# ------------------------------------- the search against the closed forms

KSS_MUS = [qnum(m) for m in range(-6, 7)] + [qnum(Fraction(1, 2)), qnum(Fraction(-3, 2))]


def test_kss_roots_are_the_engine_types():
    # on every K_{s,s} context for s = 2..8 and these mu, the engine's types
    # are the orientations of the oracle's root pair that fit in [0, s]^2
    contexts = typed = 0
    for s in range(2, 9):
        for mu in KSS_MUS:
            try:
                ctx = make_context(make_kts(s, s), mu, bipartite_tag=(s, s))
            except MuIsEigenvalue:
                continue
            roots = kss_analysis(s, mu).roots
            pairs = {roots, roots[::-1]} if roots else set()
            expected = sorted(p for p in pairs if max(p) <= s and p != (0, 0))
            assert vertex_types(ctx) == expected, (s, mu)
            contexts += 1
            typed += bool(expected)
    assert (contexts, typed) == (88, 9)


def test_family_type0b_is_the_k15_find(k15_sweep):
    # t = 1, mu = 1: the family predicts the sweep's one graph, the Clebsch graph
    rep = family_type0b(1, 1)
    (sol,) = k15_sweep
    assert rep.status == "ok" and rep.s == 5
    assert (rep.order, rep.r, rep.x_size) == (sol.order, sol.cert.regular_degree,
                                              len(sol.x_vertices))
    assert all(type_of(sol.graph.adj[x] & ((1 << 6) - 1), 1) == (0, rep.b)
               for x in sol.x_vertices)
    assert srg_check(sol.graph) == rep.srg


def test_kss_size_bound_holds_for_every_find(capsys, k33_sweep, k66_r8, k66_r10):
    # |X| <= s(r - s), the bound of `starcomp bound` and of the oracle alike
    rows = []
    for s, mu, sols in ((3, 1, k33_sweep), (6, -2, k66_r8 + k66_r10)):
        for sol in sols:
            r = sol.cert.regular_degree
            assert main(["bound", "--q", str(2 * s), "--s", str(s), "--r", str(r)]) == 0
            bound = json.loads(capsys.readouterr().out)["sizeBound"]
            assert bound == kss_analysis(s, mu, r).bound >= len(sol.x_vertices)
            rows.append((s, r, len(sol.x_vertices), bound))
    # all three K_{3,3} graphs meet it with equality
    assert rows[:3] == [(3, 4, 3, 3), (3, 5, 6, 6), (3, 6, 9, 9)]
    assert k66_r8 and k66_r10
