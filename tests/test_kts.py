"""Closed-form theory over complete bipartite complements: vertex types,
pair relations, the G(r) construction, family parameters, and the
strongly-regular gap.

Type and rho oracles were computed by brute force over explicit vectors
(quadratic-form evaluation against the scaled resolvent) before the
closed forms were written; several appear again in the acceptance suite.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from starcomp import engine
from starcomp.algebra import QNum, qnum
from starcomp.errors import DivisibilityViolation, HypothesisViolated, InternalInconsistency
from starcomp.graphs import SrgParams, srg_check
from starcomp.kts import (GrParams, VertexType, build_Gr, family_type0b,
                          gr_params, kss_analysis, make_kts, non_main_holds,
                          rho_bounds, rho_of_pair, rho_value,
                          self_pairing_holds, solve_types_fixed,
                          solve_types_parametric, srg_gap)


# ---------------------------------------------------------------- make_kts

def test_make_kts_layout():
    g = make_kts(2, 3)
    # V-part first (vertices 0..t-1), then W-part
    assert g.degrees() == [3, 3, 2, 2, 2]
    assert not g.adjacent(0, 1) and not g.adjacent(2, 3)
    assert all(g.adjacent(u, w) for u in (0, 1) for w in (2, 3, 4))
    assert make_kts(1, 1).edge_count == 1


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
    got = solve_types_fixed(t, s, qnum(mu), non_main=True)
    assert [(v.a, v.b) for v in got] == expected


def test_types_satisfy_defining_relations():
    for v in solve_types_fixed(3, 18, qnum(2)):
        assert self_pairing_holds(3, 18, qnum(2), v.a, v.b)
        assert non_main_holds(3, 18, qnum(2), v.a, v.b)
    assert not self_pairing_holds(3, 18, qnum(2), 2, 2)


def test_non_main_filter_is_a_restriction():
    wide = solve_types_fixed(3, 3, qnum(-1), non_main=False)
    narrow = solve_types_fixed(3, 3, qnum(-1), non_main=True)
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


def test_rho_of_pair_feasibility():
    mu = qnum(-1)
    # feasible: integer inside bounds
    assert rho_of_pair(2, 3, mu, VertexType(1, 3), VertexType(1, 3), False) == 3
    # infeasible: below the overlap lower bound
    assert rho_of_pair(2, 3, mu, VertexType(1, 3), VertexType(2, 1), False) is None
    # infeasible: not an integer
    gold = QNum.quadratic_root(-1, 1)
    got = rho_of_pair(1, 2, gold, VertexType(0, 1), VertexType(0, 1), True)
    assert got is None or isinstance(got, int)


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


@pytest.mark.parametrize("t,s,r,order,mult", [
    (2, 3, 4, 7, 2),
    (3, 3, 7, 12, 6),
    (2, 2, 5, 8, 4),
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


def test_build_gr_raises_on_failed_certificate(monkeypatch):
    real = engine.verify_star_pair
    monkeypatch.setattr(engine, "verify_star_pair", lambda *a: real(*a)._replace(
        reconstruction_ok=False))
    with pytest.raises(InternalInconsistency, match="failed certification"):
        build_Gr(2, 3, 4)


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
