"""Release gate: one test per acceptance criterion, numbered c01-c12.

Each test transcribes its criterion directly against the public API; the
hook in conftest prints a PASS/FAIL line per criterion at the end of the
run.  test_c10 is expected to FAIL: the reference pair table it has to
reproduce contains values that the defining pair relation does not
produce, and the engine follows the relation.  The failure message holds
the full derivation; the build decision log records the call.
"""

from __future__ import annotations

import io
import contextlib
from fractions import Fraction

import pytest

from oracles import indicator, qnum_resolvent, srg_gap
from starcomp.algebra import parse_scalar, qnum
from starcomp.canon import are_isomorphic
from starcomp.catalog import catalog_entry, petersen
from starcomp.cli import main
from starcomp.engine import (enumerate_candidates, make_context,
                             search_star_sets, verify_star_pair)
from starcomp.errors import DivisibilityViolation
from starcomp.graphs import (SrgParams, graph6_decode, induced_subgraph,
                             srg_check)
from starcomp.kts import build_Gr, gr_params, make_kts, rho_value
from starcomp.linalg import char_polynomial, integer_roots

GOLDEN = parse_scalar("root(-1,1):pos")


def integer_spectrum(sol):
    """{root: multiplicity}, asserting the spectrum is fully integral."""
    G = sol.graph
    roots, _ = integer_roots(char_polynomial(G.matrix()), max(G.degrees()))
    assert sum(roots.values()) == sol.order
    return roots


def analyze_text(t, s, mu):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(["analyze", str(t), str(s), mu])
    return buf.getvalue()


def reconstruction_holds(g, xs, mu):
    """Entrywise mval*(mu I - A_X) == B^T N B, recomputed from scratch."""
    xset = set(xs)
    comp = [v for v in range(g.n) if v not in xset]
    A = g.matrix()
    C = [[A[u][v] for v in comp] for u in comp]
    N, mval = qnum_resolvent(C, mu)
    for i, xi in enumerate(xs):
        for j, xj in enumerate(xs):
            lhs = mval * ((mu if i == j else qnum(0)) - A[xi][xj])
            rhs = qnum(0)
            for ki, u in enumerate(comp):
                if A[u][xi]:
                    row = N[ki]
                    for li, w in enumerate(comp):
                        if A[w][xj]:
                            rhs = rhs + row[li]
            if lhs != rhs:
                return False
    return True


# -------------------------------------------------------------- criteria

def test_c01_k33_mu1_sweep_three_graphs(k33_sweep):
    assert len(k33_sweep) == 3
    expected = [
        (9, 4, {-3: 1, -2: 2, 0: 2, 1: 3, 4: 1}),
        (12, 5, {-3: 3, -1: 2, 1: 6, 5: 1}),
        (15, 6, {-3: 5, 1: 9, 6: 1}),
    ]
    got = [(sol.order, sol.cert.regular_degree, integer_spectrum(sol))
           for sol in k33_sweep]
    assert got == expected
    for sol in k33_sweep:
        assert sol.cert.passed


def test_c02_srg_status_and_gap(k33_sweep):
    # each find's gap, from its own |X| and degree, is zero exactly where
    # the find is strongly regular
    got = {sol.order: (srg_check(sol.graph),
                       srg_gap(len(sol.x_vertices), 3, 3, sol.cert.regular_degree, 1))
           for sol in k33_sweep}
    assert got == {9: (None, qnum(Fraction(36, 5))), 12: (None, qnum(Fraction(24, 5))),
                   15: (SrgParams(15, 6, 1, 3), qnum(0))}


def test_c03_k66_membership(k66_r8, k66_r10):
    g4 = graph6_decode(catalog_entry("G4")["graph6"])
    g5 = graph6_decode(catalog_entry("G5")["graph6"])
    hits8 = [sol for sol in k66_r8 if are_isomorphic(sol.graph, g4)]
    assert hits8, "no r=8 result isomorphic to the pinned order-15 graph"
    assert integer_spectrum(hits8[0]) == {-6: 1, -2: 3, 0: 8, 2: 2, 8: 1}
    hits10 = [sol for sol in k66_r10 if are_isomorphic(sol.graph, g5)]
    assert hits10, "no r=10 result isomorphic to the pinned order-18 graph"
    assert integer_spectrum(hits10[0]) == {-6: 1, -2: 6, 0: 6, 1: 2, 3: 2, 10: 1}


def test_c04_negative_mu_emptiness():
    # mu = -t is an eigenvalue of K_{t,s} exactly when s = t, so the
    # diagonal is excluded; nine (t, s) pairs remain, all empty.
    pairs = [(t, s) for t in (1, 2, 3) for s in range(t, 6) if s > t]
    assert len(pairs) == 9
    for t, s in pairs:
        ctx = make_context(make_kts(t, s), qnum(-t), bipartite_tag=(t, s))
        cap = 8 if ctx.mu_special else None
        sols = search_star_sets(ctx, require_regular="sweep", max_x=cap)
        assert sols == [], f"unexpected solution over K_{{{t},{s}}} at mu={-t}"


def test_c05_mu_minus_one_family_builder():
    for t, s, r in ((2, 3, 4), (3, 3, 7), (2, 2, 5)):
        p = gr_params(t, s, r)
        sol = build_Gr(t, s, r)
        assert sol.cert.regular_degree == r
        cert = verify_star_pair(sol.graph, list(sol.x_vertices), qnum(-1))
        assert cert.passed
        assert cert.multiplicity == t * p.vi_size + s * p.wi_size
    with pytest.raises(DivisibilityViolation):
        build_Gr(3, 4, 5)


def test_c06_k15_mu1_unique_srg(k15_sweep):
    assert len(k15_sweep) == 1
    sol = k15_sweep[0]
    assert sol.order == 16
    assert sol.cert.regular_degree == 5
    assert srg_check(sol.graph) == SrgParams(16, 5, 0, 2)


def test_c07_quadratic_field_and_k22():
    ctx = make_context(make_kts(1, 2), GOLDEN, bipartite_tag=(1, 2))
    sols = search_star_sets(ctx, require_regular="sweep")
    c5 = graph6_decode(catalog_entry("C5")["graph6"])
    assert len(sols) == 1 and sols[0].order == 5
    assert are_isomorphic(sols[0].graph, c5)

    ctx = make_context(make_kts(1, 2), qnum(-2), bipartite_tag=(1, 2))
    sols = search_star_sets(ctx, require_regular="sweep")
    assert len(sols) == 1
    assert are_isomorphic(sols[0].graph, make_kts(2, 2))


def test_c08_kss_size_bound(k33_sweep, k66_r8, k66_r10):
    # |X| <= s(r - s) over K_{s,s} whenever mu is outside {-1, 0}
    for sol in k33_sweep:
        r = sol.cert.regular_degree
        assert len(sol.x_vertices) == 3 * (r - 3)  # equality, all three
    for sol in k66_r8 + k66_r10:
        r = sol.cert.regular_degree
        assert len(sol.x_vertices) < 6 * (r - 6)  # strict, no other equality


def test_c09_reconstruction_identity(k33_sweep, k15_sweep, k66_r8, k66_r10):
    emitted = [(sol, qnum(1)) for sol in k33_sweep + k15_sweep]
    emitted += [(sol, qnum(-2)) for sol in k66_r8 + k66_r10]
    emitted += [(build_Gr(t, s, r), qnum(-1))
                for t, s, r in ((2, 3, 4), (3, 3, 7), (2, 2, 5))]
    ctx = make_context(make_kts(1, 2), GOLDEN, bipartite_tag=(1, 2))
    emitted += [(sol, GOLDEN)
                for sol in search_star_sets(ctx, require_regular="sweep")]
    ctx = make_context(make_kts(1, 2), qnum(-2), bipartite_tag=(1, 2))
    emitted += [(sol, qnum(-2))
                for sol in search_star_sets(ctx, require_regular="sweep")]
    assert len(emitted) >= 10
    for sol, mu in emitted:
        assert sol.cert.reconstruction_ok
        assert reconstruction_holds(sol.graph, list(sol.x_vertices), mu)


def test_c10_pair_table_reproduction():
    # clause 1: mu = -1 rows; symbolically rho is s/s+1, t/t+1 on the
    # diagonal pairs and 2 for the adjacent mixed pair
    for t, s in ((2, 3), (2, 5), (3, 4), (4, 7)):
        one_s, t_one = (1, s), (t, 1)
        assert rho_value(t, s, -1, one_s, one_s, False) == s
        assert rho_value(t, s, -1, one_s, one_s, True) == s + 1
        assert rho_value(t, s, -1, t_one, t_one, False) == t
        assert rho_value(t, s, -1, t_one, t_one, True) == t + 1
        assert rho_value(t, s, -1, one_s, t_one, True) == 2
    out = analyze_text(2, 3, "-1")
    assert "(1,3) (1,3) nonadjacent rho=3" in out
    assert "(1,3) (1,3) adjacent rho=4" in out
    assert "(2,1) (2,1) nonadjacent rho=2" in out
    assert "(2,1) (2,1) adjacent rho=3" in out
    assert "(1,3) (2,1) adjacent rho=2 bounds=[2,2] feasible" in out

    # clause 2: t=3 parametric type rows, third row infeasible
    out = analyze_text(3, 18, "2")
    assert "a=0 b=10 s=18 feasible" in out
    assert "a=1 b=6 s=18 feasible" in out
    assert "a=2 b=9/2 s=61/2 infeasible" in out

    # clause 3: the t=3, s=18, mu=2 pair rows
    assert "(0,10) (1,6) nonadjacent rho=4" in out
    assert "(0,10) (1,6) adjacent rho=2" in out
    expected_rows = [
        "(0,10) (0,10) nonadjacent rho=2",
        "(0,10) (0,10) adjacent rho=0",
        "(1,6) (1,6) nonadjacent rho=-11/5",
        "(1,6) (1,6) adjacent rho=-21/5",
    ]
    missing = [row for row in expected_rows if row not in out]
    if missing:
        pytest.fail(
            "deliberate failure, kept red on purpose: the reference pair\n"
            "table for t=3, s=18, mu=2 cannot be reproduced because four of\n"
            "its rows do not satisfy the defining pair relation\n"
            "    (mu^2 - ts) rho + a*c*s + b*d*t + mu*(a*d + b*c)\n"
            "        = -mu (mu^2 - ts) a_uv\n"
            "with mu^2 - ts = -50 and -mu(mu^2 - ts) = 100:\n"
            "  (0,10)/(0,10): -50 rho + 300 = 100 a_uv gives rho = 6 and 4,\n"
            "      not the expected 2 and 0 (rho = 0 is also outside the\n"
            "      combinatorial range [2,10]: two 10-subsets of an 18-set\n"
            "      share at least 2 elements);\n"
            "  (1,6)/(1,6):  -50 rho + 150 = 100 a_uv gives rho = 3 and 1,\n"
            "      both inside [0,7], not the expected -11/5 and -21/5.\n"
            "Direct substitution of concrete 0/1 vectors into the scaled\n"
            "resolvent pairing b_u^T N b_v confirms 6/4 and 3/1, so the\n"
            "engine does not emit the expected rows.  Missing rows: "
            f"{missing}.  See the build decision log."
        )


def test_c11_candidate_oracle_equivalence():
    cases = [(1, 2, GOLDEN), (1, 5, qnum(1)), (2, 2, qnum(-1)),
             (2, 3, qnum(-1)), (2, 3, qnum(-3)), (3, 3, qnum(1)),
             (3, 3, qnum(-2)), (2, 5, qnum(1)), (3, 4, qnum(-3)),
             (6, 6, qnum(-2))]
    for t, s, mu in cases:
        q = t + s
        tagged = make_context(make_kts(t, s), mu, bipartite_tag=(t, s))
        closed = {indicator(m, q) for m in enumerate_candidates(tagged)}
        N, mval = qnum_resolvent(make_kts(t, s).matrix(), qnum(mu))
        target_self = mval * qnum(mu)
        target_ones = -mval
        brute = set()
        for mask in range(1, 1 << q):
            on = [i for i in range(q) if mask >> i & 1]
            if sum((x for i in on for x in N[i]), qnum(0)) != target_ones:
                continue
            acc = qnum(0)
            for i in on:
                row = N[i]
                for j in on:
                    acc = acc + row[j]
            if acc == target_self:
                brute.add(tuple(mask >> i & 1 for i in range(q)))
        assert closed == brute, f"candidate mismatch for K_{{{t},{s}}}, mu={mu}"


def test_c12_petersen_generic_path():
    g = petersen()
    inner = [5, 6, 7, 8, 9]
    # the complement is a 5-cycle, not complete bipartite: generic route
    c5 = graph6_decode(catalog_entry("C5")["graph6"])
    assert are_isomorphic(induced_subgraph(g, range(5)), c5)
    cert = verify_star_pair(g, inner, qnum(1))
    assert cert.passed
    assert cert.multiplicity == 5
