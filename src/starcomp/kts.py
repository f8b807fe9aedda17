"""Closed-form theory for complete bipartite star complements K_{t,s}.

Everything here is ring arithmetic on the two defining relations for a vertex
of type (a,b) (a neighbours in the t-part, b in the s-part):

    self-pairing   (mu^2-ts)(a+b) + a^2 s + t b^2 + 2ab mu = mu^2 (mu^2-ts)
    non-main       mu^2 (a+b) + mu (as+tb) = -mu (mu^2-ts)

and the pair relation for types (a,b), (c,d) with rho common H-neighbours:

    (mu^2-ts) rho + acs + bdt + mu(ad+bc) = -mu (mu^2-ts) a_uv.

The types of one concrete K_{t,s} come from the engine's integer kernel
(engine.vertex_types).  This module keeps the closed forms that `starcomp
analyze`, scripts/pair_tables.py and the catalogue run: the s-free types,
the rho tables and the mu = -1 construction G(r).  The paper's other
closed forms (the all-type-(0,b) family, the strong-regularity gap, and
the K_{s,s} type roots and bound s(r-s)) have no caller here; the tests
hold them as oracles the search must agree with.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple, Optional

from .algebra import QNum, qnum
from .engine import _assemble, make_context, solution_from_assembled
from .errors import DivisibilityViolation, HypothesisViolated, InternalInconsistency
from .graphs import make_kts


class ParamRow(NamedTuple):
    a: int
    b: QNum
    s: QNum
    feasible: bool
    reason: str = ""


def solve_types_parametric(t: int, mu) -> list[ParamRow]:
    """Rows (a, b, s) for 0 <= a <= t-1, a != -mu, from eliminating b and s.

    b = (mu^3 + t mu^2 - ta + a^2)/(mu + a) and s is the matching rational
    function; rows whose b or s is not an admissible integer are kept but
    flagged infeasible, so callers can display the ruled-out branches too.
    """
    mu = qnum(mu)
    rows = []
    for a in range(t):
        if mu + a == 0:
            continue
        b = (mu ** 3 + t * mu * mu - t * a + a * a) / (mu + a)
        s_num = (mu ** 4 + (2 * t + 1) * mu ** 3 + (2 * a + t * t) * mu * mu
                 + (2 * a * a - a * t) * mu + qnum(a * a * t - a * t * t))
        s_den = (t - a) * mu + qnum(a * t - a * a)
        s = s_num / s_den
        reason = ""
        if not (b.is_integer and b.as_fraction() >= 0):
            reason = "b is not a nonnegative integer"
        elif a == 0 and b == 0:
            reason = "type (0,0) is empty"
        elif not (s.is_integer and s.as_fraction() >= max(t, 1)):
            reason = "s is not an integer with s >= t"
        elif b > s:
            reason = "b exceeds s"
        rows.append(ParamRow(a=a, b=b, s=s, feasible=(reason == ""), reason=reason))
    return rows


def rho_value(t: int, s: int, mu, u, v, adjacent: bool) -> QNum:
    """The exact rho solving the pair relation (not necessarily an integer)."""
    mu = qnum(mu)
    a, b = u
    c, d = v
    coeff = mu * mu - t * s
    if not coeff:
        raise HypothesisViolated("mu^2 = ts: mu is an eigenvalue of K_{t,s}")
    rhs = -mu * coeff * (1 if adjacent else 0)
    return (rhs - (qnum(a * c * s) + b * d * t + mu * (a * d + b * c))) / coeff


def rho_bounds(t: int, s: int, u, v) -> tuple[int, int]:
    """Combinatorial range for |N_H(u) cap N_H(v)| given the two types."""
    a, b = u
    c, d = v
    lo = max(0, a + c - t) + max(0, b + d - s)
    hi = min(a, c) + min(b, d)
    return lo, hi


def rho_of_pair(t: int, s: int, u, v, rho: QNum) -> Optional[int]:
    """rho (a rho_value of the pair) as an int when it is an integer in the
    combinatorial range; None when the pair is infeasible."""
    if not rho.is_integer:
        return None
    lo, hi = rho_bounds(t, s, u, v)
    return rho.as_int() if lo <= rho.as_int() <= hi else None


# -- the mu = -1 construction ----------------------------------------------

class GrParams(NamedTuple):
    t: int
    s: int
    r: int
    vi_size: int
    wi_size: int


def gr_params(t: int, s: int, r: int) -> GrParams:
    if not (2 <= t <= s):
        raise HypothesisViolated(f"construction needs s >= t >= 2, got ({t},{s})")
    vi = Fraction((r + 1) * (s - 1), t * s - 1) - 1
    wi = Fraction((r + 1) * (t - 1), t * s - 1) - 1
    for name, val in (("|V_i|", vi), ("|W_i|", wi)):
        if val.denominator != 1 or val < 0:
            raise DivisibilityViolation(
                f"{name} = {val} is not a nonnegative integer at r={r}"
                f" (r must be -1 mod {(t * s - 1) // gcd(s - 1, t - 1)})")
    if not (vi or wi):
        raise HypothesisViolated(f"|V_i| = |W_i| = 0 at r = t = s = {r}: the star set is empty")
    return GrParams(t, s, r, int(vi), int(wi))


def build_Gr(t: int, s: int, r: int):
    """The r-regular graph with K_{t,s} star complement for -1: cliques V_i of
    type-(1,s) vertices on each v_i, cliques W_j of type-(t,1) vertices on
    each w_j, and all V_i x W_j edges, laid out by engine._assemble.  Returns
    a certified StarSolution; InternalInconsistency if the certificate fails
    or the built graph is not r-regular."""
    p = gr_params(t, s, r)
    ctx = make_context(make_kts(t, s), qnum(-1), bipartite_tag=(t, s))
    T, S = (1 << t) - 1, ((1 << s) - 1) << t
    # X: V_1..V_t (v_i plus the s-part), then W_1..W_s (w_j plus the t-part)
    chosen = ([1 << i | S for i in range(t) for _ in range(p.vi_size)]
              + [1 << t + j | T for j in range(s) for _ in range(p.wi_size)])
    k = t * p.vi_size
    # X-row x: one clique per block (equal masks), and every V x W pair
    xadj = [sum(1 << y for y, b in enumerate(chosen) if y != x and (a == b or (x < k) != (y < k)))
            for x, a in enumerate(chosen)]
    sol = solution_from_assembled(ctx, _assemble(ctx, chosen, xadj))
    if sol.cert.regular_degree != r:
        raise InternalInconsistency(f"G({t},{s},{r}) is not {r}-regular")
    return sol
