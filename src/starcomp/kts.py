"""Closed-form theory for complete bipartite star complements K_{t,s}.

Everything here is ring arithmetic on the two defining relations for a vertex
of type (a,b) (a neighbours in the t-part, b in the s-part):

    self-pairing   (mu^2-ts)(a+b) + a^2 s + t b^2 + 2ab mu = mu^2 (mu^2-ts)
    non-main       mu^2 (a+b) + mu (as+tb) = -mu (mu^2-ts)

and the pair relation for types (a,b), (c,d) with rho common H-neighbours:

    (mu^2-ts) rho + acs + bdt + mu(ad+bc) = -mu (mu^2-ts) a_uv.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple, Optional

from .algebra import QNum, qnum
from .engine import VertexType, make_context, solution_from_assembled
from .errors import (DivisibilityViolation, HypothesisViolated, InternalInconsistency,
                     MuIsEigenvalue)
from .graphs import Graph, SrgParams, make_kts


def self_pairing_holds(t: int, s: int, mu, a: int, b: int) -> bool:
    mu = qnum(mu)
    lhs = (mu * mu - t * s) * (a + b) + a * a * s + t * b * b + 2 * a * b * mu
    return lhs == mu * mu * (mu * mu - t * s)


def non_main_holds(t: int, s: int, mu, a: int, b: int) -> bool:
    mu = qnum(mu)
    lhs = mu * mu * (a + b) + mu * (qnum(a * s) + t * b)
    return lhs == -mu * (mu * mu - t * s)


def solve_types_fixed(t: int, s: int, mu, non_main: bool = True) -> list[VertexType]:
    """All integer types (a,b) satisfying the self-pairing relation and, when
    non_main is set, the non-main relation too.  The relations rest on the
    minimal polynomial x^3 - ts x: raises HypothesisViolated for t + s < 3
    and MuIsEigenvalue when mu (mu^2 - ts) = 0, so (0,0) never passes."""
    mu = qnum(mu)
    if t + s < 3:
        raise HypothesisViolated(f"the type equations need t + s >= 3, got ({t},{s})")
    if not mu * (mu * mu - t * s):
        raise MuIsEigenvalue(f"mu={mu} is an eigenvalue of K_{{{t},{s}}}")
    out = []
    for a in range(t + 1):
        for b in range(s + 1):
            if not self_pairing_holds(t, s, mu, a, b):
                continue
            if non_main and not non_main_holds(t, s, mu, a, b):
                continue
            out.append(VertexType(a, b))
    return out


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


def rho_of_pair(t: int, s: int, mu, u, v, adjacent: bool) -> Optional[int]:
    """Integer rho in the combinatorial range, or None when the pair is
    infeasible for the given adjacency."""
    val = rho_value(t, s, mu, u, v, adjacent)
    if not val.is_integer:
        return None
    rho = val.as_int()
    lo, hi = rho_bounds(t, s, u, v)
    return rho if lo <= rho <= hi else None


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
    return GrParams(t, s, r, int(vi), int(wi))


def build_Gr(t: int, s: int, r: int):
    """The r-regular graph with K_{t,s} star complement for -1: cliques V_i of
    type-(1,s) vertices on each v_i, cliques W_j of type-(t,1) vertices on
    each w_j, and all V_i x W_j edges.  Returns a certified StarSolution
    and raises InternalInconsistency when the certificate fails."""
    p = gr_params(t, s, r)
    n = t + s + t * p.vi_size + s * p.wi_size
    edges = [(i, t + j) for i in range(t) for j in range(s)]
    v_blocks = []
    pos = t + s
    for i in range(t):
        block = list(range(pos, pos + p.vi_size))
        pos += p.vi_size
        v_blocks.append(block)
        for x, u in enumerate(block):
            edges.append((i, u))
            edges.extend((u, t + j) for j in range(s))
            edges.extend((u, w) for w in block[x + 1:])
    w_blocks = []
    for j in range(s):
        block = list(range(pos, pos + p.wi_size))
        pos += p.wi_size
        w_blocks.append(block)
        for x, u in enumerate(block):
            edges.append((t + j, u))
            edges.extend((u, i) for i in range(t))
            edges.extend((u, w) for w in block[x + 1:])
    for vb in v_blocks:
        for wb in w_blocks:
            edges.extend((u, w) for u in vb for w in wb)
    g = Graph.from_edges(n, edges)
    # degree equations are definitive: r = s + |V_1| + s|W_1| = t + t|V_1| + |W_1|
    if not (s + p.vi_size + s * p.wi_size == r and t + t * p.vi_size + p.wi_size == r):
        raise InternalInconsistency(f"G({t},{s},{r}) fails its degree equations")
    ctx = make_context(make_kts(t, s), qnum(-1), bipartite_tag=(t, s))
    return solution_from_assembled(ctx, g)


# -- type-(0,b) family, gap and K_{s,s} reports ------------------------------

class FamilyReport(NamedTuple):
    t: int
    mu: QNum
    b: QNum
    s: QNum
    r: QNum
    order: QNum
    x_size: QNum
    srg: Optional[SrgParams]
    status: str  # "ok" | "infeasible" | "prior-work"
    note: str = ""


def family_type0b(t: int, mu) -> FamilyReport:
    """Parameters of the all-type-(0,b) family: b = mu^2 + t mu, r = s =
    mu(mu^2 + 2t mu + mu + t^2)/t, with the SRG parameters filled for t = 1."""
    mu = qnum(mu)
    b = mu * mu + t * mu
    s = mu * (mu * mu + 2 * t * mu + mu + t * t) / t
    r = s
    order = mu * (mu + 2 * t + 1) * (mu * mu + 2 * t * mu + mu + t * t - t) / (t * t)
    x_size = (s * (r - t) / (b)) if b else qnum(0)
    ints = all(v.is_integer and v.as_fraction() > 0 for v in (b, s, order, x_size))
    if not ints:
        status, note = "infeasible", "family parameters are not all positive integers"
    elif t == 2 and mu == 1:
        status = "prior-work"
        note = "t=2, mu=1 is settled elsewhere (Sch_10 and its induced regular subgraphs); values are a cross-check only"
    else:
        status, note = "ok", ""
    srg = None
    if t == 1 and status == "ok" and mu.is_integer and mu.as_fraction() > 0:
        m = mu.as_int()
        srg = SrgParams((m * m + 3 * m) ** 2, m * (m * m + 3 * m + 1), 0, m * (m + 1))
    return FamilyReport(t=t, mu=mu, b=b, s=s, r=r, order=order,
                        x_size=x_size, srg=srg, status=status, note=note)


def srg_gap(k: int, t: int, s: int, r: int, mu) -> QNum:
    """(k+t+s)r - r^2 - k mu^2 - (k mu + r)^2/(s+t-1); zero exactly when the
    order-(k+t+s) r-regular graph with eigenvalue mu of multiplicity k is
    strongly regular.  Requires k+t+s-1 > r."""
    if not k + t + s - 1 > r:
        raise HypothesisViolated(f"need k+t+s-1 > r, got {k}+{t}+{s}-1 <= {r}")
    mu = qnum(mu)
    km = k * mu + r
    return qnum((k + t + s) * r - r * r) - k * mu * mu - km * km / (s + t - 1)


class KssReport(NamedTuple):
    s: int
    mu: QNum
    discriminant: QNum
    roots: Optional[tuple[int, int]]
    mu_integral: bool
    bound: Optional[int]


def kss_analysis(s: int, mu, r: Optional[int] = None) -> KssReport:
    """K_{s,s} feasibility report: the two type roots when they exist, the
    integrality condition on mu, and the multiplicity bound s(r-s)."""
    mu = qnum(mu)
    disc = -(s + mu) * (2 * mu * mu + mu - s)
    roots = None
    if disc.is_rational and disc.as_fraction() >= 0:
        f = disc.as_fraction()
        root = QNum.sqrt(f.numerator * f.denominator) / f.denominator
        if root.is_rational:
            x1 = (s - mu + root) / 2
            x2 = (s - mu - root) / 2
            if x1.is_integer and x2.is_integer and x2.as_fraction() >= 0:
                roots = (x1.as_int(), x2.as_int())
    mu_integral = bool(mu.is_integer and abs(mu.as_fraction()) < s)
    bound = s * (r - s) if r is not None else None
    return KssReport(s=s, mu=mu, discriminant=disc, roots=roots,
                     mu_integral=mu_integral, bound=bound)
