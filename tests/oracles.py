"""Reference implementations the tests compare the package against.

They are the exact-field routes the package used before its certificate,
context checks and scaled resolvent moved to integer matrices: Gaussian
elimination over QNum, the resolvent coefficients by Horner's rule in
QNum, split into integer parts over one common denominator, and a
combination of integer matrices with QNum scalars tested for zero that
way; the scaled resolvent N summed in QNum, its pairing x^T N y, and the
reconstruction product B^T N B; the characteristic
polynomial by Berkowitz's division-free algorithm, and by interpolation
through n + 1 determinants, each by elimination over Q; the minimal
polynomial by elimination over Q on the powers of the matrix; the
untagged candidate scan as a Gray-code walk over a list; the pair-label
tables as one column-and-sum per pair; polynomial evaluation by
Horner's rule and division over Q, with a pointwise check of a
factorisation into integer roots and their cofactor; and isomorphism
dedupe by canonical bytes up to the canonical cap, pairwise tests against
every representative above it; and the vertex types of K_{t,s} in closed
form, from the self-pairing and non-main relations in QNum.  Polynomials
are tuples of integer coefficients, lowest degree first.  They are slow
and simple on purpose; nothing in the package calls them.

Also here, as the package has no caller for them:

  * indicator and type_of: a candidate bitmask as its 0/1 vector and as
    its vertex type on K_{t,s}, the two halves of the order the engine
    sorts candidates by;
  * classify_pair (with Compat and DuplicateNeighbourhood): the label of
    one pair of candidates, read from the engine's pair-label tables;
  * the paper's closed forms for K_{t,s}, which the search is checked
    against: the all-type-(0,b) family (family_type0b, FamilyReport), the
    strong-regularity gap (srg_gap), and the K_{s,s} type roots and
    multiplicity bound s(r-s) (kss_analysis, KssReport);
  * small graphs only the tests build: complete, disjoint_union,
    complement and edge_count.
"""

import enum
from fractions import Fraction
from math import isqrt, lcm
from operator import mul
from typing import NamedTuple, Optional

from starcomp import engine
from starcomp.algebra import QNum, qnum
from starcomp.canon import CANONICAL_CAP, are_isomorphic, canonical
from starcomp.engine import VertexType
from starcomp.errors import HypothesisViolated, MuIsEigenvalue, StarCompError
from starcomp.graphs import Graph, SrgParams, graph6_encode, induced_subgraph
from starcomp.linalg import mat_mul, minimal_polynomial_powers, weighted_sum


def det_over_q(M):
    """Determinant of a square integer matrix by Gaussian elimination over
    Q: the product of the pivots, negated once per row swap."""
    rows = [[Fraction(x) for x in row] for row in M]
    n = len(rows)
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col]), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        pr = rows[col]
        det *= pr[col]
        for i in range(col + 1, n):
            f = rows[i][col] / pr[col]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], pr)]
    assert det.denominator == 1, det
    return det.numerator


def horner(p, x):
    """p(x) for ascending coefficients p; x may be an int, Fraction or QNum."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def divmod_exact(p, d):
    """Quotient and remainder of p by d over Q, as Fraction lists; both are
    ascending coefficient sequences, and d has no trailing zero."""
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in p]
    den = Fraction(d[-1])
    dq = len(rem) - len(d)
    quo = [Fraction(0)] * (dq + 1) if dq >= 0 else []
    for i in range(dq, -1, -1):
        f = rem[i + len(d) - 1] / den
        quo[i] = f
        if f:
            for j, c in enumerate(d):
                rem[i + j] -= f * c
    while rem and rem[-1] == 0:
        rem.pop()
    return quo, rem


def divides(d, p):
    """True when d divides p exactly over Q (ascending coefficients, no
    trailing zeros)."""
    if not d:
        return not p
    return not divmod_exact(p, d)[1]


def assert_deflation(p, roots, cofactor):
    """The cofactor of a non-zero p has no integer root (each would divide
    its constant term), and cofactor(x) prod (x - r)^m equals p(x) at
    deg p + 1 integer points, so as polynomials."""
    c0 = abs(cofactor[0])
    assert c0, "x divides the cofactor"
    for d in range(1, isqrt(c0) + 1):
        if c0 % d == 0:
            for r in (d, -d, c0 // d, -(c0 // d)):
                assert horner(cofactor, r) != 0, r
    for x in range(len(p)):
        prod = horner(cofactor, x)
        for r, m in roots.items():
            prod *= (x - r) ** m
        assert prod == horner(p, x), x


def berkowitz_char_polynomial(A):
    """det(xI - A) by Berkowitz's division-free algorithm (Inf. Process.
    Lett. 18, 1984): with A_r the leading r x r block, R = A[r][:r] and
    S = A[:r][r], det(xI - A_{r+1}) is the product of the lower-triangular
    Toeplitz matrix with first column 1, -a_rr, -R S, -R A_r S, ...,
    -R A_r^(r-1) S and the coefficients of det(xI - A_r), in integer
    additions and multiplications only."""
    poly = [1]  # det(xI - A_r), highest power first
    for r, row in enumerate(A):
        R = row[:r]
        block = [A[i][:r] for i in range(r)]
        v = [A[i][r] for i in range(r)]
        col = [1, -row[r]]
        for k in range(r):
            if k:
                v = [sum(map(mul, b, v)) for b in block]
            col.append(-sum(map(mul, R, v)))
        poly = [sum(map(mul, col[i::-1], poly)) for i in range(r + 2)]
    return tuple(reversed(poly))


def interpolated_char_polynomial(A):
    """det(xI - A) sampled at x = 0..n with integer determinants, then
    interpolated by Newton's divided differences in Fraction."""
    n = len(A)
    coef = [Fraction(det_over_q([[(x if i == j else 0) - A[i][j] for j in range(n)]
                                 for i in range(n)]))
            for x in range(n + 1)]
    for j in range(1, n + 1):
        for i in range(n, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / j
    # expand the Newton form back to the power basis
    poly = [Fraction(0)] * (n + 1)
    poly[0] = coef[n]
    for k in range(n - 1, -1, -1):
        # poly <- poly * (x - k) + coef[k]
        for i in range(n, 0, -1):
            poly[i] = poly[i - 1] - k * poly[i]
        poly[0] = coef[k] - k * poly[0]
    assert all(f.denominator == 1 for f in poly), poly
    return tuple(f.numerator for f in poly)


def field_rank(M):
    """Rank of a matrix with QNum / Fraction / int entries by Gaussian
    elimination over the field."""
    rows = [[qnum(x) for x in row] for row in M]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        inv = qnum(1) / pr[col]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] * inv
            if f:
                ri = rows[i]
                for j in range(col, ncols):
                    ri[j] = ri[j] - f * pr[j]
        rank += 1
        col += 1
    return rank


def minimal_polynomial_over_q(A):
    """Monic minimal polynomial of an integer matrix: the least k with A^k
    dependent on the lower powers, by Gaussian elimination over Q on the
    flattened powers I, A, A^2, ..."""
    n = len(A)
    if n == 0:
        return (1,)
    dim = n * n
    basis = []  # (reduced vec, combo)
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    k = 0
    while True:
        vec = [Fraction(x) for row in power for x in row]
        combo = [Fraction(0)] * (k + 1)
        combo[k] = Fraction(1)
        for red, rcombo in basis:
            piv = next(i for i, x in enumerate(red) if x)
            if vec[piv]:
                f = vec[piv] / red[piv]
                for i in range(dim):
                    vec[i] -= f * red[i]
                for i, c in enumerate(rcombo):
                    combo[i] -= f * c
        if all(x == 0 for x in vec):
            lead = combo[k]
            cs = [c / lead for c in combo]
            assert all(c.denominator == 1 for c in cs), cs
            return tuple(c.numerator for c in cs)
        basis.append((vec, combo))
        power = mat_mul(power, A)
        k += 1


def resolvent_coefficients(m, mu):
    """The coefficients a_0..a_{d-1} of q, where m(x) - m(mu) = (x - mu) q(x),
    and mval = m(mu), by Horner's rule in QNum.  Raises MuIsEigenvalue
    when m(mu) = 0."""
    d = len(m) - 1
    a = [qnum(0)] * d
    acc = qnum(1)
    for j in range(d - 1, -1, -1):
        a[j] = acc
        acc = mu * acc + m[j]
    if not acc:
        raise MuIsEigenvalue(f"mu = {mu} is an eigenvalue of the complement")
    return a, acc


def scaled_parts(coeffs):
    """The least common denominator D of the scalars, and each D*c split
    as p + r sqrt(d): D, the list of p and the list of r."""
    coeffs = [qnum(c) for c in coeffs]
    D = lcm(*(f.denominator for c in coeffs for f in (c.a, c.b)))
    return (D, [(c.a * D).numerator for c in coeffs],
            [(c.b * D).numerator for c in coeffs])


def combination_vanishes(coeffs, mats):
    """Whether sum_j c_j M_j is the zero matrix, for QNum scalars c_j of one
    field and integer matrices M_j of one shape: over one common
    denominator both integer parts vanish, as sqrt(d) is irrational."""
    _, ps, rs = scaled_parts(coeffs)
    return not any(weighted_sum(ps, mats)) and not any(weighted_sum(rs, mats))


def qnum_resolvent(C, mu):
    """N = sum_j a_j C^j and mval = m(mu), accumulated entry by entry in QNum."""
    a, mval = resolvent_coefficients(minimal_polynomial_powers(C)[0], mu)
    n = len(C)
    N = [[qnum(0)] * n for _ in range(n)]
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    for j in range(len(a)):
        for i in range(n):
            for c in range(n):
                N[i][c] = N[i][c] + a[j] * power[i][c]
        power = mat_mul(power, C)
    return N, mval


def pairing(N, x, y):
    """Scaled pairing x^T N y in QNum; the reference values are mval*mu
    (self), -mval (adjacent pair) and 0 (non-adjacent pair)."""
    acc = qnum(0)
    for i, xi in enumerate(x):
        if xi:
            row = N[i]
            for j, yj in enumerate(y):
                if yj:
                    acc = acc + row[j] * (xi * yj)
    return acc


def qnum_certificate(G, X, mu):
    """(mu not in G - X, multiplicity of mu in G, reconstruction identity),
    the three certificate checks in QNum arithmetic."""
    mu = qnum(mu)
    X = list(X)
    rest = [v for v in range(G.n) if v not in set(X)]
    C = induced_subgraph(G, rest).matrix()
    mu_ok = horner(berkowitz_char_polynomial(C), mu) != 0
    A = G.matrix()
    mult = G.n - field_rank([[mu * (i == j) - A[i][j] for j in range(G.n)]
                             for i in range(G.n)])
    recon = False
    if mu_ok:
        N, mval = qnum_resolvent(C, mu)
        B = [[A[h][x] for x in X] for h in rest]
        Bt = [[A[x][h] for h in rest] for x in X]
        BtNB = mat_mul(Bt, mat_mul(N, B)) if rest else [[qnum(0)] * len(X) for _ in X]
        recon = all(mval * (mu * (i == j) - A[x][y]) == BtNB[i][j]
                    for i, x in enumerate(X) for j, y in enumerate(X))
    return mu_ok, mult, recon


def label_tables(ctx, cands):
    """(adj_mask, compat_mask) as the engine built them before packing:
    for each candidate i the column D N b_i, summed over the support of
    every j >= i and compared with 0 and the adjacent target."""
    N, adjacent = ctx.kernel.N, ctx.kernel.adjacent
    supports = [[v for v, b in enumerate(indicator(m, len(N))) if b] for m in cands]
    k = len(cands)
    adj_mask, compat_mask = [0] * k, [0] * k
    for i in range(k):
        col = [sum(N[u][v] for u in supports[i]) for v in range(len(N))]
        for j in range(i, k):
            val = sum(col[v] for v in supports[j])
            if val == 0 or val == adjacent:
                compat_mask[i] |= 1 << j
                compat_mask[j] |= 1 << i
            if val == adjacent:
                adj_mask[i] |= 1 << j
                adj_mask[j] |= 1 << i
    return adj_mask, compat_mask


def gray_code_scan(ctx, non_main=True):
    """The masks the untagged candidate scan hits, in walk order, by the walk
    engine.enumerate_candidates used before packing: w = D N b held as a
    q-long list, rebuilt at each Gray-code step from the row N[i] of the
    flipped bit i."""
    N, kernel, q = ctx.kernel.N, ctx.kernel, ctx.q
    w = [0] * q
    mask = self_val = 0
    hits = []
    for step in range(1 << q):
        if step:
            i = (step & -step).bit_length() - 1
            mask ^= 1 << i
            row = N[i]
            if mask >> i & 1:
                self_val += row[i] + 2 * w[i]
                w = [x + y for x, y in zip(w, row)]
            else:
                self_val += row[i] - 2 * w[i]
                w = [x - y for x, y in zip(w, row)]
        if self_val == kernel.self_target and (
                not non_main
                or sum(kernel.ones[v] for v in range(q) if mask >> v & 1) == kernel.adjacent):
            hits.append(mask)
    return hits


def dedupe(found):
    """engine._dedupe as it was before colour-refinement buckets: the first
    find of each class, keyed by (n, canonical bytes) up to CANONICAL_CAP;
    above it, tested against every earlier representative and keyed by
    (n, its graph6)."""
    reps, seen_keys = [], set()
    for g in found:
        if g.n <= CANONICAL_CAP:
            key = (g.n, canonical(g).bytes)
            if key in seen_keys:
                continue
            seen_keys.add(key)
        else:
            if any(h.n == g.n and are_isomorphic(h, g) for h, _ in reps):
                continue
            key = (g.n, graph6_encode(g).encode())
        reps.append((g, key))
    reps.sort(key=lambda item: item[1])
    return reps


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


# -- candidates as 0/1 vectors ----------------------------------------------

def indicator(mask, q):
    """The 0/1 vector (b_0, ..., b_{q-1}) of a candidate bitmask: b_v = 1
    iff bit v is set."""
    return tuple(mask >> v & 1 for v in range(q))


def type_of(mask, t):
    """The vertex type (a, b) of a candidate bitmask on K_{t,s}: a
    neighbours among vertices 0..t-1, b among the vertices after."""
    return sum(mask >> v & 1 for v in range(t)), bin(mask >> t).count("1")


# -- the pair label of two candidates ---------------------------------------

class Compat(enum.Enum):
    """Forced relation between two prospective star-set vertices."""
    ADJACENT = "adjacent"
    NON_ADJACENT = "non-adjacent"
    INCOMPATIBLE = "incompatible"


class DuplicateNeighbourhood(StarCompError):
    """Two prospective star-set vertices share a neighbourhood where forbidden."""


def classify_pair(ctx, u, v) -> Compat:
    """Relation forced between two candidate bitmasks if both join the star set.

    Equal vectors are co-duplicates, legal only for mu in {-1, 0} (where the
    same arithmetic labels the pair); for any other mu they are rejected
    with DuplicateNeighbourhood.  The label is the one the search reads
    from engine._build_label_tables.
    """
    if u == v and not ctx.mu_special:
        raise DuplicateNeighbourhood("equal H-neighbourhoods require mu in {-1, 0}")
    (adj, _), (compat, _) = engine._build_label_tables(ctx, [u, v])
    if not compat >> 1 & 1:
        return Compat.INCOMPATIBLE
    return Compat.ADJACENT if adj >> 1 & 1 else Compat.NON_ADJACENT


# -- the paper's closed forms for K_{t,s} -----------------------------------

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


# -- small graphs only the tests build --------------------------------------

def complete(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def disjoint_union(a: Graph, b: Graph) -> Graph:
    return Graph(a.n + b.n, list(a.adj) + [r << a.n for r in b.adj])


def complement(g: Graph) -> Graph:
    mask = (1 << g.n) - 1
    return Graph(g.n, [~r & mask & ~(1 << v) for v, r in enumerate(g.adj)])


def edge_count(g: Graph) -> int:
    return sum(g.degrees()) // 2
