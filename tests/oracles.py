"""Reference implementations the tests compare the package against.

They are the exact-field routes the package used before its certificate,
context checks and scaled resolvent moved to integer matrices: Gaussian
elimination over QNum, the scaled resolvent N summed in QNum, its pairing
x^T N y, and the reconstruction product B^T N B; the characteristic
polynomial by interpolation through n + 1 determinants; the minimal
polynomial by elimination over Q on the powers of the matrix; the pair-label
tables as one column-and-sum per pair; polynomial evaluation by Horner's
rule and division over Q, with a pointwise check of a factorisation into
integer roots and their cofactor; and isomorphism dedupe by canonical bytes
up to the canonical cap, pairwise tests against every representative above
it; and the vertex types of K_{t,s} in closed form, from the self-pairing
and non-main relations in QNum.  Polynomials are tuples of integer
coefficients, lowest degree first.  They are slow and simple on purpose;
nothing in the package calls them.
"""

from fractions import Fraction
from math import isqrt

from starcomp.algebra import qnum
from starcomp.canon import CANONICAL_CAP, are_isomorphic, canonical
from starcomp.engine import VertexType
from starcomp.errors import HypothesisViolated, MuIsEigenvalue
from starcomp.graphs import graph6_encode, induced_subgraph
from starcomp.linalg import _eliminate, char_polynomial, mat_mul, minimal_polynomial


def det_bareiss(M):
    """Determinant of a square integer matrix, fraction-free."""
    n = len(M)
    rank, sign, last = _eliminate([row[:] for row in M], n)
    return sign * last if rank == n else 0


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


def interpolated_char_polynomial(A):
    """det(xI - A) sampled at x = 0..n with integer determinants, then
    interpolated by Newton's divided differences in Fraction."""
    n = len(A)
    coef = [Fraction(det_bareiss([[(x if i == j else 0) - A[i][j] for j in range(n)]
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


def qnum_resolvent(C, mu):
    """N = sum_j a_j C^j and mval = m(mu), accumulated entry by entry in QNum."""
    m = minimal_polynomial(C)
    d = len(m) - 1
    a = [qnum(0)] * d
    acc = qnum(1)
    for j in range(d - 1, -1, -1):
        a[j] = acc
        acc = mu * acc + m[j]
    n = len(C)
    N = [[qnum(0)] * n for _ in range(n)]
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    for j in range(d):
        for i in range(n):
            for c in range(n):
                N[i][c] = N[i][c] + a[j] * power[i][c]
        power = mat_mul(power, C)
    return N, acc


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
    mu_ok = horner(char_polynomial(C), mu) != 0
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
    supports = [[v for v, b in enumerate(c.bits) if b] for c in cands]
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
