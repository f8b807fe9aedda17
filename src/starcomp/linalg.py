"""Exact linear algebra over Z, Q and quadratic extensions.

Matrices are plain lists of row lists, with integer entries wherever the
package calls in.  One fraction-free elimination, Bareiss's step applied
to one row at a time, serves twice: fed the rows of a matrix it gives the
rank, and fed each power of a matrix as it is built, the minimal
polynomial and those powers.  The characteristic polynomial comes from a
Hessenberg reduction over GF(p), p a Mersenne prime above twice a bound
on its coefficients, and the multiplicity of an eigenvalue, rational or
quadratic, is an integer rank.  Polynomials are tuples of integer
coefficients, lowest degree first; their integer roots are found by
synthetic division at each integer in [-bound, bound], a bound the
caller knows (for a graph, its maximum degree).  Scalars from
Q(sqrt(d)) enter only as coefficients of integer matrices: a combination
sum_j c_j M_j is summed over one common denominator, split into its
rational and sqrt(d) parts, so testing it for zero is pure int.  No QNum
matrix is built: the engine takes the scaled resolvent N as those integer
parts.
"""

from __future__ import annotations

from itertools import count
from math import lcm
from operator import mul
from typing import Sequence

from .algebra import QNum, qnum
from .errors import InternalInconsistency, MuIsEigenvalue, TooLarge

Matrix = list[list]


def identity(n: int) -> Matrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    cols = list(zip(*B))
    return [[sum(map(mul, row, col)) for col in cols] for row in A]


def _bareiss_step(row: list[int], pivots: list[tuple[int, list[int]]]) -> list[int]:
    """The integer row after Bareiss's fraction-free step against each pivot
    row (col, piv), in the order the pivots were found.

    Each pivot row took the step against the pivots before it, and col is
    its first non-zero entry.  By Sylvester's identity each entry after the k-th step is a
    (k+1) x (k+1) minor of the rows, so each division by the previous
    pivot is exact (Bareiss, Math. Comp. 22, 1968).  The row is non-zero
    iff it is independent of the pivot rows.
    """
    prev = 1
    for col, piv in pivots:
        pk, f = piv[col], row[col]
        if f:
            row = [(x * pk - f * y) // prev for x, y in zip(row, piv)]
        elif pk != prev:
            row = [x * pk // prev for x in row]
        prev = pk
    return row


def int_rank(M: Matrix) -> int:
    """Rank over Q of an integer matrix: the rows that stay non-zero under
    the fraction-free step become pivots, and the rank counts them."""
    pivots: list[tuple[int, list[int]]] = []
    for row in M:
        row = _bareiss_step(list(row), pivots)
        col = next((j for j, x in enumerate(row) if x), None)
        if col is not None:
            pivots.append((col, row))
    return len(pivots)


def multiplicity(A: Matrix, mu) -> int:
    """Multiplicity of mu as an eigenvalue of a symmetric integer matrix A.

    For rational mu = a/b it is n - rank(bA - aI).  An irrational mu has a
    minimal polynomial x^2 + c1 x + c0 over Q, and its conjugate has the
    same multiplicity (the characteristic polynomial is rational), while A
    symmetric is diagonalizable; so with L clearing the denominators of c1
    and c0 it is (n - rank(L (A^2 + c1 A + c0 I))) / 2.  Both ranks are
    integer ranks.
    """
    mu = qnum(mu)
    n = len(A)
    if mu.is_rational:
        a, b = mu.a.numerator, mu.a.denominator
        M = [[b * x - (a if i == j else 0) for j, x in enumerate(row)]
             for i, row in enumerate(A)]
        return n - int_rank(M)
    c1 = -2 * mu.a
    c0 = mu.a * mu.a - mu.b * mu.b * mu.d
    L = lcm(c1.denominator, c0.denominator)
    k1, k0 = (c1 * L).numerator, (c0 * L).numerator
    M = [[L * x + k1 * y + (k0 if i == j else 0) for j, (x, y) in enumerate(zip(row2, row))]
         for i, (row2, row) in enumerate(zip(mat_mul(A, A), A))]
    null = n - int_rank(M)
    if null % 2:
        raise InternalInconsistency("conjugate eigenvalues of a symmetric integer "
                                    "matrix have unequal multiplicities")
    return null // 2


# Mersenne exponents e (2^e - 1 prime), for the moduli of char_polynomial
MERSENNE_EXPONENTS = (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423,
                      9689, 9941, 11213, 19937, 21701, 23209, 44497)


def char_polynomial(A: Matrix) -> tuple[int, ...]:
    """Characteristic polynomial det(xI - A) of a square integer matrix.

    Every eigenvalue has |lambda| <= R, the largest absolute row sum
    (Gershgorin), so each coefficient, an elementary symmetric function of
    the eigenvalues up to sign, has |c_k| <= C(n, k) R^k <= (1 + R)^n.
    Over GF(p), p the smallest Mersenne prime 2^e - 1 (e in
    MERSENNE_EXPONENTS) with p > 2 (1 + R)^n, A is reduced to upper
    Hessenberg form H by similarity, and the characteristic polynomials
    p_m of its leading m x m blocks follow the recurrence (1-based)

        p_m = (x - h_mm) p_(m-1) - sum_(i<m) h_im h_(i+1)i ... h_m(m-1) p_(i-1)

    from p_0 = 1 (Cohen, GTM 138, section 2.2): O(n^3) operations in all.
    The symmetric residue of each coefficient of p_n is the integer.
    Raises TooLarge when the bound passes the largest prime of the table.
    The result is monic of degree n.
    """
    n = len(A)
    bound = 2 * (1 + max((sum(map(abs, row)) for row in A), default=0)) ** n
    p = next((m for m in ((1 << e) - 1 for e in MERSENNE_EXPONENTS) if m > bound), None)
    if p is None:
        raise TooLarge(f"characteristic polynomial coefficients may pass "
                       f"2^{MERSENNE_EXPONENTS[-1]}")
    H = [[x % p for x in row] for row in A]
    # column j - 1 is cleared below row j by a pivot row j, similarity
    # L^-1 H L with L = I + sum_i u_i e_i e_j^T: row_i -= u_i row_j, then
    # col_j += sum_i u_i col_i (the u_i commute, as e_j^T e_i = 0)
    for j in range(1, n - 1):
        piv = next((i for i in range(j, n) if H[i][j - 1]), None)
        if piv is None:
            continue
        if piv != j:
            H[piv], H[j] = H[j], H[piv]
            for row in H:
                row[piv], row[j] = row[j], row[piv]
        inv = pow(H[j][j - 1], -1, p)
        pivot_row = H[j][j:]
        us = []
        for i in range(j + 1, n):
            u = H[i][j - 1] * inv % p
            us.append(u)
            if u:
                # columns below j - 1 are zero in rows j and i already
                H[i] = [0] * j + [(x - u * y) % p for x, y in zip(H[i][j:], pivot_row)]
        if any(us):
            for row in H:
                row[j] = (row[j] + sum(map(mul, us, row[j + 1:]))) % p
    polys = [[1]]   # p_0, p_1, ...: ascending coefficients mod p
    for m in range(n):
        prev = polys[m]
        h = H[m][m]
        new = [-h * prev[0]] + [a - h * b for a, b in zip(prev, prev[1:])] + [1]
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * H[i + 1][i] % p
            if not t:
                break
            c = t * H[i][m] % p
            for k, b in enumerate(polys[i]):
                new[k] -= c * b
        polys.append([c % p for c in new])
    half = p >> 1
    return tuple(c - p if c > half else c for c in polys[n])


def integer_roots(coeffs: Sequence[int], bound: int) -> tuple[dict[int, int], tuple[int, ...]]:
    """Integer roots r with |r| <= bound, with multiplicities, of the
    polynomial with coefficients coeffs (no trailing zero, leading
    coefficient arbitrary), and the cofactor left once synthetic division
    has taken out each (x - r)^m; it has no integer root in that range.

    Each r in -bound..bound is tried by synthetic division, so the work is
    O(bound * deg) whatever the coefficients.  For the characteristic
    polynomial of a graph, its maximum degree bounds every eigenvalue.
    """
    cs = tuple(coeffs)
    roots: dict[int, int] = {}
    for r in range(-bound, bound + 1):
        while len(cs) > 1:
            quotient = []
            carry = 0
            for coef in reversed(cs):
                carry = coef + carry * r
                quotient.append(carry)
            if carry:
                break
            cs = tuple(reversed(quotient[:-1]))
            roots[r] = roots.get(r, 0) + 1
    return roots, cs


def minimal_polynomial_powers(A: Matrix) -> tuple[tuple[int, ...], list[Matrix]]:
    """The monic minimal polynomial m of a square integer matrix, and the
    powers I, A, ..., A^d (d = deg m) its computation builds.

    Row k is the flattened power A^k followed by n + 1 tag columns holding
    e_k (deg m <= n).  Each row, once built, takes the fraction-free step
    against the earlier pivot rows.  A row with a non-zero matrix column
    left becomes a pivot at the first; the first row with none is A^d, and
    its tag holds integer coefficients c_0..c_d of sum c_j A^j = 0, a
    multiple of m.
    """
    n = len(A)
    powers = [identity(n)]
    pivots: list[tuple[int, list[int]]] = []
    for k in count():
        row = [x for r in powers[-1] for x in r] + [int(j == k) for j in range(n + 1)]
        row = _bareiss_step(row, pivots)
        col = next((j for j in range(n * n) if row[j]), None)
        if col is None:
            tag = row[n * n:n * n + k + 1]
            if any(c % tag[-1] for c in tag):
                raise InternalInconsistency("minimal polynomial of an integer matrix "
                                            "has a non-integer coefficient")
            return tuple(c // tag[-1] for c in tag), powers
        pivots.append((col, row))
        powers.append(mat_mul(powers[-1], A))


def resolvent_coefficients(m: Sequence[int], mu: QNum) -> tuple[list[QNum], QNum]:
    """The coefficients a_0..a_{d-1} of q, where m(x) - m(mu) = (x - mu) q(x),
    and mval = m(mu), by Horner's rule.

    For m the minimal polynomial of C, N = q(C) = sum_j a_j C^j satisfies
    N (mu I - C) = mval I.  Raises MuIsEigenvalue when m(mu) = 0.
    """
    d = len(m) - 1
    a = [qnum(0)] * d
    acc = qnum(1)
    for j in range(d - 1, -1, -1):
        a[j] = acc
        acc = mu * acc + m[j]
    if not acc:
        raise MuIsEigenvalue(f"mu = {mu} is an eigenvalue of the complement")
    return a, acc


def scaled_parts(coeffs: Sequence[QNum]) -> tuple[int, list[int], list[int]]:
    """A common denominator D of the scalars, and each D*c split as p + r sqrt(d)."""
    coeffs = [qnum(c) for c in coeffs]
    D = lcm(*(f.denominator for c in coeffs for f in (c.a, c.b)))
    return (D, [(c.a * D).numerator for c in coeffs],
            [(c.b * D).numerator for c in coeffs])


def weighted_sum(coeffs: Sequence[int], mats: Sequence[Matrix]) -> list[int]:
    """sum_j c_j M_j over integer matrices of one shape, flattened row by row."""
    acc = [0] * sum(len(row) for row in mats[0]) if mats else []
    for c, M in zip(coeffs, mats):
        if c:
            acc = [x + c * y for x, y in zip(acc, (y for row in M for y in row))]
    return acc


def combination_vanishes(coeffs: Sequence, mats: Sequence[Matrix]) -> bool:
    """Whether sum_j c_j M_j is the zero matrix, for scalars c_j of one field
    and integer matrices M_j of one shape.

    The scalars are scaled to one common denominator and split into their
    rational and sqrt(d) parts; as sqrt(d) is irrational, the sum vanishes
    iff both integer sums do.
    """
    _, ps, rs = scaled_parts(coeffs)
    return not any(weighted_sum(ps, mats)) and not any(weighted_sum(rs, mats))
