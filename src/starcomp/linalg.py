"""Exact linear algebra over Z, Q and quadratic extensions.

Matrices are plain lists of row lists, with integer entries wherever the
package calls in.  One fraction-free elimination, Bareiss's step applied
to one row at a time, serves twice: fed the rows of a matrix it gives the
rank, and fed each power of a matrix as it is built, the minimal
polynomial and those powers.  The characteristic polynomial comes from
Berkowitz's division-free algorithm, and the multiplicity of an
eigenvalue, rational or quadratic, is an integer rank.  Polynomials are
tuples of integer coefficients, lowest degree first; their integer roots
are found by synthetic division at each integer in [-bound, bound], a
bound the caller knows (for a graph, its maximum degree).  Scalars from
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
from .errors import InternalInconsistency, MuIsEigenvalue

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


def char_polynomial(A: Matrix) -> tuple[int, ...]:
    """Characteristic polynomial det(xI - A) of a square integer matrix.

    Berkowitz's division-free algorithm (Inf. Process. Lett. 18, 1984):
    with A_r the leading r x r block, R = A[r][:r] and S = A[:r][r],
    det(xI - A_{r+1}) is the product of the lower-triangular Toeplitz
    matrix with first column 1, -a_rr, -R S, -R A_r S, ..., -R A_r^(r-1) S
    and the coefficients of det(xI - A_r).  It uses integer additions and
    multiplications only; the result is monic of degree n.
    """
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
