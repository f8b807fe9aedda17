"""Exact linear algebra over Z, Q and quadratic extensions.

Matrices are plain lists of row lists, with integer entries wherever the
package calls in.  Ranks and the minimal polynomial come from one
fraction-free (Bareiss) elimination, the characteristic polynomial comes
from Berkowitz's division-free algorithm, and the multiplicity of an
eigenvalue, rational or quadratic, is an integer rank.  Scalars from
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

from .algebra import IntPoly, QNum, qnum
from .errors import InternalInconsistency, MuIsEigenvalue

Matrix = list[list]


def identity(n: int) -> Matrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    cols = list(zip(*B))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in A]


def _eliminate(a: Matrix, ncols: int) -> tuple[int, int, int]:
    """Bareiss's fraction-free elimination of the integer rows a, in place.

    A column with no pivot left is skipped, so the rows end in echelon
    form.  After the k-th pivot every entry below it is a (k+1) x (k+1)
    minor of the input, so each division by the previous pivot is exact
    (Bareiss, Math. Comp. 22, 1968).  Columns past ncols are never pivots
    but are carried along by the same row operations, so they too hold
    exact minors of the input.  Returns the rank, the sign of the
    row permutation and the last pivot, which for a square matrix of full
    rank is its determinant up to that sign.
    """
    rows = len(a)
    rank, sign, prev = 0, 1, 1
    for col in range(ncols):
        if rank == rows:
            break
        piv = next((i for i in range(rank, rows) if a[i][col]), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            sign = -sign
        top = a[rank]
        pk = top[col]
        tail = top[col + 1:]
        for i in range(rank + 1, rows):
            row = a[i]
            f = row[col]
            if f:
                row[col + 1:] = [(x * pk - f * y) // prev
                                 for x, y in zip(row[col + 1:], tail)]
            elif pk != prev:
                row[col + 1:] = [x * pk // prev for x in row[col + 1:]]
            row[col] = 0
        prev = pk
        rank += 1
    return rank, sign, prev


def int_rank(M: Matrix) -> int:
    """Rank over Q of an integer matrix, fraction-free."""
    return _eliminate([list(row) for row in M], len(M[0]) if M else 0)[0]


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


def char_polynomial(A: Matrix) -> IntPoly:
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
    return IntPoly(reversed(poly))


def minimal_polynomial(A: Matrix) -> IntPoly:
    """Monic minimal polynomial of a square integer matrix.

    Row k stacks the flattened power A^k with the unit tag e_k, and
    _eliminate reduces rows 0..k over their n*n matrix columns.  At the
    least k where those k + 1 rows have rank k, A^k is the first power
    that depends on the lower ones: the zero row's tag then holds integer
    coefficients c_0..c_k with sum c_j A^j = 0, an integer multiple of m.
    """
    n = len(A)
    flat: list[list[int]] = []
    power = identity(n)
    for k in count():
        flat.append([x for row in power for x in row])
        rows = [vec + [int(i == j) for j in range(k + 1)] for i, vec in enumerate(flat)]
        if _eliminate(rows, n * n)[0] == k:
            tag = rows[k][n * n:]
            if any(c % tag[-1] for c in tag):
                raise InternalInconsistency("minimal polynomial of an integer matrix "
                                            "has a non-integer coefficient")
            return IntPoly(c // tag[-1] for c in tag)
        power = mat_mul(power, A)


def resolvent_coefficients(m: IntPoly, mu: QNum) -> tuple[list[QNum], QNum]:
    """The coefficients a_0..a_{d-1} of q, where m(x) - m(mu) = (x - mu) q(x),
    and mval = m(mu), by Horner's rule.

    For m the minimal polynomial of C, N = q(C) = sum_j a_j C^j satisfies
    N (mu I - C) = mval I.  Raises MuIsEigenvalue when m(mu) = 0.
    """
    d = m.degree
    a = [qnum(0)] * d
    acc = qnum(1)
    for j in range(d - 1, -1, -1):
        a[j] = acc
        acc = mu * acc + m.coeffs[j]
    if not acc:
        raise MuIsEigenvalue(f"mu = {mu} is an eigenvalue of the complement")
    return a, acc


def matrix_powers(C: Matrix, k: int) -> list[Matrix]:
    """I, C, ..., C^(k-1) for a square integer matrix C."""
    out = [identity(len(C))][:k]
    while len(out) < k:
        out.append(mat_mul(out[-1], C))
    return out


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
