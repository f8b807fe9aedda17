"""Exact linear algebra over Z, Q and quadratic extensions.

Matrices are plain lists of row lists.  Integer matrices stay integer for as
long as possible (fraction-free determinants); anything involving an
irrational eigenvalue is carried by QNum.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import IntPoly, QNum, qnum
from .errors import InternalInconsistency, MuIsEigenvalue

Matrix = list[list]


def identity(n: int, one=1) -> Matrix:
    return [[one if i == j else one * 0 for j in range(n)] for i in range(n)]


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    n, k = len(A), len(B)
    m = len(B[0]) if B else 0
    out = []
    for i in range(n):
        Ai = A[i]
        row = []
        for j in range(m):
            acc = Ai[0] * B[0][j]
            for l in range(1, k):
                acc = acc + Ai[l] * B[l][j]
            row.append(acc)
        out.append(row)
    return out


def mat_vec(A: Matrix, v: list) -> list:
    out = []
    for row in A:
        acc = row[0] * v[0]
        for l in range(1, len(v)):
            acc = acc + row[l] * v[l]
        out.append(acc)
    return out


def det_bareiss(M: Matrix) -> int:
    """Determinant of an integer matrix, fraction-free (Bareiss pivoting)."""
    n = len(M)
    if n == 0:
        return 1
    a = [row[:] for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pk - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pk
    return sign * a[n - 1][n - 1]


def char_polynomial(A: Matrix) -> IntPoly:
    """Characteristic polynomial det(xI - A) of an integer matrix.

    Sampled at x = 0..n with exact integer determinants, then interpolated.
    The result is monic of degree n with integer coefficients.
    """
    n = len(A)
    samples = []
    for x in range(n + 1):
        M = [[(x if i == j else 0) - A[i][j] for j in range(n)] for i in range(n)]
        samples.append(det_bareiss(M))
    # Newton's divided differences on the nodes 0..n
    coef = [Fraction(s) for s in samples]
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
    if any(f.denominator != 1 for f in poly):
        raise InternalInconsistency("characteristic polynomial of an integer matrix "
                                    "has a non-integer coefficient")
    return IntPoly([f.numerator for f in poly])


def minimal_polynomial(A: Matrix) -> IntPoly:
    """Monic minimal polynomial of an integer matrix.

    Finds the least k with A^k dependent on lower powers, by Gaussian
    elimination over Q on the flattened powers I, A, A^2, ...
    """
    n = len(A)
    if n == 0:
        return IntPoly([1])
    dim = n * n
    basis: list[tuple[list[Fraction], list[Fraction]]] = []  # (reduced vec, combo)
    power = identity(n)
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
            if any(c.denominator != 1 for c in cs):
                raise InternalInconsistency("minimal polynomial of an integer matrix "
                                            "has a non-integer coefficient")
            return IntPoly([c.numerator for c in cs])
        basis.append((vec, combo))
        power = mat_mul(power, A)
        k += 1


def scaled_resolvent(C: Matrix, mu: QNum) -> tuple[Matrix, QNum]:
    """The matrix N = m(mu) * (mu*I - C)^(-1) and the scalar m(mu).

    m is the monic minimal polynomial of C.  Writing m(x) - m(mu) =
    (x - mu) * q(x) gives N = q(C), a polynomial in C whose coefficients
    come from Horner's rule; no matrix inversion happens.  Raises
    MuIsEigenvalue when m(mu) = 0.
    """
    m = minimal_polynomial(C)
    d = m.degree
    # q coefficients: a[d-1] = 1, a[j-1] = mu*a[j] + c[j]
    a = [qnum(0)] * d
    a[d - 1] = qnum(1)
    for j in range(d - 1, 0, -1):
        a[j - 1] = mu * a[j] + m.coeffs[j]
    mval = mu * a[0] + m.coeffs[0]
    if not mval:
        raise MuIsEigenvalue(f"mu = {mu} is an eigenvalue of the complement")
    n = len(C)
    N = [[a[0] if i == j else qnum(0) for j in range(n)] for i in range(n)]
    power: Matrix = C
    for j in range(1, d):
        if a[j]:
            for i in range(n):
                Ni, Pi = N[i], power[i]
                for c in range(n):
                    Ni[c] = Ni[c] + a[j] * Pi[c]
        if j + 1 < d:
            power = mat_mul(power, C)
    return N, mval


def field_rank(M: Matrix) -> int:
    """Rank of a matrix with QNum / Fraction / int entries, exact elimination."""
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
