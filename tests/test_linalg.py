"""Exact linear algebra: determinants, characteristic and minimal
polynomials, the resolvent coefficients, integer rank and eigenvalue
multiplicity.  The oracles (elimination over QNum, the QNum resolvent
coefficients and scaled resolvent, the characteristic polynomial by
Berkowitz's algorithm and by interpolation, the minimal polynomial over Q,
the determinant over Q and polynomial division over Q) live in oracles.py.

Characteristic polynomial oracles below are classical values (cycles,
complete bipartite graphs, the Petersen graph) checked against closed-form
spectra before this module existed.
"""

import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (assert_deflation, berkowitz_char_polynomial, combination_vanishes,
                     det_over_q, divides, field_rank, interpolated_char_polynomial,
                     minimal_polynomial_over_q, qnum_resolvent, resolvent_coefficients,
                     scaled_parts)
from starcomp.algebra import QNum, qnum
from starcomp.catalog import petersen
from starcomp.engine import make_context, search_star_sets
from starcomp.errors import MuIsEigenvalue, TooLarge
from starcomp.graphs import cycle
from starcomp.kts import make_kts
from starcomp.linalg import (_bareiss_step, char_polynomial, identity, int_rank,
                             integer_roots, mat_mul, minimal_polynomial_powers,
                             multiplicity, resolvent_parts, weighted_sum)

entries = st.integers(min_value=-6, max_value=6)


def int_matrix(n):
    return st.lists(st.lists(entries, min_size=n, max_size=n),
                    min_size=n, max_size=n)


def _det_cofactor(M):
    n = len(M)
    if n == 1:
        return M[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        total += (-1) ** j * M[0][j] * _det_cofactor(minor)
    return total


# ------------------------------------------------------------- determinants

def test_det_known_values():
    assert det_over_q([[2]]) == 2
    assert det_over_q([[1, 2], [3, 4]]) == -2
    assert det_over_q([[0, 1, 1], [1, 0, 1], [1, 1, 0]]) == 2  # A(K3)
    assert det_over_q(identity(5)) == 1


@given(st.integers(min_value=1, max_value=4).flatmap(int_matrix))
def test_det_matches_cofactor_expansion(M):
    assert det_over_q(M) == _det_cofactor(M)


def test_mat_mul_and_vec():
    A = [[1, 2], [3, 4]]
    B = [[0, 1], [1, 0]]
    assert mat_mul(A, B) == [[2, 1], [4, 3]]
    assert mat_mul(A, [[1], [1]]) == [[3], [7]]
    assert mat_mul(A, identity(2)) == A


# ----------------------------------------------------- char and min polys

def test_char_polynomial_cycles():
    # C5: x^5 - 5x^3 + 5x - 2
    assert char_polynomial(cycle(5).matrix()) == (-2, 5, 0, -5, 0, 1)
    # C3: x^3 - 3x - 2 = (x-2)(x+1)^2
    assert char_polynomial(cycle(3).matrix()) == (-2, -3, 0, 1)


def test_char_polynomial_complete_bipartite():
    # K_{t,s}: x^(t+s-2) (x^2 - ts)
    assert char_polynomial(make_kts(3, 3).matrix()) == (0, 0, 0, 0, -9, 0, 1)
    assert char_polynomial(make_kts(2, 3).matrix()) == (0, 0, 0, -6, 0, 1)
    assert char_polynomial(make_kts(1, 1).matrix()) == (-1, 0, 1)


def test_char_polynomial_petersen():
    # (x-3)(x-1)^5 (x+2)^4
    p = char_polynomial(petersen().matrix())
    assert len(p) == 11 and p[-1] == 1
    assert integer_roots(p, 3) == ({3: 1, 1: 5, -2: 4}, (1,))


@given(st.integers(min_value=1, max_value=5).flatmap(int_matrix))
def test_char_polynomial_shape(M):
    n = len(M)
    p = char_polynomial(M)
    # monic of degree n
    assert len(p) == n + 1 and p[n] == 1
    # constant term is (-1)^n det(M)
    assert p[0] == (-1) ** n * det_over_q(M)
    # x^(n-1) coefficient is minus the trace
    assert p[n - 1] == -sum(M[i][i] for i in range(n))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
@example([])
def test_char_polynomial_matches_interpolation(M):
    # non-symmetric on purpose: the Hessenberg reduction works on rows and
    # on columns separately
    assert char_polynomial(M) == interpolated_char_polynomial(M)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=40).flatmap(
    lambda n: st.lists(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
@example([])
@example([[-10**6]])
@example([[10**6] * 40 for _ in range(40)])   # 2 (1 + R)^n needs p = 2^1279 - 1
def test_char_polynomial_matches_berkowitz(M):
    # with entries near 10^6 the bound 2 (1 + R)^n passes 2^127 from n = 6
    # on, so most draws use the moduli 2^521 - 1 and above
    assert char_polynomial(M) == berkowitz_char_polynomial(M)


def test_char_polynomial_past_the_largest_modulus_is_too_large():
    # |c_1| <= 2^44497 could exceed half of the largest prime 2^44497 - 1
    with pytest.raises(TooLarge):
        char_polynomial([[1 << 44497]])
    assert char_polynomial([[1 << 44495]]) == (-(1 << 44495), 1)


def test_char_polynomial_on_largest_sweep_graphs():
    # the K_{2,5} mu=1 sweep certifies graphs of orders 21, 21, 24 and 27,
    # the largest the CLI factors in a benchmark sweep pass
    ctx = make_context(make_kts(2, 5), qnum(1), bipartite_tag=(2, 5))
    big = [sol for sol in search_star_sets(ctx, require_regular="sweep")
           if sol.order >= 21]
    assert [sol.order for sol in big] == [21, 21, 24, 27]
    for sol in big:
        A = sol.graph.matrix()
        p = char_polynomial(A)
        assert p == interpolated_char_polynomial(A)
        # the integer roots times the residual factor give p back
        roots, residual = integer_roots(p, max(sol.graph.degrees()))
        assert roots[1] == sol.cert.multiplicity == len(sol.x_vertices)
        assert_deflation(p, roots, residual)


def _sym(M):
    n = len(M)
    return [[M[i][j] if i <= j else M[j][i] for j in range(n)] for i in range(n)]


@given(st.integers(min_value=1, max_value=4).flatmap(int_matrix))
def test_minimal_polynomial_divides_and_annihilates(M):
    M = _sym(M)
    m = minimal_polynomial_powers(M)[0]
    d = len(m) - 1
    assert m[d] == 1 and 1 <= d <= len(M)
    assert divides(m, char_polynomial(M))
    # evaluate m at the matrix: sum m_k M^k = 0
    n = len(M)
    acc = [[0] * n for _ in range(n)]
    power = identity(n)
    for c in m:
        acc = [[acc[i][j] + c * power[i][j] for j in range(n)] for i in range(n)]
        power = mat_mul(power, M)
    assert all(acc[i][j] == 0 for i in range(n) for j in range(n))
    # minimal: I, M, ..., M^(d-1) are independent
    powers = [identity(n)]
    for _ in range(d - 1):
        powers.append(mat_mul(powers[-1], M))
    assert int_rank([[x for row in P for x in row] for P in powers]) == d


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=6).flatmap(int_matrix), st.booleans())
@example([], False)
@example(make_kts(6, 6).matrix(), False)
# C_4 with a pendant vertex: here a power that a pivot row leaves alone must
# still be rescaled by that pivot, or a later division is inexact
@example([[0, 1, 0, 1, 0], [1, 0, 1, 0, 1], [0, 1, 0, 1, 0], [1, 0, 1, 0, 0],
          [0, 1, 0, 0, 0]], False)
def test_minimal_polynomial_matches_elimination_over_q(M, symmetric):
    if symmetric:
        M = _sym(M)
    assert minimal_polynomial_powers(M)[0] == minimal_polynomial_over_q(M)


def test_minimal_polynomial_known():
    assert minimal_polynomial_powers(make_kts(3, 3).matrix())[0] == (0, -9, 0, 1)
    assert minimal_polynomial_powers(make_kts(1, 1).matrix())[0] == (-1, 0, 1)
    # Petersen: (x-3)(x-1)(x+2) = x^3 - 2x^2 - 5x + 6
    assert minimal_polynomial_powers(petersen().matrix())[0] == (6, -5, -2, 1)
    assert minimal_polynomial_powers(identity(4))[0] == (-1, 1)


# ------------------------------------------------------------ resolvent

def test_scaled_resolvent_known_row():
    # K_{3,3} at mu=1: m(x) = x^3 - 9x, m(1) = -8, N = C^2 + C - 8I
    N, mval = qnum_resolvent(make_kts(3, 3).matrix(), qnum(1))
    assert mval == qnum(-8)
    assert [x.as_int() for x in N[0]] == [-5, 3, 3, 1, 1, 1]


@pytest.mark.parametrize("g,mu", [
    (make_kts(3, 3), qnum(1)),
    (make_kts(2, 5), qnum(-2)),
    (cycle(5), qnum(2) + qnum(1)),          # 3 is not an eigenvalue of C5
    (petersen(), QNum.sqrt(2)),
    (cycle(4), QNum.quadratic_root(-1, 1)),
])
def test_resolvent_identity_two_sided(g, mu):
    C = g.matrix()
    N, mval = qnum_resolvent(C, mu)
    assert bool(mval)
    n = g.n
    for side in ("left", "right"):
        for i in range(n):
            for j in range(n):
                acc = qnum(0)
                for k in range(n):
                    a = N[i][k] if side == "left" else (mu * (i == k) - C[i][k])
                    b = (mu * (k == j) - C[k][j]) if side == "left" else N[k][j]
                    if isinstance(a, int):
                        a = qnum(a)
                    acc = acc + a * b
                assert acc == (mval if i == j else qnum(0))


def test_scaled_resolvent_empty_matrix():
    # the minimal polynomial of the 0 x 0 matrix is 1: m(mu) = 1, N is 0 x 0
    assert minimal_polynomial_powers([])[0] == (1,)
    assert resolvent_coefficients(minimal_polynomial_powers([])[0], qnum(5)) == ([], qnum(1))
    assert qnum_resolvent([], qnum(5)) == ([], qnum(1))
    # the parts of mval * mu = 5 and -mval = -1, over D = 1
    assert resolvent_parts((1,), qnum(5)) == (1, [5, -1], [0, 0])


def test_combination_over_common_denominator():
    r2 = QNum.sqrt(2)
    mats = [[[1, 2]], [[3, 0]]]
    # 6 (1/2 M_0 + sqrt(2)/3 M_1) = [3 + 6 sqrt(2), 6]
    D, ps, rs = scaled_parts([qnum(Fraction(1, 2)), r2 / 3])
    assert (D, ps, rs) == (6, [3, 0], [0, 2])
    assert (weighted_sum(ps, mats), weighted_sum(rs, mats)) == ([3, 6], [6, 0])
    assert combination_vanishes([r2 / 3, -r2 / 3], [mats[0], mats[0]])
    assert not combination_vanishes([r2 / 3, -r2 / 3], mats)
    assert not combination_vanishes([r2, qnum(-1)], [[[1]], [[1]]])
    assert combination_vanishes([qnum(7)], [[]])


@pytest.mark.parametrize("g,mu", [
    (make_kts(3, 3), qnum(3)),
    (make_kts(3, 3), qnum(0)),
    (cycle(5), qnum(2)),
    (cycle(5), QNum.quadratic_root(-1, 1)),  # golden section: C5 eigenvalue
    (petersen(), qnum(-2)),
])
def test_resolvent_rejects_eigenvalues(g, mu):
    m = minimal_polynomial_powers(g.matrix())[0]
    with pytest.raises(MuIsEigenvalue):
        resolvent_coefficients(m, mu)
    with pytest.raises(MuIsEigenvalue):
        resolvent_parts(m, mu)


# ------------------------------------------------------------------ rank

def test_field_rank_known():
    P = petersen()
    n = P.n
    A = P.matrix()
    for mu, mult in ((qnum(1), 5), (qnum(-2), 4), (qnum(3), 1), (qnum(0), 0)):
        M = [[mu * (i == j) - A[i][j] for j in range(n)] for i in range(n)]
        assert field_rank(M) == n - mult


def test_field_rank_degenerate():
    assert field_rank([[qnum(0)]]) == 0
    assert field_rank([[qnum(0), qnum(0)], [qnum(0), qnum(0)]]) == 0
    assert field_rank([[QNum.sqrt(2), qnum(1)],
                       [qnum(2), QNum.sqrt(2)]]) == 1


@given(st.integers(min_value=1, max_value=4).flatmap(int_matrix))
def test_field_rank_transpose_invariant(M):
    Q = [[qnum(x) for x in row] for row in M]
    QT = [list(col) for col in zip(*Q)]
    r = field_rank(Q)
    assert r == field_rank(QT)
    assert (r == len(M)) == (det_over_q(M) != 0)


@st.composite
def _low_rank_int_matrices(draw):
    """A product of an n x r and an r x m integer matrix, so rank <= r."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    r = draw(st.integers(0, min(n, m)))
    A = [[draw(entries) for _ in range(r)] for _ in range(n)]
    B = [[draw(entries) for _ in range(m)] for _ in range(r)]
    return mat_mul(A, B) if r else [[0] * m for _ in range(n)]


rect_int_matrices = st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda nm: st.lists(st.lists(entries, min_size=nm[1], max_size=nm[1]),
                        min_size=nm[0], max_size=nm[0]))


def test_int_rank_known():
    assert int_rank([[0]]) == 0
    assert int_rank([[0, 0], [0, 0]]) == 0
    assert int_rank([[0, 2, 4], [0, 1, 2]]) == 1      # first column skipped
    assert int_rank([[0, 0, 1], [1, 2, 3], [2, 4, 7]]) == 2
    assert int_rank([[1, 2], [3, 4], [5, 6]]) == 2
    assert int_rank(identity(5)) == 5


@settings(max_examples=100, deadline=None)
@given(st.one_of(rect_int_matrices, _low_rank_int_matrices()))
def test_int_rank_matches_field_rank(M):
    r = int_rank(M)
    assert r == field_rank(M)
    assert r == int_rank([list(col) for col in zip(*M)])
    if len(M) == len(M[0]):
        assert (r == len(M)) == (det_over_q(M) != 0)


@pytest.mark.parametrize("seed", range(4))
def test_bareiss_step_stays_fraction_free(seed):
    # after the k-th step each entry of a row is a (k+1) x (k+1) minor of
    # that row and the k pivot rows before it (Sylvester's identity), so
    # Hadamard's bound, the product of their lengths, holds.  Without the
    # exact division by the previous pivot the entries of an 8 x 10 matrix
    # with two-digit entries (some zero, so that a row can skip a pivot)
    # roughly square at each step and pass it; the rank alone would not show
    # that.
    rng = random.Random(seed)
    M = [[rng.randint(-99, 99) if rng.random() < 0.8 else 0 for _ in range(10)]
         for _ in range(8)]
    pivots, used = [], []
    for row in M:
        out = _bareiss_step(list(row), pivots)
        bound = prod(sum(x * x for x in r) for r in used + [row])
        assert all(x * x <= bound for x in out)
        col = next((j for j, x in enumerate(out) if x), None)
        if col is not None:
            pivots.append((col, out))
            used.append(row)
    assert len(pivots) == int_rank(M) == field_rank(M)


GOLDEN = QNum.quadratic_root(-1, 1)   # (sqrt 5 - 1)/2


def test_multiplicity_known():
    A = petersen().matrix()
    for mu, mult in ((1, 5), (-2, 4), (3, 1), (0, 0), (Fraction(1, 2), 0)):
        assert multiplicity(A, mu) == mult
    C5 = cycle(5).matrix()
    for mu, mult in ((2, 1), (GOLDEN, 2), (-1 - GOLDEN, 2), (1 + GOLDEN, 0),
                     (QNum.sqrt(2), 0)):
        assert multiplicity(C5, mu) == mult
    assert multiplicity([], 3) == 0


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(int_matrix),
       st.sampled_from([qnum(m) for m in range(-3, 4)]
                       + [qnum(Fraction(1, 2)), qnum(Fraction(-5, 3)), GOLDEN,
                          -GOLDEN, 1 + GOLDEN, -1 - GOLDEN, QNum.sqrt(2),
                          1 - QNum.sqrt(2), QNum.sqrt(3) / 2]))
def test_multiplicity_matches_field_rank(M, mu):
    A = _sym(M)
    n = len(A)
    assert multiplicity(A, mu) == n - field_rank(
        [[mu * (i == j) - A[i][j] for j in range(n)] for i in range(n)])


# ----------------------------------------------------------- sympy oracles
# sympy is a test-only oracle: the package never imports it

small_entries = st.integers(min_value=-1, max_value=1)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(int_matrix))
def test_char_polynomial_matches_sympy(M):
    sympy = pytest.importorskip("sympy")
    descending = sympy.Matrix(M).charpoly().all_coeffs()
    assert char_polynomial(M) == tuple(int(c) for c in reversed(descending))


def _sympy_minimal_polynomial(sympy, M):
    """Lower each exponent of the factored characteristic polynomial while
    the product still annihilates M."""
    x = sympy.Symbol("x")
    S = sympy.Matrix(M)
    _, factors = sympy.factor_list(S.charpoly(x).as_expr(), x)
    exps = [e for _, e in factors]

    def annihilates(exps):
        poly = sympy.Poly(sympy.prod(f ** e for (f, _), e in zip(factors, exps)), x)
        acc = sympy.zeros(len(M), len(M))
        for c in poly.all_coeffs():
            acc = acc * S + c * sympy.eye(len(M))
        return acc.is_zero_matrix

    for i in range(len(exps)):
        while exps[i] > 1 and annihilates(exps[:i] + [exps[i] - 1] + exps[i + 1:]):
            exps[i] -= 1
    poly = sympy.Poly(sympy.prod(f ** e for (f, _), e in zip(factors, exps)), x)
    return tuple(int(c) for c in reversed(poly.all_coeffs()))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.one_of(int_matrix(n),
                        st.lists(st.lists(small_entries, min_size=n, max_size=n),
                                 min_size=n, max_size=n))))
@example([[2, 1, 0], [0, 2, 0], [0, 0, 2]])   # Jordan block plus a repeat
@example([[0, 1, 0], [0, 0, 1], [0, 0, 0]])   # nilpotent of index 3
@example(make_kts(3, 3).matrix())
def test_minimal_polynomial_matches_sympy(M):
    sympy = pytest.importorskip("sympy")
    assert minimal_polynomial_powers(M)[0] == _sympy_minimal_polynomial(sympy, M)


def _quad_entries(d):
    """a + b sqrt(d) with small rational a, b; rationals when d is None."""
    rat = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    if d is None:
        return rat.map(qnum)
    return st.builds(lambda a, b: QNum(a, b, d), rat, rat)


@st.composite
def _low_rank_matrices(draw, d):
    """A product of an n x r and an r x m matrix, so rank <= r."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    r = draw(st.integers(1, min(n, m)))
    entries = _quad_entries(d)
    A = [[draw(entries) for _ in range(r)] for _ in range(n)]
    B = [[draw(entries) for _ in range(m)] for _ in range(r)]
    return mat_mul(A, B)


@settings(max_examples=80, deadline=None)
@given(st.one_of(rect_int_matrices, _low_rank_int_matrices()))
@example([[0, 0], [0, 0]])
@example([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
def test_int_rank_matches_sympy(M):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    S = DomainMatrix.from_Matrix(sympy.Matrix(M)).convert_to(sympy.QQ)
    assert int_rank(M) == S.rank()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([None, 5]).flatmap(
    lambda d: st.tuples(st.just(d), _low_rank_matrices(d))))
def test_field_rank_matches_sympy(d_M):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    d, M = d_M
    root = sympy.sqrt(d) if d else sympy.Integer(0)
    domain = sympy.QQ.algebraic_field(root) if d else sympy.QQ

    def rat(f):
        return sympy.Rational(f.numerator, f.denominator)

    S = sympy.Matrix([[rat(x.a) + rat(x.b) * root for x in row] for row in M])
    assert field_rank(M) == DomainMatrix.from_Matrix(S).convert_to(domain).rank()
