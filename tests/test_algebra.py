"""Exact scalar arithmetic, and integer polynomials as coefficient tuples.

Oracle values here were computed by hand or with an independent script
before the module was written; the hypothesis blocks check the field and
ring laws on randomized elements.
"""

import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import assert_deflation, divides, divmod_exact, horner
from starcomp.algebra import QNum, parse_scalar, qnum
from starcomp.linalg import integer_roots

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
small_ints = st.integers(min_value=-30, max_value=30)


def quad(d):
    return st.builds(lambda a, b: QNum(a, b, d), rationals, rationals)


# ------------------------------------------------------------- construction

def test_qnum_basics():
    x = qnum(Fraction(3, 4))
    assert x.is_rational and not x.is_integer
    assert x.as_fraction() == Fraction(3, 4)
    assert qnum(5).as_int() == 5
    assert bool(qnum(0)) is False and bool(qnum(-1)) is True
    assert QNum.sqrt(2) ** 3 == qnum(2) * QNum.sqrt(2) and x ** 0 == qnum(1)
    with pytest.raises(ValueError):
        x ** -1


def test_sqrt_collapses_squares():
    assert QNum.sqrt(9) == qnum(3)
    assert QNum.sqrt(0) == qnum(0)
    r8 = QNum.sqrt(8)
    assert not r8.is_rational
    assert r8 * r8 == qnum(8)
    assert r8 == qnum(2) * QNum.sqrt(2)


def test_sqrt_of_negative_rejected():
    with pytest.raises(ValueError):
        QNum.sqrt(-4)


def test_quadratic_root_satisfies_polynomial():
    # x^2 + x - 1: golden-section pair
    pos = QNum.quadratic_root(-1, 1, positive=True)
    neg = QNum.quadratic_root(-1, 1, positive=False)
    for root in (pos, neg):
        assert root * root + root - qnum(1) == qnum(0)
    assert neg < qnum(0) < pos
    assert pos + neg == qnum(-1)
    assert pos * neg == qnum(-1)


def test_mixed_fields_rejected():
    with pytest.raises(ValueError):
        QNum(0, 1, 2) + QNum(0, 1, 3)


def test_ordering_is_total_and_exact():
    # sqrt(2) ~ 1.41421: rationals straddling it must sort correctly
    r2 = QNum.sqrt(2)
    assert qnum(Fraction(141421, 100000)) < r2 < qnum(Fraction(141422, 100000))
    assert -r2 < qnum(-1) < qnum(0) < r2
    vals = sorted([r2, -r2, qnum(0), qnum(1), qnum(-2)])
    assert vals == [qnum(-2), -r2, qnum(0), qnum(1), r2]


def test_conjugate():
    x = QNum(Fraction(1, 2), Fraction(3, 2), 5)
    assert x.conjugate() == QNum(Fraction(1, 2), Fraction(-3, 2), 5)
    assert (x * x.conjugate()).is_rational
    assert (x + x.conjugate()).is_rational


# ------------------------------------------------------------- field laws

@given(quad(5), quad(5), quad(5))
def test_field_laws_sqrt5(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x
    # zero-test agrees with subtraction
    assert (x == y) == (not bool(x - y))


@given(quad(2), quad(2))
def test_division_inverts_multiplication(x, y):
    if bool(y):
        assert (x / y) * y == x


@given(quad(3), quad(3))
def test_conjugation_is_multiplicative(x, y):
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()


@given(quad(7), quad(7))
def test_ordering_respects_addition(x, y):
    if x < y:
        assert x + qnum(1) < y + qnum(1)
        assert -y < -x


# ------------------------------------------------------------- parsing

@pytest.mark.parametrize("text,value", [
    ("-2", qnum(-2)),
    ("0", qnum(0)),
    ("7/3", qnum(Fraction(7, 3))),
    ("-5/4", qnum(Fraction(-5, 4))),
    ("root(-1,1):pos", QNum.quadratic_root(-1, 1, positive=True)),
    ("root(-1,1):neg", QNum.quadratic_root(-1, 1, positive=False)),
    ("root(-4,0):pos", qnum(2)),
])
def test_parse_scalar(text, value):
    assert parse_scalar(text) == value


@pytest.mark.parametrize("text", ["goo", "1/0", "root(1,0,3):pos", "root(1,1)",
                                  "root(1,1):up", ""])
def test_parse_scalar_rejects_junk(text):
    with pytest.raises(ValueError):
        parse_scalar(text)


# ------------------------------------------------------------- polynomials

def test_divmod_exact_and_divides():
    p = (-1, 0, 1)                   # (x-1)(x+1)
    q = (1, 1)
    quo, rem = divmod_exact(p, q)
    assert rem == [] and quo == [Fraction(-1), Fraction(1)]
    assert divides(q, p)
    assert not divides((5, 1), p)


def test_integer_roots_with_multiplicity():
    # (x-1)^2 (x+3) = x^3 + x^2 - 5x + 3
    assert integer_roots((3, -5, 1, 1), 3) == ({1: 2, -3: 1}, (1,))
    # x^2 + x - 1 has no integer roots
    assert integer_roots((-1, 1, 1), 1) == ({}, (-1, 1, 1))
    # x^2 (x - 2)(2x^2 + 1) = 2x^5 - 4x^4 + x^3 - 2x^2
    p = (0, 0, -2, 1, -4, 2)
    roots, cofactor = integer_roots(p, 2)
    assert roots == {0: 2, 2: 1} and cofactor == (1, 0, 2)
    assert_deflation(p, roots, cofactor)
    assert integer_roots((), 0) == ({}, ())
    # a root beyond the bound stays in the cofactor
    assert integer_roots((-5, 1), 4) == ({}, (-5, 1))


def test_integer_roots_work_is_set_by_the_bound():
    # (x - 3)(x^2 + 10^18 + 9): a constant term near 3 * 10^18 has far too
    # many candidate divisors to try, but only -3..3 are scanned
    c = 10**18 + 9
    t0 = time.perf_counter()
    assert integer_roots((-3 * c, c, -3, 1), 3) == ({3: 1}, (c, 0, 1))
    assert time.perf_counter() - t0 < 1.0


def _poly(coeffs):
    """The coefficient tuple with its trailing zeros stripped."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


@given(st.lists(small_ints, min_size=1, max_size=6),
       st.lists(small_ints, min_size=2, max_size=4), small_ints)
def test_divmod_reconstructs(a, b, x):
    p, q = _poly(a), _poly(b)
    if len(q) < 2:
        return
    quo, rem = divmod_exact(p, q)
    # p(x) = quo(x) q(x) + rem(x) over the rationals
    assert horner(p, x) == horner(quo, x) * horner(q, x) + horner(rem, x)


@given(st.lists(small_ints, min_size=1, max_size=5), small_ints)
def test_integer_roots_are_roots(coeffs, probe):
    p = _poly(coeffs)
    if not p:
        return
    # a non-zero integer root divides the lowest non-zero coefficient, so
    # the largest coefficient bounds it
    roots, cofactor = integer_roots(p, max(map(abs, p)))
    for r, m in roots.items():
        assert m >= 1 and horner(p, r) == 0
    if horner(p, probe) != 0:
        assert probe not in roots
    assert_deflation(p, roots, cofactor)
