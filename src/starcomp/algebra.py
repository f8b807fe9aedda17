"""Exact scalars: rationals and real quadratic irrationals, plus integer polynomials.

Every number in this package is either a rational (carried by
``fractions.Fraction``) or an element a + b*sqrt(d) of a real quadratic field,
held in the normal form where d is a squarefree integer > 1.  Zero tests,
equality and ordering are all exact; no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

Rat = Union[int, Fraction]


def _squarefree_part(n: int) -> tuple[int, int]:
    """Decompose n = k^2 * m with m squarefree; returns (k, m).  n > 0."""
    k, m, p = 1, 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        k *= p ** (e // 2)
        if e % 2:
            m *= p
        p += 1 if p == 2 else 2
    return k, m * n


class QNum:
    """a + b*sqrt(d) with a, b rational and d squarefree (d = 0 iff b = 0)."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: Rat, b: Rat = 0, d: int = 0):
        a = Fraction(a)
        b = Fraction(b)
        if b == 0:
            d = 0
        elif d <= 1:
            raise ValueError(f"irrational part needs squarefree d > 1, got d={d}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __setattr__(self, *_):
        raise AttributeError("QNum is immutable")

    @staticmethod
    def sqrt(n: int) -> "QNum":
        """Exact square root of a nonnegative integer."""
        if n < 0:
            raise ValueError("negative radicand")
        if n == 0:
            return QNum(0)
        k, m = _squarefree_part(n)
        return QNum(0, k, m) if m > 1 else QNum(k)

    @staticmethod
    def quadratic_root(c0: Rat, c1: Rat, positive: bool = True) -> "QNum":
        """The chosen real root of x^2 + c1*x + c0 (larger root when positive)."""
        disc = Fraction(c1) * c1 - 4 * Fraction(c0)
        if disc < 0:
            raise ValueError("no real root: negative discriminant")
        root = QNum.sqrt(disc.numerator * disc.denominator) / disc.denominator
        half = Fraction(-c1, 2)
        return half + root / 2 if positive else half - root / 2

    # -- predicates ------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    @property
    def is_integer(self) -> bool:
        return self.b == 0 and self.a.denominator == 1

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self} is irrational")
        return self.a

    def as_int(self) -> int:
        f = self.as_fraction()
        if f.denominator != 1:
            raise ValueError(f"{self} is not an integer")
        return f.numerator

    def conjugate(self) -> "QNum":
        return QNum(self.a, -self.b, self.d) if self.b else self

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> "QNum | None":
        if isinstance(other, QNum):
            return other
        if isinstance(other, (int, Fraction)):
            return QNum(other)
        return None

    def _join(self, other: "QNum") -> int:
        if self.d and other.d and self.d != other.d:
            raise ValueError(f"incompatible quadratic fields sqrt({self.d}), sqrt({other.d})")
        return self.d or other.d

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QNum(self.a + o.a, self.b + o.b, self._join(o))

    __radd__ = __add__

    def __neg__(self):
        return QNum(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QNum(self.a - o.a, self.b - o.b, self._join(o))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._join(o)
        return QNum(self.a * o.a + self.b * o.b * d, self.a * o.b + self.b * o.a, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.b == 0:
            if o.a == 0:
                raise ZeroDivisionError("division by zero")
            return QNum(self.a / o.a, self.b / o.a, self.d)
        norm = o.a * o.a - o.b * o.b * o.d  # nonzero: d is not a square
        return (self * o.conjugate()) / QNum(norm)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if k < 0:
            return QNum(1) / self ** (-k)
        out, base = QNum(1), self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison ------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b and self.d == o.d

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(d)."""
        a, b = self.a, self.b
        if b == 0:
            return -1 if a < 0 else (0 if a == 0 else 1)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 against b^2 * d
        lead_rational = a * a > b * b * self.d
        if lead_rational:
            return 1 if a > 0 else -1
        return 1 if b > 0 else -1

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() >= 0

    def __bool__(self):
        return self.a != 0 or self.b != 0

    # -- display ---------------------------------------------------------

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        root = f"sqrt({self.d})"
        bs = "" if self.b == 1 else ("-" if self.b == -1 else f"{self.b}*")
        if self.a == 0:
            return f"{bs}{root}"
        sign = "+" if self.b > 0 else "-"
        mag = abs(self.b)
        ms = "" if mag == 1 else f"{mag}*"
        return f"{self.a}{sign}{ms}{root}"

    def __repr__(self):
        return f"QNum({self})"


def qnum(x) -> QNum:
    """Coerce an int, Fraction, or QNum to QNum."""
    return x if isinstance(x, QNum) else QNum(x)


def parse_scalar(text: str) -> QNum:
    """Parse an exact scalar from CLI syntax.

    Accepted forms: integer ("-2"), fraction ("3/2"), or a quadratic
    "root(c0,c1):pos" / "root(c0,c1):neg" naming the chosen real root of
    x^2 + c1*x + c0.  Anything of higher algebraic degree is unsupported.
    """
    text = text.strip()
    if text.startswith("root(") :
        body, _, branch = text.partition(":")
        if branch not in ("pos", "neg"):
            raise ValueError(f"root(...) needs a :pos or :neg branch selector: {text!r}")
        inner = body[len("root("):]
        if not inner.endswith(")"):
            raise ValueError(f"malformed root(...) syntax: {text!r}")
        parts = inner[:-1].split(",")
        if len(parts) != 2:
            raise ValueError(f"root() takes exactly two coefficients: {text!r}")
        try:
            c0, c1 = (Fraction(p.strip()) for p in parts)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
        return QNum.quadratic_root(c0, c1, positive=(branch == "pos"))
    try:
        return QNum(Fraction(text))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


class IntPoly:
    """Polynomial with integer coefficients, stored ascending by degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *_):
        raise AttributeError("IntPoly is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __call__(self, x):
        """Evaluate by Horner; works for int, Fraction, and QNum arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def integer_roots(self) -> tuple[dict[int, int], "IntPoly"]:
        """Integer roots with multiplicities (leading coefficient arbitrary),
        and the cofactor left once synthetic division has taken out each
        (x - r)^m; for a non-zero polynomial it has no integer root."""
        if not self.coeffs:
            return {}, self
        cs = list(self.coeffs)
        roots: dict[int, int] = {}
        # strip the power of x first
        k = 0
        while cs[k] == 0:
            k += 1
        if k:
            roots[0] = k
            cs = cs[k:]
        const = abs(cs[0])
        cands: set[int] = set()
        d = 1
        while d * d <= const:
            if const % d == 0:
                cands.add(d)
                cands.add(const // d)
            d += 1
        for c in sorted(cands):
            for r in (c, -c):
                while True:
                    acc = 0
                    for coef in reversed(cs):
                        acc = acc * r + coef
                    if acc != 0 or len(cs) == 1:
                        break
                    # synthetic division by (x - r)
                    out = []
                    carry = 0
                    for coef in reversed(cs):
                        carry = coef + carry * r
                        out.append(carry)
                    cs = list(reversed(out[:-1]))
                    roots[r] = roots.get(r, 0) + 1
        return roots, IntPoly(cs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(f"{c:+d}")
            else:
                mag = "" if abs(c) == 1 else str(abs(c))
                xs = "x" if i == 1 else f"x^{i}"
                terms.append(("+" if c > 0 else "-") + mag + xs)
        s = "".join(terms)
        return s[1:] if s.startswith("+") else s

    def __repr__(self):
        return f"IntPoly({self})"
