"""Exact arithmetic in real quadratic fields.

A value is stored as (p + q*sqrt(d)) / r with integer p, q, positive
integer r, and squarefree d >= 1.  Rationals are embedded with q = 0,
d = 1.  The canonical form is unique, so tuple equality is equality of
real numbers.  Everything here is big-integer exact; no floats.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt

from ._value import Value
from .errors import IncompatibleFieldsError, SurdError, SurdParseError, digit_limit_text


_TRIAL_BOUND = 10_000
# Longest trial-division cofactor handed to sympy.factorint.  sympy 1.14
# factored random 96-bit semiprimes in 0.25-0.9 s on a 2-vCPU Xeon VM,
# 100-bit ones in up to 2 s; the time keeps growing with the size.
_FACTOR_BITS = 96
_primes_cache: list[int] = []


def _small_primes() -> list[int]:
    if not _primes_cache:
        flags = bytearray([1]) * (_TRIAL_BOUND + 1)
        flags[0] = flags[1] = 0
        for i in range(2, isqrt(_TRIAL_BOUND) + 1):
            if flags[i]:
                flags[i * i :: i] = bytes(len(flags[i * i :: i]))
        _primes_cache.extend(i for i, f in enumerate(flags) if f)
    return _primes_cache


def _squarefree_decompose(d: int) -> tuple[int, int]:
    """Return (s, d0) with d = s^2 * d0 and d0 squarefree.

    Sieved trial division removes prime factors in increasing order and
    stops at the first prime p with p^3 above the cofactor d left, or at
    the bound.  Below the bound cubed, every prime factor of d then
    exceeds the cube root of d, so d is 1, q, q^2 or q*r, and a
    perfect-square check settles it.  A larger leftover, past the same
    check, goes to sympy.factorint while it is at most _FACTOR_BITS
    long; a longer one raises SurdError rather than factor without a
    time bound.  Fixed points of period matrices are built from
    primitive forms (contfrac._fixed_point), so the square factor that
    grows with the period length never arrives here; only user input
    (large radicands, long arbitrary period words) reaches factorint or
    the error.
    """
    s, sf = 1, 1
    for p in _small_primes():
        if p * p * p > d:
            break
        if d % p == 0:
            e = 1
            d //= p
            while d % p == 0:
                d //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                sf *= p
    root = isqrt(d)
    if root * root == d:
        return s * root, sf
    if d < _TRIAL_BOUND**3:  # q or q*r for primes q != r
        return s, sf * d
    if d.bit_length() > _FACTOR_BITS:
        raise SurdError(
            f"radicand too large to certify squarefree: a cofactor of "
            f"{d.bit_length()} bits has no prime factor below {_TRIAL_BOUND}"
        )
    from sympy import factorint

    for p, e in factorint(d).items():
        s *= p ** (e // 2)
        if e % 2:
            sf *= p
    return s, sf


def _sign2(a: int, b: int, k: int) -> int:
    """Sign of a + b*sqrt(k), k >= 1; squaring only when sign-safe."""
    if b == 0 or k == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if (a > 0) == (b > 0):
        return 1 if a > 0 else -1
    lhs, rhs = a * a, b * b * k
    if lhs == rhs:
        return 0
    return (1 if a > 0 else -1) if lhs > rhs else (1 if b > 0 else -1)


def _sign3(u: int, v: int, m: int, w: int, n: int) -> int:
    """Sign of u + v*sqrt(m) + w*sqrt(n) for distinct squarefree
    m, n >= 2, the only case compare() leaves to it."""
    # sign of the radical part v*sqrt(m) + w*sqrt(n): times sqrt(m), v*m + w*sqrt(mn)
    rad = _sign2(v * m, w, m * n)
    if rad == 0:
        return (u > 0) - (u < 0)
    if u == 0 or (u > 0) == (rad > 0):
        return rad
    # |u|^2 - (v*sqrt(m) + w*sqrt(n))^2 = (u^2 - v^2 m - w^2 n) - 2vw*sqrt(mn)
    diff = _sign2(u * u - v * v * m - w * w * n, -2 * v * w, m * n)
    if diff == 0:
        return 0
    return (1 if u > 0 else -1) if diff > 0 else rad


class QuadraticSurd(Value):
    """Canonical (p + q*sqrt(d))/r.  Construct via normalize()."""

    _fields = ("p", "q", "r", "d")

    def __init__(self, p: int, q: int, r: int, d: int):
        if r <= 0:
            raise SurdError("denominator must be positive")
        if d < 1:
            raise SurdError("radicand must be >= 1")
        if (d == 1) != (q == 0):
            raise SurdError("rational surds must carry q = 0, d = 1")
        if gcd(gcd(p, q), r) != 1:
            raise SurdError("surd tuple not reduced; use normalize()")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "d", d)

    # -- construction -------------------------------------------------

    @staticmethod
    def normalize(p: int, q: int, r: int, d: int) -> "QuadraticSurd":
        if r == 0:
            raise SurdError("denominator must be nonzero")
        if d <= 0:
            raise SurdError("only real quadratic fields supported (d >= 1)")
        s, d0 = _squarefree_decompose(d)
        return QuadraticSurd._reduced(p, q * s, r, d0)

    @staticmethod
    def _reduced(p: int, q: int, r: int, d: int) -> "QuadraticSurd":
        """Canonical form of (p + q*sqrt(d))/r for a squarefree d >= 1
        and r != 0.  Arithmetic results stay in their operands' field, so
        they come here directly and never factor d again."""
        if d == 1:
            p, q = p + q, 0
        if r < 0:
            p, q, r = -p, -q, -r
        g = gcd(gcd(p, q), r)
        if g == 0:
            # p = q = 0: canonical zero
            return QuadraticSurd(0, 0, 1, 1)
        return QuadraticSurd(p // g, q // g, r // g, d if q else 1)

    @staticmethod
    def from_rational(x) -> "QuadraticSurd":
        f = Fraction(x)
        return QuadraticSurd._reduced(f.numerator, 0, f.denominator, 1)

    @staticmethod
    def sqrt_of(d: int) -> "QuadraticSurd":
        return QuadraticSurd.normalize(0, 1, 1, d)

    # -- predicates ---------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    @property
    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def to_fraction(self) -> Fraction:
        if not self.is_rational:
            raise SurdError("irrational surd has no rational value")
        return Fraction(self.p, self.r)

    # -- arithmetic ---------------------------------------------------

    def _coerced(self, other) -> "QuadraticSurd":
        if isinstance(other, QuadraticSurd):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadraticSurd.from_rational(other)
        return NotImplemented  # type: ignore[return-value]

    def _common_d(self, other: "QuadraticSurd") -> int:
        if self.q == 0:
            return other.d
        if other.q == 0 or self.d == other.d:
            return self.d
        raise IncompatibleFieldsError(
            f"incompatible fields sqrt({self.d}) and sqrt({other.d})"
        )

    def __add__(self, other):
        o = self._coerced(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._common_d(o)
        return QuadraticSurd._reduced(
            self.p * o.r + o.p * self.r,
            self.q * o.r + o.q * self.r,
            self.r * o.r,
            d,
        )

    __radd__ = __add__

    def __neg__(self):
        return QuadraticSurd._reduced(-self.p, -self.q, self.r, self.d)

    def __sub__(self, other):
        o = self._coerced(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerced(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._common_d(o)
        return QuadraticSurd._reduced(
            self.p * o.p + self.q * o.q * d,
            self.p * o.q + self.q * o.p,
            self.r * o.r,
            d,
        )

    __rmul__ = __mul__

    def invert(self) -> "QuadraticSurd":
        if self.is_zero:
            raise ZeroDivisionError("surd division by zero")
        # 1/((p + q*sqrt(d))/r) = r*(p - q*sqrt(d)) / (p^2 - q^2 d)
        norm = self.p * self.p - self.q * self.q * self.d
        return QuadraticSurd._reduced(
            self.r * self.p, -self.r * self.q, norm, self.d
        )

    def __truediv__(self, other):
        o = self._coerced(other)
        if o is NotImplemented:
            return NotImplemented
        self._common_d(o)  # fail early with the field error, not div-by-zero
        return self * o.invert()

    def __rtruediv__(self, other):
        return self.invert() * other

    def conjugate(self) -> "QuadraticSurd":
        return QuadraticSurd._reduced(self.p, -self.q, self.r, self.d)

    # -- order --------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of the real value, in {-1, 0, 1}."""
        return _sign2(self.p, self.q, self.d)

    def compare(self, other) -> int:
        """Exact total order; works across distinct quadratic fields."""
        o = self._coerced(other)
        if o is NotImplemented:
            raise TypeError(f"cannot order a QuadraticSurd and a {type(other).__name__}")
        if self.q == 0 or o.q == 0 or self.d == o.d:
            d = self.d if self.q else o.d
            return _sign2(
                self.p * o.r - o.p * self.r,
                self.q * o.r - o.q * self.r,
                d,
            )
        # mixed fields: sign of u + v*sqrt(m) - w*sqrt(n) over r1*r2 > 0
        return _sign3(
            self.p * o.r - o.p * self.r,
            self.q * o.r,
            self.d,
            -o.q * self.r,
            o.d,
        )

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QuadraticSurd.from_rational(other)
        if not isinstance(other, QuadraticSurd):
            return NotImplemented
        return (self.p, self.q, self.r, self.d) == (other.p, other.q, other.r, other.d)

    def __hash__(self):
        # equal to a rational value, so hashed as that Fraction
        if not self.q:
            return hash(Fraction(self.p, self.r))
        return hash((self.p, self.q, self.r, self.d))

    def floor(self) -> int:
        # floor((p + x)/r) = floor((p + floor(x))/r) for r > 0, and
        # x = q*sqrt(d) = +-sqrt(m) takes its exact floor from isqrt(m)
        m = self.q * self.q * self.d
        root = isqrt(m)
        if self.q >= 0:
            f = root
        else:
            f = -root if root * root == m else -(root + 1)
        return (self.p + f) // self.r

    __floor__ = floor

    # -- display ------------------------------------------------------

    def __str__(self) -> str:
        return format_surd(self)

    def __repr__(self) -> str:
        return f"QuadraticSurd({self.p}, {self.q}, {self.r}, {self.d})"


# -- text literals ----------------------------------------------------
#
# Grammar:  "(p + q*sqrt(d))/r"  with optional signs and omitted unit
# parts, e.g. "sqrt(2)", "-3", "3/4", "(1+sqrt(5))/2", "(1-2*sqrt(3))/4".
#
# _LITERAL reads a text one token at a time.  Every step is optional and
# runs only once the steps before it are complete (nested groups, and the
# conditional groups (?(name)...)), so a literal matches whole, and on any
# other text the match stops where the grammar cannot go on: the column of
# the error.  The last group that matched names the token expected there.
# Digits are ASCII 0-9 only: str.isdigit also takes other scripts' digits
# and superscripts.  \s is str.isspace.  Each token takes the whitespace
# after it, except the sign of a radicand or denominator, which its digits
# follow directly; so no two \s* meet and a failed step backtracks in
# linear time.
_LITERAL = re.compile(
    r"""
    \s* (?P<open>\(\s*)? (?:(?P<sign>[+-])\s*)?
    (?:(?P<n>[0-9]+)\s* (?P<pm>[+-])\s*)?              # n +-
    (?:(?P<k>[0-9]+)\s*                                 # k*, or alone the integer p
        (?:(?P<star>\*)\s* | (?(n)(?!)|(?P<rat>)))?)?
    (?:(?(k)(?(star)|(?!)))                             # no sqrt right after an integer
        (?P<sqrt>sqrt)\s* (?:(?P<lp>\()\s*
        (?:(?P<d>[+-]?[0-9]+)\s* (?:(?P<rp>\))\s*)? | [+-])?)?)?   # a bare sign, then stop
    (?:(?(rp)|(?(rat)|(?!))) (?(open)\)\s*) (?P<tail>))?  # after a whole numerator
    (?(tail)(?:(?P<slash>/)\s* (?:(?P<r>[+-]?[0-9]+)\s* | [+-])?)?)
    """,
    re.VERBOSE,
)
# What a match that stops short expected, by the last group it matched
_EXPECTED = {
    None: "expected integer or sqrt term",
    "open": "expected integer or sqrt term",
    "sign": "expected integer or sqrt term",
    "pm": "expected 'sqrt'",
    "k": "expected '*'",
    "star": "expected 'sqrt'",
    "rat": "expected ')'",
    "sqrt": "expected '('",
    "lp": "expected integer",
    "d": "expected ')'",
    "rp": "expected ')'",
    "slash": "expected integer",
}


def parse_surd(text: str) -> QuadraticSurd:
    """Parse a surd literal into canonical form.

    Errors come in text order: an integer past the interpreter's digit
    limit, at its first character (a radicand's or denominator's sign),
    before a syntax error after it."""
    m = _LITERAL.match(text)
    _, sign, n, pm, k, _, _, sqrt, _, d, _, _, _, r = m.groups()
    try:
        n = int(n) if n else None
        k = int(k) if k else 1
        d = int(d) if d else 1
        r = int(r) if r else 1
    except ValueError:
        for name in ("n", "k", "d", "r"):
            try:
                int(m[name] or 0)
            except ValueError:
                raise SurdParseError(digit_limit_text(), m.start(name)) from None
    end = m.end()
    if m.lastgroup in _EXPECTED:
        raise SurdParseError(_EXPECTED[m.lastgroup], end)
    if end != len(text):
        raise SurdParseError("trailing characters", end)
    if n is not None:  # n +- [k*]sqrt(d)
        return QuadraticSurd.normalize(-n if sign == "-" else n, -k if pm == "-" else k, r, d)
    if sign == "-":
        k = -k
    if sqrt:  # [k*]sqrt(d)
        return QuadraticSurd.normalize(0, k, r, d)
    return QuadraticSurd.normalize(k, 0, r, 1)  # the integer p = k


def format_surd(x: QuadraticSurd) -> str:
    """Canonical literal; parse_surd(format_surd(x)) == x."""
    if x.q == 0:
        return str(x.p) if x.r == 1 else f"{x.p}/{x.r}"
    if abs(x.q) == 1:
        term = f"sqrt({x.d})"
    else:
        term = f"{abs(x.q)}*sqrt({x.d})"
    if x.p == 0:
        num = term if x.q > 0 else f"-{term}"
    else:
        num = f"{x.p}{'+' if x.q > 0 else '-'}{term}"
    if x.r == 1:
        return num
    return f"({num})/{x.r}"
