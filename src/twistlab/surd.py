"""Canonical values in real quadratic fields, and their text literals.

A value is stored as (p + q*sqrt(d)) / r with integer p, q, positive
integer r, and squarefree d >= 1.  Rationals are embedded with q = 0,
d = 1.  The canonical form is unique, so equality of values (by class
and fields, as for every twistlab value type) is equality of real
numbers.  There is no field arithmetic here: the other layers compute
on integers (continued-fraction states, matrix entries) and build a
surd only for the answer.  Everything is big-integer exact; no floats.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from math import gcd, isqrt

from ._value import Value
from .errors import SurdError, SurdParseError, digit_limit_text


_TRIAL_BOUND = 10_000
# Longest trial-division cofactor handed to sympy.factorint.  sympy 1.14
# factored random 96-bit semiprimes in 0.25-0.9 s on a 2-vCPU Xeon VM,
# 100-bit ones in up to 2 s; the time keeps growing with the size.
_FACTOR_BITS = 96


@cache
def _small_primes() -> tuple[int, ...]:
    """The primes up to _TRIAL_BOUND, sieved once."""
    flags = bytearray([1]) * (_TRIAL_BOUND + 1)
    flags[0] = flags[1] = 0
    for i in range(2, isqrt(_TRIAL_BOUND) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(flags[i * i :: i]))
    return tuple(i for i, f in enumerate(flags) if f)


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
        if gcd(gcd(p, q), r) != 1 or _squarefree_decompose(d)[0] != 1:
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
        and r != 0.  A caller that already holds a squarefree radicand
        (torus.apply_mobius keeps its parameter's) comes here directly
        and never factors d again."""
        if d == 1:
            p, q = p + q, 0
        if r < 0:
            p, q, r = -p, -q, -r
        g = gcd(p, q, r)
        return QuadraticSurd._canonical(p=p // g, q=q // g, r=r // g, d=d if q else 1)

    # -- predicates ---------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    def to_fraction(self) -> Fraction:
        if not self.is_rational:
            raise SurdError("irrational surd has no rational value")
        return Fraction(self.p, self.r)

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
