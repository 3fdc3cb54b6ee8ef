"""Rational elliptic curves y^2 = x^3 + Ax + B: j-invariant, twists,
and the two isomorphism levels (over Q and over C).

Curves C-isomorphic share the j-invariant; curves Q-isomorphic are
related by the Weierstrass scaling A' = u^4 A, B' = u^6 B for a nonzero
rational u.  The gap between the two levels is exactly the twist family.

Every identity runs on the integers of A = a/c and B = b/d (c, d > 0)
with its denominators cleared; the only Fractions built are the values
returned: a curve's A and B, j, t and u.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from ._value import Value
from .errors import CurveError, SingularCurveError, clipped


def _ints(e: EllipticCurve) -> tuple[int, int, int, int]:
    """(a, c, b, d) with A = a/c and B = b/d in lowest terms, c, d > 0."""
    return e.A.numerator, e.A.denominator, e.B.numerator, e.B.denominator


def _terms(A: Fraction, B: Fraction) -> tuple[int, int]:
    """4a^3 d^2 and 27 b^2 c^3: 4A^3 and 27B^2 over their common
    denominator c^3 d^2."""
    a, c, b, d = A.numerator, A.denominator, B.numerator, B.denominator
    return 4 * a**3 * d * d, 27 * b * b * c**3


class EllipticCurve(Value):
    _fields = ("A", "B")

    def __init__(self, A, B):
        A = A if type(A) is Fraction else Fraction(A)
        B = B if type(B) is Fraction else Fraction(B)
        x, y = _terms(A, B)
        if x + y == 0:
            raise SingularCurveError(f"singular curve: A={clipped(A)}, B={clipped(B)}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    def __str__(self):
        return f"y^2 = x^3 + ({self.A})x + ({self.B})"


class TwistParameter(Value):
    _fields = ("t",)

    def __init__(self, t):
        t = t if type(t) is Fraction else Fraction(t)
        if not t:
            raise CurveError("twist parameter must be nonzero")
        object.__setattr__(self, "t", t)


def j_invariant(e: EllipticCurve) -> Fraction:
    """1728 * 4A^3 / (4A^3 + 27B^2), which is 1728 * 4a^3 d^2 /
    (4a^3 d^2 + 27 b^2 c^3); the curve's check keeps the sum nonzero."""
    x, y = _terms(e.A, e.B)
    return Fraction(1728 * x, x + y)


def twist(e: EllipticCurve, t: TwistParameter) -> EllipticCurve:
    """The twist family member at t = n/m.

    Three cases: generic j gives (t^2 A, t^3 B); j = 1728 (B = 0) gives
    (t A, 0); j = 0 (A = 0) gives (0, t B).  The special cases are
    detected by the exact vanishing of A or B, never by rounding j.
    """
    n, m = t.t.numerator, t.t.denominator
    A, B = e.A, e.B
    a, b = (1, 0) if not B else (0, 1) if not A else (2, 3)  # powers of t on A and B
    return EllipticCurve(Fraction(n**a * A.numerator, m**a * A.denominator),
                         Fraction(n**b * B.numerator, m**b * B.denominator))


def c_isomorphic(e1: EllipticCurve, e2: EllipticCurve) -> bool:
    """Equal j, which with its denominators cleared is A1^3 B2^2 = A2^3 B1^2,
    and on the integers a1^3 b2^2 c2^3 d1^2 = a2^3 b1^2 c1^3 d2^2."""
    (a1, c1, b1, d1), (a2, c2, b2, d2) = _ints(e1), _ints(e2)
    return a1**3 * (b2 * d1) ** 2 * c2**3 == a2**3 * (b1 * d2) ** 2 * c1**3


def _int_nth_root(m: int, n: int) -> int | None:
    """Exact nonnegative n-th root of m >= 0, or None: Newton's integer
    iteration from above decreases strictly to the floor of the root."""
    if m < 2:
        return m if m >= 0 else None
    x = 1 << -(-m.bit_length() // n)
    while (y := ((n - 1) * x + m // x ** (n - 1)) // n) < x:
        x = y
    return x if x**n == m else None


def _twist_ratio(e1: EllipticCurve, e2: EllipticCurve) -> tuple[int, int]:
    """Integers p, q with t = p/q the parameter of twist(e1, t) = e2 for
    C-isomorphic curves, not reduced and q of either sign.  At generic j,
    t = A1 B2 / (A2 B1) = a1 b2 c2 d1 / (c1 d2 a2 b1): A1^3 B2^2 = A2^3 B1^2
    gives t^2 = A2 / A1 and then t^3 = B2 / B1."""
    (a1, c1, b1, d1), (a2, c2, b2, d2) = _ints(e1), _ints(e2)
    if not b1:  # j = 1728: t = A2 / A1
        return a2 * c1, c2 * a1
    if not a1:  # j = 0: t = B2 / B1
        return b2 * d1, d2 * b1
    return a1 * b2 * c2 * d1, c1 * d2 * a2 * b1


def _scaling(e1: EllipticCurve, e2: EllipticCurve) -> Fraction | None:
    """The u > 0 with A2 = u^4 A1, B2 = u^6 B1 for C-isomorphic curves, or
    None.  The scaling by u is the twist by t = u^2 at generic j, by
    t = u^4 at j = 1728 (B = 0) and by t = u^6 at j = 0 (A = 0)."""
    p, q = _twist_ratio(e1, e2)
    # the roots are taken of t in lowest terms: 8/2 has the square root 2
    # only as 4/1; a negative t leaves a negative numerator, which has none
    g = gcd(p, q) if q > 0 else -gcd(p, q)
    n = 4 if not e1.B else 6 if not e1.A else 2
    num, den = _int_nth_root(p // g, n), _int_nth_root(q // g, n)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def q_isomorphic(e1: EllipticCurve, e2: EllipticCurve) -> tuple[bool, Fraction | None]:
    """Decide A2 = u^4 A1, B2 = u^6 B1 for some nonzero rational u.

    Returns (verdict, u) with u > 0 chosen when it exists (u and -u act
    identically since only even powers appear).
    """
    if not c_isomorphic(e1, e2):  # equal j also makes A and B vanish alike
        return False, None
    u = _scaling(e1, e2)
    return u is not None, u


def twist_between(e1: EllipticCurve, e2: EllipticCurve) -> TwistParameter:
    """The t with twist(e1, t) = e2.  Requires equal j-invariants; over Q
    every C-isomorphic pair lies in one twist family."""
    if not c_isomorphic(e1, e2):
        raise CurveError("twist_between requires equal j-invariants")
    return TwistParameter(Fraction(*_twist_ratio(e1, e2)))
