"""Rational elliptic curves y^2 = x^3 + Ax + B: j-invariant, twists,
and the two isomorphism levels (over Q and over C).

Curves C-isomorphic share the j-invariant; curves Q-isomorphic are
related by the Weierstrass scaling A' = u^4 A, B' = u^6 B for a nonzero
rational u.  The gap between the two levels is exactly the twist family.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from ._value import Value
from .errors import CurveError, SingularCurveError


class EllipticCurve(Value):
    _fields = ("A", "B")

    def __init__(self, A, B):
        A, B = Fraction(A), Fraction(B)
        if 4 * A**3 + 27 * B**2 == 0:
            raise SingularCurveError(f"singular curve: A={A}, B={B}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    def __str__(self):
        return f"y^2 = x^3 + ({self.A})x + ({self.B})"


class TwistParameter(Value):
    _fields = ("t",)

    def __init__(self, t):
        t = Fraction(t)
        if t == 0:
            raise CurveError("twist parameter must be nonzero")
        object.__setattr__(self, "t", t)


def j_invariant(e: EllipticCurve) -> Fraction:
    """1728 * 4A^3 / (4A^3 + 27B^2)."""
    num = 4 * e.A**3
    return 1728 * num / (num + 27 * e.B**2)


def twist(e: EllipticCurve, t: TwistParameter) -> EllipticCurve:
    """The twist family member at t.

    Three cases: generic j gives (t^2 A, t^3 B); j = 1728 (B = 0) gives
    (t A, 0); j = 0 (A = 0) gives (0, t B).  The special cases are
    detected by the exact vanishing of A or B, never by rounding j.
    """
    s = t.t
    if e.B == 0:  # j = 1728
        return EllipticCurve(s * e.A, Fraction(0))
    if e.A == 0:  # j = 0
        return EllipticCurve(Fraction(0), s * e.B)
    return EllipticCurve(s * s * e.A, s * s * s * e.B)


def c_isomorphic(e1: EllipticCurve, e2: EllipticCurve) -> bool:
    """Equal j, which with its denominators cleared is A1^3 B2^2 = A2^3 B1^2."""
    return e1.A**3 * e2.B**2 == e2.A**3 * e1.B**2


def _int_nth_root(m: int, n: int) -> Optional[int]:
    """Exact nonnegative n-th root of m >= 0, or None: Newton's integer
    iteration from above decreases strictly to the floor of the root."""
    if m < 2:
        return m if m >= 0 else None
    x = 1 << -(-m.bit_length() // n)
    while (y := ((n - 1) * x + m // x ** (n - 1)) // n) < x:
        x = y
    return x if x**n == m else None


def _rational_nth_root(f: Fraction, n: int) -> Optional[Fraction]:
    """Exact positive rational n-th root for even n: None for f < 0, whose
    numerator _int_nth_root refuses."""
    num = _int_nth_root(f.numerator, n)
    den = _int_nth_root(f.denominator, n)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _twist_parameter(e1: EllipticCurve, e2: EllipticCurve) -> Fraction:
    """The t with twist(e1, t) = e2 for C-isomorphic curves.  At generic
    j, t = A1 B2 / (A2 B1): A1^3 B2^2 = A2^3 B1^2 gives t^2 = A2 / A1 and
    then t^3 = B2 / B1."""
    if e1.B == 0:  # j = 1728
        return e2.A / e1.A
    if e1.A == 0:  # j = 0
        return e2.B / e1.B
    return e1.A * e2.B / (e2.A * e1.B)


def q_isomorphic(
    e1: EllipticCurve, e2: EllipticCurve
) -> tuple[bool, Optional[Fraction]]:
    """Decide A2 = u^4 A1, B2 = u^6 B1 for some nonzero rational u.

    Returns (verdict, u) with u > 0 chosen when it exists (u and -u act
    identically since only even powers appear).  The scaling by u is the
    twist by t = u^2 at generic j, by t = u^4 at j = 1728 (B = 0) and by
    t = u^6 at j = 0 (A = 0).
    """
    if not c_isomorphic(e1, e2):  # equal j also makes A and B vanish alike
        return False, None
    u = _rational_nth_root(_twist_parameter(e1, e2), 4 if e1.B == 0 else 6 if e1.A == 0 else 2)
    return u is not None, u


def twist_between(e1: EllipticCurve, e2: EllipticCurve) -> TwistParameter:
    """The t with twist(e1, t) = e2.  Requires equal j-invariants; over Q
    every C-isomorphic pair lies in one twist family."""
    if not c_isomorphic(e1, e2):
        raise CurveError("twist_between requires equal j-invariants")
    return TwistParameter(_twist_parameter(e1, e2))
