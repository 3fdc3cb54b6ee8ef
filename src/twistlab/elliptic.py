"""Rational elliptic curves y^2 = x^3 + Ax + B: j-invariant, twists,
and the two isomorphism levels (over Q and over C).

Curves C-isomorphic share the j-invariant; curves Q-isomorphic are
related by the Weierstrass scaling A' = u^4 A, B' = u^6 B for a nonzero
rational u.  The gap between the two levels is exactly the twist family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional


class CurveError(ValueError):
    """Domain error in elliptic-curve operations."""


class SingularCurveError(CurveError):
    pass


@dataclass(frozen=True)
class EllipticCurve:
    A: Fraction
    B: Fraction

    def __post_init__(self):
        object.__setattr__(self, "A", Fraction(self.A))
        object.__setattr__(self, "B", Fraction(self.B))
        if 4 * self.A**3 + 27 * self.B**2 == 0:
            raise SingularCurveError(f"singular curve: A={self.A}, B={self.B}")

    def __str__(self):
        return f"y^2 = x^3 + ({self.A})x + ({self.B})"


@dataclass(frozen=True)
class TwistParameter:
    t: Fraction

    def __post_init__(self):
        object.__setattr__(self, "t", Fraction(self.t))
        if self.t == 0:
            raise CurveError("twist parameter must be nonzero")


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
    return j_invariant(e1) == j_invariant(e2)


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
    """Exact rational n-th root; for even n only the positive root."""
    if f < 0:
        if n % 2 == 0:
            return None
        r = _rational_nth_root(-f, n)
        return -r if r is not None else None
    num = _int_nth_root(f.numerator, n)
    den = _int_nth_root(f.denominator, n)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _twist_parameter(e1: EllipticCurve, e2: EllipticCurve) -> Optional[Fraction]:
    """The t with twist(e1, t) = e2 for curves whose A and B vanish
    alike, or None when e2 lies outside e1's twist family (the generic-j
    consistency check fails)."""
    if e1.B == 0:  # j = 1728
        return e2.A / e1.A
    if e1.A == 0:  # j = 0
        return e2.B / e1.B
    t = (e2.B / e1.B) / (e2.A / e1.A)
    return t if t * t == e2.A / e1.A and t**3 == e2.B / e1.B else None


def q_isomorphic(
    e1: EllipticCurve, e2: EllipticCurve
) -> tuple[bool, Optional[Fraction]]:
    """Decide A2 = u^4 A1, B2 = u^6 B1 for some nonzero rational u.

    Returns (verdict, u) with u > 0 chosen when it exists (u and -u act
    identically since only even powers appear).  The scaling by u is the
    twist by t = u^2 at generic j, by t = u^4 at j = 1728 (B = 0) and by
    t = u^6 at j = 0 (A = 0).
    """
    if (e1.A == 0) != (e2.A == 0) or (e1.B == 0) != (e2.B == 0):
        return False, None
    t = _twist_parameter(e1, e2)
    if t is None:
        return False, None
    u = _rational_nth_root(t, 4 if e1.B == 0 else 6 if e1.A == 0 else 2)
    return u is not None, u


def twist_between(e1: EllipticCurve, e2: EllipticCurve) -> Optional[TwistParameter]:
    """The t with twist(e1, t) = e2, if e2 lies in e1's twist family.

    Requires equal j-invariants, which make A and B vanish alike; returns
    None for C-isomorphic pairs outside the family.
    """
    if not c_isomorphic(e1, e2):
        raise CurveError("twist_between requires equal j-invariants")
    t = _twist_parameter(e1, e2)
    return TwistParameter(t) if t is not None else None
