"""Classification of irrational rotation parameters.

Two parameters give isomorphic tori exactly when they are equal; they
give Morita-equivalent tori exactly when some integer Mobius map of
determinant +-1 carries one to the other, which for quadratic
irrationals means their continued-fraction expansions share an infinite
tail.  Equivalences come with explicit verified matrix witnesses.
"""

from __future__ import annotations

from typing import Optional

from ._value import Value, lazy
from .contfrac import _Cycle, _periodic, _reduced_state, _transfer, _walk
from .errors import TorusError, clipped
from .surd import QuadraticSurd


class TorusParameter(Value):
    _fields = ("theta",)

    def __init__(self, theta: QuadraticSurd):
        if theta.is_rational:
            raise TorusError("rotation parameter must be irrational")
        object.__setattr__(self, "theta", theta)

    # a lazy field writes the instance __dict__ directly, past the
    # refused assignment: each parameter's preperiod is walked at most
    # once, however many verbs ask.  Its cycle comes from contfrac's memo,
    # walked and rotated once for all the parameters that enter it at the
    # same state, while the memo keeps it.
    @lazy
    def reduced(self) -> tuple[tuple[int, ...], int, int, int]:
        """(preperiod, P, Q, D): theta's first reduced complete quotient
        as the least state (P + sqrt(D))/Q, D a square times theta.d, and
        the terms before it; the cycle and the Morita lookup continue from it."""
        return _reduced_state(self.theta)

    @lazy
    def cycle(self) -> _Cycle:
        """The cycle of theta's period, walked from its first reduced quotient."""
        return _periodic(self.reduced)


class UnimodularWitness(Value):
    """Integer 2x2 matrix [[a, b], [c, d]] with det = +-1."""

    _fields = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        if self.det not in (1, -1):
            raise TorusError(f"matrix {clipped(self.rows())} is not unimodular")

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.a, self.b), (self.c, self.d))


def apply_mobius(m: UnimodularWitness, t: TorusParameter) -> TorusParameter:
    """(a*theta + b) / (c*theta + d), exact, in one integer step.

    For theta = (p + q*sqrt(k))/r the image is (n0 + n1*sqrt(k)) /
    (e0 + e1*sqrt(k)) with n = (a*p + b*r, a*q), e = (c*p + d*r, c*q);
    times the conjugate, its denominator is the norm e0^2 - e1^2*k.  That
    norm is never 0: theta is irrational, and det = +-1 rules out
    c = d = 0.  k is theta's squarefree radicand, so nothing is factored."""
    theta = t.theta
    p, q, r, k = theta.p, theta.q, theta.r, theta.d
    n0, n1 = m.a * p + m.b * r, m.a * q
    e0, e1 = m.c * p + m.d * r, m.c * q
    return TorusParameter(
        QuadraticSurd._reduced(n0 * e0 - n1 * e1 * k, n1 * e0 - n0 * e1, e0 * e0 - e1 * e1 * k, k)
    )


def isomorphic(t1: TorusParameter, t2: TorusParameter) -> bool:
    return t1.theta == t2.theta


def morita_invariant(t: TorusParameter) -> tuple[int, ...]:
    """Canonical rotation of the minimal period: the normal form of the
    infinite tail class."""
    return t.cycle.least()


def _tail_offsets(t1: TorusParameter, t2: TorusParameter):
    """(w1, w2, period): prefix words of theta1 and theta2 after which
    both expansions continue with the same purely periodic tail, or None
    when the tail classes differ.

    By Galois's theorem the reduced complete quotients of theta1 form one
    cycle of the state recursion, and theta2 is equivalent exactly when
    its first reduced quotient x lies on it (Buchmann & Vollmer, Binary
    Quadratic Forms, ch. 6).  Both states are least
    (contfrac._reduced_state), so their radicands are a class invariant:
    the fields and then the radicands D1 and D2 must agree.  x lies on
    the cycle exactly when the state recursion from x over D1 reaches
    theta1's first reduced quotient within L = |p1| steps (contfrac._walk);
    the s terms it walks end w2, and w1 is theta1's preperiod.  Any
    shorter pair of such prefixes differs in length by the same amount,
    so it gives the same witness."""
    if t1.theta.d != t2.theta.d:
        return None
    period = t1.cycle.period
    pre1, P1, Q1, D1 = t1.reduced
    pre2, P2, Q2, D2 = t2.reduced
    if D1 != D2:
        return None
    if (P1, Q1) == (P2, Q2):
        return pre1, pre2, period
    steps = _walk(P2, Q2, D1, (P1, Q1), len(period))
    return None if steps is None else (pre1, pre2 + steps, period)


def _verified(m: UnimodularWitness, t1: TorusParameter, t2: TorusParameter) -> UnimodularWitness:
    """m, once it is re-applied exactly: m(theta1) = theta2 is
    a*theta1 + b = theta2*(c*theta1 + d), as c*theta1 + d is never 0 (theta1
    is irrational and det = +-1).  For theta_i = (p_i + q_i*sqrt(k))/r_i over
    one squarefree k, times r1*r2, that holds in Z[sqrt(k)] exactly when
    its rational and its sqrt(k) parts agree, two integer identities.
    Parameters over different radicands are never equivalent."""
    x, y = t1.theta, t2.theta
    a, b, c, d = m.a, m.b, m.c, m.d
    p1, q1, r1, k, p2, q2, r2 = x.p, x.q, x.r, x.d, y.p, y.q, y.r
    e = c * p1 + d * r1  # c*theta1 + d = (e + c*q1*sqrt(k))/r1
    if (y.d != k or r2 * (a * p1 + b * r1) != p2 * e + q2 * c * q1 * k
            or r2 * a * q1 != p2 * c * q1 + q2 * e):
        raise TorusError("internal: witness failed re-application check")
    return m


def morita_equivalent(t1: TorusParameter, t2: TorusParameter) -> Optional[UnimodularWitness]:
    """A verified witness M(w2) * M(w1)^-1 of determinant (-1)^(|w1| + |w2|)
    for the prefix words, or None when the tail classes differ.

    Walks theta1's cycle and runs theta2 only to its first reduced quotient,
    which then walks to theta1's (_tail_offsets)."""
    found = _tail_offsets(t1, t2)
    return _verified(UnimodularWitness(*_transfer(*found[:2])), t1, t2) if found else None


def sl2_witness(t1: TorusParameter, t2: TorusParameter) -> Optional[UnimodularWitness]:
    """A verified witness of determinant exactly +1, or None.

    Extending theta2's prefix word by one period flips the witness parity
    when the period length is odd; for even period lengths the parity is
    fixed, so a +1 witness may genuinely not exist.
    """
    found = _tail_offsets(t1, t2)
    if not found:
        return None
    w1, w2, period = found
    if (len(w1) + len(w2)) % 2:
        if len(period) % 2 == 0:
            return None
        w2 += period
    return _verified(UnimodularWitness(*_transfer(w1, w2)), t1, t2)
