"""Classification of irrational rotation parameters.

Two parameters give isomorphic tori exactly when they are equal; they
give Morita-equivalent tori exactly when some integer Mobius map of
determinant +-1 carries one to the other, which for quadratic
irrationals means their continued-fraction expansions share an infinite
tail.  Equivalences come with explicit verified matrix witnesses.
"""

from __future__ import annotations

from functools import cached_property
from math import isqrt
from typing import Optional

from ._value import Value
from .contfrac import EventuallyPeriodicCF, _Cycle, _cycle, _periodic, _reduced_state, _transfer
from .errors import TorusError
from .surd import QuadraticSurd


class TorusParameter(Value):
    _fields = ("theta",)

    def __init__(self, theta: QuadraticSurd):
        if theta.is_rational:
            raise TorusError("rotation parameter must be irrational")
        object.__setattr__(self, "theta", theta)

    # cached_property writes the instance __dict__ directly, past the
    # refused assignment: each parameter's preperiod is walked at most
    # once, however many verbs ask.  Its period comes from contfrac's cycle
    # memo, walked once for all the parameters that enter the cycle at the
    # same state, and rotated when a verb first reads the offset, while the
    # memo keeps it.
    @cached_property
    def periodic(self) -> tuple[EventuallyPeriodicCF, _Cycle]:
        """theta's expansion and the cycle of its period."""
        return _periodic(self.reduced)

    @property
    def expansion(self) -> EventuallyPeriodicCF:
        return self.periodic[0]

    @property
    def rotation(self) -> int:
        """Least-rotation offset of the (primitive) period."""
        return self.periodic[1].offset

    @cached_property
    def reduced(self) -> tuple[tuple[int, ...], int, int, int]:
        """(preperiod, P, Q, D): theta's first reduced complete quotient
        (P + sqrt(D))/Q, D a square times theta.d, and the terms before it;
        the expansion and the Morita lookup continue from it."""
        return _reduced_state(self.theta)


class UnimodularWitness(Value):
    """Integer 2x2 matrix [[a, b], [c, d]] with det = +-1."""

    _fields = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        if self.det not in (1, -1):
            raise TorusError(f"matrix {self.rows()} is not unimodular")

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
    p, k = t.expansion.period, t.rotation
    return p[k:] + p[:k]


def _tail_offsets(t1: TorusParameter, t2: TorusParameter):
    """(w1, w2, period): prefix words of theta1 and theta2 after which
    both expansions continue with the same purely periodic tail, or None
    when the tail classes differ.

    By Galois's theorem the reduced complete quotients of theta1 form one
    cycle of the state recursion, and theta2 is equivalent exactly when
    its first reduced quotient x lies on it: when x's cycle has the least
    rotation of theta1's period, the normal form of the tail class
    (Buchmann & Vollmer, Binary Quadratic Forms, ch. 6).  So: the fields
    must agree; x = (P2 + sqrt(D2))/Q2 must be written over D1 as
    (P + sqrt(D1))/Q with integers P, Q and Q | D1 - P^2, the only way x
    can be a state of theta1; and x's cycle, read within L = |p1| terms
    over D1 (contfrac._cycle), must rotate to p1.  x then lies
    (k2 - k1) mod L steps before theta1's first reduced quotient, for the
    least-rotation offsets k1 and k2, so w1 is theta1's preperiod and w2
    is theta2's followed by that many terms of x's cycle.  Any shorter
    pair of such prefixes differs in length by the same amount, so it
    gives the same witness."""
    if t1.theta.d != t2.theta.d:
        return None
    p1, k1 = t1.expansion.period, t1.rotation
    pre1, _, _, D1 = t1.reduced
    pre2, P2, Q2, D2 = t2.reduced
    scale = isqrt(D1 * D2)  # M1/M2 = scale/D2 for D_i = M_i^2 * d
    P, p_rem = divmod(P2 * scale, D2)
    Q, q_rem = divmod(Q2 * scale, D2)
    if p_rem or q_rem or (D1 - P * P) % Q:
        return None
    found = _cycle(P, Q, D1, len(p1))
    if found is None:
        return None
    p2, k2 = found.period, found.offset
    if p2[k2:] + p2[:k2] != morita_invariant(t1):
        return None
    return pre1, pre2 + p2[:(k2 - k1) % len(p1)], p1


def _verified(m: UnimodularWitness, t1: TorusParameter, t2: TorusParameter) -> UnimodularWitness:
    if apply_mobius(m, t1).theta != t2.theta:
        raise TorusError("internal: witness failed re-application check")
    return m


def morita_equivalent(t1: TorusParameter, t2: TorusParameter) -> Optional[UnimodularWitness]:
    """A verified witness M(w2) * M(w1)^-1 of determinant (-1)^(|w1| + |w2|)
    for the prefix words, or None when the tail classes differ.

    Expands theta1 and runs theta2 only to its first reduced quotient,
    which is then looked up on theta1's cycle (_tail_offsets)."""
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
