"""Independent oracles used by the unit and acceptance tests.

These deliberately avoid the library's fast paths: term streams come
from naive floor-and-invert in exact surd arithmetic, Mobius images from
surd operators, equivalence search is a breadth-first walk over
unimodular words, and positivity is capped iteration.
"""

from __future__ import annotations

from twistlab.dimgroup import K0Element, Positivity, StationaryDimensionGroup
from twistlab.surd import QuadraticSurd
from twistlab.torus import TorusParameter, UnimodularWitness

# generators of the unimodular group: translation, its inverse,
# inversion-rotation, and a determinant -1 swap
GEN_T = UnimodularWitness(1, 1, 0, 1)
GEN_TI = UnimodularWitness(1, -1, 0, 1)
GEN_S = UnimodularWitness(0, -1, 1, 0)
GEN_J = UnimodularWitness(0, 1, 1, 0)
GENERATORS = (GEN_T, GEN_TI, GEN_S, GEN_J)


def naive_cf_terms(x: QuadraticSurd, count: int) -> list[int]:
    """First partial quotients by repeated floor / subtract / invert."""
    terms = []
    for _ in range(count):
        a = x.floor()
        terms.append(a)
        rest = x - a
        if rest.is_zero:
            break
        x = rest.invert()
    return terms


def _normalize_sign(m: UnimodularWitness) -> tuple[int, int, int, int]:
    """M and -M act identically; fix the sign of the first nonzero entry."""
    entries = (m.a, m.b, m.c, m.d)
    lead = next(e for e in entries if e != 0)
    return entries if lead > 0 else tuple(-e for e in entries)


def unimodular_ball(length: int) -> list[UnimodularWitness]:
    """All unimodular matrices reachable by generator words up to the
    given length, deduplicated up to overall sign."""
    frontier = [UnimodularWitness.identity()]
    seen = {_normalize_sign(frontier[0])}
    out = list(frontier)
    for _ in range(length):
        nxt = []
        for m in frontier:
            for g in GENERATORS:
                cand = m @ g
                key = _normalize_sign(cand)
                if key not in seen:
                    seen.add(key)
                    nxt.append(cand)
        out.extend(nxt)
        frontier = nxt
    return out


def mobius_by_operators(m: UnimodularWitness, theta: QuadraticSurd) -> QuadraticSurd:
    """(theta*a + b) / (theta*c + d) in five surd operations."""
    return (theta * m.a + m.b) / (theta * m.c + m.d)


def brute_force_equivalent(
    t1: TorusParameter, t2: TorusParameter, length: int = 12
) -> UnimodularWitness | None:
    """Search every unimodular word up to `length` for a map t1 -> t2."""
    for m in unimodular_ball(length):
        if mobius_by_operators(m, t1.theta) == t2.theta:
            return m
    return None


def squarefree_up_to(limit: int) -> list[int]:
    flags = [True] * (limit + 1)
    k = 2
    while k * k <= limit:
        for m in range(k * k, limit + 1, k * k):
            flags[m] = False
        k += 1
    return [d for d in range(2, limit + 1) if flags[d]]


def iteration_verdict(
    g: StationaryDimensionGroup, e: K0Element, iteration_cap: int = 64
) -> Positivity:
    """The sign of e by pushing alone: the sign of the first push of its
    vector that is entrywise signed, UNDECIDED after iteration_cap pushes."""
    v = e.vector
    if not any(v):
        return Positivity.ZERO
    for _ in range(iteration_cap):
        if all(x > 0 for x in v):
            return Positivity.STRICTLY_POSITIVE
        if all(x < 0 for x in v):
            return Positivity.STRICTLY_NEGATIVE
        v = tuple(sum(a * b for a, b in zip(row, v)) for row in g.phi)
    return Positivity.UNDECIDED
