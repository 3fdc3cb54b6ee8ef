"""Continued fractions: exact expansion, minimal periods, evaluation.

Rationals get finite expansions via the Euclidean algorithm.  Quadratic
irrationals get eventually periodic expansions via the exact (P, Q)
state recursion for (P + sqrt(D))/Q.  By Galois's theorem a complete
quotient has a purely periodic expansion exactly when it is reduced
(greater than 1, conjugate in (-1, 0)), so the minimal preperiod ends at
the first reduced state and the minimal period at that state's return.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice, repeat
from math import gcd, isqrt
from threading import Lock
from typing import Iterator, Optional, Union

from . import surd
from ._value import Value
from .errors import CFError, NotPrimitiveError, clipped


# Most terms expand_surd produces, preperiod and period together, for a
# radicand D of up to 64 bits: about 0.5 s of the state recursion.  The
# period of sqrt(d) has up to about sqrt(d) terms (532572 at d = 10^12 + 39);
# no test or benchmark entry uses more than 1/400 of the budget at its size.
TERM_BUDGET = 10**6
# A term costs about 1 + (bits / _TERM_COST_BITS)^2 times what it costs at
# 64 bits: a fixed overhead, then CPython's quadratic division of D - P^2.
# With the budget scaled by that cost, the error came within 0.36-0.78 s at
# every size from 64 to 71401 bits, the most a surd literal reaches (2-vCPU
# VM, Python 3.11).
_TERM_COST_BITS = 768


def _term_budget(D: int) -> int:
    """TERM_BUDGET scaled down by the cost of a term at D's bit size, so the
    budget bounds the time at every size; TERM_BUDGET up to 64 bits."""
    bits = D.bit_length()
    if bits <= 64:
        return TERM_BUDGET
    unit = _TERM_COST_BITS * _TERM_COST_BITS
    return TERM_BUDGET * (unit + 64 * 64) // (unit + bits * bits)


def is_primitive(word: tuple[int, ...]) -> bool:
    """False exactly when the word is a proper power u^e, e > 1; then it
    is also (u^(e/p))^p for each prime p | e, so only the primes dividing
    the length need checking."""
    n = m = len(word)
    p = 2
    while p * p <= m:
        if m % p == 0:
            if word[: n // p] * p == word:
                return False
            while m % p == 0:
                m //= p
        p += 1
    return m < 2 or word[: n // m] * m != word


def canonical_rotation(period) -> tuple[int, ...]:
    """Lexicographically least rotation of a primitive word."""
    word = tuple(period)
    if not word:
        raise CFError("empty period")
    if not is_primitive(word):
        raise NotPrimitiveError(f"not primitive: {clipped(str(word))}")
    k = least_rotation(word)
    return word[k:] + word[:k]


def least_rotation(word) -> int:
    """First offset k at which word[k:] + word[:k] is lexicographically
    least, in O(len(word)): Shiloach's two-pointer scan (1981).  The
    rotations at candidates i < j agree on k terms; on a mismatch, the
    candidate with the larger term and the k offsets after it each start
    a larger rotation than their counterparts after the other candidate,
    so all k + 1 are discarded."""
    s = tuple(word)
    n = len(s)
    s += s
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = s[i + k], s[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
            if i >= j:  # keep i < j
                i, j = j, max(i, j + 1)
        else:
            j += k + 1
        k = 0
    return i


class FiniteCF(Value):
    """[a0; a1, ..., am], canonical: a_i >= 1 for i >= 1, last term >= 2
    unless the expansion is a single integer."""

    _fields = ("terms",)

    def __init__(self, terms):
        terms = tuple(terms)
        if not terms:
            raise CFError("empty continued fraction")
        if any(a < 1 for a in terms[1:]):
            raise CFError("terms after a0 must be >= 1")
        if len(terms) > 1 and terms[-1] < 2:
            raise CFError("canonical finite form forbids a trailing 1")
        object.__setattr__(self, "terms", terms)


class EventuallyPeriodicCF(Value):
    """[a0, ..., ak; (b1, ..., bn)] with primitive period and minimal
    preperiod; the preperiod may be empty (purely periodic)."""

    _fields = ("preperiod", "period")

    def __init__(self, preperiod, period):
        preperiod, period = tuple(preperiod), tuple(period)
        if not period:
            raise CFError("period must be nonempty")
        if not is_primitive(period):
            raise NotPrimitiveError(f"period not primitive: {clipped(str(period))}")
        if min(period) < 1:
            raise CFError("period terms must be >= 1")
        if len(preperiod) > 1 and min(preperiod[1:]) < 1:
            raise CFError("terms after a0 must be >= 1")
        if preperiod and preperiod[-1] == period[-1]:
            raise CFError("preperiod not minimal: last term absorbs into period")
        object.__setattr__(self, "preperiod", preperiod)
        object.__setattr__(self, "period", period)

    def term_stream(self) -> Iterator[int]:
        yield from self.preperiod
        while True:
            yield from self.period


AnyCF = Union[FiniteCF, EventuallyPeriodicCF]


class Convergent(Value):
    _fields = ("p", "q", "index")

    def __init__(self, p: int, q: int, index: int):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "index", index)


def expand_rational(x) -> FiniteCF:
    """Euclidean-algorithm expansion; naturally canonical."""
    f = Fraction(x)
    num, den = f.numerator, f.denominator
    terms = []
    while True:
        a, rem = divmod(num, den)
        terms.append(a)
        if rem == 0:
            break
        num, den = den, rem
    return FiniteCF(tuple(terms))


def _reduced_state(x: surd.QuadraticSurd) -> tuple[tuple[int, ...], int, int, int]:
    """(preperiod, P, Q, D): the terms of x before its first reduced
    complete quotient (P + sqrt(D))/Q, with Q | D - P^2 and D/x.d a square.

    x = (p + q*sqrt(d))/r is first written as (P + sqrt(D))/Q, D = q^2 * d,
    and scaled by |Q| when Q does not divide D - P^2.  The preperiod runs
    the state recursion of expand_surd until the state is reduced; more
    than _term_budget(D) terms raise CFError.
    """
    if x.is_rational:
        raise CFError("rational input: use expand_rational")
    # rewrite (p + q*sqrt(d))/r as (P + sqrt(D))/Q with positive radical
    sign = 1 if x.q > 0 else -1
    P, Q, D = sign * x.p, sign * x.r, x.q * x.q * x.d
    if (D - P * P) % Q != 0:
        scale = abs(Q)
        P, Q, D = P * scale, Q * scale, D * scale * scale
    root = isqrt(D)
    budget = _term_budget(D)
    terms: list[int] = []
    for _ in repeat(None, budget):
        if 0 < P <= root and root - P < Q <= root + P:
            return tuple(terms), P, Q, D
        # Q < 0: the value lies strictly between P+root and P+root+1, and no
        # integer multiple of |Q| sits in that open interval, so the floor is
        # the floor at the right endpoint.
        a = (P + root) // Q if Q > 0 else (P + root + 1) // Q
        terms.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q
    raise CFError(f"expansion longer than the budget of {budget} terms")


def expand_surd(x: surd.QuadraticSurd) -> EventuallyPeriodicCF:
    """Minimal-preperiod, minimal-period expansion of an irrational surd.

    State recursion on (P + sqrt(D))/Q with Q | D - P^2:
        a = floor((P + sqrt(D))/Q)
        P' = a*Q - P
        Q' = (D - P'^2)/Q
    With D fixed, the state (P, Q) determines the remainder value.  A
    state is reduced (value > 1, conjugate in (-1, 0)) exactly when
    0 < P <= isqrt(D) and isqrt(D) - P < Q <= isqrt(D) + P, and by
    Galois's theorem exactly the reduced states have purely periodic
    expansions: the preperiod is the walk to the first reduced state
    (_reduced_state), and the period is the walk from that state back to
    itself (_cycle).  An expansion of more than _term_budget(D) terms in
    all raises CFError.
    """
    return _periodic(_reduced_state(x))[0]


def _periodic(reduced: tuple) -> tuple[EventuallyPeriodicCF, _Cycle]:
    """The expansion of the surd whose _reduced_state (preperiod, P, Q, D)
    is reduced, and the cycle through its first reduced state."""
    preperiod, P, Q, D = reduced
    budget = _term_budget(D)
    found = _cycle(P, Q, D, budget - len(preperiod))
    if found is None:
        raise CFError(f"expansion longer than the budget of {budget} terms")
    return EventuallyPeriodicCF(preperiod, found.period), found


class _Cycle:
    """The period walked from a reduced state, and its least-rotation
    offset, found the first time it is read: the torus verbs read it,
    cf.expand never does."""

    __slots__ = ("period", "_offset")

    def __init__(self, period: tuple[int, ...]):
        self.period = period
        self._offset: Optional[int] = None

    @property
    def offset(self) -> int:
        if self._offset is None:  # two threads may both rotate; they agree
            self._offset = least_rotation(self.period)
        return self._offset


# Most machine words the cycle memo holds.  A record's k ints (a cycle's
# terms or a passed cap, and P, Q and D) of b bits in all count k + b // 64
# words, at least the words they hold, and the record _CYCLE_WORDS more
# for its objects, its dict slot and its ints' headers.  A pass of the
# tails benchmark holds about 10^4 words, and of verbs-mixed about
# 4.6 * 10^4; a period of more than about 6.5 * 10^4 terms (sqrt(d) for
# some d past 10^9) is answered but never kept.
CYCLE_MEMO_WORDS = 1 << 16
# tracemalloc found 33-40 words a cycle besides its ints' words, the
# dict's spare slots included, in memos of 3000-6000 one-term cycles with
# their offsets read, and 23 words a passed cap (CPython 3.11)
_CYCLE_WORDS = 40

# (P, Q, D) of a reduced state -> the _Cycle walked from it, or the
# longest cap a walk from it passed without coming back.  A cycle is kept
# under the state its walk started from, so a cycle entered at several of
# its states is kept once for each.
_cycles: dict[tuple[int, int, int], Union[_Cycle, int]] = {}
_cycle_words = 0
_cycle_lock = Lock()


def _cycle(P: int, Q: int, D: int, cap: int) -> Optional[_Cycle]:
    """The cycle walked from the reduced state (P, Q) over D back to
    itself, or None when its period is longer than cap terms.  It depends
    on the state alone, so it is walked once and then read from the memo
    while the memo keeps it; so is a walk that passed its cap, which
    answers None at once to any cap no larger.  When keeping a record
    would pass CYCLE_MEMO_WORDS, the memo is emptied first; a record
    heavier than that on its own is never kept."""
    state = P, Q, D
    found = _cycles.get(state)
    if found is None or isinstance(found, int) and found < cap:
        period = _walk(P, Q, D, cap)
        found = cap if period is None else _Cycle(period)
        _keep(state, found)
    return None if isinstance(found, int) or len(found.period) > cap else found


def _words(state: tuple[int, int, int], record: Union[_Cycle, int]) -> int:
    ints = (record,) if isinstance(record, int) else record.period
    bits = sum(map(int.bit_length, ints)) + sum(map(int.bit_length, state))
    return _CYCLE_WORDS + len(ints) + 3 + bits // 64


def _keep(state: tuple[int, int, int], record: Union[_Cycle, int]) -> None:
    """Keep a cycle, or a passed cap, in place of a smaller passed cap."""
    global _cycle_words
    words = _words(state, record)
    if words > CYCLE_MEMO_WORDS:
        return
    with _cycle_lock:  # another thread may keep or clear between the lookup and here
        held = _cycles.get(state)
        if held is not None:
            if not isinstance(held, int) or isinstance(record, int) and record <= held:
                return
            _cycle_words -= _words(state, held)
        if _cycle_words + words > CYCLE_MEMO_WORDS:
            _cycles.clear()
            _cycle_words = 0
        _cycles[state] = record
        _cycle_words += words


def _clear_cycles() -> None:
    """Empty the cycle memo."""
    global _cycle_words
    with _cycle_lock:
        _cycles.clear()
        _cycle_words = 0


def _walk(P: int, Q: int, D: int, cap: int) -> Optional[tuple[int, ...]]:
    """The terms of the state recursion from the reduced state (P, Q) over
    D until it first comes back to (P, Q): its period; None past cap steps.
    A reduced state stays reduced, so each floor is (P + isqrt(D)) // Q."""
    root = isqrt(D)
    P0, Q0 = P, Q
    terms: list[int] = []
    for _ in repeat(None, cap):
        a = (P + root) // Q
        terms.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q
        if P == P0 and Q == Q0:
            return tuple(terms)
    return None


def _mobius_matrix(terms, start=(1, 0, 0, 1)) -> tuple[int, int, int, int]:
    """start times the product of [[a,1],[1,0]] over the terms, row-major."""
    m11, m12, m21, m22 = start
    for a in terms:
        m11, m12, m21, m22 = m11 * a + m12, m11, m21 * a + m22, m21
    return m11, m12, m21, m22


def _over(m2, m1, length: int) -> tuple[int, int, int, int]:
    """m2 * m1^-1, row-major, for m1 = M(w) of a word w of the given
    length: det m1 = s = (-1)^length, so m1^-1 = s * adj m1."""
    (p, q, r, t), (a, b, c, d) = m2, m1
    s = -1 if length % 2 else 1
    return s * (p * d - q * c), s * (q * a - p * b), s * (r * d - t * c), s * (t * a - r * b)


def _transfer(w1, w2) -> tuple[int, int, int, int]:
    """M(w2) * M(w1)^-1 for M = _mobius_matrix: it maps M(w1)(x) to M(w2)(x)."""
    return _over(_mobius_matrix(w2), _mobius_matrix(w1), len(w1))


def _fixed_point(a: int, b: int, c: int, d: int) -> surd.QuadraticSurd:
    """Attracting fixed point ((a - d) + sqrt(disc))/(2c) of
    x -> (a x + b)/(c x + d) for any c != 0 and a + d > 0: there
    c x + d = (a + d + sqrt(disc))/2, the eigenvalue of larger modulus.

    The form is divided by its content g first.  The discriminant of the
    period matrix's form carries a square factor that grows exponentially
    with the period length; the primitive form's discriminant is the
    field discriminant times a small conductor, so normalising it stays
    within trial division (Cohen, A Course in Computational Algebraic
    Number Theory, 5.2).
    """
    g = gcd(gcd(c, d - a), b)
    disc = ((a - d) ** 2 + 4 * b * c) // (g * g)
    return surd.QuadraticSurd.normalize((a - d) // g, 1, 2 * c // g, disc)


def value_of(cf: AnyCF) -> surd.QuadraticSurd:
    """Exact value; inverse of the expansion maps."""
    if isinstance(cf, FiniteCF):
        m11, m12, m21, m22 = _mobius_matrix(cf.terms)
        # value = (m11*1 + ... ) applied to the empty tail: p_m/q_m = m11/m21
        return surd.QuadraticSurd.normalize(m11, 0, m21, 1)
    # M(pre)(y), y the attracting fixed point of M(period), is the attracting
    # fixed point of M(pre + period) M(pre)^-1; the conjugate keeps the trace and
    # the content and discriminant of the fixed-point form, so the radicand too.
    # M(pre + period) continues the product M(pre), so each word is multiplied once.
    pre = _mobius_matrix(cf.preperiod)
    return _fixed_point(*_over(_mobius_matrix(cf.period, pre), pre, len(cf.preperiod)))


def iter_convergents(cf: AnyCF, count: int) -> Iterator[Convergent]:
    """First `count` convergents p_k/q_k, each as it is produced: the
    first column of the running product of [[a, 1], [1, 0]] over the
    terms."""
    if count < 1:
        raise CFError("count must be positive")
    if isinstance(cf, FiniteCF):
        if count > len(cf.terms):
            raise CFError(
                f"requested {count} terms, finite expansion has {len(cf.terms)}"
            )
        terms = cf.terms
    else:
        terms = cf.term_stream()
    p, p_prev, q, q_prev = 1, 0, 0, 1
    for k, a in enumerate(islice(terms, count)):
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        yield Convergent(p, q, k)


def convergents(cf: AnyCF, count: int) -> list[Convergent]:
    """First `count` convergents p_k/q_k."""
    return list(iter_convergents(cf, count))
