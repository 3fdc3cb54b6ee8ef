"""Continued fractions: exact expansion, minimal periods, evaluation.

Rationals get finite expansions via the Euclidean algorithm.  Quadratic
irrationals get eventually periodic expansions via the exact (P, Q)
state recursion for (P + sqrt(D))/Q.  By Galois's theorem a complete
quotient has a purely periodic expansion exactly when it is reduced
(greater than 1, conjugate in (-1, 0)), so the minimal preperiod ends at
the first reduced state and the minimal period at that state's return.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction
from itertools import islice, repeat
from math import gcd, isqrt
from threading import Lock

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
        raise NotPrimitiveError(f"not primitive: {clipped(word)}")
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
            raise NotPrimitiveError(f"period not primitive: {clipped(period)}")
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


AnyCF = FiniteCF | EventuallyPeriodicCF


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
    complete quotient (P + sqrt(D))/Q, the least state: Q | D - P^2 and
    gcd(P, Q, (D - P^2)/Q) = 1.  For q > 0, x = (p + q*sqrt(d))/r is
    (p*r + sqrt(D'))/r^2 with D' = q^2*d*r^2 and (D' - (p*r)^2)/r^2 =
    q^2*d - p^2; P and Q are p*r and r^2 divided by the content s of these
    three, and D is D'/s^2.  For q < 0, P and Q change sign.  The recursion
    keeps the content, so D is the discriminant of x's primitive form, or
    a quarter of it when that is even: one radicand for every parameter
    equivalent to x (Buchmann & Vollmer, Binary Quadratic Forms, ch. 6).
    The preperiod runs the state recursion until the state is reduced;
    past _term_budget(D) terms it raises CFError.
    """
    if x.is_rational:
        raise CFError("rational input: use expand_rational")
    p, r, N = x.p, x.r, x.q * x.q * x.d
    s = (1 if x.q > 0 else -1) * gcd(p * r, r * r, N - p * p)
    P, Q = p * r // s, r * r // s
    D = N * Q // s
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
    itself (_periodic).  An expansion of more than _term_budget(D) terms in
    all raises CFError.  The walks leave nothing for EventuallyPeriodicCF's
    checks to find: the period is the first return, so primitive; every
    term after a0 is the floor of a complete quotient above 1; and the
    preperiod, ending at the first reduced state, is minimal.
    """
    reduced = _reduced_state(x)
    return EventuallyPeriodicCF._canonical(preperiod=reduced[0], period=_periodic(reduced).period)


def _periodic(reduced: tuple) -> _Cycle:
    """The cycle through the first reduced state of the surd whose
    _reduced_state (preperiod, P, Q, D) is reduced; CFError when its
    period is longer than the budget left after the preperiod.  A cycle
    depends on its state alone, so it is walked and rotated once, then
    read from the memo while the memo keeps it.  The walk runs for up to
    the whole budget whatever the preperiod, so an expansion over budget
    stops within its preperiod plus the budget, and a walk that passes
    the budget keeps nothing: a state over budget is walked again on
    every request, each time within the budget."""
    preperiod, P, Q, D = reduced
    budget = _term_budget(D)
    state = P, Q, D
    # one read: a test and then a read could race a clear in another thread
    found = _cycles.get(state)
    if found is None:
        period = _walk(P, Q, D, (P, Q), budget)
        if period is not None:
            found = _Cycle(period, least_rotation(period))
            _keep(state, found)
    if found is None or len(found.period) > budget - len(preperiod):
        raise CFError(f"expansion longer than the budget of {budget} terms")
    return found


class _Cycle(namedtuple("_Cycle", "period offset")):
    """The period (a tuple of terms) walked from a reduced state, and its
    least-rotation offset, found right after the walk: a record is
    complete when the memo keeps it, and nothing writes it after."""

    __slots__ = ()

    def least(self) -> tuple[int, ...]:
        """The period at its least rotation: the tail class's normal form."""
        return self.period[self.offset:] + self.period[:self.offset]


# Most machine words the cycle memo holds.  A record's k ints (a cycle's
# terms, and P, Q and D) of b bits in all count k + b // 64
# words, at least the words they hold, and the record _CYCLE_WORDS more
# for its objects, its dict slot and its ints' headers.  A pass of the
# tails benchmark holds about 10^4 words, and of verbs-mixed about
# 4.6 * 10^4; a period of more than about 6.5 * 10^4 terms (sqrt(d) for
# some d past 10^9) is answered but never kept.
CYCLE_MEMO_WORDS = 1 << 16
# tracemalloc found 26-36 words a cycle besides its ints' words, the
# dict's spare slots included, in memos of 3000-6000 one-term cycles
# (CPython 3.11)
_CYCLE_WORDS = 40

# (P, Q, D) of a reduced state -> the _Cycle walked from it.  A cycle is
# kept under the state its walk started from, so a cycle entered at
# several of its states is kept once for each.  When keeping a cycle
# would pass CYCLE_MEMO_WORDS, the memo is emptied first; a cycle heavier
# than that on its own is never kept.
_cycles: dict[tuple[int, int, int], _Cycle] = {}
_cycle_words = 0
_cycle_lock = Lock()


def _words(state: tuple[int, int, int], cycle: _Cycle) -> int:
    ints = state + cycle.period
    return _CYCLE_WORDS + len(ints) + sum(map(int.bit_length, ints)) // 64


def _keep(state: tuple[int, int, int], cycle: _Cycle) -> None:
    """Keep a cycle, unless another thread kept one for its state first."""
    global _cycle_words
    words = _words(state, cycle)
    if words > CYCLE_MEMO_WORDS:
        return
    with _cycle_lock:  # another thread may keep or clear between the lookup and here
        if state in _cycles:
            return
        if _cycle_words + words > CYCLE_MEMO_WORDS:
            _cycles.clear()
            _cycle_words = 0
        _cycles[state] = cycle
        _cycle_words += words


def _clear_cycles() -> None:
    """Empty the cycle memo."""
    global _cycle_words
    with _cycle_lock:
        _cycles.clear()
        _cycle_words = 0


def _walk(P: int, Q: int, D: int, to: tuple[int, int], cap: int) -> tuple[int, ...] | None:
    """The terms of the state recursion from the reduced state (P, Q) over
    D until it first reaches the state `to`: from a state back to itself,
    its period; None past cap steps.  A reduced state stays reduced, so
    each floor is (P + isqrt(D)) // Q."""
    root = isqrt(D)
    P1, Q1 = to
    terms: list[int] = []
    for _ in repeat(None, cap):
        a = (P + root) // Q
        terms.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q
        if P == P1 and Q == Q1:
            return tuple(terms)
    return None


# Most a word's product may cost.  Every entry of start times the product
# has at most W bits, W the bits of the sum of start's entries as
# magnitudes plus each term's bits, as a factor's row sums are
# |a| + 1 <= 2^bitlength(a).  Term by term the product costs about L W for
# L terms, and what the verbs do with it (a gcd, an isqrt, trial division)
# about W^2; leaves of small terms (below) cut the L W part.  At
# W (8 L + W) = WORD_BUDGET, cf.value took 0.22 s on 129097 ones (1.1-1.6 s
# term by term), 0.93-0.97 s on 27 terms of 10^4299 and 1.4-1.55 s on 290 of
# 10^400 (2-vCPU Xeon VM, Python 3.11).
WORD_BUDGET = 15 * 10**10
# A word of at least _LEAVES_FROM terms is multiplied in leaves of _LEAF
# terms.  A fold multiplies the running product by entries of about the
# leaf's bits, where the loop multiplies it by each term in turn, so a fold
# saves the loop's per-term overhead only while the terms are small: a
# leaf whose terms average more than _LEAF_BITS bits runs term by term.
# Against the loop alone (2-vCPU VM, Python 3.11), the leaves broke even at
# 24-32 terms and, on 2000-term words, at 16 bits a term (12-bit terms 26 %
# faster, 20-bit terms 23 % slower); leaves of 128 terms ran 1.5-3.5 %
# faster than leaves of 64 at L = 60 to 2000, and 24 % faster on 129097 ones.
_LEAVES_FROM = 28
_LEAF = 128
_LEAF_BITS = 16


def _mobius_matrix(terms, start=(1, 0, 0, 1)) -> tuple[int, int, int, int]:
    """start times the product of [[a,1],[1,0]] over the terms, row-major;
    a word past WORD_BUDGET raises CFError before any multiplication.

    The word is cut into leaves of _LEAF terms, and the product of each
    leaf is folded into the running product by one 2x2 multiply.  A leaf
    of a word of fewer than _LEAVES_FROM terms, or one whose terms average
    more than _LEAF_BITS bits, multiplies it by one term at a time instead.
    Both rows of a leaf's product step as (x1, x2) -> (a x1 + x2, x1), so
    each column runs as one integer, row 1 shifted k bits above row 2: one
    multiply-add a term.
    With W the bits of the leaf's terms summed, every entry is at most 2^W
    in magnitude, as a factor's row sums are |a| + 1 <= 2^bitlength(a); so
    k = W + 2 keeps row 2 within (-2^(k-1), 2^(k-1)), and adding 2^(k-1)
    before the shift reads both rows back with their signs (a0 may be
    negative).
    """
    m11, m12, m21, m22 = start
    n = len(terms)
    bits = (abs(m11) + abs(m12) + abs(m21) + abs(m22)).bit_length()
    # terms after the first are positive, so none has more bits than
    # sum(terms) + 2 |a0|, which sum() adds in C, far faster than counting
    rough = bits + (n and n * sum(terms, 2 * abs(terms[0])).bit_length())
    if rough * (8 * n + rough) > WORD_BUDGET:
        bits += sum(map(int.bit_length, terms))
        if bits * (8 * n + bits) > WORD_BUDGET:
            raise CFError(f"word exceeds the word budget of {WORD_BUDGET}")
    for i in range(0, n, _LEAF):
        leaf = terms[i:i + _LEAF]
        if n < _LEAVES_FROM or (k := sum(map(int.bit_length, leaf)) + 2) > _LEAF_BITS * len(leaf):
            for a in leaf:
                m11, m12, m21, m22 = m11 * a + m12, m11, m21 * a + m22, m21
            continue
        x, y = 1 << k, 1
        for a in leaf:
            x, y = x * a + y, x
        half = 1 << (k - 1)
        p, q = (x + half) >> k, (y + half) >> k
        r, s = x - (p << k), y - (q << k)
        m11, m12, m21, m22 = m11 * p + m12 * r, m11 * q + m12 * s, m21 * p + m22 * r, m21 * q + m22 * s
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
            raise CFError(f"requested {count} terms, finite expansion has {len(cf.terms)}")
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
