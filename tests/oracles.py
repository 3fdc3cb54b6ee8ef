"""Independent oracles used by the unit and acceptance tests.

These deliberately avoid the library's fast paths.  Term streams,
Mobius images and the breadth-first search over unimodular words run on
a quadratic-number core of plain integer tuples (a + b*sqrt(D))/c that
uses no twistlab arithmetic: naive floor-and-invert, the image times its
denominator's conjugate, and equality of rational and irrational parts.
Unimodular words and the word matrices M(w) are 2x2 integer products on
row-major 4-tuples, inverted by the adjugate; a tuple becomes a
UnimodularWitness only where a test hands it to the library.  Morita
offsets come from both whole periods, each cut at its first repeated
state, and their least rotations by brute force.  Positivity
is capped iteration, or exact at every rank from sympy's polynomials
(perron_verdict).  Curve identities are Fraction arithmetic on A and B
with integer roots by bisection, and surd literals are read one
character at a time by a recursive-descent scanner.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt

from sympy import Matrix, Poly, Symbol, eye
from sympy.polys.matrices import DomainMatrix

from twistlab.dimgroup import K0Element, Positivity, StationaryDimensionGroup
from twistlab.errors import SurdParseError, digit_limit_text
from twistlab.surd import QuadraticSurd
from twistlab.torus import TorusParameter, UnimodularWitness

# generators of the unimodular group, as row-major integer 4-tuples
# (a, b, c, d) for [[a, b], [c, d]]: translation, its inverse,
# inversion-rotation, and a determinant -1 swap
GEN_T = (1, 1, 0, 1)
GEN_TI = (1, -1, 0, 1)
GEN_S = (0, -1, 1, 0)
GEN_J = (0, 1, 1, 0)
GENERATORS = (GEN_T, GEN_TI, GEN_S, GEN_J)
IDENTITY = (1, 0, 0, 1)


# -- 2x2 integer matrices, row-major 4-tuples ----------------------------


def mat_mul(m: tuple, n: tuple) -> tuple[int, int, int, int]:
    return (m[0] * n[0] + m[1] * n[2], m[0] * n[1] + m[1] * n[3],
            m[2] * n[0] + m[3] * n[2], m[2] * n[1] + m[3] * n[3])


def mat_det(m: tuple) -> int:
    return m[0] * m[3] - m[1] * m[2]


def mat_inverse(m: tuple) -> tuple[int, int, int, int]:
    """The adjugate over det = +-1, which keeps the entries integral."""
    s = mat_det(m)
    assert s in (1, -1), m
    return s * m[3], -s * m[1], -s * m[2], s * m[0]


def entries(m: UnimodularWitness) -> tuple[int, int, int, int]:
    """A library witness as a 4-tuple."""
    return m.a, m.b, m.c, m.d


# -- quadratic numbers (a + b*sqrt(D))/c, in plain integers -------------
# A tuple (a, b, c, D) with c > 0 and gcd(a, b, c) = 1; D >= 2 need not be
# squarefree, and b = 0 for a rational.  Nothing in this core uses twistlab.


def quad(a: int, b: int, c: int, D: int) -> tuple[int, int, int, int]:
    """(a + b*sqrt(D))/c in lowest terms; a square D is folded into a."""
    root = isqrt(D)
    if root * root == D:
        a, b, D = a + b * root, 0, 2
    if c < 0:
        a, b, c = -a, -b, -c
    g = gcd(gcd(a, b), c)
    return a // g, b // g, c // g, D


def quad_sign(x: tuple) -> int:
    """Sign of a + b*sqrt(D), c > 0: compare a^2 with b^2*D when the signs differ."""
    a, b, _, D = x
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa == 0 or sa == sb:
        return sb or sa
    if sb == 0:
        return sa
    return sa if a * a > b * b * D else sb


def quad_equal(x: tuple, y: tuple) -> bool:
    """Equal values, whatever their radicands: a1/c1 = a2/c2 and
    b1*sqrt(D1)/c1 = b2*sqrt(D2)/c2, as the rational and the irrational
    part of any equal pair must agree."""
    (a1, b1, c1, D1), (a2, b2, c2, D2) = x, y
    s1, s2 = b1 * c2, b2 * c1
    return a1 * c2 == a2 * c1 and (s1 > 0) == (s2 > 0) and s1 * s1 * D1 == s2 * s2 * D2


def quad_floor(x: tuple) -> int:
    """|b|*sqrt(D) lies strictly between r = isqrt(b^2 D) and r + 1 for b != 0."""
    a, b, c, D = x
    if b == 0:
        return a // c
    r = isqrt(b * b * D)
    return (a + r) // c if b > 0 else (a - r - 1) // c


def quad_floor_invert(x: tuple) -> tuple[int, tuple | None]:
    """(floor(x), 1/(x - floor(x))), None for the second at a whole x."""
    t = quad_floor(x)
    a, b, c, D = x
    a -= t * c
    if a == 0 and b == 0:
        return t, None
    # c / (a + b*sqrt(D)) = c*(a - b*sqrt(D)) / (a^2 - b^2*D)
    return t, quad(c * a, -c * b, a * a - b * b * D, D)


def quad_mobius(m: tuple[int, int, int, int], x: tuple) -> tuple:
    """(m0*x + m1)/(m2*x + m3): numerator and denominator over the common
    c, then times the denominator's conjugate."""
    a, b, c, D = x
    na, nb = m[0] * a + m[1] * c, m[0] * b
    da, db = m[2] * a + m[3] * c, m[2] * b
    return quad(na * da - nb * db * D, nb * da - na * db, da * da - db * db * D, D)


def quad_of(x: QuadraticSurd) -> tuple:
    """A library surd's value in the core."""
    return quad(x.p, x.q, x.r, x.d)


def naive_cf_terms(x: QuadraticSurd, count: int) -> list[int]:
    """First partial quotients by repeated floor / subtract / invert."""
    terms = []
    y = quad_of(x)
    for _ in range(count):
        t, y = quad_floor_invert(y)
        terms.append(t)
        if y is None:
            break
    return terms


def _normalize_sign(m: tuple) -> tuple[int, int, int, int]:
    """M and -M act identically; fix the sign of the first nonzero entry."""
    lead = next(e for e in m if e != 0)
    return m if lead > 0 else tuple(-e for e in m)


def unimodular_ball(length: int) -> list[tuple[int, int, int, int]]:
    """All unimodular matrices reachable by generator words up to the
    given length, deduplicated up to overall sign."""
    frontier = [IDENTITY]
    seen = {IDENTITY}
    out = list(frontier)
    for _ in range(length):
        nxt = []
        for m in frontier:
            for g in GENERATORS:
                cand = mat_mul(m, g)
                key = _normalize_sign(cand)
                if key not in seen:
                    seen.add(key)
                    nxt.append(cand)
        out.extend(nxt)
        frontier = nxt
    return out


def mobius_by_operators(m: tuple, theta: QuadraticSurd) -> tuple:
    """(theta*a + b) / (theta*c + d) in the quadratic-number core."""
    return quad_mobius(m, quad_of(theta))


def brute_force_equivalent(
    t1: TorusParameter, t2: TorusParameter, length: int = 12
) -> tuple[int, int, int, int] | None:
    """Search every unimodular word up to `length` for a map t1 -> t2, in
    the quadratic-number core."""
    x, y = quad_of(t1.theta), quad_of(t2.theta)
    for m in unimodular_ball(length):
        if quad_equal(quad_mobius(m, x), y):
            return m
    return None


def first_repeat_expansion(x: QuadraticSurd) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(preperiod, period) of an irrational x, cut where a state of the
    (P, Q) recursion first comes back.  x = (p + q*sqrt(d))/r is written
    as (P + sqrt(D))/Q scaled by |Q|, so Q | D - P^2 from the start; over
    a fixed D a state determines its complete quotient, so the first
    repeat gives the minimal preperiod and period with no reduced-state
    test.  The quotient is never an integer, so for Q < 0 its floor is
    minus one minus the floor of (P + sqrt(D))/|Q|."""
    s = 1 if x.q > 0 else -1
    P, Q, D = s * x.p, s * x.r, x.q * x.q * x.d
    P, Q, D = P * abs(Q), Q * abs(Q), D * Q * Q
    root = isqrt(D)
    seen: dict[tuple[int, int], int] = {}
    terms = []
    while (P, Q) not in seen:
        seen[P, Q] = len(terms)
        a = (P + root) // Q if Q > 0 else -((P + root) // -Q) - 1
        terms.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q
    k = seen[P, Q]
    return tuple(terms[:k]), tuple(terms[k:])


def two_period_offsets(t1: TorusParameter, t2: TorusParameter):
    """(w1, w2, period) by the rule of two periods: expand both, take the
    first offsets k1, k2 of each period's least rotation, and if the
    rotations agree, w1 is theta1's preperiod and w2 is theta2's followed
    by its first (k2 - k1) mod L period terms; None when they differ.
    Rotations are compared by brute force, min over all L of them."""
    (pre1, p1), (pre2, p2) = first_repeat_expansion(t1.theta), first_repeat_expansion(t2.theta)
    k1 = min(range(len(p1)), key=lambda i: p1[i:] + p1[:i])
    k2 = min(range(len(p2)), key=lambda i: p2[i:] + p2[:i])
    if p1[k1:] + p1[:k1] != p2[k2:] + p2[:k2]:
        return None
    return pre1, pre2 + p2[: (k2 - k1) % len(p1)], p1


def word_matrix(word) -> tuple[int, int, int, int]:
    """The product of [[a, 1], [1, 0]] over the word."""
    m = IDENTITY
    for a in word:
        m = mat_mul(m, (a, 1, 1, 0))
    return m


def squarefree_up_to(limit: int) -> list[int]:
    flags = [True] * (limit + 1)
    k = 2
    while k * k <= limit:
        for m in range(k * k, limit + 1, k * k):
            flags[m] = False
        k += 1
    return [d for d in range(2, limit + 1) if flags[d]]


def perron_verdict(phi, v) -> Positivity:
    """The sign of <w, v> for the left Perron vector w of a primitive phi,
    exact at every rank, on sympy's polynomials: g(x), the first entry of
    adj(xI - phi) v, is det(xI - phi) with its first column replaced by v
    (Cramer), and g(lam) has the sign of <w, v> at the Perron root lam, the
    largest real root of chi = det(xI - phi).  lam is a root of
    gcd(g, chi) exactly when the pairing is zero; otherwise lam's
    isolating interval is refined until it holds no root of g, and g has
    one sign on it."""
    if not any(v):
        return Positivity.ZERO
    x = Symbol("x")
    chi = Poly(Matrix(phi).charpoly(x).as_expr(), x)
    cramer = x * eye(len(phi)) - Matrix(phi)
    cramer[:, 0] = Matrix(v)
    first = DomainMatrix.from_Matrix(cramer)
    g = Poly(first.domain.to_sympy(first.det()), x)
    roots = chi.sqf_part()
    (lo, hi), _ = max(roots.intervals(), key=lambda interval: interval[0][1])
    if chi.gcd(g).count_roots(lo, hi):
        return Positivity.UNDECIDED
    while g.count_roots(lo, hi):
        lo, hi = roots.refine_root(lo, hi, steps=1)
    return Positivity.STRICTLY_POSITIVE if g.eval(lo) > 0 else Positivity.STRICTLY_NEGATIVE


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


# -- surd literals, read one character at a time ------------------------

# Digits are ASCII 0-9 only: str.isdigit also takes other scripts' digits.
_DIGITS = re.compile(r"[0-9]*")


def _is_digit(ch: str) -> bool:
    """False also for the empty string peek() gives at the end."""
    return "0" <= ch <= "9"


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        text, pos = self.text, self.pos
        while pos < len(text) and text[pos].isspace():
            pos += 1
        self.pos = pos

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise SurdParseError(f"expected '{ch}'", self.pos)
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        text = self.text
        start = pos = self.pos
        if text.startswith(("+", "-"), pos):
            pos += 1
        end = _DIGITS.match(text, pos).end()
        if end == pos:
            raise SurdParseError("expected integer", pos)
        self.pos = end
        try:
            return int(text[start:end])
        except ValueError:  # beyond the interpreter's digit limit
            raise SurdParseError(digit_limit_text(), start) from None

    def try_keyword(self, word: str) -> bool:
        if self.text.startswith(word, self.pos):
            self.pos += len(word)
            return True
        return False


def _parse_sqrt_term(sc: _Scanner, sign: int) -> tuple[int, int]:
    """Parse [k*]sqrt(d) after an optional sign; returns (q, d)."""
    sc.skip_ws()
    coeff = 1
    if _is_digit(sc.peek()):
        coeff = sc.integer()
        sc.skip_ws()
        sc.expect("*")
        sc.skip_ws()
    if not sc.try_keyword("sqrt"):
        raise SurdParseError("expected 'sqrt'", sc.pos)
    sc.skip_ws()
    sc.expect("(")
    d = sc.integer()
    sc.skip_ws()
    sc.expect(")")
    return sign * coeff, d


def _parse_numerator(sc: _Scanner) -> tuple[int, int, int]:
    """Returns (p, q, d) for a numerator expression."""
    sc.skip_ws()
    sign = 1
    if sc.peek() in ("+", "-"):
        sign = -1 if sc.peek() == "-" else 1
        sc.pos += 1
        sc.skip_ws()
    if not _is_digit(sc.peek()):
        if not sc.text.startswith("sqrt", sc.pos):
            raise SurdParseError("expected integer or sqrt term", sc.pos)
        return (0, *_parse_sqrt_term(sc, sign))
    start = sc.pos
    first = sign * sc.integer()
    sc.skip_ws()
    if sc.peek() == "*":  # k*sqrt(d): read it again as one sqrt term
        sc.pos = start
        return (0, *_parse_sqrt_term(sc, sign))
    if sc.peek() in ("+", "-"):
        term_sign = -1 if sc.peek() == "-" else 1
        sc.pos += 1
        return (first, *_parse_sqrt_term(sc, term_sign))
    return first, 0, 1


def scan_surd(text: str) -> QuadraticSurd:
    """parse_surd by a character scanner: the same language, the same
    value, and every SurdParseError with the same message and column."""
    sc = _Scanner(text)
    sc.skip_ws()
    if sc.peek() == "(":
        sc.expect("(")
        p, q, d = _parse_numerator(sc)
        sc.skip_ws()
        sc.expect(")")
    else:
        p, q, d = _parse_numerator(sc)
    sc.skip_ws()
    r = 1
    if sc.peek() == "/":
        sc.expect("/")
        r = sc.integer()
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise SurdParseError("trailing characters", sc.pos)
    return QuadraticSurd.normalize(p, q, r, d)


# -- curves y^2 = x^3 + Ax + B, in Fraction arithmetic ------------------


def curve_j(A: Fraction, B: Fraction) -> Fraction:
    """1728 * 4A^3 / (4A^3 + 27B^2); ZeroDivisionError for a singular curve."""
    return 1728 * 4 * A**3 / (4 * A**3 + 27 * B**2)


def curve_twist(A: Fraction, B: Fraction, t: Fraction) -> tuple[Fraction, Fraction]:
    """(t^2 A, t^3 B) at generic j, (t A, 0) at j = 1728 and (0, t B) at j = 0."""
    if B == 0:
        return t * A, Fraction(0)
    if A == 0:
        return Fraction(0), t * B
    return t * t * A, t**3 * B


def curve_twist_parameter(A1, B1, A2, B2) -> Fraction:
    """The t of the twist taking the first curve to the second, for equal j."""
    if B1 == 0:
        return A2 / A1
    if A1 == 0:
        return B2 / B1
    return A1 * B2 / (A2 * B1)


def _root_by_bisection(m: int, n: int) -> int | None:
    lo, hi = 0, 1 << (m.bit_length() // n + 1)  # hi**n > m
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**n <= m:
            lo = mid
        else:
            hi = mid - 1
    return lo if lo**n == m else None


def curve_scaling(A1, B1, A2, B2) -> Fraction | None:
    """The u > 0 with A2 = u^4 A1 and B2 = u^6 B1, or None.  The only
    candidate is the fourth root of A2/A1, or the sixth root of B2/B1 when
    A1 = 0; both equations are then checked."""
    ratio, n = (A2 / A1, 4) if A1 != 0 else (B2 / B1, 6)
    if ratio <= 0:
        return None
    num = _root_by_bisection(ratio.numerator, n)
    den = _root_by_bisection(ratio.denominator, n)
    if num is None or den is None:
        return None
    u = Fraction(num, den)
    return u if u**4 * A1 == A2 and u**6 * B1 == B2 else None
