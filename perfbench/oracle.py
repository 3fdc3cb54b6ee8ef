"""Independent answers for every twistlab verb.

Nothing here imports twistlab.  Each check recomputes the answer from the
generator's own data with plain integers and Fractions, by a route that
differs from the program's: naive floor-and-invert expansion instead of the
(P, Q) state recursion, witness re-application instead of byte comparison,
pushed vectors and capped iteration instead of Perron pairings, and the
fixed-point quadratic instead of the program's surd normalisation.

A real quadratic number is a tuple (a, b, c, D) meaning (a + b*sqrt(D))/c
with c > 0, gcd(a, b, c) = 1 and D >= 2 not a square.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt

# -- quadratic numbers --------------------------------------------------


def reduce(a: int, b: int, c: int, D: int) -> tuple:
    if c < 0:
        a, b, c = -a, -b, -c
    g = gcd(gcd(a, b), c)
    return a // g, b // g, c // g, D


def sqfree_part(D: int) -> tuple[int, int]:
    """(s, D0) with D = s^2 * D0 and D0 squarefree, by trial division."""
    s, k, p = 1, D, 2
    while p * p <= k:
        while k % (p * p) == 0:
            k //= p * p
            s *= p
        p += 1
    return s, k


def canonical(x: tuple) -> tuple:
    """Same value with a squarefree radicand, so equal values compare equal."""
    a, b, c, D = x
    s, D0 = sqfree_part(D)
    return reduce(a, b * s, c, D0)


def floor_of(x: tuple) -> int:
    a, b, c, D = x
    r = isqrt(b * b * D)  # |b|*sqrt(D) lies strictly between r and r + 1
    return (a + r) // c if b > 0 else (a - r - 1) // c


def next_quotient(x: tuple) -> tuple[int, tuple]:
    """(floor(x), 1/(x - floor(x))): one naive floor-and-invert step."""
    a, b, c, D = x
    t = floor_of(x)
    a -= t * c
    # 1/((a + b*sqrt(D))/c) = c*(a - b*sqrt(D)) / (a^2 - b^2*D)
    return t, reduce(c * a, -c * b, a * a - b * b * D, D)


def naive_expansion(x: tuple) -> tuple[list[int], list[int]]:
    """(preperiod, period) by floor-and-invert until a complete quotient repeats."""
    seen: dict[tuple, int] = {}
    terms: list[int] = []
    while x not in seen:
        seen[x] = len(terms)
        t, x = next_quotient(x)
        terms.append(t)
    start = seen[x]
    return terms[:start], terms[start:]


def mobius(m: tuple, x: tuple) -> tuple:
    """(m0*x + m1)/(m2*x + m3) for an integer matrix m = (m0, m1, m2, m3)."""
    a, b, c, D = x
    na, nb = m[0] * a + m[1] * c, m[0] * b
    da, db = m[2] * a + m[3] * c, m[2] * b
    # (na + nb*sqrt(D))/(da + db*sqrt(D)), the common c cancels
    return reduce(na * da - nb * db * D, nb * da - na * db, da * da - db * db * D, D)


def sign2(a: int, b: int, D: int) -> int:
    """Exact sign of a + b*sqrt(D), D >= 0 (no factoring of D)."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sb == 0 or D == 0:
        return sa
    if sa == 0 or sa == sb:
        return sb
    lhs, rhs = a * a, b * b * D
    return 0 if lhs == rhs else (sa if lhs > rhs else sb)


_VALUE = re.compile(r"(-?\d+)?([+-])?(?:(\d+)\*)?sqrt\((\d+)\)")


def parse_value(text: str):
    """A canonical surd literal as printed by twistlab: Fraction or tuple."""
    m = re.fullmatch(r"\((.*)\)/(\d+)", text)
    num, r = (m.group(1), int(m.group(2))) if m else (text, 1)
    if "sqrt" not in num:
        return Fraction(text)
    m = _VALUE.fullmatch(num)
    if m is None:
        raise ValueError(f"unparseable value {text!r}")
    p_txt, op, q_txt, d_txt = m.groups()
    q = int(q_txt) if q_txt else 1
    if op == "-":
        q = -q
    return reduce(int(p_txt) if p_txt else 0, q, r, int(d_txt))


def literal(x: tuple, scale: int = 1) -> str:
    """Surd literal for x, with numerator and denominator multiplied by scale."""
    a, b, c, D = x
    a, b, c = a * scale, b * scale, c * scale
    term = f"sqrt({D})" if abs(b) == 1 else f"{abs(b)}*sqrt({D})"
    num = f"{a}{'+' if b > 0 else '-'}{term}" if a else ("" if b > 0 else "-") + term
    return num if c == 1 else f"({num})/{c}"


# -- words and matrices -------------------------------------------------


def is_primitive_word(word) -> bool:
    s = "," + ",".join(map(str, word))
    return (s + s).find(s, 1) == len(s)


def least_rotation(word) -> list[int]:
    return min(list(word[i:]) + list(word[:i]) for i in range(len(word)))


def period_matrix(word) -> tuple[int, int, int, int]:
    m = (1, 0, 0, 1)
    for t in word:
        m = (m[0] * t + m[1], m[0], m[2] * t + m[3], m[2])
    return m


def mat_vec(phi, v):
    return [sum(x * y for x, y in zip(row, v)) for row in phi]


def iteration_sign(phi, v, cap: int = 64):
    """Verdict of pushing v by phi up to cap times (None: undecided)."""
    if not any(v):
        return "zero"
    for _ in range(cap):
        if all(x > 0 for x in v):
            return "strictly-positive"
        if all(x < 0 for x in v):
            return "strictly-negative"
        v = mat_vec(phi, v)
    return None


def rank2_sign(phi, v) -> int:
    """Sign of v against the left Perron eigenvector (c, lam - a) of
    [[a, b], [c, d]]: 2*(c*v0 + (lam - a)*v1) = 2c*v0 + (d - a)*v1 + v1*sqrt(disc)."""
    (a, b), (c, d) = phi
    disc = (a - d) ** 2 + 4 * b * c
    return sign2(2 * c * v[0] + (d - a) * v[1], v[1], disc)


# -- curves -------------------------------------------------------------


def j_of(A: Fraction, B: Fraction) -> Fraction:
    return Fraction(1728) * 4 * A**3 / (4 * A**3 + 27 * B**2)


def twist_of(A: Fraction, B: Fraction, t: Fraction) -> tuple[Fraction, Fraction]:
    if B == 0:
        return t * A, Fraction(0)
    if A == 0:
        return Fraction(0), t * B
    return t * t * A, t**3 * B


# -- per-verb checks ----------------------------------------------------


def _check_expansion(x: tuple, pre, per) -> bool:
    """x has the expansion [pre; (per)], proven by repeating complete quotients."""
    if not per or not is_primitive_word(per):
        return False
    if pre and pre[-1] == per[-1]:
        return False
    want = list(pre) + list(per)
    quotients = []
    for t in want:
        quotients.append(x)
        got, x = next_quotient(x)
        if got != t:
            return False
    return x == quotients[len(pre)]


def _fraction_of_terms(terms) -> Fraction:
    value = Fraction(terms[-1])
    for t in reversed(terms[:-1]):
        value = t + 1 / value
    return value


def euclid(f: Fraction) -> list[int]:
    terms = []
    while True:
        a = f.numerator // f.denominator
        terms.append(a)
        if f == a:
            return terms
        f = 1 / (f - a)


def _convergents(terms) -> list[str]:
    out, (p0, q0), (p1, q1) = [], (1, 0), (terms[0], 1)
    out.append(f"{p1}/{q1}")
    for t in terms[1:]:
        p0, q0, p1, q1 = p1, q1, t * p1 + p0, t * q1 + q0
        out.append(f"{p1}/{q1}")
    return out


def _cf_terms(spec: dict, count: int) -> list[int]:
    if "terms" in spec:
        return list(spec["terms"][:count])
    pre, per = spec.get("preperiod", []), spec["period"]
    return [pre[k] if k < len(pre) else per[(k - len(pre)) % len(per)] for k in range(count)]


def check(verb: str, args: dict, expect: dict, result: dict) -> bool:
    """True when result is the right answer to verb(args)."""
    try:
        return _CHECKS[verb](args, expect, result)
    except (KeyError, TypeError, ValueError, ZeroDivisionError, IndexError):
        return False


def _cf_expand(args, expect, result):
    if "rational" in expect:
        return result == {"terms": euclid(expect["rational"])}
    return _check_expansion(expect["theta"], result["preperiod"], result["period"])


def _cf_value(args, expect, result):
    value = parse_value(result["value"])
    if "terms" in args:
        return value == _fraction_of_terms(args["terms"])
    return isinstance(value, tuple) and _check_expansion(
        value, args.get("preperiod", []), args["period"])


def _cf_convergents(args, expect, result):
    return result == {"convergents": _convergents(_cf_terms(args, args["count"]))}


def _torus_morita(args, expect, result):
    x1, x2 = expect["theta1"], expect["theta2"]
    if result["invariant"] != least_rotation(naive_expansion(x1)[1]):
        return False
    if result["equivalent"] != expect["equivalent"]:
        return False
    if not expect["equivalent"]:
        return result["witness"] is None and result["det"] is None
    (a, b), (c, d) = result["witness"]
    det = a * d - b * c
    return det in (1, -1) and result["det"] == det and \
        canonical(mobius((a, b, c, d), x1)) == canonical(x2)


def _torus_iso(args, expect, result):
    return result == {"isomorphic": canonical(expect["theta1"]) == canonical(expect["theta2"])}


def _torus_invariant(args, expect, result):
    return result == {"invariant": least_rotation(naive_expansion(expect["theta"])[1])}


def _fixed_point_ok(phi, slope) -> bool:
    """slope is the positive root of c*x^2 + (d - a)*x - b for phi = [[a, b], [c, d]]."""
    (a, b), (c, d) = phi
    p, q, r, D = slope
    rational = c * (p * p + q * q * D) + (d - a) * p * r - b * r * r
    irrational = 2 * c * p * q + (d - a) * q * r
    return rational == 0 and irrational == 0 and sign2(p, q, D) > 0


def _dimgroup_from_period(args, expect, result):
    m0, m1, m2, m3 = period_matrix(args["period"])
    phi = [[m0, m1], [m2, m3]]
    det = m0 * m3 - m1 * m2
    if result["phi"] != phi or result["rank"] != 2 or result["det"] != det:
        return False
    if det not in (1, -1) or result["shift_automorphism"] is not True:
        return False
    slope = parse_value(result["slope"])
    return isinstance(slope, tuple) and _fixed_point_ok(phi, slope)


def group_phi(args):
    if "period" in args:
        m0, m1, m2, m3 = period_matrix(args["period"])
        return [[m0, m1], [m2, m3]]
    return args["phi"]


def _dimgroup_positive(args, expect, result):
    phi, v = group_phi(args), list(args["vector"])
    iterated = iteration_sign(phi, v)
    if len(phi) == 2 and any(v):
        s = rank2_sign(phi, v)
        want = {1: "strictly-positive", -1: "strictly-negative", 0: "infinitesimal-undecided"}[s]
        if iterated is not None and iterated != want:
            raise RuntimeError(f"oracle routes disagree on {phi} {v}")
    else:
        want = iterated or "infinitesimal-undecided"
    return result == {"verdict": want}


def _dimgroup_compare(args, expect, result):
    phi = group_phi(args)
    e1, e2 = args["e1"], args["e2"]
    lo, hi = (e1, e2) if e1.get("stage", 0) <= e2.get("stage", 0) else (e2, e1)
    v = list(lo["vector"])
    for _ in range(hi.get("stage", 0) - lo.get("stage", 0)):
        v = mat_vec(phi, v)
    return result == {"equal": v == list(hi["vector"])}


def _curve(args, a="A", b="B"):
    return Fraction(args[a]), Fraction(args[b])


def _curve_j(args, expect, result):
    return Fraction(result["j"]) == j_of(*_curve(args))


def _curve_twist(args, expect, result):
    A, B = twist_of(*_curve(args), Fraction(args["t"]))
    return (Fraction(result["A"]), Fraction(result["B"])) == (A, B)


def _curve_iso(args, expect, result):
    (A1, B1), (A2, B2) = _curve(args, "A1", "B1"), _curve(args, "A2", "B2")
    if result["c_isomorphic"] != (j_of(A1, B1) == j_of(A2, B2)):
        return False
    if result["q_isomorphic"] != expect["q_isomorphic"]:
        return False
    if not expect["q_isomorphic"]:
        return result["u"] is None
    u = Fraction(result["u"])
    return u > 0 and u**4 * A1 == A2 and u**6 * B1 == B2


def _curve_twist_between(args, expect, result):
    t = Fraction(result["t"])
    return t != 0 and twist_of(*_curve(args, "A1", "B1"), t) == _curve(args, "A2", "B2")


_CHECKS = {
    "cf.expand": _cf_expand,
    "cf.value": _cf_value,
    "cf.convergents": _cf_convergents,
    "torus.morita": _torus_morita,
    "torus.iso": _torus_iso,
    "torus.invariant": _torus_invariant,
    "dimgroup.from-period": _dimgroup_from_period,
    "dimgroup.positive": _dimgroup_positive,
    "dimgroup.compare": _dimgroup_compare,
    "curve.j": _curve_j,
    "curve.twist": _curve_twist,
    "curve.iso": _curve_iso,
    "curve.twist-between": _curve_twist_between,
}
