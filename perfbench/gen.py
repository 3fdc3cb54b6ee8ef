"""Seeded input generators for the four workloads.

Every input comes from random.Random(seed); the program under test only
ever sees the JSON requests built here.  Each workload is a list of
blocks with a fixed composition, so the share of every kind of entry is
the same in every block and for every seed; only the drawn values differ.

Band radicands are drawn by the period length L of sqrt(d):
  L6:   5 <= L <= 7,   2 <= d < 2000
  L60:  56 <= L <= 64, 2000 <= d < 60000
  L342: 325 <= L <= 360, 50000 <= d < 500000
In L60 and L342 the draw is stratified on whether d has a prime factor
above 10^4 ("rough") or not ("smooth").  twistlab's squarefree
decomposition trial-divides up to 10^4, so this is the input property that
decides whether a period's discriminant reaches sympy.factorint; drawing a
fixed number of each keeps that share equal across seeds.  Rough radicands
are kept, never filtered out, even though at L342 they hang the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt

import oracle as O

BANDS = {
    "L6": (5, 7, 2, 2000),
    "L60": (56, 64, 2000, 60000),
    "L342": (325, 360, 50000, 500000),
}
TRIAL_BOUND = 10_000
PRIMES = [p for p in range(2, TRIAL_BOUND) if all(p % q for q in range(2, isqrt(p) + 1))]

PERIOD_VERBS = ("cf.value", "dimgroup.from-period", "dimgroup.positive")


class Entry:
    """One request plus what the checker needs to judge its answer."""

    __slots__ = ("verb", "args", "band", "expect")

    def __init__(self, verb, args, band=None, expect=None):
        self.verb, self.args, self.band, self.expect = verb, args, band, expect or {}


# -- number theory used to draw inputs -----------------------------------


def squarefree(d: int) -> bool:
    for p in PRIMES:
        if p * p > d:
            return True
        if d % (p * p) == 0:
            return False
    return True


def rough(d: int) -> bool:
    """True when d has a prime factor above the trial-division bound."""
    for p in PRIMES:
        if p * p > d:
            break
        while d % p == 0:
            d //= p
    return d > TRIAL_BOUND


def sqrt_period(d: int) -> list[int]:
    """The period of sqrt(d), d not a square, by the integer recurrence on
    the complete quotients (m + sqrt(d))/q; it ends with 2*floor(sqrt(d))."""
    a0 = isqrt(d)
    m, q, a, out = 0, 1, a0, []
    while a != 2 * a0:
        m = a * q - m
        q = (d - m * m) // q
        a = (a0 + m) // q
        out.append(a)
    return out


def radicand(rng: random.Random, band: str, is_rough=None) -> int:
    l_lo, l_hi, d_lo, d_hi = BANDS[band]
    while True:
        d = rng.randrange(d_lo, d_hi)
        if not squarefree(d) or (is_rough is not None and rough(d) != is_rough):
            continue
        if l_lo <= len(sqrt_period(d)) <= l_hi:
            return d


def unimodular(rng: random.Random) -> tuple[int, int, int, int]:
    """A short random word in [[1, k], [0, 1]] and [[0, 1], [1, 0]]."""
    m = (1, 0, 0, 1)
    for _ in range(rng.randint(2, 4)):
        k = rng.choice((-3, -2, -1, 1, 2, 3))
        m = (m[0], m[0] * k + m[1], m[2], m[2] * k + m[3])
        m = (m[1], m[0], m[3], m[2])
    return m


def rotated_period(rng: random.Random, d: int) -> list[int]:
    per = sqrt_period(d)
    k = rng.randrange(len(per))
    return per[k:] + per[:k]


def preperiod_for(rng: random.Random, period) -> list[int]:
    """A short preperiod that is minimal in front of period."""
    pre = [rng.randint(-5, 5)] + [rng.randint(1, 6) for _ in range(rng.randint(0, 2))]
    if rng.random() < 0.3:
        return []
    if pre[-1] == period[-1]:
        pre[-1] += 1
    return pre


# -- verbs-mixed: desk scale ----------------------------------------------


MORITA_MAX_L = 16  # period length of the surds verbs-mixed gives torus.morita


def desk_theta(rng: random.Random, max_period: int | None = None) -> tuple:
    """(p + s*sqrt(d))/r with squarefree d < 2000 and r | d - p^2, redrawn
    until its period has at most max_period terms."""
    while True:
        d = rng.randrange(2, 2000)
        if not squarefree(d):
            continue
        p = rng.randint(-20, 20)
        n = abs(d - p * p)
        r = rng.choice([k for k in range(1, 13) if n % k == 0])
        x = O.reduce(p, rng.choice((1, -1)), r, d)
        if max_period is None or len(O.naive_expansion(x)[1]) <= max_period:
            return x


def desk_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-99, 99), rng.randint(1, 40))


def small_fraction(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        f = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if f or not nonzero:
            return f


def _primitive(phi) -> bool:
    n = len(phi)
    power = [row[:] for row in phi]
    for _ in range(n * n - 2 * n + 2):
        if all(x > 0 for row in power for x in row):
            return True
        power = [[sum(power[i][k] * phi[k][j] for k in range(n)) for j in range(n)]
                 for i in range(n)]
    return all(x > 0 for row in power for x in row)


def _det(phi) -> int:
    if len(phi) == 2:
        return phi[0][0] * phi[1][1] - phi[0][1] * phi[1][0]
    (a, b, c), (d, e, f), (g, h, i) = phi
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def random_phi(rng: random.Random, rank: int) -> list[list[int]]:
    while True:
        phi = [[rng.randint(0, 3) for _ in range(rank)] for _ in range(rank)]
        if _det(phi) != 0 and _primitive(phi):
            return phi


def random_curve(rng: random.Random) -> tuple[Fraction, Fraction]:
    while True:
        kind = rng.random()
        A = Fraction(0) if kind < 0.2 else small_fraction(rng, nonzero=True)
        B = Fraction(0) if 0.2 <= kind < 0.4 else small_fraction(rng, nonzero=True)
        if 4 * A**3 + 27 * B**2 != 0:
            return A, B


def _other_field(x1, draw):
    """A draw from another quadratic field than x1's, so never Morita-equivalent."""
    while True:
        x2 = draw()
        if x2[3] != x1[3]:
            return x2


def _cf_args(rng: random.Random) -> dict:
    if rng.random() < 0.25:
        return {"terms": O.euclid(desk_fraction(rng))}
    pre, per = O.naive_expansion(desk_theta(rng))
    return {"preperiod": pre, "period": per}


def _vector(rng: random.Random, rank: int) -> list[int]:
    return [rng.randint(-9, 9) for _ in range(rank)]


def _group_args(rng: random.Random) -> tuple[dict, int]:
    kind = rng.random()
    if kind < 0.25:
        return {"period": O.naive_expansion(desk_theta(rng))[1]}, 2
    rank = 2 if kind < 0.5 else 3
    return {"phi": random_phi(rng, rank)}, rank


def _curve_args(A, B, suffix="") -> dict:
    return {"A" + suffix: str(A), "B" + suffix: str(B)}


def _is_power(f: Fraction, n: int) -> bool:
    return f > 0 and all(round(x ** (1 / n)) ** n == x for x in (f.numerator, f.denominator))


def theta_entry(verb: str, x: tuple, band=None) -> Entry:
    return Entry(verb, {"theta": O.literal(x)}, band, {"theta": x})


def morita_entry(x1: tuple, x2: tuple, equivalent: bool, band=None) -> Entry:
    return Entry("torus.morita", {"theta1": O.literal(x1), "theta2": O.literal(x2)}, band,
                 {"theta1": x1, "theta2": x2, "equivalent": equivalent})


def _m_cf_expand(rng):
    if rng.random() < 0.25:
        f = desk_fraction(rng)
        return Entry("cf.expand", {"theta": str(f)}, expect={"rational": f})
    return theta_entry("cf.expand", desk_theta(rng))


def _m_cf_convergents(rng):
    args = _cf_args(rng)
    args["count"] = rng.randint(1, len(args["terms"]) if "terms" in args else 12)
    return Entry("cf.convergents", args)


def _m_torus_morita(rng):
    """Periods of at most MORITA_MAX_L terms: the alignment search grows
    with L and is tails' subject; with every period up to d < 2000's L = 88
    it took 60% of this workload's time and made it depend on the seed."""
    x1 = desk_theta(rng, MORITA_MAX_L)
    if rng.random() < 0.7:
        return morita_entry(x1, O.mobius(unimodular(rng), x1), True)
    return morita_entry(x1, _other_field(x1, lambda: desk_theta(rng, MORITA_MAX_L)), False)


def _m_torus_iso(rng):
    x1 = desk_theta(rng)
    x2 = x1 if rng.random() < 0.5 else O.mobius(unimodular(rng), x1)
    return Entry("torus.iso", {"theta1": O.literal(x1), "theta2": O.literal(x2, rng.randint(1, 4))},
                 expect={"theta1": x1, "theta2": x2})


def _m_dimgroup_positive(rng):
    args, rank = _group_args(rng)
    args.update(vector=_vector(rng, rank), stage=rng.randint(0, 2))
    return Entry("dimgroup.positive", args)


def _m_dimgroup_compare(rng):
    args, rank = _group_args(rng)
    phi = O.group_phi(args)
    v, stage, k = _vector(rng, rank), rng.randint(0, 2), rng.randint(0, 3)
    w = v
    for _ in range(k):
        w = O.mat_vec(phi, w)
    if rng.random() < 0.4:
        w = list(w)
        w[rng.randrange(rank)] += rng.choice((-1, 1))
    args.update(e1={"stage": stage, "vector": v}, e2={"stage": stage + k, "vector": w})
    return Entry("dimgroup.compare", args)


def _m_curve_twist(rng):
    A, B = random_curve(rng)
    return Entry("curve.twist", {**_curve_args(A, B), "t": str(small_fraction(rng, True))})


def _m_curve_iso(rng):
    """A Weierstrass rescaling, a twist, or a curve with another j-invariant."""
    A, B = random_curve(rng)
    kind = rng.random()
    if kind < 0.4:
        u = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        A2, B2, q_iso = u**4 * A, u**6 * B, True
    elif kind < 0.8:
        t = small_fraction(rng, True)
        A2, B2 = O.twist_of(A, B, t)
        q_iso = _is_power(t, 4 if B == 0 else 6 if A == 0 else 2)
    else:
        while True:
            A2, B2 = random_curve(rng)
            if O.j_of(A2, B2) != O.j_of(A, B):
                break
        q_iso = False
    return Entry("curve.iso", {**_curve_args(A, B, "1"), **_curve_args(A2, B2, "2")},
                 expect={"q_isomorphic": q_iso})


def _m_curve_twist_between(rng):
    A, B = random_curve(rng)
    A2, B2 = O.twist_of(A, B, small_fraction(rng, True))
    return Entry("curve.twist-between", {**_curve_args(A, B, "1"), **_curve_args(A2, B2, "2")})


MIXED = {
    "cf.expand": _m_cf_expand,
    "cf.value": lambda rng: Entry("cf.value", _cf_args(rng)),
    "cf.convergents": _m_cf_convergents,
    "torus.morita": _m_torus_morita,
    "torus.iso": _m_torus_iso,
    "torus.invariant": lambda rng: theta_entry("torus.invariant", desk_theta(rng)),
    "dimgroup.from-period": lambda rng: Entry(
        "dimgroup.from-period", {"period": O.naive_expansion(desk_theta(rng))[1]}),
    "dimgroup.positive": _m_dimgroup_positive,
    "dimgroup.compare": _m_dimgroup_compare,
    "curve.j": lambda rng: Entry("curve.j", _curve_args(*random_curve(rng))),
    "curve.twist": _m_curve_twist,
    "curve.iso": _m_curve_iso,
    "curve.twist-between": _m_curve_twist_between,
}


# -- band entries (tails and periods) ------------------------------------


def band_theta(rng: random.Random, d: int) -> tuple:
    """A seeded unimodular image of sqrt(d)."""
    return O.mobius(unimodular(rng), (0, 1, 1, d))


def tails_entries(rng, band, d, verbs) -> list[Entry]:
    out = []
    for verb in verbs:
        if verb == "morita-eq":
            x1 = band_theta(rng, d)
            out.append(morita_entry(x1, O.mobius(unimodular(rng), x1), True, band))
        elif verb == "morita-neq":
            d2 = radicand(rng, band)
            while d2 == d:
                d2 = radicand(rng, band)
            out.append(morita_entry(band_theta(rng, d), band_theta(rng, d2), False, band))
        else:
            out.append(theta_entry(verb, band_theta(rng, d), band))
    return out


def period_entry(rng, band, d, verb) -> Entry:
    per = rotated_period(rng, d)
    args = {"period": per}
    if verb == "cf.value" and rng.random() < 0.5:
        args = {"preperiod": preperiod_for(rng, per), "period": per}
    elif verb == "dimgroup.positive":
        args.update(vector=[rng.randint(-50, 50) for _ in range(2)], stage=rng.randint(0, 2))
    return Entry(verb, args, band)


# -- blocks ---------------------------------------------------------------


MIXED_COUNTS = {"torus.morita": 2, "cf.value": 2, "dimgroup.from-period": 2}  # others 4


def verbs_mixed_block(rng, b):
    """46 entries.  The three verbs whose cost grows with the period length
    come twice, the others four times, so that the slowest tenth holds the
    Morita pairs and the long cf.value and from-period entries, and p90
    falls among the curve verbs, whose cost hardly varies, instead of on
    the edge of that tail."""
    return [MIXED[verb](rng) for verb in MIXED for _ in range(MIXED_COUNTS.get(verb, 4))]


TAILS_MIX = {  # band: (radicands per block, entries per block by kind)
    "L6": (4, {"cf.expand": 2, "torus.invariant": 1, "morita-eq": 14, "morita-neq": 2}),
    "L60": (2, {"cf.expand": 2, "torus.invariant": 2, "morita-eq": 4, "morita-neq": 1}),
    "L342": (1, {"cf.expand": 1, "torus.invariant": 1, "morita-eq": 2, "morita-neq": 1}),
}


def tails_block(rng, b):
    """33 entries.  Sorted by cost they fall into groups (cheap expansions
    and invariants, L6 pairs, L60 pairs, L342 pairs) sized so that p50 lies
    inside the L6 equivalent pairs and p90 inside the L60 ones, away from
    group edges; the two L342 equivalent pairs take most of the time."""
    out = []
    for band, (count, kinds) in TAILS_MIX.items():
        pool = [radicand(rng, band, None if band == "L6" else (b + k) % 2 == 0)
                for k in range(count)]
        n = 0
        for kind, times in kinds.items():
            for _ in range(times):
                out += tails_entries(rng, band, pool[n % count], (kind,))
                n += 1
    return out


PERIODS_SMOOTH = (("L6", 110), ("L60", 140), ("L342", 100))  # radicands per block


def periods_block(rng, b):
    """1001 entries.  Smooth radicands run all three verbs: 110 at L6, 140
    at L60 and 100 at L342, the slowest that finish, where every other
    radicand skips dimgroup.from-period.  Sorted by cost, each verb and
    band is a group, and the counts put p50 in the middle of the L60
    cf.value and dimgroup.positive entries and p90 in the middle of the
    L342 ones, groups whose cost hardly varies; with 25,
    180 and 100 radicands p90 sat on the lower edge of the L342
    from-period entries (1.2-1.4 ms, against 0.7-1.0 ms for the other two
    verbs) and moved by up to a quarter between seeds.  Together they take
    about 0.4 s, about as long as the one rough L342 entry that follows
    them: it runs a single verb, rotating with the block index, and hangs
    the seed, so each block holds exactly one timeout, and a 2x slowdown
    of the entries that finish still shows.  Rough L60
    radicands are left to cli-cold: they finish, in anything from 0.3 ms to
    over a second depending on the discriminant's cofactor, and one of them
    per block made this workload's throughput depend on the seed."""
    out = []
    for band, smooth in PERIODS_SMOOTH:
        for k in range(smooth):
            d = radicand(rng, band, None if band == "L6" else False)
            verbs = PERIOD_VERBS if band != "L342" or k % 2 == 0 else PERIOD_VERBS[::2]
            out += [period_entry(rng, band, d, verb) for verb in verbs]
    out.append(period_entry(rng, "L342", radicand(rng, "L342", True), PERIOD_VERBS[b % 3]))
    return out


def cli_cold_block(rng, b):
    """100 entries, five groups of 20: one per verb at desk scale, tails
    entries at L60 and L342, one smooth L342 period, and three period
    entries on three rough L60 radicands, each of which pays the sympy
    import in its child, so p90 falls among them.  Their factorisation
    takes from 0.3 ms to 1.5 s depending on the radicand, up to 3 s in a
    group, so a group's throughput depends on the seed; in one block of
    100, drawn from 15 radicands, it does much less.  No rough L342 period:
    whether its factorisation outlasts the child timeout depends on the
    radicand and on the host's speed, so it would make the failure count
    vary between runs; periods carries that hang."""
    out = []
    for _ in range(5):
        out += [MIXED[verb](rng) for verb in MIXED]
        out += tails_entries(rng, "L60", radicand(rng, "L60"), ("morita-eq",))
        out += tails_entries(rng, "L342", radicand(rng, "L342"), ("cf.expand", "morita-eq"))
        for verb in PERIOD_VERBS:
            out.append(period_entry(rng, "L60", radicand(rng, "L60", True), verb))
        out.append(period_entry(rng, "L342", radicand(rng, "L342", False), "cf.value"))
    return out


BLOCKS = {
    "cli-cold": cli_cold_block,
    "verbs-mixed": verbs_mixed_block,
    "tails": tails_block,
    "periods": periods_block,
}


def blocks(workload: str, seed: int, count: int) -> list[list[Entry]]:
    rng = random.Random(f"{workload}:{seed}")
    return [BLOCKS[workload](rng, b) for b in range(count)]
