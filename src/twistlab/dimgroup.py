"""Stationary dimension groups with decidable order.

A group is the inductive limit of Z^n --phi--> Z^n --phi--> ... for a
primitive nonnegative integer matrix phi with nonzero determinant.
Elements are (vector, stage) pairs identified by forward pushing.
The order is the sign of the pairing <w, v> with the left
Perron-Frobenius eigenvector w (Effros, Dimensions and C*-algebras,
CBMS 46), decided exactly at every rank: by a few pushes of v when
they leave no entries of opposite sign, else by a Sturm-Tarski query at
the Perron root; "undecided" means a zero pairing on a nonzero vector.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import reduce
from itertools import cycle
from math import gcd
from operator import or_

# the other layers through their module objects: each loads only when a
# verb first calls into it, so a group given by phi loads none of them
from . import contfrac, surd, torus
from ._value import Value, lazy
from .errors import (
    DimGroupError, NotCFTypeError, NotPrimitiveMatrixError, SingularMatrixError, clipped,
)


class Positivity(Enum):
    ZERO = "zero"
    STRICTLY_POSITIVE = "strictly-positive"
    STRICTLY_NEGATIVE = "strictly-negative"
    UNDECIDED = "infinitesimal-undecided"


Matrix = tuple[tuple[int, ...], ...]

# Budgets on the exact algebra of a matrix, in its rank n and the bit
# length b of its largest row sum, which bounds the growth of every entry
# a step computes.  Each bounds a cost model fitted by measurement, on
# random dense matrices (whose costs ran highest) and for the bisection on
# two row sums far apart, to at most about 1 s at its limit (2-vCPU Xeon
# VM, Python 3.11), and is checked before the work it bounds.
# Bareiss makes about n^3 updates of entries of up to n b bits, each a
# product and a quadratic division: n^3 (n b + 1000)^2 = 8 * 10^12 was
# 0.3-1.1 s at its limit from n = 3 to n = 120.
DET_BUDGET = 8 * 10**12


def _det(m: Matrix) -> int:
    """Fraction-free Bareiss elimination, within DET_BUDGET."""
    n = len(m)
    bits = max(map(sum, m)).bit_length()
    if n**3 * (n * bits + 1000) ** 2 > DET_BUDGET:
        raise DimGroupError(f"matrix exceeds the determinant budget of {DET_BUDGET}")
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def _is_primitive_matrix(m: Matrix) -> bool:
    """Square the zero pattern, rows as bitmasks, past Wielandt's bound
    n^2 - 2n + 2: a primitive matrix is positive at every power from its
    exponent on, which is at most the bound; an imprimitive one never is."""
    n = len(m)
    full = (1 << n) - 1
    rows = [sum(1 << j for j, x in enumerate(row) if x) for row in m]
    for _ in range((n * n - 2 * n + 1).bit_length()):
        if min(rows) == full:
            return True
        rows = [reduce(or_, (rows[k] for k in range(n) if row >> k & 1), 0) for row in rows]
    return min(rows) == full


def _mat_vec(m: Matrix, v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(m[i][j] * v[j] for j in range(len(v))) for i in range(len(m)))


def _integers(values, what: str) -> tuple[int, ...]:
    """values as a tuple; a float, a bool or any other non-int entry is a
    DimGroupError, never coerced."""
    values = tuple(values)
    if set(map(type, values)) <= {int}:
        return values
    bad = next(x for x in values if type(x) is not int)
    raise DimGroupError(f"{what} entries must be integers, got {clipped(bad, repr)}")


class K0Element(Value):
    _fields = ("stage", "vector")

    def __init__(self, stage: int, vector):
        vector = _integers(vector, "vector")
        if type(stage) is not int:
            raise DimGroupError(f"stage must be an integer, got {clipped(stage, repr)}")
        if stage < 0:
            raise DimGroupError("stage must be nonnegative")
        object.__setattr__(self, "stage", stage)
        object.__setattr__(self, "vector", vector)


class StationaryDimensionGroup(Value):
    """The group of phi; a group from from_cf_period keeps its period word
    in _word and multiplies phi out only when phi is first read."""

    _fields = ("phi",)
    _word: tuple[int, ...] | None = None

    def __init__(self, phi: Matrix):
        object.__setattr__(self, "phi", phi)

    # a lazy field writes the instance __dict__ past the refused
    # assignment, and __init__'s phi there shadows this one
    @lazy
    def phi(self) -> Matrix:
        m11, m12, m21, m22 = contfrac._mobius_matrix(self._word)
        return ((m11, m12), (m21, m22))

    @property
    def rank(self) -> int:
        return 2 if self._word is not None else len(self.phi)

    @property
    def determinant(self) -> int:
        if self._word is not None:
            return -1 if len(self._word) % 2 else 1
        return _det(self.phi)

    @property
    def shift_is_automorphism(self) -> bool:
        return abs(self.determinant) == 1


def from_matrix(phi) -> StationaryDimensionGroup:
    rows = tuple(_integers(row, "matrix") for row in phi)
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise DimGroupError("matrix must be square and nonempty")
    if any(x < 0 for row in rows for x in row):
        raise DimGroupError("matrix entries must be nonnegative")
    if _det(rows) == 0:
        raise SingularMatrixError(f"singular matrix: {clipped(rows)}")
    if not _is_primitive_matrix(rows):
        raise NotPrimitiveMatrixError(f"not primitive: {clipped(rows)}")
    return StationaryDimensionGroup(rows)


def from_cf_period(period) -> StationaryDimensionGroup:
    """phi = product of [[b_i, 1], [1, 0]] over a primitive period word;
    det = +-1 and phi^2 > 0, so it needs none of from_matrix's checks.
    phi is multiplied out when first read; is_positive never reads it."""
    word = _integers(period, "period")
    if not word or min(word) < 1:
        raise DimGroupError("period must be a nonempty positive word")
    if not contfrac.is_primitive(word):
        raise DimGroupError(f"not primitive: {clipped(word)}")
    return StationaryDimensionGroup._canonical(_word=word)


def _check_vector(g: StationaryDimensionGroup, e: K0Element):
    if len(e.vector) != g.rank:
        raise DimGroupError(
            f"vector length {len(e.vector)} does not match rank {g.rank}"
        )


# Each push is n^2 multiply-adds and grows the entries by at most the bit
# length b of phi's largest row sum rho, as |phi v| <= rho |v| in the max
# norm, so a gap of g stages costs about n^2 g (g b (b + 256) + 10^5)
# units.  A unit took 0.26-0.84 ps on random dense matrices from n = 3 to
# 60 and b = 2 to 10^4, so the budget allows about 0.85 s: 1.8 s for a
# random 0..3 phi of rank 60 across 10^3 stages is refused, and at its
# limit [[1]] took 0.07 s for 62184 stages and [[2^1000]] 0.35 s for 891
# (2-vCPU Xeon VM, Python 3.11).
PUSH_BUDGET = 10**12


def element_equal(g: StationaryDimensionGroup, e1: K0Element, e2: K0Element) -> bool:
    """Push the lower-stage vector forward; phi is injective (det != 0),
    so this decides equality in the limit.  Elements at one stage are
    compared as vectors, without reading phi.  A gap whose pushes may
    cost more than PUSH_BUDGET raises DimGroupError."""
    _check_vector(g, e1)
    _check_vector(g, e2)
    lo, hi = (e1, e2) if e1.stage <= e2.stage else (e2, e1)
    gap = hi.stage - lo.stage
    if gap == 0:
        return lo.vector == hi.vector
    bits = max(map(sum, g.phi)).bit_length()
    n = g.rank
    if n * n * gap * (gap * bits * (bits + 256) + 10**5) > PUSH_BUDGET:
        raise DimGroupError(
            f"stage gap {clipped(gap)} at rank {n} and {bits} bits a stage "
            f"exceeds the push budget of {PUSH_BUDGET}"
        )
    v = lo.vector
    for _ in range(gap):
        v = _mat_vec(g.phi, v)
    return v == hi.vector


def _rem(a: list[int], b: list[int]) -> list[int]:
    """A positive multiple of the remainder of a by b, as a primitive
    integer coefficient list (leading coefficient first, none zero)."""
    lead, sign = abs(b[0]), (b[0] > 0) - (b[0] < 0)
    r = list(a)
    while len(r) >= len(b):
        f = sign * r[0]
        r = [lead * x - f * y for x, y in zip(r[1:], b[1:])] + [lead * x for x in r[len(b):]]
    while r and r[0] == 0:
        del r[0]
    content = gcd(*r)
    return [x // content for x in r]


def _remainders(p: list[int], q: list[int]) -> list[list[int]]:
    """The signed remainder sequence p, q, -rem(p, q), ..., each term
    up to a positive factor, which keeps every sign variation."""
    seq = [p, q]
    while seq[-1]:
        seq.append([-x for x in _rem(seq[-2], seq[-1])])
    return seq[:-1]


def _scaled_value(poly: list[int], x: Fraction) -> int:
    """poly(x) times the positive denominator**degree of x."""
    y, scale = 0, 1
    for c in poly:
        y = y * x.numerator + c * scale
        scale *= x.denominator
    return y


def _variations(seq: list[list[int]], x: Fraction | None) -> int:
    """Sign changes along seq at x (None is +infinity), zeros skipped."""
    values = [poly[0] if x is None else _scaled_value(poly, x) for poly in seq]
    signs = [y > 0 for y in values if y]
    return sum(a != b for a, b in zip(signs, signs[1:]))


# Faddeev-LeVerrier's n products of n x n matrices, then the Sturm and
# Sturm-Tarski remainder sequences of degree-n polynomials with
# coefficients of up to n b bits: n^4 (n b + 300)^2 = 5 * 10^11 was
# 0.2-1.1 s at its limit from n = 3 to n = 30.
PERRON_BUDGET = 5 * 10**11
# Each halving of the Sturm bisection evaluates n + 1 polynomials of
# degree n at a point of h + b bits, h the halvings so far, so h halvings
# cost about n^3 h (h + b)^2: 2 * 10^12 was 0.5-0.8 s from n = 3 to n = 6.
HALVING_BUDGET = 2 * 10**12


def _perron_sign(phi: Matrix, v: tuple[int, ...]) -> int:
    """Sign of <w, v>: the sign of g at the Perron root lam of chi, where
    chi(x) = det(xI - phi) and g(x) is the first entry of adj(xI - phi) v.

    At the simple root lam, adj(lam I - phi) = chi'(lam) r w^T / <w, r>
    with chi'(lam) > 0 and r, w > 0, so g(lam) has the sign of <w, v>.
    Faddeev-LeVerrier gives chi and adj(xI - phi) = sum M_k x^(n-k)
    together, in integers.  For phi primitive (from_matrix checks it),
    lam is simple, exceeds every other real root and lies between the
    least and the largest row sum, so Sturm bisection of chi starts at
    lo = least row sum - 1/2 and hi = largest row sum + 1.  chi is monic
    in integers, so its rational roots are integers; every midpoint has
    more factors of 2 in its denominator than both ends, so none is a
    root.  The steps grow with the bit size of phi, not with its
    spectral gap, and the final lo has lam as the only root above it:
    the Sturm-Tarski query of g on (lo, +infinity) is sign g(lam).
    A phi past PERRON_BUDGET, or a bisection past HALVING_BUDGET, raises
    DimGroupError.
    """
    n = len(phi)
    sums = [sum(row) for row in phi]
    bits = max(sums).bit_length()
    if n**4 * (n * bits + 300) ** 2 > PERRON_BUDGET:
        raise DimGroupError(f"matrix exceeds the Perron budget of {PERRON_BUDGET}")
    chi, g = [1], []
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for step in range(1, n + 1):
        g.append(sum(x * y for x, y in zip(m[0], v)))
        pm = [[sum(phi[i][t] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        c = -sum(pm[i][i] for i in range(n)) // step
        chi.append(c)
        m = [[pm[i][j] + c * (i == j) for j in range(n)] for i in range(n)]
    slope = [c * (n - i) for i, c in enumerate(chi[:-1])]
    sturm = _remainders(chi, slope)
    top = _variations(sturm, None)
    lo, hi = Fraction(2 * min(sums) - 1, 2), Fraction(max(sums) + 1)
    above = _variations(sturm, lo) - top
    halvings = 0
    while above > 1:
        halvings += 1
        if n**3 * halvings * (halvings + bits) ** 2 > HALVING_BUDGET:
            raise DimGroupError(f"Sturm bisection exceeds the halving budget of {HALVING_BUDGET}")
        mid = (lo + hi) / 2
        k = _variations(sturm, mid) - top
        if k:
            lo, above = mid, k
        else:
            hi = mid
    product = [0] * (len(slope) + len(g) - 1)
    for i, a in enumerate(slope):
        for j, b in enumerate(g):
            product[i + j] += a * b
    tarski = _remainders(chi, _rem(product, chi))
    return _variations(tarski, lo) - _variations(tarski, None)


def _period_sign(word: tuple[int, ...], v: tuple[int, ...]) -> int:
    """Sign of <w, v> for phi = M(word), never building phi.

    Each factor [[b, 1], [1, 0]] is symmetric, so phi^T = M(reversed
    word), whose Perron vector is (t, 1) for t the purely periodic value
    [(b_L, ..., b_1)], irrational and > 1.  For v0 != 0 the pairing
    t v0 + v1 is v0 (t - r) with r = -v1/v0, and the sign of t - r is
    read off the two continued fractions: at the first depth k where
    t's term a and r's Euclid term c differ it is that of (a - c)(-1)^k;
    where r's expansion ends first, its last complete quotient is
    exactly c and t's is larger, so it is (-1)^k.  This takes as many
    steps as r's expansion, O(log |v|), whatever len(word).
    """
    v0, v1 = v
    if not v0:
        return (v1 > 0) - (v1 < 0)
    num, den = (-v1, v0) if v0 > 0 else (v1, -v0)
    s = 1 if v0 > 0 else -1  # sign(v0) (-1)^k at depth k
    for a in cycle(reversed(word)):  # endless; r's expansion ends the loop
        c, rem = divmod(num, den)
        if a != c:
            return s if a > c else -s
        if not rem:
            return s
        num, den, s = den, rem, -s


def is_positive(g: StationaryDimensionGroup, e: K0Element) -> Positivity:
    """Sign of the element in the limit order: the sign of <w, v>.

    A group of a period word reads it off the word (_period_sign), and
    its pairing is never zero on a nonzero vector.  Otherwise phi is
    primitive (from_matrix checks it), so w > 0; pushing keeps the
    pairing's sign and, as det phi != 0, never reaches the zero vector.
    So a pushed vector with no entries of opposite sign has the sign of
    any nonzero entry.  One that still has both signs after n = rank
    pushes gets the exact decision of _perron_sign.  A zero pairing on a
    nonzero vector is undecided.
    """
    _check_vector(g, e)
    v = e.vector
    if not any(v):
        return Positivity.ZERO
    if g._word is not None:
        s = _period_sign(g._word, v)
    else:
        for _ in range(g.rank):
            if min(v) >= 0 or max(v) <= 0:
                break
            v = _mat_vec(g.phi, v)
        s = (max(v) > 0) - (min(v) < 0) or _perron_sign(g.phi, e.vector)
    if s > 0:
        return Positivity.STRICTLY_POSITIVE
    if s < 0:
        return Positivity.STRICTLY_NEGATIVE
    return Positivity.UNDECIDED


def rank2_slope(g: StationaryDimensionGroup) -> surd.QuadraticSurd:
    """The positive fixed point of the Mobius action of phi: the exact
    Perron eigenvector slope.  For phi built from a CF period this is
    the purely periodic value of that period."""
    if g.rank != 2:
        raise DimGroupError("slope is defined for rank 2 only")
    (a, b), (c, d) = g.phi
    x = contfrac._fixed_point(a, b, c, d)
    if x.is_rational:
        raise NotCFTypeError("rational Perron eigenvalue: not of CF type")
    return x


def rank2_morita_equivalent(
    g1: StationaryDimensionGroup, g2: StationaryDimensionGroup
) -> torus.UnimodularWitness | None:
    """Witness that the two rank-2 groups lie in one tail class."""
    t1 = torus.TorusParameter(rank2_slope(g1))
    t2 = torus.TorusParameter(rank2_slope(g2))
    return torus.morita_equivalent(t1, t2)
