"""Stationary dimension groups with decidable order.

A group is the inductive limit of Z^n --phi--> Z^n --phi--> ... for a
primitive nonnegative integer matrix phi with nonzero determinant.
Elements are (vector, stage) pairs identified by forward pushing.
The order is the sign of the pairing <w, v> with the left
Perron-Frobenius eigenvector w (Effros, Dimensions and C*-algebras,
CBMS 46), decided exactly at every rank: by a few pushes of v when
they make it entrywise signed, else by a Sturm-Tarski query at the
Perron root; "undecided" means a zero pairing on a nonzero vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import reduce
from math import gcd
from operator import or_
from typing import Optional

from .contfrac import _fixed_point, _mobius_matrix, is_primitive as word_is_primitive
from .surd import QuadraticSurd
from . import torus


class DimGroupError(ValueError):
    """Domain error in dimension-group construction or queries."""


class NotPrimitiveMatrixError(DimGroupError):
    pass


class SingularMatrixError(DimGroupError):
    pass


class NotCFTypeError(DimGroupError):
    """Rank-2 group whose Perron eigenvalue is rational."""


class Positivity(Enum):
    ZERO = "zero"
    STRICTLY_POSITIVE = "strictly-positive"
    STRICTLY_NEGATIVE = "strictly-negative"
    UNDECIDED = "infinitesimal-undecided"


Matrix = tuple[tuple[int, ...], ...]


def _det(m: Matrix) -> int:
    """Fraction-free Bareiss elimination."""
    n = len(m)
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


@dataclass(frozen=True)
class K0Element:
    stage: int
    vector: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "vector", tuple(self.vector))
        if self.stage < 0:
            raise DimGroupError("stage must be nonnegative")


@dataclass(frozen=True)
class StationaryDimensionGroup:
    phi: Matrix

    @property
    def rank(self) -> int:
        return len(self.phi)

    @property
    def determinant(self) -> int:
        return _det(self.phi)

    @property
    def shift_is_automorphism(self) -> bool:
        return abs(self.determinant) == 1


def from_matrix(phi) -> StationaryDimensionGroup:
    rows = tuple(tuple(int(x) for x in row) for row in phi)
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise DimGroupError("matrix must be square and nonempty")
    if any(x < 0 for row in rows for x in row):
        raise DimGroupError("matrix entries must be nonnegative")
    if _det(rows) == 0:
        raise SingularMatrixError(f"singular matrix: {rows}")
    if not _is_primitive_matrix(rows):
        raise NotPrimitiveMatrixError(f"not primitive: {rows}")
    return StationaryDimensionGroup(rows)


def from_cf_period(period) -> StationaryDimensionGroup:
    """phi = product of [[b_i, 1], [1, 0]] over a primitive period word;
    always primitive with |det| = 1."""
    word = tuple(int(b) for b in period)
    if not word or any(b < 1 for b in word):
        raise DimGroupError("period must be a nonempty positive word")
    if not word_is_primitive(word):
        raise DimGroupError(f"not primitive: {word}")
    m11, m12, m21, m22 = _mobius_matrix(word)
    return from_matrix(((m11, m12), (m21, m22)))


def _check_vector(g: StationaryDimensionGroup, e: K0Element):
    if len(e.vector) != g.rank:
        raise DimGroupError(
            f"vector length {len(e.vector)} does not match rank {g.rank}"
        )


# Most stages element_equal pushes across.  Each push widens the entries
# by about the bit size of phi, so the time grows with the square of the
# gap: 10^3 stages took 4 ms for [[2, 1], [1, 1]] and 29 ms for a 3x3 phi
# with 10^12 on the diagonal, 10^4 stages 0.07 s and 2.0 s (2-vCPU Xeon
# VM).  The benchmark's gaps are at most 3 stages.
STAGE_BUDGET = 10**3


def element_equal(g: StationaryDimensionGroup, e1: K0Element, e2: K0Element) -> bool:
    """Push the lower-stage vector forward; phi is injective (det != 0),
    so this decides equality in the limit.  A gap of more than
    STAGE_BUDGET stages raises DimGroupError."""
    _check_vector(g, e1)
    _check_vector(g, e2)
    lo, hi = (e1, e2) if e1.stage <= e2.stage else (e2, e1)
    gap = hi.stage - lo.stage
    if gap > STAGE_BUDGET:
        raise DimGroupError(f"stage gap {gap} exceeds the stage budget of {STAGE_BUDGET}")
    v = lo.vector
    for _ in range(gap):
        v = _mat_vec(g.phi, v)
    return v == hi.vector


def _signed(v: tuple[int, ...]) -> int:
    """1 if v is entrywise positive, -1 if entrywise negative, else 0."""
    if min(v) > 0:
        return 1
    if max(v) < 0:
        return -1
    return 0


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


def _variations(seq: list[list[int]], x: Optional[Fraction]) -> int:
    """Sign changes along seq at x (None is +infinity), zeros skipped."""
    values = [poly[0] if x is None else _scaled_value(poly, x) for poly in seq]
    signs = [y > 0 for y in values if y]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _perron_sign(phi: Matrix, v: tuple[int, ...]) -> int:
    """Sign of <w, v>: the sign of g at the Perron root lam of chi, where
    chi(x) = det(xI - phi) and g(x) is the first entry of adj(xI - phi) v.

    At the simple root lam, adj(lam I - phi) = chi'(lam) r w^T / <w, r>
    with chi'(lam) > 0 and r, w > 0, so g(lam) has the sign of <w, v>.
    Faddeev-LeVerrier gives chi and adj(xI - phi) = sum M_k x^(n-k)
    together, in integers.  Every eigenvalue lies in (-b, b) for b one
    more than the largest row sum, and lam exceeds every other real
    root, so bisection with the Sturm sequence of chi finds a point lo
    with lam the only root above it, in a number of steps that grows
    with the bit size of phi, not with its spectral gap.  The
    Sturm-Tarski query of g on (lo, +infinity) is then sign g(lam).
    """
    n = len(phi)
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
    hi = Fraction(max(sum(row) for row in phi) + 1)
    lo = -hi
    above = _variations(sturm, lo) - top
    while above > 1:
        mid = (lo + hi) / 2
        while _scaled_value(chi, mid) == 0:
            mid = (lo + mid) / 2
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


def is_positive(g: StationaryDimensionGroup, e: K0Element) -> Positivity:
    """Sign of the element in the limit order: the sign of <w, v>.

    Pushing keeps the pairing's sign, and a pushed vector that is
    entrywise signed has it; most vectors are after a few pushes.  One
    that is not after n = rank pushes gets the exact decision of
    _perron_sign.  A zero pairing on a nonzero vector is undecided.
    """
    _check_vector(g, e)
    v = e.vector
    if not any(v):
        return Positivity.ZERO
    for _ in range(g.rank):
        s = _signed(v)
        if s:
            break
        v = _mat_vec(g.phi, v)
    else:
        s = _signed(v) or _perron_sign(g.phi, e.vector)
    if s > 0:
        return Positivity.STRICTLY_POSITIVE
    if s < 0:
        return Positivity.STRICTLY_NEGATIVE
    return Positivity.UNDECIDED


def iteration_verdict(
    g: StationaryDimensionGroup, e: K0Element, iteration_cap: int = 64
) -> Positivity:
    """The capped-iteration decision alone, at any rank (oracle route)."""
    _check_vector(g, e)
    v = e.vector
    if all(x == 0 for x in v):
        return Positivity.ZERO
    for _ in range(iteration_cap):
        if all(x > 0 for x in v):
            return Positivity.STRICTLY_POSITIVE
        if all(x < 0 for x in v):
            return Positivity.STRICTLY_NEGATIVE
        v = _mat_vec(g.phi, v)
    return Positivity.UNDECIDED


def shift(g: StationaryDimensionGroup, e: K0Element) -> K0Element:
    """[v, k] -> [phi v, k]: order-preserving injection, an automorphism
    of the limit iff |det phi| = 1 (see shift_is_automorphism)."""
    _check_vector(g, e)
    return K0Element(e.stage, _mat_vec(g.phi, e.vector))


def rank2_slope(g: StationaryDimensionGroup) -> QuadraticSurd:
    """The positive fixed point of the Mobius action of phi: the exact
    Perron eigenvector slope.  For phi built from a CF period this is
    the purely periodic value of that period."""
    if g.rank != 2:
        raise DimGroupError("slope is defined for rank 2 only")
    (a, b), (c, d) = g.phi
    x = _fixed_point(a, b, c, d)
    if x.is_rational:
        raise NotCFTypeError("rational Perron eigenvalue: not of CF type")
    return x


def rank2_morita_equivalent(
    g1: StationaryDimensionGroup, g2: StationaryDimensionGroup
) -> Optional[torus.UnimodularWitness]:
    """Witness that the two rank-2 groups lie in one tail class."""
    t1 = torus.TorusParameter(rank2_slope(g1))
    t2 = torus.TorusParameter(rank2_slope(g2))
    return torus.morita_equivalent(t1, t2)
