"""Stationary dimension groups with decidable order.

A group is the inductive limit of Z^n --phi--> Z^n --phi--> ... for a
primitive nonnegative integer matrix phi with nonzero determinant.
Elements are (vector, stage) pairs identified by forward pushing.
Positivity for rank 2 is decided exactly through the left
Perron-Frobenius eigenvector, as the sign of an integer a + b*sqrt(k);
higher ranks fall back to a capped iteration with an honest undecided
verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .contfrac import _fixed_point, _mobius_matrix, is_primitive as word_is_primitive
from .surd import QuadraticSurd, _sign2
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
    """Boolean powering up to the Wielandt bound n^2 - 2n + 2."""
    n = len(m)
    bound = n * n - 2 * n + 2
    cur = [[bool(x) for x in row] for row in m]
    base = [row[:] for row in cur]
    for _ in range(bound - 1):
        if all(all(row) for row in cur):
            return True
        cur = [
            [any(cur[i][k] and base[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return all(all(row) for row in cur)


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


def element_equal(g: StationaryDimensionGroup, e1: K0Element, e2: K0Element) -> bool:
    """Push the lower-stage vector forward; phi is injective (det != 0),
    so this decides equality in the limit."""
    _check_vector(g, e1)
    _check_vector(g, e2)
    lo, hi = (e1, e2) if e1.stage <= e2.stage else (e2, e1)
    v = lo.vector
    for _ in range(hi.stage - lo.stage):
        v = _mat_vec(g.phi, v)
    return v == hi.vector


def is_positive(
    g: StationaryDimensionGroup, e: K0Element, iteration_cap: int = 64
) -> Positivity:
    """Sign of the element in the limit order.

    Rank 2: exact sign of the pairing with the left Perron eigenvector.
    For primitive phi = [[a, b], [c, d]] both b, c > 0 and the eigenvalue
    lam = ((a+d) + sqrt(disc))/2 with disc = (a-d)^2 + 4bc exceeds a, so
    w = (c, lam - a) is strictly positive.  Twice its pairing with v is
    2c*v0 + (d - a)*v1 + v1*sqrt(disc), whose sign needs no squarefree
    form of disc.  A zero pairing on a nonzero vector is reported
    undecided rather than silently classifying infinitesimals.
    Rank > 2: capped iteration.
    """
    if g.rank != 2:
        return iteration_verdict(g, e, iteration_cap)
    _check_vector(g, e)
    v = e.vector
    if all(x == 0 for x in v):
        return Positivity.ZERO
    (a, b), (c, d) = g.phi
    s = _sign2(2 * c * v[0] + (d - a) * v[1], v[1], (a - d) ** 2 + 4 * b * c)
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
