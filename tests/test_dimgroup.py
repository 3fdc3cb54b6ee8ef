import random

import pytest

from twistlab.contfrac import EventuallyPeriodicCF, is_primitive, value_of
from twistlab.dimgroup import (
    STAGE_BUDGET,
    DimGroupError,
    K0Element,
    NotCFTypeError,
    NotPrimitiveMatrixError,
    Positivity,
    SingularMatrixError,
    StationaryDimensionGroup,
    _is_primitive_matrix,
    element_equal,
    from_cf_period,
    from_matrix,
    is_positive,
    iteration_verdict,
    rank2_morita_equivalent,
    rank2_slope,
    shift,
)
from twistlab.surd import QuadraticSurd
from twistlab.torus import apply_mobius

S = QuadraticSurd.normalize
FIB = from_matrix([[1, 1], [1, 0]])


def random_primitive_2x2(rng) -> StationaryDimensionGroup:
    while True:
        phi = [[rng.randint(0, 6) for _ in range(2)] for _ in range(2)]
        try:
            return from_matrix(phi)
        except DimGroupError:
            continue


class TestFromMatrix:
    def test_fibonacci_valid(self):
        assert FIB.phi == ((1, 1), (1, 0))
        assert FIB.shift_is_automorphism

    def test_reducible_rejected(self):
        with pytest.raises(NotPrimitiveMatrixError):
            from_matrix([[2, 0], [0, 2]])

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            from_matrix([[1, 1], [1, 1]])

    def test_negative_entries_rejected(self):
        with pytest.raises(DimGroupError):
            from_matrix([[1, -1], [1, 0]])

    def test_rank3_primitive(self):
        g = from_matrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        assert g.rank == 3
        assert g.determinant == 2

    def test_rank3_cyclic_not_primitive(self):
        with pytest.raises(NotPrimitiveMatrixError):
            from_matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])


def wielandt_powering(m) -> bool:
    """Oracle: Boolean powering, one multiplication per power, up to
    Wielandt's bound n^2 - 2n + 2 on the exponent of a primitive matrix."""
    n = len(m)
    cur = [[bool(x) for x in row] for row in m]
    base = [row[:] for row in cur]
    for _ in range(n * n - 2 * n + 1):
        if all(all(row) for row in cur):
            return True
        cur = [
            [any(cur[i][k] and base[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return all(all(row) for row in cur)


def wielandt(n):
    """A cycle plus one chord: primitive with exponent exactly n^2 - 2n + 2."""
    return tuple(tuple(int(j == i + 1 or (i == n - 1 and j < 2)) for j in range(n))
                 for i in range(n))


def cycle(n):
    """The cyclic permutation matrix: irreducible, period n, imprimitive for n > 1."""
    return tuple(tuple(int(j == (i + 1) % n) for j in range(n)) for i in range(n))


class TestPrimitivity:
    @pytest.mark.parametrize("top", [1, 3])
    def test_matches_powering_oracle(self, top):
        rng = random.Random(70 + top)
        seen = set()
        for _ in range(1500):
            n = rng.randint(1, 7)
            density = rng.choice([0.15, 0.3, 0.5, 0.8])
            m = tuple(tuple(rng.randint(1, top) if rng.random() < density else 0
                            for _ in range(n)) for _ in range(n))
            want = wielandt_powering(m)
            assert _is_primitive_matrix(m) is want, m
            seen.add(want)
        assert seen == {True, False}

    @pytest.mark.parametrize("n", range(2, 13))
    def test_wielandt_and_cycles(self, n):
        assert _is_primitive_matrix(wielandt(n)) and wielandt_powering(wielandt(n))
        assert not _is_primitive_matrix(cycle(n)) and not wielandt_powering(cycle(n))

    def test_large_wielandt_is_quick(self, alarm):
        assert _is_primitive_matrix(wielandt(100))
        assert not _is_primitive_matrix(cycle(100))


class TestFromCFPeriod:
    def test_single_one(self):
        assert from_cf_period((1,)).phi == ((1, 1), (1, 0))

    def test_single_two(self):
        assert from_cf_period((2,)).phi == ((2, 1), (1, 0))

    def test_word_product(self):
        assert from_cf_period((1, 2)).phi == ((3, 1), (2, 1))

    def test_always_shift_automorphism(self):
        for word in [(1,), (3,), (1, 2), (2, 1, 1), (4, 3, 2, 1)]:
            g = from_cf_period(word)
            assert abs(g.determinant) == 1
            assert g.shift_is_automorphism

    def test_imprimitive_word_rejected(self):
        with pytest.raises(DimGroupError):
            from_cf_period((2, 2))


class TestElementEqual:
    def test_defining_relation(self):
        assert element_equal(FIB, K0Element(0, (2, 1)), K0Element(1, (3, 2)))

    def test_unequal_across_stages(self):
        assert not element_equal(FIB, K0Element(0, (1, 0)), K0Element(1, (1, 0)))

    def test_identity(self):
        e = K0Element(3, (4, -2))
        assert element_equal(FIB, e, e)

    def test_equivalence_relation(self):
        rng = random.Random(5)
        for _ in range(100):
            v = tuple(rng.randint(-5, 5) for _ in range(2))
            k = rng.randint(0, 3)
            e = K0Element(k, v)
            pushed = shift(FIB, e)
            lifted = K0Element(k + 1, pushed.vector)
            assert element_equal(FIB, e, lifted)
            assert element_equal(FIB, lifted, e)

    def test_wrong_length_rejected(self):
        with pytest.raises(DimGroupError):
            element_equal(FIB, K0Element(0, (1, 2, 3)), K0Element(0, (1, 2)))

    def test_stage_budget(self, alarm):
        # J + I fixes v = (1, -1, 0), so the two elements are equal at every
        # gap; past the budget the answer is an error, never False
        g = from_matrix([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
        v = (1, -1, 0)
        assert element_equal(g, K0Element(0, v), K0Element(STAGE_BUDGET, v))
        assert element_equal(g, K0Element(STAGE_BUDGET + 3, v), K0Element(3, v))
        for lo, hi in [(0, STAGE_BUDGET + 1), (10**8, 0)]:
            with pytest.raises(DimGroupError, match=f"stage budget of {STAGE_BUDGET}"):
                element_equal(g, K0Element(lo, v), K0Element(hi, v))


class TestIsPositive:
    def test_fibonacci_positive(self):
        assert is_positive(FIB, K0Element(0, (1, -1))) is Positivity.STRICTLY_POSITIVE

    def test_fibonacci_negative(self):
        assert is_positive(FIB, K0Element(0, (1, -2))) is Positivity.STRICTLY_NEGATIVE

    def test_zero(self):
        assert is_positive(FIB, K0Element(0, (0, 0))) is Positivity.ZERO

    def test_rational_eigenvalue_undecided_on_kernel_direction(self):
        g = from_matrix([[2, 1], [1, 2]])
        # (1, -1) pairs to zero with the Perron eigenvector (1, 1)
        assert is_positive(g, K0Element(0, (1, -1))) is Positivity.UNDECIDED

    def test_rank2_matches_iteration_oracle(self):
        rng = random.Random(17)
        for _ in range(500):
            g = random_primitive_2x2(rng)
            v = (rng.randint(-8, 8), rng.randint(-8, 8))
            e = K0Element(0, v)
            oracle = iteration_verdict(g, e)
            if oracle is not Positivity.UNDECIDED:
                assert is_positive(g, e) is oracle

    def test_rank3_iteration_route(self):
        g = from_matrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        assert is_positive(g, K0Element(0, (1, 1, 1))) is Positivity.STRICTLY_POSITIVE
        assert is_positive(g, K0Element(0, (-1, -1, -1))) is Positivity.STRICTLY_NEGATIVE

    def test_cone_axioms_on_decided_elements(self):
        rng = random.Random(23)
        g = from_cf_period((2, 1))
        positives = []
        for _ in range(200):
            v = (rng.randint(-6, 6), rng.randint(-6, 6))
            e = K0Element(0, v)
            verdict = is_positive(g, e)
            if verdict is Positivity.STRICTLY_POSITIVE:
                positives.append(v)
                neg = K0Element(0, (-v[0], -v[1]))
                assert is_positive(g, neg) is Positivity.STRICTLY_NEGATIVE
        for a in positives[:20]:
            for b in positives[:20]:
                total = K0Element(0, (a[0] + b[0], a[1] + b[1]))
                assert is_positive(g, total) is Positivity.STRICTLY_POSITIVE

    def test_equal_elements_get_equal_verdicts(self):
        rng = random.Random(29)
        for _ in range(100):
            g = random_primitive_2x2(rng)
            v = (rng.randint(-5, 5), rng.randint(-5, 5))
            e = K0Element(0, v)
            pushed = K0Element(1, shift(g, e).vector)
            assert element_equal(g, e, pushed)
            assert is_positive(g, e) is is_positive(g, pushed)


def random_primitive(rng, n: int, top: int = 3) -> StationaryDimensionGroup:
    while True:
        phi = [[rng.randint(0, top) for _ in range(n)] for _ in range(n)]
        try:
            return from_matrix(phi)
        except DimGroupError:
            continue


def constant_column_sums(rng, n: int) -> StationaryDimensionGroup:
    """Columns summing to one constant make (1, ..., 1) the left Perron
    eigenvector; rows are shuffled per column to keep it primitive."""
    while True:
        total = rng.randint(2, 6)
        cols = []
        for _ in range(n):
            cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
            cols.append([b - a for a, b in zip([0, *cuts], [*cuts, total])])
        try:
            return from_matrix([[cols[j][i] for j in range(n)] for i in range(n)])
        except DimGroupError:
            continue


class TestExactPositivityAtEveryRank:
    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_iteration_oracle_where_it_decides(self, n):
        rng = random.Random(41 + n)
        decided = 0
        for _ in range(400):
            g = random_primitive(rng, n)
            e = K0Element(0, tuple(rng.randint(-6, 6) for _ in range(n)))
            oracle = iteration_verdict(g, e, 64)
            if oracle is not Positivity.UNDECIDED:
                decided += 1
                assert is_positive(g, e) is oracle, (g.phi, e.vector)
        assert decided > 300

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sign_of_entry_sum_when_columns_sum_alike(self, n):
        rng = random.Random(53 + n)
        want = {1: Positivity.STRICTLY_POSITIVE, -1: Positivity.STRICTLY_NEGATIVE,
                0: Positivity.UNDECIDED}
        zero_pairings = 0
        for _ in range(300):
            g = constant_column_sums(rng, n)
            v = tuple(rng.randint(-3, 3) for _ in range(n))
            if not any(v):
                continue
            total = sum(v)
            zero_pairings += total == 0
            assert is_positive(g, K0Element(0, v)) is want[(total > 0) - (total < 0)]
        assert zero_pairings > 20

    def test_j_plus_i_zero_sum_vectors_undecided(self):
        g = from_matrix([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
        for v in [(1, -1, 0), (0, 3, -3), (2, -1, -1), (-5, 1, 4)]:
            assert is_positive(g, K0Element(0, v)) is Positivity.UNDECIDED
        assert is_positive(g, K0Element(0, (1, -1, 1))) is Positivity.STRICTLY_POSITIVE

    @pytest.mark.parametrize("big", [10**6, 10**12])
    def test_narrow_spectral_gap(self, big):
        # symmetric with constant column sums: w = (1, ..., 1), and the
        # eigenvalue ratio (big + 1) / (big - 1) defeats pushing alone
        want = {1: Positivity.STRICTLY_POSITIVE, -1: Positivity.STRICTLY_NEGATIVE,
                0: Positivity.UNDECIDED}
        rank2 = from_matrix([[big, 1], [1, big]])
        rank3 = from_matrix([[big, 1, 1], [1, big, 1], [1, 1, big]])
        for g, v in [(rank2, (big, 1 - big)), (rank2, (big - 1, -big)), (rank2, (big, -big)),
                     (rank3, (big, 1 - big, 0)), (rank3, (big, -big, -1)),
                     (rank3, (big, -big, 0)), (rank3, (1, big, -1 - big))]:
            total = sum(v)
            assert is_positive(g, K0Element(0, v)) is want[(total > 0) - (total < 0)], v

    def test_decides_past_the_old_cap(self):
        # companion matrix of x^3 - x - 1, det 1: v = phi^-120 (1, -1, 0)
        g = from_matrix([[0, 1, 0], [0, 0, 1], [1, 1, 0]])
        inverse = ((-1, 0, 1), (1, 0, 0), (0, 1, 0))
        v = (1, -1, 0)
        for _ in range(120):
            v = tuple(sum(a * b for a, b in zip(row, v)) for row in inverse)
        e = K0Element(0, v)
        assert iteration_verdict(g, e, 64) is Positivity.UNDECIDED
        assert iteration_verdict(g, e, 10**4) is Positivity.STRICTLY_NEGATIVE
        assert is_positive(g, e) is Positivity.STRICTLY_NEGATIVE


class TestShift:
    def test_matrix_application(self):
        assert shift(FIB, K0Element(0, (1, 0))) == K0Element(0, (1, 1))

    def test_preserves_positivity(self):
        rng = random.Random(31)
        for _ in range(100):
            g = random_primitive_2x2(rng)
            e = K0Element(0, (rng.randint(-5, 5), rng.randint(-5, 5)))
            assert is_positive(g, shift(g, e)) is is_positive(g, e)

    def test_injective(self):
        rng = random.Random(37)
        seen = {}
        for _ in range(1000):
            v = (rng.randint(-15, 15), rng.randint(-15, 15))
            image = shift(FIB, K0Element(0, v)).vector
            if image in seen:
                assert seen[image] == v
            seen[image] = v


class TestRank2Slope:
    def test_golden(self):
        assert rank2_slope(from_cf_period((1,))) == S(1, 1, 2, 5)

    def test_silver(self):
        assert rank2_slope(from_cf_period((2,))) == S(1, 1, 1, 2)

    def test_rational_eigenvalue_rejected(self):
        with pytest.raises(NotCFTypeError):
            rank2_slope(from_matrix([[2, 1], [1, 2]]))

    def test_singular_never_reaches_slope(self):
        with pytest.raises(SingularMatrixError):
            from_matrix([[2, 2], [1, 1]])

    def test_matches_purely_periodic_value(self):
        for word in [(1,), (2,), (1, 2), (3, 1, 2), (2, 1, 1, 5)]:
            if not is_primitive(word):
                continue
            expected = value_of(EventuallyPeriodicCF((), word))
            assert rank2_slope(from_cf_period(word)) == expected


class TestRank2Morita:
    def test_same_period_different_preperiod_decoration(self):
        g1 = from_cf_period((2,))
        g2 = from_cf_period((2,))
        assert rank2_morita_equivalent(g1, g2) is not None

    def test_distinct_tail_classes(self):
        assert rank2_morita_equivalent(from_cf_period((1,)), from_cf_period((2,))) is None

    def test_self_equivalent(self):
        g = from_cf_period((1, 2))
        w = rank2_morita_equivalent(g, g)
        assert w is not None
        theta = rank2_slope(g)
        from twistlab.torus import TorusParameter
        assert apply_mobius(w, TorusParameter(theta)).theta == theta

    def test_rotated_periods_equivalent(self):
        w = rank2_morita_equivalent(from_cf_period((1, 2)), from_cf_period((2, 1)))
        assert w is not None
