import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from twistlab import contfrac, dimgroup
from twistlab.cli import run_command
from twistlab.contfrac import EventuallyPeriodicCF, is_primitive, value_of
from twistlab.dimgroup import (
    DET_BUDGET,
    HALVING_BUDGET,
    PERRON_BUDGET,
    PUSH_BUDGET,
    DimGroupError,
    K0Element,
    NotCFTypeError,
    NotPrimitiveMatrixError,
    Positivity,
    SingularMatrixError,
    StationaryDimensionGroup,
    _is_primitive_matrix,
    _perron_sign,
    element_equal,
    from_cf_period,
    from_matrix,
    is_positive,
    rank2_morita_equivalent,
    rank2_slope,
)
from twistlab.surd import QuadraticSurd
from twistlab.torus import apply_mobius

from oracles import iteration_verdict, long_periodic_words, perron_verdict, word_matrix

S = QuadraticSurd.normalize
FIB = from_matrix([[1, 1], [1, 0]])


def push(g: StationaryDimensionGroup, v: tuple[int, ...]) -> tuple[int, ...]:
    """phi v, the same element of the limit one stage up."""
    return tuple(sum(a * b for a, b in zip(row, v)) for row in g.phi)


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

    @pytest.mark.parametrize("build", [
        lambda: from_matrix([[2.5, 1], [1, 1]]),
        lambda: from_matrix([[True, 1], [1, 1]]),
        lambda: from_cf_period([1.5, 2]),
        lambda: from_cf_period([True]),
        lambda: K0Element(1.5, (1, 0)),
        lambda: K0Element(0, (0.5, -0.3)),
        lambda: K0Element(0, (1, False)),
    ], ids=["matrix-float", "matrix-bool", "period-float", "period-bool",
            "stage-float", "vector-float", "vector-bool"])
    def test_non_integers_rejected(self, build):
        with pytest.raises(DimGroupError, match="integer"):
            build()

    def test_rank3_cyclic_not_primitive(self):
        with pytest.raises(NotPrimitiveMatrixError,
                           match=r"^not primitive: \(\(0, 1, 0\), \(0, 0, 1\), \(1, 0, 0\)\)$"):
            from_matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])

    @pytest.mark.parametrize("build, error", [
        (lambda: from_cf_period([1, 2] * 200000), DimGroupError),
        (lambda: from_matrix([[int(i == j) for j in range(60)] for i in range(60)]),
         NotPrimitiveMatrixError),
        (lambda: from_matrix([[1] * 60] * 60), SingularMatrixError),
        (lambda: from_cf_period(["x" * 10**6]), DimGroupError),
        (lambda: K0Element(0, (1, "x" * 10**6)), DimGroupError),
        (lambda: K0Element(["x"] * 10**5, (1, 0)), DimGroupError),
    ], ids=["period-not-primitive", "matrix-not-primitive", "singular", "period-entry",
            "vector-entry", "stage"])
    def test_messages_quote_a_prefix_of_the_value(self, build, error):
        with pytest.raises(error) as raised:
            build()
        assert len(str(raised.value)) < 200 and str(raised.value).endswith(" more characters)")


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

    def test_long_words_against_the_oracle(self):
        # periods of 20 to 400 terms, multiplied in leaves
        for _, period in long_periodic_words(random.Random(28), 12):
            assert sum(from_cf_period(period).phi, ()) == word_matrix(period)

    def test_always_shift_automorphism(self):
        for word in [(1,), (3,), (1, 2), (2, 1, 1), (4, 3, 2, 1)]:
            g = from_cf_period(word)
            assert abs(g.determinant) == 1
            assert g.shift_is_automorphism

    def test_determinant_is_the_sign_of_the_length(self, monkeypatch):
        # (-1)^L, read off the word: no elimination on phi
        words = [(1,), (7,), (1, 2), (2, 1, 1), (4, 3, 2, 1), (1, 1, 1, 1, 1, 2) * 9 + (3,)]
        monkeypatch.setattr(dimgroup, "_det", None)
        dets = [from_cf_period(word).determinant for word in words]
        monkeypatch.undo()
        assert dets == [(-1) ** len(word) for word in words]
        assert dets == [dimgroup._det(from_cf_period(word).phi) for word in words]

    def test_period_group_is_the_group_of_its_phi(self):
        g = from_cf_period((1, 2))
        assert g.rank == 2
        assert "phi" not in vars(g)
        same = StationaryDimensionGroup(((3, 1), (2, 1)))
        assert g == same and hash(g) == hash(same)
        assert repr(g) == repr(same) == "StationaryDimensionGroup(phi=((3, 1), (2, 1)))"
        assert from_cf_period((2, 1)) != g

    def test_non_integer_entry_named(self):
        with pytest.raises(DimGroupError, match=r"^period entries must be integers, got True$"):
            from_cf_period([1, True, 2.5])
        with pytest.raises(DimGroupError, match=r"^vector entries must be integers, got '3'$"):
            K0Element(0, (1, 2, "3"))

    def test_imprimitive_word_rejected(self):
        with pytest.raises(DimGroupError):
            from_cf_period((2, 2))

    def test_no_matrix_checks(self, monkeypatch):
        # a positive word's product is known nonsingular and primitive
        def forbidden(m):
            raise AssertionError("matrix check")

        words = [(1,), (7,), (1, 2), (2, 1, 1), (4, 3, 2, 1), (1, 1, 1, 1, 1, 2) * 9 + (3,)]
        monkeypatch.setattr(dimgroup, "_det", forbidden)
        monkeypatch.setattr(dimgroup, "_is_primitive_matrix", forbidden)
        groups = [from_cf_period(word) for word in words]
        monkeypatch.undo()
        assert groups == [from_matrix(g.phi) for g in groups]


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
            lifted = K0Element(k + 1, push(FIB, v))
            assert element_equal(FIB, e, lifted)
            assert element_equal(FIB, lifted, e)

    def test_wrong_length_rejected(self):
        with pytest.raises(DimGroupError):
            element_equal(FIB, K0Element(0, (1, 2, 3)), K0Element(0, (1, 2)))

    def test_stage_budget(self, alarm):
        # J + I fixes v = (1, -1, 0), so the two elements are equal at every
        # gap; past the push budget (a gap of 11894 at rank 3 and 3 bits a
        # stage) the answer is an error, never False
        g = from_matrix([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
        v = (1, -1, 0)
        assert element_equal(g, K0Element(0, v), K0Element(11000, v))
        assert element_equal(g, K0Element(11003, v), K0Element(3, v))
        for lo, hi in [(0, 12000), (10**8, 0)]:
            with pytest.raises(DimGroupError, match=f"push budget of {PUSH_BUDGET}$"):
                element_equal(g, K0Element(lo, v), K0Element(hi, v))

    def test_bit_budget(self, alarm):
        # a wide phi grows the pushed entries by its 335 bits a stage, so the
        # push budget stops it after 374 stages
        big = 10**100
        g = from_matrix([[big + (i == j) for j in range(6)] for i in range(6)])
        v = (1, 2, 3, 4, 5, 6)
        assert not element_equal(g, K0Element(0, v), K0Element(374, v))
        for gap in (375, 1000):
            with pytest.raises(DimGroupError, match=f"^stage gap {gap} at rank 6 and 335 bits"):
                element_equal(g, K0Element(0, v), K0Element(gap, v))
        # (1, -1, 0) is an eigenvector, of eigenvalue 10^12 - 1
        g = from_matrix([[10**12, 1, 1], [1, 10**12, 1], [1, 1, 10**12]])
        top = (10**12 - 1) ** 1000
        assert element_equal(g, K0Element(0, (1, -1, 0)), K0Element(1000, (top, -top, 0)))

    def test_push_budget(self, alarm):
        # each push is rank^2 multiply-adds: a random 0..3 phi of rank 20 may
        # cross 10^3 stages, one of rank 60 may not
        rng = random.Random(41)
        g = random_primitive(rng, 20)
        v = tuple(rng.randint(-5, 5) for _ in range(20))
        assert element_equal(g, K0Element(0, v), K0Element(1000, push(g, v))) is False
        g = random_primitive(rng, 60)
        bits = max(map(sum, g.phi)).bit_length()
        message = (f"^stage gap 1000 at rank 60 and {bits} bits a stage exceeds "
                   f"the push budget of {PUSH_BUDGET}$")
        with pytest.raises(DimGroupError, match=message):
            element_equal(g, K0Element(0, (1,) * 60), K0Element(1000, (1,) * 60))


class TestIsPositive:
    def test_fibonacci_positive(self):
        assert is_positive(FIB, K0Element(0, (1, -1))) is Positivity.STRICTLY_POSITIVE

    def test_fibonacci_negative(self):
        assert is_positive(FIB, K0Element(0, (1, -2))) is Positivity.STRICTLY_NEGATIVE

    def test_zero(self):
        assert is_positive(FIB, K0Element(0, (0, 0))) is Positivity.ZERO

    def test_weakly_signed_push_decides(self, monkeypatch):
        # w > 0, so (0, -1), the second push of (3, -5), has its sign, and
        # a vector with no entries of opposite sign is never pushed
        def refuse(phi, v):
            raise AssertionError("_perron_sign ran")

        monkeypatch.setattr(dimgroup, "_perron_sign", refuse)
        g = from_matrix([[2, 1], [1, 1]])
        assert is_positive(g, K0Element(0, (3, -5))) is Positivity.STRICTLY_NEGATIVE
        assert is_positive(g, K0Element(0, (-3, 5))) is Positivity.STRICTLY_POSITIVE
        monkeypatch.setattr(dimgroup, "_mat_vec", refuse)
        assert is_positive(g, K0Element(0, (0, 4))) is Positivity.STRICTLY_POSITIVE
        assert is_positive(g, K0Element(0, (-1, 0))) is Positivity.STRICTLY_NEGATIVE

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
            pushed = K0Element(1, push(g, v))
            assert element_equal(g, e, pushed)
            assert is_positive(g, e) is is_positive(g, pushed)


SIGN = {1: Positivity.STRICTLY_POSITIVE, -1: Positivity.STRICTLY_NEGATIVE}


def near_eigenvectors(word: tuple[int, ...], periods: int = 3):
    """(word, v, sign) for v = (q_k, -p_k + d), d in {-1, 0, 1}, and its
    negative, with p_k/q_k the convergents of t = [(reversed word)], k
    across the given number of periods.  <w, v> = t q_k - p_k + d, where
    |t q_k - p_k| < 1/q_(k+1) <= 1 has the sign (-1)^k; so the sign is
    that of d, or (-1)^k for d = 0."""
    rev = word[::-1]
    p, p_prev, q, q_prev = 1, 0, 0, 1
    for k in range(periods * len(word)):
        a = rev[k % len(word)]
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        for d in (-1, 0, 1):
            sign = d or (-1) ** k
            yield word, (q, d - p), sign
            yield word, (-q, p - d), -sign


NEAR = [
    case
    for word in [(1,), (2,), (1, 2), (3, 1, 2), (1, 1, 1, 2), (5, 1, 1, 3, 2, 7), (10**6, 1, 9)]
    for case in near_eigenvectors(word)
]


def with_near_examples(test):
    for word, v, _ in NEAR[::3]:
        test = example(word=word, v=v)(test)
    return test


TERMS = st.one_of(st.integers(1, 9), st.integers(1, 9), st.integers(1, 10**6))
WORDS = st.lists(TERMS, min_size=1, max_size=40).map(tuple).filter(contfrac.is_primitive)
ENTRIES = st.one_of(st.integers(-9, 9), st.integers(-10**40, 10**40))


class TestPeriodSign:
    """A period group's sign comes from the reversed word's continued
    fraction, held here to the Sturm-Tarski decision on phi and to
    capped iteration."""

    @settings(max_examples=300, deadline=None)
    @given(word=WORDS, v=st.tuples(ENTRIES, ENTRIES).filter(any))
    @with_near_examples
    def test_matches_perron_sign_and_iteration(self, word, v):
        g = from_cf_period(word)
        e = K0Element(0, v)
        verdict = is_positive(g, e)
        assert verdict is SIGN[_perron_sign(g.phi, v)]
        oracle = iteration_verdict(g, e)
        if oracle is not Positivity.UNDECIDED:
            assert verdict is oracle

    def test_near_eigenvectors(self):
        for word, v, sign in NEAR:
            assert is_positive(from_cf_period(word), K0Element(0, v)) is SIGN[sign], (word, v)

    def test_axis_vectors(self):
        g = from_cf_period((2, 1, 3))
        assert is_positive(g, K0Element(0, (0, 5))) is Positivity.STRICTLY_POSITIVE
        assert is_positive(g, K0Element(0, (0, -5))) is Positivity.STRICTLY_NEGATIVE
        assert is_positive(g, K0Element(0, (-1, 0))) is Positivity.STRICTLY_NEGATIVE
        assert is_positive(g, K0Element(0, (0, 0))) is Positivity.ZERO

    def test_stage_does_not_change_the_sign(self):
        g = from_cf_period((1, 2))
        for v in [(1, -1), (2, -3), (-5, 7)]:
            assert is_positive(g, K0Element(9, v)) is is_positive(g, K0Element(0, v))

    def test_rank_mismatch_and_stage_errors(self):
        g = from_cf_period((1, 2))
        with pytest.raises(DimGroupError, match="^vector length 3 does not match rank 2$"):
            is_positive(g, K0Element(0, (1, 2, 3)))
        with pytest.raises(DimGroupError, match="^vector length 1 does not match rank 2$"):
            is_positive(g, K0Element(0, (1,)))
        with pytest.raises(DimGroupError, match="^stage must be nonnegative$"):
            run_command("dimgroup.positive", {"period": [1, 2], "vector": [1, -1], "stage": -1})
        with pytest.raises(DimGroupError, match="^vector length 3 does not match rank 2$"):
            run_command("dimgroup.positive", {"period": [1, 2], "vector": [1, 2, 3]})


class TestPhiBuiltWhenRead:
    @pytest.fixture
    def no_product(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("phi multiplied out")

        monkeypatch.setattr(contfrac, "_mobius_matrix", forbidden)

    def test_positive_never_builds_phi(self, no_product, alarm):
        rng = random.Random(14)
        long_word = [rng.randint(1, 9) for _ in range(20000)]
        for word in [[1], [1, 2], [2, 1, 3], long_word]:
            # t = [(reversed word)] lies between its first term b_L and b_L + 1
            last = word[-1]
            for v, want in [((1, -last), "strictly-positive"),
                            ((1, -last - 1), "strictly-negative"),
                            ((-1, last), "strictly-negative")]:
                args = {"period": word, "vector": list(v)}
                assert run_command("dimgroup.positive", args) == {"verdict": want}

    @pytest.fixture
    def products(self, monkeypatch):
        calls = []
        mobius_matrix = contfrac._mobius_matrix

        def counted(*args):
            calls.append(args)
            return mobius_matrix(*args)

        monkeypatch.setattr(contfrac, "_mobius_matrix", counted)
        return calls

    def test_from_period_builds_phi_once(self, products):
        got = run_command("dimgroup.from-period", {"period": [2, 1, 3]})
        assert got == {"phi": [[11, 3], [4, 1]], "rank": 2, "det": -1,
                       "shift_automorphism": True, "slope": "(5+sqrt(37))/4"}
        assert len(products) == 1

    def test_compare_builds_phi_once(self, products):
        e1 = {"stage": 0, "vector": [1, -1]}
        e2 = {"stage": 2, "vector": [7, 5]}  # phi^2 (1, -1) for phi = ((3, 1), (2, 1))
        assert run_command("dimgroup.compare", {"period": [1, 2], "e1": e1, "e2": e2}) == {
            "equal": True}
        assert len(products) == 1
        assert from_cf_period((1, 2)).phi == ((3, 1), (2, 1))


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

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_exact_oracle(self, n):
        # entries up to 10^20, and zero pairings: equal column sums make
        # w = (1, ..., 1), so a vector summing to zero pairs to zero
        rng = random.Random(67 + n)
        zero_pairings = 0
        for i in range(75):
            if i % 3:
                g = random_primitive(rng, n, rng.choice([3, 10**6, 10**20]))
                v = tuple(rng.randint(-10**6, 10**6) for _ in range(n))
            else:
                g = constant_column_sums(rng, n)
                head = [rng.randint(-5, 5) for _ in range(n - 1)]
                v = (*head, -sum(head))
            e = K0Element(0, v)
            want = perron_verdict(g.phi, v)
            assert is_positive(g, e) is want, (g.phi, v)
            # the second route, where pushing alone decides
            iterated = iteration_verdict(g, e, 64)
            assert iterated is Positivity.UNDECIDED or iterated is want
            zero_pairings += want is Positivity.UNDECIDED
        assert zero_pairings == 25

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

    def test_bisection_lowers_its_upper_end(self, monkeypatch):
        # three pushes leave v with both signs, so _perron_sign decides;
        # the row sums 7, 12 and 16 start its bisection at 13/2 and 17, and
        # with the Perron root near 11.70 the first midpoint 47/4 moves hi
        # down, the second 73/8 moves lo up and leaves one root above it
        calls, points = [], []
        perron_sign, variations = dimgroup._perron_sign, dimgroup._variations

        def spy(phi, v):
            calls.append(v)
            return perron_sign(phi, v)

        def at(seq, x):
            points.append(x)
            return variations(seq, x)

        monkeypatch.setattr(dimgroup, "_perron_sign", spy)
        monkeypatch.setattr(dimgroup, "_variations", at)
        g = from_matrix([[1, 1, 5], [3, 9, 0], [9, 0, 7]])
        e = K0Element(0, (-7, 4, 0))
        assert is_positive(g, e) is Positivity.STRICTLY_NEGATIVE
        assert calls == [(-7, 4, 0)]
        # Sturm at +infinity, lo and each midpoint; Tarski at lo and +infinity
        assert points == [None, Fraction(13, 2), Fraction(47, 4), Fraction(73, 8),
                          Fraction(73, 8), None]
        assert iteration_verdict(g, e, 10**4) is Positivity.STRICTLY_NEGATIVE

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


def j_plus_i(n: int) -> StationaryDimensionGroup:
    return from_matrix([[1 + (i == j) for j in range(n)] for i in range(n)])


class TestBudgets:
    """Each budget refuses with one fixed text before the work it bounds;
    what pushes or the row-sum bracket decide never meets one."""

    def test_determinant_budget(self):
        rng = random.Random(130)
        phi = [[rng.randint(0, 3) for _ in range(130)] for _ in range(130)]
        message = f"^matrix exceeds the determinant budget of {DET_BUDGET}$"
        with pytest.raises(DimGroupError, match=message):
            from_matrix(phi)

    def test_perron_budget(self):
        # n^4 (n b + 300)^2 for J + I and b = 6 bits: inside at rank 36, past it at 37
        assert is_positive(j_plus_i(36), K0Element(0, (1, -1) + (0,) * 34)) is Positivity.UNDECIDED
        g = j_plus_i(37)
        message = f"^matrix exceeds the Perron budget of {PERRON_BUDGET}$"
        with pytest.raises(DimGroupError, match=message):
            is_positive(g, K0Element(0, (1, -1) + (0,) * 35))
        assert is_positive(g, K0Element(0, (1, 0) + (0,) * 35)) is Positivity.STRICTLY_POSITIVE

    def test_halving_budget(self, monkeypatch):
        # about log2(big) = 199 halvings separate the Perron root from
        # big - 1; for n = 3 and b = 200 bits, n^3 h (h + b)^2 passes this
        # budget at the 101st halving
        big = 10**60
        g = from_matrix([[big, 1, 1], [1, big, 1], [1, 1, 1]])
        e = K0Element(0, (1, -1, 0))
        assert is_positive(g, e) is Positivity.UNDECIDED
        budget = 3**3 * 100 * (100 + 200) ** 2
        monkeypatch.setattr(dimgroup, "HALVING_BUDGET", budget)
        message = f"^Sturm bisection exceeds the halving budget of {budget}$"
        with pytest.raises(DimGroupError, match=message):
            is_positive(g, e)

    def test_equal_row_sums_never_bisect(self, alarm):
        big = 10**2000
        g = from_matrix([[big, 1, 1], [1, big, 1], [1, 1, big]])
        assert is_positive(g, K0Element(0, (1, -1, 0))) is Positivity.UNDECIDED
        assert is_positive(g, K0Element(0, (1, -1, 1))) is Positivity.STRICTLY_POSITIVE


class TestShift:
    def test_preserves_positivity(self):
        rng = random.Random(31)
        for _ in range(100):
            g = random_primitive_2x2(rng)
            v = (rng.randint(-5, 5), rng.randint(-5, 5))
            assert is_positive(g, K0Element(0, push(g, v))) is is_positive(g, K0Element(0, v))

    def test_injective(self):
        rng = random.Random(37)
        seen = {}
        for _ in range(1000):
            v = (rng.randint(-15, 15), rng.randint(-15, 15))
            image = push(FIB, v)
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

    def test_rank_3_rejected(self):
        with pytest.raises(DimGroupError, match="^slope is defined for rank 2 only$"):
            rank2_slope(from_matrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]]))

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
