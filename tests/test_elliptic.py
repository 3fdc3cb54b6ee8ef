import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from twistlab.elliptic import (
    CurveError,
    EllipticCurve,
    SingularCurveError,
    TwistParameter,
    _int_nth_root,
    c_isomorphic,
    j_invariant,
    q_isomorphic,
    twist,
    twist_between,
)

F = Fraction


def E(a, b):
    return EllipticCurve(F(a), F(b))


def random_curve(rng):
    while True:
        try:
            return E(F(rng.randint(-9, 9), rng.randint(1, 4)),
                     F(rng.randint(-9, 9), rng.randint(1, 4)))
        except SingularCurveError:
            continue


class TestConstruction:
    def test_singular_rejected(self):
        with pytest.raises(SingularCurveError):
            E(-3, 2)  # 4*(-27) + 27*4 = 0
        with pytest.raises(SingularCurveError):
            E(0, 0)

    def test_zero_twist_parameter_rejected(self):
        with pytest.raises(CurveError):
            TwistParameter(F(0))


class TestJInvariant:
    def test_b_zero(self):
        assert j_invariant(E(1, 0)) == 1728

    def test_a_zero(self):
        assert j_invariant(E(0, 1)) == 0

    def test_generic(self):
        assert j_invariant(E(1, 1)) == F(6912, 31)


class TestTwist:
    def test_generic_case(self):
        assert twist(E(1, 1), TwistParameter(F(2))) == E(4, 8)

    def test_j_1728_case(self):
        assert twist(E(1, 0), TwistParameter(F(3))) == E(3, 0)

    def test_j_0_case(self):
        assert twist(E(0, 1), TwistParameter(F(5))) == E(0, 5)

    def test_identity_twist(self):
        for e in [E(1, 1), E(1, 0), E(0, 1)]:
            assert twist(e, TwistParameter(F(1))) == e

    def test_generic_composition(self):
        e = E(2, 3)
        t, s = TwistParameter(F(2, 3)), TwistParameter(F(-5))
        assert twist(twist(e, t), s) == twist(e, TwistParameter(t.t * s.t))

    def test_j_preserved_all_branches(self):
        rng = random.Random(3)
        curves = [random_curve(rng) for _ in range(20)] + [E(1, 0), E(3, 0), E(0, 1), E(0, -2)]
        for e in curves:
            for _ in range(5):
                t = F(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([1, -1])
                assert j_invariant(twist(e, TwistParameter(t))) == j_invariant(e)


class TestCIsomorphic:
    def test_twist_pair(self):
        assert c_isomorphic(E(1, 1), E(4, 8))

    def test_distinct_j(self):
        assert not c_isomorphic(E(1, 0), E(0, 1))

    def test_reflexive(self):
        assert c_isomorphic(E(5, 7), E(5, 7))


class TestQIsomorphic:
    def test_u_two(self):
        assert q_isomorphic(E(1, 1), E(16, 64)) == (True, F(2))

    def test_quadratic_twist_not_q_isomorphic(self):
        assert q_isomorphic(E(1, 1), E(4, 8)) == (False, None)

    def test_identity(self):
        assert q_isomorphic(E(1, 1), E(1, 1)) == (True, F(1))

    def test_j_1728_family(self):
        assert q_isomorphic(E(1, 0), E(16, 0)) == (True, F(2))
        assert q_isomorphic(E(1, 0), E(2, 0)) == (False, None)

    def test_j_0_family(self):
        assert q_isomorphic(E(0, 1), E(0, 64)) == (True, F(2))
        assert q_isomorphic(E(0, 1), E(0, 2)) == (False, None)

    def test_mixed_vanishing_patterns(self):
        assert q_isomorphic(E(1, 0), E(0, 1)) == (False, None)

    def test_fractional_u(self):
        u = F(3, 2)
        assert q_isomorphic(E(4, 8), E(4 * u**4, 8 * u**6)) == (True, u)

    def test_implies_c_isomorphic_and_equivalence_relation(self):
        rng = random.Random(9)
        for _ in range(30):
            e1 = random_curve(rng)
            u = F(rng.randint(1, 5), rng.randint(1, 5))
            e2 = EllipticCurve(u**4 * e1.A, u**6 * e1.B)
            ok, w = q_isomorphic(e1, e2)
            assert ok and w is not None
            assert c_isomorphic(e1, e2)
            back_ok, back = q_isomorphic(e2, e1)
            assert back_ok and back == 1 / w
            e3 = EllipticCurve(F(2) ** 4 * e2.A, F(2) ** 6 * e2.B)
            ok13, w13 = q_isomorphic(e1, e3)
            assert ok13 and w13 == w * 2

    def test_trivial_twist_law_generic_j(self):
        # twist(e, t) is Q-isomorphic to e exactly when t is a positive n-th
        # power: n = 2 at generic j, 4 at j = 1728 (B = 0), 6 at j = 0 (A = 0)
        def is_nth_power(m, n):
            return any(k**n == m for k in range(m + 1))

        ts = [F(1), F(-1), F(2), F(-2), F(4), F(9), F(8), F(16), F(-16), F(9, 4),
              F(16, 81), F(81, 4), F(64), F(-64), F(729), F(1, 64), F(4, 9), F(27, 8)]
        for e, n in [(E(1, 1), 2), (E(1, 0), 4), (E(0, 1), 6)]:
            for t in ts:
                is_power = t > 0 and is_nth_power(t.numerator, n) and is_nth_power(t.denominator, n)
                ok, u = q_isomorphic(e, twist(e, TwistParameter(t)))
                assert ok == is_power, (e, t)
                assert (u is None) if not ok else (u > 0 and u**n == t)


class TestTwistBetween:
    def test_generic(self):
        assert twist_between(E(1, 1), E(4, 8)) == TwistParameter(F(2))

    def test_j_1728(self):
        assert twist_between(E(1, 0), E(3, 0)) == TwistParameter(F(3))

    def test_identity(self):
        assert twist_between(E(1, 1), E(1, 1)) == TwistParameter(F(1))

    def test_unequal_j_rejected(self):
        with pytest.raises(CurveError):
            twist_between(E(1, 0), E(0, 1))

    def test_round_trip(self):
        rng = random.Random(13)
        for _ in range(30):
            e1 = random_curve(rng)
            t = TwistParameter(F(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([1, -1]))
            e2 = twist(e1, t)
            got = twist_between(e1, e2)
            assert got is not None
            assert twist(e1, got) == e2


class TestIntNthRoot:
    @given(st.integers(2, 10**80), st.sampled_from([2, 4, 6]))
    def test_powers_and_their_neighbours(self, x, n):
        assert _int_nth_root(x**n, n) == x
        assert _int_nth_root(x**n - 1, n) is None
        assert _int_nth_root(x**n + 1, n) is None

    def test_small_and_negative(self):
        assert [_int_nth_root(m, 2) for m in (-4, -1, 0, 1, 2, 3, 4)] == [
            None, None, 0, 1, None, None, 2]
        assert _int_nth_root(-64, 6) is None

    def test_twenty_thousand_digit_square(self, alarm):
        x = 3**20960  # x * x has 20001 digits
        assert _int_nth_root(x * x, 2) == x
        assert _int_nth_root(x * x + 1, 2) is None
