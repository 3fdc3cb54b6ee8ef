import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from twistlab import elliptic
from twistlab.cli import run_command
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

    def test_singular_message(self):
        with pytest.raises(SingularCurveError, match=r"^singular curve: A=-3/4, B=1/4$"):
            E(F(-3, 4), F(1, 4))
        # s = 7^2400: A = -3 s^2 has 4058 characters, clipped; B = 2 s^3 has
        # 6085 digits, past the default digit limit, and gets the fixed text
        s = 7**2400
        with pytest.raises(SingularCurveError) as caught:
            E(-3 * s * s, 2 * s**3)
        assert str(caught.value) == (
            f"singular curve: A={str(-3 * s * s)[:100]}... (3958 more characters), "
            "B=<value with an integer longer than the limit of 4300 digits>"
        )

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

    def test_equal_j_without_computing_j(self, monkeypatch):
        # twists and scalings in every branch, and unrelated pairs whose A
        # and B vanish alike
        rng = random.Random(21)
        nonzero = [F(n, m) for n in range(-9, 10) if n for m in range(1, 5)]

        def curve(a, b):  # a random curve whose A and B vanish where a and b do
            while True:
                try:
                    return E(rng.choice(nonzero) if a else 0, rng.choice(nonzero) if b else 0)
                except SingularCurveError:
                    continue

        pairs = []
        for a, b in [(1, 1), (1, 0), (0, 1)] * 100:
            e1, t = curve(a, b), rng.choice(nonzero)
            for e2 in [twist(e1, TwistParameter(t)), E(t**4 * e1.A, t**6 * e1.B),
                       curve(a, b), curve(1, 1)]:
                pairs.append((e1, e2))
        want = [j_invariant(e1) == j_invariant(e2) for e1, e2 in pairs]
        assert 0 < sum(want) < len(want)

        def forbidden(e):
            raise AssertionError("j computed")

        monkeypatch.setattr(elliptic, "j_invariant", forbidden)
        assert [c_isomorphic(e1, e2) for e1, e2 in pairs] == want


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


# numerators and denominators up to 10^40
BIG = st.integers(-10**40, 10**40).filter(bool)
RATIONALS = st.builds(F, BIG, st.integers(1, 10**40))


@st.composite
def coefficients(draw, branch=None):
    """(A, B) of a non-singular curve at generic j, j = 1728 (B = 0) or j = 0 (A = 0)."""
    branch = draw(st.sampled_from(("generic", "1728", "0"))) if branch is None else branch
    A = F(0) if branch == "0" else draw(RATIONALS)
    B = F(0) if branch == "1728" else draw(RATIONALS)
    if 4 * A**3 + 27 * B**2 == 0:
        B += 1
    return A, B


@st.composite
def curve_pairs(draw):
    """A curve and a second one: a Weierstrass scaling of it, a twist of it,
    another curve whose A and B vanish alike, or any other curve."""
    A1, B1 = draw(coefficients())
    branch = "1728" if B1 == 0 else "0" if A1 == 0 else "generic"
    kind = draw(st.sampled_from(("scaling", "twist", "same branch", "any")))
    if kind == "scaling":
        u = draw(RATIONALS)
        return (A1, B1), (u**4 * A1, u**6 * B1)
    if kind == "twist":
        return (A1, B1), oracles.curve_twist(A1, B1, draw(RATIONALS))
    return (A1, B1), draw(coefficients(branch if kind == "same branch" else None))


class TestAgainstFractionOracle:
    @settings(max_examples=300, deadline=None)
    @given(coefficients(), RATIONALS)
    def test_j_and_twist(self, AB, t):
        e = EllipticCurve(*AB)
        assert e.A is AB[0] and e.B is AB[1]  # a Fraction is kept, not wrapped again
        j = j_invariant(e)
        assert type(j) is F and j == oracles.curve_j(*AB)
        got = twist(e, TwistParameter(t))
        assert type(got.A) is F and type(got.B) is F
        assert (got.A, got.B) == oracles.curve_twist(*AB, t)

    @settings(max_examples=300, deadline=None)
    @given(curve_pairs())
    def test_isomorphism_levels_and_twist_parameter(self, pair):
        (A1, B1), (A2, B2) = pair
        e1, e2 = EllipticCurve(A1, B1), EllipticCurve(A2, B2)
        c_iso = oracles.curve_j(A1, B1) == oracles.curve_j(A2, B2)
        u = oracles.curve_scaling(A1, B1, A2, B2)
        assert c_isomorphic(e1, e2) == c_iso
        assert q_isomorphic(e1, e2) == (u is not None, u)
        assert run_command("curve.iso", {"A1": str(A1), "B1": str(B1), "A2": str(A2),
                                         "B2": str(B2)}) == {
            "c_isomorphic": c_iso, "q_isomorphic": u is not None,
            "u": None if u is None else str(u)}
        if c_iso:
            t = twist_between(e1, e2).t
            assert type(t) is F and t == oracles.curve_twist_parameter(A1, B1, A2, B2)
        else:
            with pytest.raises(CurveError, match="requires equal j-invariants"):
                twist_between(e1, e2)

    @settings(max_examples=100, deadline=None)
    @given(RATIONALS)
    def test_singular_curves_rejected(self, s):
        with pytest.raises(ZeroDivisionError):
            oracles.curve_j(-3 * s**2, 2 * s**3)
        with pytest.raises(SingularCurveError):
            EllipticCurve(-3 * s**2, 2 * s**3)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 10**40))
    def test_zero_twist_rejected(self, m):
        for t in (F(0, m), 0):
            with pytest.raises(CurveError, match="twist parameter must be nonzero"):
                TwistParameter(t)


@pytest.mark.parametrize("A2, B2", [("16", "64"), ("4", "8"), ("1", "0")])
def test_curve_iso_decides_c_isomorphism_once(monkeypatch, A2, B2):
    calls = []

    def counted(e1, e2):
        calls.append((e1, e2))
        return c_isomorphic(e1, e2)

    monkeypatch.setattr(elliptic, "c_isomorphic", counted)
    run_command("curve.iso", {"A1": "1", "B1": "1", "A2": A2, "B2": B2})
    assert len(calls) == 1
