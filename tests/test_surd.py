
from fractions import Fraction
from math import floor, gcd, isqrt

import pytest
from hypothesis import assume, example, given, strategies as st

from twistlab.surd import (
    IncompatibleFieldsError,
    LinearPolynomial,
    QuadraticPolynomial,
    QuadraticSurd,
    SurdError,
    SurdParseError,
    format_surd,
    parse_surd,
)

S = QuadraticSurd.normalize


def surds(max_coeff=50, radicands=(1, 2, 3, 5, 6, 7, 10)):
    return st.builds(
        S,
        st.integers(-max_coeff, max_coeff),
        st.integers(-max_coeff, max_coeff),
        st.integers(1, max_coeff),
        st.sampled_from(radicands),
    )


def surds_in(d, max_coeff=30):
    return st.builds(
        S,
        st.integers(-max_coeff, max_coeff),
        st.integers(-max_coeff, max_coeff),
        st.integers(1, max_coeff),
        st.just(d),
    )


SQUAREFREE = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 30, 1003)
CROSS_FIELDS = [(m, n) for m in SQUAREFREE for n in SQUAREFREE if m != n]


def bracket(x, digits=60):
    """Rationals lo < x < hi, 10^-digits/r apart, from an integer square
    root of q^2*d scaled by 10^(2*digits)."""
    scale = 10**digits
    s = isqrt(x.q * x.q * x.d * scale * scale)
    lo, hi = (s, s + 1) if x.q > 0 else (-s - 1, -s)
    return Fraction(x.p * scale + lo, x.r * scale), Fraction(x.p * scale + hi, x.r * scale)


class TestNormalize:
    def test_gcd_reduction(self):
        assert S(2, 2, 4, 2) == QuadraticSurd(1, 1, 2, 2)

    def test_square_part_extracted(self):
        assert S(0, 1, 1, 8) == QuadraticSurd(0, 2, 1, 2)

    def test_rational_collapses(self):
        assert S(3, 0, 6, 5) == QuadraticSurd(1, 0, 2, 1)

    def test_square_radicand_becomes_rational(self):
        assert S(0, 1, 1, 9) == QuadraticSurd(3, 0, 1, 1)

    def test_negative_denominator_flipped(self):
        assert S(1, 1, -2, 2) == S(-1, -1, 2, 2)

    def test_zero_is_canonical(self):
        assert S(0, 0, 7, 5) == QuadraticSurd(0, 0, 1, 1)

    def test_rejects_zero_denominator(self):
        with pytest.raises(SurdError):
            S(1, 1, 0, 2)

    def test_rejects_nonpositive_radicand(self):
        with pytest.raises(SurdError):
            S(1, 1, 1, 0)
        with pytest.raises(SurdError):
            S(1, 1, 1, -3)

    @given(surds())
    def test_idempotent(self, x):
        assert S(x.p, x.q, x.r, x.d) == x


class TestArithmetic:
    def test_conjugate_product(self):
        # (1 + sqrt 2)(-1 + sqrt 2) = 1
        assert S(1, 1, 1, 2) * S(-1, 1, 1, 2) == 1

    def test_invert_rationalizes(self):
        assert QuadraticSurd.sqrt_of(2).invert() == S(0, 1, 2, 2)

    def test_conjugate_sum(self):
        assert S(1, 1, 2, 5) + S(1, -1, 2, 5) == 1

    def test_mixed_fields_rejected(self):
        with pytest.raises(IncompatibleFieldsError):
            QuadraticSurd.sqrt_of(2) + QuadraticSurd.sqrt_of(3)
        with pytest.raises(IncompatibleFieldsError):
            QuadraticSurd.sqrt_of(2) / QuadraticSurd.sqrt_of(3)

    def test_rational_mixes_with_any_field(self):
        assert QuadraticSurd.sqrt_of(2) + 1 == S(1, 1, 1, 2)
        assert S(3, 0, 1, 1) * QuadraticSurd.sqrt_of(5) == S(0, 3, 1, 5)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QuadraticSurd.sqrt_of(2) / S(0, 0, 1, 1)

    def test_arithmetic_never_refactors_its_field(self, monkeypatch):
        # 10^9 + 7 is prime and above the trial-division square, so
        # building sqrt of it certifies it once with sympy.factorint
        x = QuadraticSurd.sqrt_of(1000000007)
        calls = []

        def counting(n, *args, **kwargs):
            calls.append(n)
            return {n: 1}

        monkeypatch.setattr("sympy.factorint", counting)
        got = (x + 1) * x / (x + 2)
        assert calls == []
        assert got * (x + 2) == (x + 1) * x
        assert (-got).conjugate() == -(got.conjugate())

    @given(surds_in(2), surds_in(2), surds_in(2))
    def test_field_axioms(self, x, y, z):
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    @given(surds_in(5), surds_in(5), surds_in(5))
    def test_field_axioms_sqrt5(self, x, y, z):
        assert (x + y) * z == x * z + y * z

    @given(surds())
    def test_additive_and_multiplicative_inverses(self, x):
        assert x + (-x) == 0
        if not x.is_zero:
            assert x * x.invert() == 1

    @given(surds(), surds())
    def test_conjugate_is_ring_homomorphism(self, x, y):
        assert x.conjugate().conjugate() == x
        if x.d == y.d or x.is_rational or y.is_rational:
            assert (x * y).conjugate() == x.conjugate() * y.conjugate()
            assert (x + y).conjugate() == x.conjugate() + y.conjugate()


class TestOrder:
    def test_golden_ratio_vs_three_halves(self):
        assert S(1, 1, 2, 5).compare(S(3, 0, 2, 1)) > 0

    def test_equal(self):
        assert QuadraticSurd.sqrt_of(2).compare(QuadraticSurd.sqrt_of(2)) == 0

    def test_negative_vs_zero(self):
        assert S(0, -1, 1, 2).compare(S(0, 0, 1, 1)) < 0

    @given(surds(), surds())
    def test_canonical_equality_matches_compare(self, x, y):
        assert (x == y) == (x.compare(y) == 0)

    @given(st.data())
    def test_cross_field_order_matches_decimal_brackets(self, data):
        m, n = data.draw(st.sampled_from(CROSS_FIELDS))
        x, y = (data.draw(surds_in(d, 10**4).filter(lambda s: not s.is_rational)) for d in (m, n))
        x_lo, x_hi = bracket(x)
        y_lo, y_hi = bracket(y)
        # distinct fields never give equal values, and these are far
        # more than 10^-60 apart, so one bracket lies below the other
        assert x_hi < y_lo or y_hi < x_lo
        assert x.compare(y) == (-1 if x_hi < y_lo else 1)
        assert y.compare(x) == -x.compare(y)

    @given(surds(), surds(), surds())
    def test_total_order_transitive(self, x, y, z):
        if x <= y and y <= z:
            assert x <= z


class TestFloor:
    def test_sqrt2(self):
        assert QuadraticSurd.sqrt_of(2).floor() == 1

    def test_golden_ratio(self):
        assert S(1, 1, 2, 5).floor() == 1

    def test_negative_irrational(self):
        assert S(0, -1, 1, 2).floor() == -2

    def test_rational(self):
        assert S(-7, 0, 3, 1).floor() == -3

    # built directly, so d = k^2 stays square; floor must still be exact
    @given(st.integers(-60, 60), st.integers(-60, 60).filter(bool), st.integers(1, 60),
           st.integers(2, 40))
    @example(0, 1, 1, 2)
    @example(0, -1, 1, 2)
    @example(1, -1, 2, 3)
    @example(3, -2, 5, 2)
    @example(-7, 3, 3, 5)
    @example(5, -1, 2, 7)
    def test_square_radicand(self, p, q, r, k):
        assume(gcd(gcd(p, q), r) == 1)
        assert QuadraticSurd(p, q, r, k * k).floor() == floor(Fraction(p + q * k, r))

    @given(surds())
    def test_floor_brackets_value(self, x):
        n = x.floor()
        assert x.compare(S(n, 0, 1, 1)) >= 0
        assert x.compare(S(n + 1, 0, 1, 1)) < 0


class TestMinimalPolynomial:
    def test_golden_ratio(self):
        assert S(1, 1, 2, 5).minimal_polynomial() == QuadraticPolynomial(1, -1, -1)

    def test_sqrt2(self):
        assert QuadraticSurd.sqrt_of(2).minimal_polynomial() == QuadraticPolynomial(1, 0, -2)

    def test_one_plus_sqrt2(self):
        # expand (x-1)^2 = 2
        assert S(1, 1, 1, 2).minimal_polynomial() == QuadraticPolynomial(1, -2, -1)

    def test_rational_gets_linear_variant(self):
        assert S(3, 0, 2, 1).minimal_polynomial() == LinearPolynomial(2, -3)

    @given(surds())
    def test_evaluates_to_zero(self, x):
        assert x.minimal_polynomial().evaluate(x) == 0


class TestLiterals:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("sqrt(2)", (0, 1, 1, 2)),
            ("(1+sqrt(5))/2", (1, 1, 2, 5)),
            ("(2+2*sqrt(2))/4", (1, 1, 2, 2)),
            ("-sqrt(3)", (0, -1, 1, 3)),
            ("7", (7, 0, 1, 1)),
            ("-7/3", (-7, 0, 3, 1)),
            ("(1-2*sqrt(3))/4", (1, -2, 4, 3)),
            ("3*sqrt(2)", (0, 3, 1, 2)),
            (" ( 1 + sqrt(5) ) / 2 ", (1, 1, 2, 5)),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_surd(text) == QuadraticSurd(*expected)

    @pytest.mark.parametrize("bad", ["", "sqrt", "sqrt(2", "1+", "(1+sqrt(5)/2", "x", "1//2", "sqrt(2) junk"])
    def test_parse_errors_carry_column(self, bad):
        with pytest.raises(SurdParseError) as err:
            parse_surd(bad)
        assert err.value.column >= 0

    @pytest.mark.parametrize(
        "bad,message",
        [
            ("sqrt(\u0663)", "expected integer (column 5)"),  # Arabic-Indic three
            ("\u00b2", "expected integer or sqrt term (column 0)"),  # superscript two
            ("(1+sqrt(5))/\u0662", "expected integer (column 12)"),
            ("\uff13*sqrt(2)", "expected integer or sqrt term (column 0)"),  # fullwidth three
        ],
    )
    def test_only_ascii_digits(self, bad, message):
        with pytest.raises(SurdParseError) as err:
            parse_surd(bad)
        assert str(err.value) == message

    def test_nonpositive_radicand_rejected(self):
        with pytest.raises(SurdError):
            parse_surd("sqrt(-2)")

    @given(surds())
    def test_round_trip(self, x):
        assert parse_surd(format_surd(x)) == x


def test_decimal_rendering_is_labeled_inexact():
    assert QuadraticSurd.sqrt_of(2).decimal(6).startswith("~1.41421")
