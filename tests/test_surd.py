
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from twistlab.surd import (
    QuadraticSurd,
    SurdError,
    SurdParseError,
    format_surd,
    parse_surd,
)

from oracles import quad, quad_equal, quad_of, scan_surd

S = QuadraticSurd.normalize


def refuse(n, *args, **kwargs):
    """A stand-in for sympy.factorint in tests that must never reach it."""
    raise AssertionError(f"factorint called on {n}")


def surds(max_coeff=50, radicands=(1, 2, 3, 5, 6, 7, 10)):
    return st.builds(
        S,
        st.integers(-max_coeff, max_coeff),
        st.integers(-max_coeff, max_coeff),
        st.integers(1, max_coeff),
        st.sampled_from(radicands),
    )


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

    @pytest.mark.parametrize(
        "args", [(0, 1, 1, 4), (1, 2, 3, 9), (0, 1, 1, 10**40), (0, 1, 1, 8), (1, 2, 3, 12)]
    )
    def test_constructor_rejects_a_square_factor(self, args):
        # a square radicand makes the value rational, and taken as irrational
        # its expansion divided by zero in contfrac._reduced_state; any other
        # square factor puts an equal real in another field, unequal to the
        # normalized value and refused by the torus verbs' field check
        with pytest.raises(SurdError, match=r"^surd tuple not reduced; use normalize\(\)$"):
            QuadraticSurd(*args)

    @pytest.mark.parametrize("args, message", [
        ((1, 1, 0, 2), "denominator must be positive"),
        ((1, 1, -2, 2), "denominator must be positive"),
        ((0, 1, 1, 0), "radicand must be >= 1"),
        ((1, 0, 1, 2), "rational surds must carry q = 0, d = 1"),
        ((1, 1, 1, 1), "rational surds must carry q = 0, d = 1"),
    ])
    def test_constructor_names_what_is_malformed(self, args, message):
        with pytest.raises(SurdError) as exc:
            QuadraticSurd(*args)
        assert str(exc.value) == message

    def test_irrational_has_no_fraction(self):
        with pytest.raises(SurdError, match="^irrational surd has no rational value$"):
            parse_surd("sqrt(2)").to_fraction()

    def test_square_cofactor_past_trial_division(self, monkeypatch):
        # 200280098 = 2 * 10007^2: trial division leaves 10007^2, whose
        # prime factors exceed its cube root, and the perfect-square check
        # takes it
        monkeypatch.setattr("sympy.factorint", refuse)
        assert parse_surd("sqrt(200280098)") == parse_surd("10007*sqrt(2)")
        assert format_surd(S(0, 1, 1, 200280098)) == "10007*sqrt(2)"

    @pytest.mark.parametrize("d, want", [
        (1000000007, (0, 1, 1, 1000000007)),  # a prime
        (100160063, (0, 1, 1, 100160063)),  # 10007 * 10009
        (9 * 100160063, (0, 3, 1, 100160063)),
        (999966000289, (999983, 0, 1, 1)),  # 999983^2, just below 10^12
    ])
    def test_cube_root_ends_trial_division(self, monkeypatch, d, want):
        # trial division stops at the first prime whose cube exceeds the
        # cofactor; at most two prime factors are left, so a perfect-square
        # check settles it without sympy
        monkeypatch.setattr("sympy.factorint", refuse)
        assert S(0, 1, 1, d) == QuadraticSurd(*want)

    @given(surds())
    def test_idempotent(self, x):
        assert S(x.p, x.q, x.r, x.d) == x

    @given(surds(), surds(), st.integers(1, 30))
    def test_equality_matches_oracle_core(self, x, y, k):
        # the canonical form is unique, so surds are equal exactly when
        # their real values are, as the oracle core decides; y is also
        # written over k^2 * y.d
        scaled = quad(y.p * k, y.q, y.r * k, y.d * k * k)
        assert (x == y) == quad_equal(quad_of(x), scaled)
        assert quad_equal(quad_of(y), scaled)


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

    @pytest.mark.parametrize("bad,message,column", [
        pytest.param(bad, message, column, id=bad[:20]) for bad, message, column in [
            ("", "expected integer or sqrt term", 0),
            ("sqrt", "expected '('", 4),
            ("sqrt(2", "expected ')'", 6),
            ("1+", "expected 'sqrt'", 2),
            ("(1+sqrt(5)/2", "expected ')'", 10),
            ("x", "expected integer or sqrt term", 0),
            ("1//2", "expected integer", 2),
            ("sqrt(2) junk", "trailing characters", 8),
            ("sqrt(- 2)", "expected integer", 6),  # a radicand's digits follow its sign
            ("1+2 sqrt(3)", "expected '*'", 4),
            ("(1/2)", "expected ')'", 2),
            # the digit limit comes first, at the radicand's sign
            ("sqrt(-" + "7" * 4301, "integer longer than the limit of 4300 digits", 5),
        ]
    ])
    def test_parse_errors_carry_column(self, bad, message, column):
        with pytest.raises(SurdParseError) as err:
            parse_surd(bad)
        assert str(err.value) == f"{message} (column {column})"
        assert err.value.column == column

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


# Texts for comparing parse_surd with the scanner oracle: literals from the
# grammar, the same with a few random edits, and random token soup.
_WHITESPACE = (" ", "\t", "\n", "\x0b", "\x1c", "\u00a0", "\u2028", "\u3000")
_TOKENS = ("(", ")", "+", "-", "*", "/", "sqrt", "sqr", "s", "1", "0", "42", "7" * 13,
           "\u0663", "\u00b2", "x", ".", "_", "e", "") + _WHITESPACE


def _ws(rng) -> str:
    roll = rng.random()
    if roll < 0.6:
        return ""
    return "".join(rng.choices(_WHITESPACE, k=rng.randint(100, 200) if roll > 0.995 else 2))


def _digits(rng) -> str:
    if rng.random() < 0.003:  # past the default digit limit of int()
        return "7" * rng.randint(4301, 4310)
    # at most 12 digits: no radicand reaches sympy.factorint
    return "".join(rng.choices("0123456789", k=rng.randint(1, rng.choice((2, 12)))))


def _sign(rng) -> str:
    return rng.choice(("", "", "+", "-"))


def _sqrt_term(rng) -> str:
    coeff = _digits(rng) + _ws(rng) + "*" + _ws(rng) if rng.random() < 0.4 else ""
    return (coeff + "sqrt" + _ws(rng) + "(" + _ws(rng) + _sign(rng) + _digits(rng)
            + _ws(rng) + ")")


def _grammar_literal(rng) -> str:
    form = rng.randrange(3)
    if form == 0:
        num = _digits(rng)
    elif form == 1:
        num = _sqrt_term(rng)
    else:
        num = _digits(rng) + _ws(rng) + rng.choice("+-") + _ws(rng) + _sqrt_term(rng)
    num = _ws(rng) + _sign(rng) + _ws(rng) + num
    text = _ws(rng) + ("(" + num + _ws(rng) + ")" if rng.random() < 0.4 else num)
    if rng.random() < 0.5:
        text += _ws(rng) + "/" + _ws(rng) + _sign(rng) + _digits(rng)
    return text + _ws(rng)


def _mutated(rng, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        j = min(len(text), i + rng.randint(1, 3))
        edit = rng.randrange(4)
        if edit == 0:  # delete
            text = text[:i] + text[j:]
        elif edit == 1:  # insert
            text = text[:i] + rng.choice(_TOKENS) + text[i:]
        elif edit == 2:  # replace
            text = text[:i] + rng.choice(_TOKENS) + text[j:]
        else:  # duplicate
            text = text[:j] + text[i:j] + text[j:]
    return text


def _literal_text(rng) -> str:
    kind = rng.randrange(3)
    if kind == 0:
        return _grammar_literal(rng)
    if kind == 1:
        return _mutated(rng, _grammar_literal(rng))
    return "".join(rng.choices(_TOKENS, k=rng.randint(0, 12)))


def _outcome(parse, text: str):
    """parse(text), or the class, message and column of its SurdError."""
    try:
        return parse(text)
    except SurdError as exc:
        return type(exc), str(exc), getattr(exc, "column", None)


# 1000 seeds of 100 texts each: 10^5 texts.  The examples hold a digit run
# past the limit followed by a syntax error.
@settings(max_examples=1000, deadline=None)
@given(st.integers(0, 2**64))
@example(seed=1053)
@example(seed=1709)
@example(seed=2754)
def test_parse_agrees_with_scanner(seed):
    rng = random.Random(seed)
    for _ in range(100):
        text = _literal_text(rng)
        assert _outcome(parse_surd, text) == _outcome(scan_surd, text), text


@pytest.mark.parametrize("text", [
    " " * 100000 + "x",
    "(" + " " * 100000 + "x",
    "-" + " " * 100000 + "x",
    "3" + " " * 50000 + "*" + " " * 50000 + "x",
    "1+" + " " * 100000 + "x",
    "sqrt(" + " " * 100000 + "2" + " " * 100000 + "x",
    "(sqrt(5)" + " " * 100000 + "/",
    "1" * 100000 + "x",
    "1" + " " * 100000,
    "(1" + " " * 100000 + "+" + " " * 100000 + "2" + " " * 100000,
    "sqrt(" + " " * 100000 + "-",
])
def test_long_rejected_literal_is_bounded(text, alarm):
    # the pattern's whitespace runs never meet, so a failed step backtracks
    # in linear time; three adjacent ones took seconds at 500 characters
    assert _outcome(parse_surd, text) == _outcome(scan_surd, text)
