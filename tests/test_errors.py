"""Error messages quote offending values through errors.clipped: short
at any size, and a domain error even for a value that holds an int past
the interpreter's digit limit for printing."""

from fractions import Fraction

import pytest

from twistlab import dimgroup
from twistlab.contfrac import CFError, EventuallyPeriodicCF, canonical_rotation
from twistlab.dimgroup import DimGroupError
from twistlab.elliptic import CurveError, EllipticCurve
from twistlab.errors import clipped, digit_limit_text
from twistlab.torus import TorusError, UnimodularWitness

HUGE = 10**5000  # 5001 digits, past the default limit of 4300
S = 7**3000  # A = -3 S^2 and B = 2 S^3, both past the limit: singular


def test_clipped_quotes_a_value_past_the_digit_limit_by_one_text():
    fixed = f"<value with an {digit_limit_text()}>"
    assert clipped(HUGE) == clipped((1, HUGE)) == clipped([HUGE], repr) == fixed
    assert clipped("x" * 150, repr) == "'" + "x" * 99 + "... (52 more characters)"


@pytest.mark.parametrize("build, error", [
    (lambda: dimgroup.from_matrix([[HUGE, HUGE], [HUGE, HUGE]]), DimGroupError),
    (lambda: dimgroup.from_matrix([[HUGE, 0], [0, HUGE]]), DimGroupError),
    (lambda: dimgroup.from_cf_period([HUGE, HUGE]), DimGroupError),
    (lambda: canonical_rotation([HUGE, HUGE]), CFError),
    (lambda: EventuallyPeriodicCF([], [HUGE, HUGE]), CFError),
    (lambda: UnimodularWitness(HUGE, 0, 0, HUGE), TorusError),
    (lambda: UnimodularWitness(10**300, 0, 0, 10**300), TorusError),
    (lambda: EllipticCurve(Fraction(-3 * S * S), Fraction(2 * S**3)), CurveError),
], ids=["singular-matrix", "imprimitive-matrix", "period-group", "canonical-rotation",
        "periodic-cf", "witness", "witness-300-digits", "singular-curve"])
def test_library_errors_on_huge_values_are_short(build, error):
    with pytest.raises(error) as caught:
        build()
    assert len(str(caught.value)) < 200
