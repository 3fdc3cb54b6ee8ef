"""Discriminants of period matrices never reach factorisation.

A period matrix's fixed-point form has a discriminant whose square part
grows exponentially in the period length L; the library divides out the
form's content first, so normalising the fixed point stays within trial
division.  These tests make sympy.factorint raise and run the period
verbs on radicands whose sqrt has L = 6, 60 and 342.
"""

import json
import random
import time

import pytest

from twistlab.cli import main
from twistlab.contfrac import expand_surd, value_of
from twistlab.dimgroup import (
    K0Element,
    Positivity,
    from_cf_period,
    is_positive,
    rank2_slope,
)
from twistlab.surd import QuadraticSurd, SurdError

from oracles import iteration_verdict, squarefree_up_to

# d -> period length of sqrt(d); 100003 is prime, so the raw discriminant
# of its period matrix leaves a huge cofactor after trial division
PERIOD_LENGTHS = {1003: 6, 10007: 60, 100003: 342}

# (2^64 - 59) * (2^64 - 83): both factors are prime
SEMIPRIME_128 = 340282366920938460843936948965011886881


@pytest.fixture
def no_factorint(monkeypatch):
    def refuse(n, *args, **kwargs):
        raise AssertionError(f"factorint called on a {int(n).bit_length()}-bit integer")

    monkeypatch.setattr("sympy.factorint", refuse)


@pytest.mark.parametrize("d", sorted(PERIOD_LENGTHS))
def test_value_of_round_trips_without_factorint(no_factorint, d):
    x = QuadraticSurd.normalize(0, 1, 1, d)
    cf = expand_surd(x)
    assert len(cf.period) == PERIOD_LENGTHS[d]
    assert value_of(cf) == x


@pytest.mark.parametrize("d", sorted(PERIOD_LENGTHS))
def test_period_group_without_factorint(no_factorint, d):
    period = expand_surd(QuadraticSurd.normalize(0, 1, 1, d)).period
    g = from_cf_period(period)
    slope = rank2_slope(g)
    assert slope.d == d
    assert value_of(expand_surd(slope)) == slope
    rng = random.Random(d)
    decided = 0
    for _ in range(40):
        e = K0Element(rng.randint(0, 2), (rng.randint(-99, 99), rng.randint(-99, 99)))
        reference = iteration_verdict(g, e)
        if reference is not Positivity.UNDECIDED:
            decided += 1
            assert is_positive(g, e) is reference, e
    assert decided >= 30


def test_sampled_round_trips_below_one_million(no_factorint):
    rng = random.Random(20261018)
    radicands = rng.sample(
        [d for d in squarefree_up_to(10**6) if d > 1000], 120
    )
    for d in radicands:
        x = QuadraticSurd.normalize(
            rng.randint(-9, 9), rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9), d
        )
        cf = expand_surd(x)
        assert value_of(cf) == x, x
        assert rank2_slope(from_cf_period(cf.period)).d == d, x


def test_value_of_long_period_gate():
    cf = expand_surd(QuadraticSurd.normalize(0, 1, 1, 100003))
    start = time.perf_counter()
    value_of(cf)
    assert time.perf_counter() - start < 1.0


def test_huge_rough_radicand_raises(no_factorint):
    start = time.perf_counter()
    with pytest.raises(SurdError, match="too large to certify squarefree"):
        QuadraticSurd.normalize(0, 1, 1, SEMIPRIME_128)
    assert time.perf_counter() - start < 1.0


def test_huge_rough_radicand_cli_domain_error(no_factorint, capsys):
    code = main(["cf.expand", json.dumps({"theta": f"sqrt({SEMIPRIME_128})"})])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "SurdError"
