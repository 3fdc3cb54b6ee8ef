"""The contract of the ten value types: repr text, keyword
construction, equality and hashing by class and fields, and refused
assignment."""

from fractions import Fraction

import pytest

from twistlab.contfrac import Convergent, EventuallyPeriodicCF, FiniteCF
from twistlab.dimgroup import K0Element, StationaryDimensionGroup
from twistlab.elliptic import EllipticCurve, TwistParameter
from twistlab.surd import QuadraticSurd
from twistlab.torus import TorusParameter, UnimodularWitness

SQRT2 = QuadraticSurd(0, 1, 1, 2)

# class, keyword arguments, repr, keyword arguments of an unequal instance
CASES = [
    (QuadraticSurd, {"p": 1, "q": 2, "r": 3, "d": 5}, "QuadraticSurd(1, 2, 3, 5)",
     {"p": 1, "q": 2, "r": 3, "d": 7}),
    (FiniteCF, {"terms": [1, 2]}, "FiniteCF(terms=(1, 2))", {"terms": [1, 3]}),
    (EventuallyPeriodicCF, {"preperiod": [1], "period": [2]},
     "EventuallyPeriodicCF(preperiod=(1,), period=(2,))", {"preperiod": [], "period": [2]}),
    (Convergent, {"p": 1, "q": 2, "index": 3}, "Convergent(p=1, q=2, index=3)",
     {"p": 1, "q": 2, "index": 4}),
    (TorusParameter, {"theta": SQRT2}, "TorusParameter(theta=QuadraticSurd(0, 1, 1, 2))",
     {"theta": QuadraticSurd(0, 1, 1, 3)}),
    (UnimodularWitness, {"a": 1, "b": 0, "c": 0, "d": 1}, "UnimodularWitness(a=1, b=0, c=0, d=1)",
     {"a": 1, "b": 1, "c": 0, "d": 1}),
    (K0Element, {"stage": 0, "vector": [1, 2]}, "K0Element(stage=0, vector=(1, 2))",
     {"stage": 1, "vector": [1, 2]}),
    (StationaryDimensionGroup, {"phi": ((2, 1), (1, 1))},
     "StationaryDimensionGroup(phi=((2, 1), (1, 1)))", {"phi": ((1, 1), (1, 0))}),
    (EllipticCurve, {"A": 1, "B": 2}, "EllipticCurve(A=Fraction(1, 1), B=Fraction(2, 1))",
     {"A": 1, "B": 3}),
    (TwistParameter, {"t": 3}, "TwistParameter(t=Fraction(3, 1))", {"t": Fraction(1, 3)}),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls,kwargs,text,other", CASES, ids=IDS)
def test_repr(cls, kwargs, text, other):
    assert repr(cls(**kwargs)) == text
    assert repr(cls(*kwargs.values())) == text


@pytest.mark.parametrize("cls,kwargs,text,other", CASES, ids=IDS)
def test_equal_and_hash_equal_by_fields(cls, kwargs, text, other):
    x, y = cls(**kwargs), cls(*kwargs.values())
    assert x == y and not x != y
    assert hash(x) == hash(y)
    assert x != cls(**other)


@pytest.mark.parametrize("cls,kwargs,text,other", CASES, ids=IDS)
def test_unequal_across_classes(cls, kwargs, text, other):
    sub = type("Sub", (cls,), {})
    x = cls(**kwargs)
    assert x != sub(**kwargs) and sub(**kwargs) != x
    assert x != tuple(getattr(x, name) for name in kwargs)


@pytest.mark.parametrize("cls,kwargs,text,other", CASES, ids=IDS)
def test_fields_refuse_assignment(cls, kwargs, text, other):
    x = cls(**kwargs)
    for name, value in kwargs.items():
        with pytest.raises(AttributeError):
            setattr(x, name, value)
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert x == cls(**kwargs)


@pytest.mark.parametrize("cls,kwargs,text,other", CASES, ids=IDS)
def test_canonical_builds_the_constructed_instance(cls, kwargs, text, other):
    """Value._canonical builds, past __init__'s checks, the value the
    constructor builds from the same canonical fields."""
    x = cls(**kwargs)
    y = cls._canonical(**{name: getattr(x, name) for name in cls._fields})
    assert type(y) is cls and y == x and hash(y) == hash(x) and repr(y) == text
    with pytest.raises(AttributeError):
        y.extra = 1


def test_cached_expansion_leaves_parameter_unchanged():
    t = TorusParameter(SQRT2)
    assert t.reduced[0] == (1,) and t.cycle.period == (2,) and t.cycle.offset == 0
    assert t == TorusParameter(SQRT2)
    assert hash(t) == hash(TorusParameter(SQRT2))
    assert repr(t) == "TorusParameter(theta=QuadraticSurd(0, 1, 1, 2))"
