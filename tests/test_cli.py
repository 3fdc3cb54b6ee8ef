import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import twistlab
from twistlab import contfrac
from twistlab.cli import VERBS, UsageError, main, run_batch, run_command
from twistlab.contfrac import expand_surd
from twistlab.surd import QuadraticSurd, parse_surd


# the fixed text for an int past the default limit on int/str conversion,
# the same on every Python version
DIGIT_LIMIT_4300 = "integer longer than the limit of 4300 digits"


def run_main(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParseSurdLiteral:
    def test_defaults(self):
        assert parse_surd("sqrt(2)") == QuadraticSurd(0, 1, 1, 2)

    def test_direct_read(self):
        assert parse_surd("(1+sqrt(5))/2") == QuadraticSurd(1, 1, 2, 5)

    def test_normalized_on_parse(self):
        assert parse_surd("(2+2*sqrt(2))/4") == QuadraticSurd(1, 1, 2, 2)


class TestRunCommand:
    def test_cf_expand(self):
        assert run_command("cf.expand", {"theta": "sqrt(2)"}) == {
            "preperiod": [1],
            "period": [2],
        }

    def test_cf_expand_rational(self):
        assert run_command("cf.expand", {"theta": "355/113"}) == {"terms": [3, 7, 16]}

    def test_cf_value(self):
        got = run_command("cf.value", {"preperiod": [], "period": [2]})
        assert got == {"value": "1+sqrt(2)"}

    def test_cf_convergents(self):
        got = run_command("cf.convergents", {"terms": [1, 2, 2, 2], "count": 4})
        assert got == {"convergents": ["1/1", "3/2", "7/5", "17/12"]}

    def test_curve_j(self):
        assert run_command("curve.j", {"A": "1", "B": "0"}) == {"j": "1728"}

    def test_curve_twist(self):
        got = run_command("curve.twist", {"A": "1", "B": "1", "t": "2"})
        assert got == {"A": "4", "B": "8"}

    def test_curve_iso(self):
        got = run_command("curve.iso", {"A1": "1", "B1": "1", "A2": "16", "B2": "64"})
        assert got == {"c_isomorphic": True, "q_isomorphic": True, "u": "2"}

    def test_curve_twist_between(self):
        got = run_command(
            "curve.twist-between", {"A1": "1", "B1": "1", "A2": "4", "B2": "8"}
        )
        assert got == {"t": "2"}

    def test_torus_morita_inequivalent(self):
        got = run_command(
            "torus.morita", {"theta1": "sqrt(2)", "theta2": "(1+sqrt(5))/2"}
        )
        assert got["equivalent"] is False
        assert got["witness"] is None
        assert got["det"] is None

    def test_torus_morita_equivalent_witness_applies(self):
        got = run_command("torus.morita", {"theta1": "sqrt(2)", "theta2": "1+sqrt(2)"})
        assert got["equivalent"] is True
        assert got["det"] in (1, -1)
        assert got["invariant"] == [2]

    def test_torus_iso(self):
        got = run_command("torus.iso", {"theta1": "sqrt(2)", "theta2": "1+sqrt(2)"})
        assert got == {"isomorphic": False}

    def test_torus_invariant(self):
        assert run_command("torus.invariant", {"theta": "sqrt(3)"}) == {"invariant": [1, 2]}

    def test_dimgroup_from_period(self):
        got = run_command("dimgroup.from-period", {"period": [1]})
        assert got["phi"] == [[1, 1], [1, 0]]
        assert got["slope"] == "(1+sqrt(5))/2"
        assert got["shift_automorphism"] is True

    def test_dimgroup_positive(self):
        got = run_command(
            "dimgroup.positive", {"phi": [[1, 1], [1, 0]], "vector": [1, -1]}
        )
        assert got == {"verdict": "strictly-positive"}

    def test_dimgroup_compare(self):
        got = run_command(
            "dimgroup.compare",
            {
                "phi": [[1, 1], [1, 0]],
                "e1": {"stage": 0, "vector": [2, 1]},
                "e2": {"stage": 1, "vector": [3, 2]},
            },
        )
        assert got == {"equal": True}

    def test_unknown_verb(self):
        with pytest.raises(UsageError):
            run_command("cf.bogus", {})

    def test_iter_cap_env(self, monkeypatch):
        # positivity is exact at every rank: the retired variable changes nothing
        args = {"phi": [[1, 1, 0], [0, 1, 1], [1, 0, 1]], "vector": [5, -1, -1]}
        for cap in ("1", "64"):
            monkeypatch.setenv("TWISTLAB_ITER_CAP", cap)
            got = run_command("dimgroup.positive", args)
            assert got == {"verdict": "strictly-positive"}


class TestBatch:
    def test_per_entry_isolation(self):
        req = [
            {"id": "a", "verb": "curve.j", "args": {"A": "1", "B": "0"}},
            {"id": "b", "verb": "no.such.verb", "args": {}},
        ]
        got = run_batch(req)
        assert got[0] == {"id": "a", "status": "ok", "result": {"j": "1728"}}
        assert got[1]["status"] == "error"

    def test_empty_batch(self):
        assert run_batch([]) == []

    def test_domain_error_entry(self):
        got = run_batch([{"id": "x", "verb": "curve.j", "args": {"A": "0", "B": "0"}}])
        assert got[0]["status"] == "error"
        assert got[0]["kind"] == "SingularCurveError"

    def test_duplicate_ids_rejected(self):
        req = [{"id": "a", "verb": "curve.j", "args": {}}] * 2
        with pytest.raises(UsageError):
            run_batch(req)

    @pytest.mark.parametrize("ids", [[1, 1], [True, True], [None, None]])
    def test_duplicate_ids_of_one_type_rejected(self, ids):
        req = [{"id": i, "verb": "curve.j", "args": {}} for i in ids]
        with pytest.raises(UsageError, match="batch ids must be unique"):
            run_batch(req)

    def test_ids_of_distinct_json_values(self):
        # equal in Python, distinct in JSON: each is echoed as it was sent
        ids = [1, True, 1.0, "1", 0, False]
        req = [{"id": i, "verb": "curve.j", "args": {"A": "1", "B": "0"}} for i in ids]
        got = run_batch(req)
        assert [(type(r["id"]), r["id"]) for r in got] == [(type(i), i) for i in ids]
        assert {r["status"] for r in got} == {"ok"}

    @pytest.mark.parametrize("bad", [[1], {"a": 1}, []])
    def test_array_or_object_id_names_its_entry(self, bad):
        req = [{"id": 0, "verb": "curve.j", "args": {}}, {"id": bad, "verb": "curve.j", "args": {}}]
        with pytest.raises(UsageError) as exc:
            run_batch(req)
        assert str(exc.value) == "batch entry 1: 'id' must not be an array or object"

    @pytest.mark.parametrize("entries, message", [
        ({"id": 0, "verb": "curve.j"}, "batch must be a JSON array"),
        ([{"id": 0, "verb": "curve.j"}, {"id": 1}], "batch entry 1 must have 'verb' and 'id'"),
        ([{"id": 0, "verb": "curve.j"}, {"verb": "curve.j"}], "batch entry 1 must have 'verb' and 'id'"),
        ([{"id": 0, "verb": "curve.j"}, ["curve.j", 1]], "batch entry 1 must have 'verb' and 'id'"),
    ], ids=["object", "no-verb", "no-id", "array-entry"])
    def test_malformed_batch_is_a_usage_error(self, entries, message):
        with pytest.raises(UsageError) as exc:
            run_batch(entries)
        assert str(exc.value) == message

    @pytest.mark.parametrize("verb", [["x"], {"cf.expand": 1}, 7, None])
    def test_non_string_verb_is_unknown(self, verb):
        got = run_batch([{"id": 1, "verb": verb, "args": {"theta": "sqrt(2)"}}])
        assert got == [{"id": 1, "status": "error", "kind": "usage",
                        "message": f"unknown verb '{verb}'"}]

    def test_non_integer_period_entry_is_isolated(self):
        req = [
            {"id": "bad", "verb": "cf.value", "args": {"period": ["x"]}},
            {"id": "ok", "verb": "cf.value", "args": {"period": [2]}},
        ]
        got = run_batch(req)
        assert got[0]["status"] == "error" and got[0]["kind"] == "usage"
        assert got[1] == {"id": "ok", "status": "ok", "result": {"value": "1+sqrt(2)"}}

    def test_huge_surd_literal_entry_is_isolated(self):
        req = [
            {"id": "big", "verb": "cf.expand", "args": {"theta": "7" * 5000}},
            {"id": "ok", "verb": "curve.j", "args": {"A": "1", "B": "0"}},
        ]
        got = run_batch(req)
        assert len(got) == 2
        assert got[0] == {"id": "big", "status": "error", "kind": "SurdParseError",
                          "message": f"{DIGIT_LIMIT_4300} (column 0)"}
        assert got[1] == {"id": "ok", "status": "ok", "result": {"j": "1728"}}

    def test_handler_fault_is_reported_as_internal(self, monkeypatch):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setitem(VERBS, "curve.j", broken)
        req = [
            {"id": "a", "verb": "curve.j", "args": {"A": "1", "B": "0"}},
            {"id": "b", "verb": "torus.invariant", "args": {"theta": "sqrt(2)"}},
        ]
        got = run_batch(req)
        assert got[0] == {"id": "a", "status": "error",
                          "message": "RuntimeError: boom", "kind": "internal"}
        assert got[1] == {"id": "b", "status": "ok", "result": {"invariant": [2]}}


    def test_convergent_counts_past_bounds(self, low_digit_limit):
        req = [
            {"id": "huge", "verb": "cf.convergents",
             "args": {"period": [1], "count": "100000000000000000000"}},
            {"id": "long", "verb": "cf.convergents", "args": {"period": [1], "count": 25000}},
            {"id": "ok", "verb": "cf.convergents", "args": {"period": [1], "count": 3}},
        ]
        huge, long, ok = run_batch(req)
        assert huge["status"] == "error" and huge["kind"] == "usage"
        assert long["status"] == "error" and long["kind"] == "CFError"
        assert long["message"] == (
            "convergent 3063 is too long to print: integer longer than the limit of 640 digits")
        assert ok["result"] == {"convergents": ["1/1", "2/1", "3/2"]}


@pytest.fixture
def low_digit_limit():
    """The interpreter's least digit limit for int-to-str: convergents of
    [; (1)] pass it after 3063 terms, not 20576, so the test stays fast."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("verb, args, kind, message", [
    ("dimgroup.positive", {"phi": [], "vector": []}, "DimGroupError",
     "matrix must be square and nonempty"),
    ("dimgroup.positive", {"phi": [[1, 2]], "vector": [1, 0]}, "DimGroupError",
     "matrix must be square and nonempty"),
    ("dimgroup.from-period", {"period": []}, "DimGroupError",
     "period must be a nonempty positive word"),
    ("dimgroup.from-period", {"period": [0, 1]}, "DimGroupError",
     "period must be a nonempty positive word"),
    ("cf.value", {"terms": []}, "CFError", "empty continued fraction"),
    ("cf.value", {"period": [0, 1]}, "CFError", "period terms must be >= 1"),
    ("cf.value", {"preperiod": [1, 0], "period": [2]}, "CFError",
     "terms after a0 must be >= 1"),
    ("cf.convergents", {"period": [1], "count": 0}, "CFError", "count must be positive"),
    ("cf.expand", ["sqrt(2)"], "usage", "command arguments must be a JSON object"),
])
def test_argument_checks_answer_in_batch(verb, args, kind, message):
    (got,) = run_batch([{"id": 0, "verb": verb, "args": args}])
    assert got == {"id": 0, "status": "error", "message": message, "kind": kind}


@pytest.mark.parametrize("verb, args", [
    ("cf.value", {"period": ["x" * 10**6]}),
    ("curve.j", {"A": list(range(200000)), "B": "0"}),
    ("cf.convergents", {"period": [1], "count": "1" * 10**6 + "x"}),
    ("dimgroup.positive", {"phi": {"x" * 10**6: 1}, "vector": [1]}),
    ("x" * 10**6, {}),
    ({"x" * 10**6: 1}, {}),
], ids=["period-entry", "fraction", "count", "phi", "verb", "object-verb"])
def test_usage_errors_answer_in_under_a_kilobyte(verb, args):
    (got,) = run_batch([{"id": 0, "verb": verb, "args": args}])
    assert got["kind"] == "usage" and " more characters)" in got["message"]
    assert len(json.dumps(got)) < 1000


def nested(depth: int, value=1):
    for _ in range(depth):
        value = [value]
    return value


# Interpreters differ in how deep a JSON array they read, or a list they
# print, before a RecursionError: 3.10 and 3.11 refuse 1000 deep, 3.12
# reads 1000 and refuses 1500, 3.13 reads 8000 and refuses 10000.  None
# that twistlab supports reads or prints this depth:
REFUSED_DEPTH = 100000


def refuses(show, value) -> bool:
    """Whether this interpreter passes its recursion limit on show(value)."""
    try:
        show(value)
    except RecursionError:
        return True
    return False


def shown_nested(value) -> str:
    """How a message quotes a nested value: its repr, whole up to 100
    characters, else clipped, where this interpreter prints it, and the
    fixed text where it does not."""
    if refuses(repr, value):
        return "<value nested too deeply>"
    text = repr(value)
    return text if len(text) <= 100 else f"{text[:100]}... ({len(text) - 100} more characters)"


@pytest.mark.parametrize("verb, key", [
    ("cf.expand", "theta"), ("cf.value", "period"), ("curve.j", "A"), ("dimgroup.compare", "e1"),
])
def test_arguments_nested_as_deep_as_the_recursion_limit(verb, key):
    # quoting such a value in a message passes the recursion limit; main
    # reaches it too, from a batch nested about 990 deep in its JSON text
    (got,) = run_batch([{"id": 0, "verb": verb, "args": {key: nested(1000)}}])
    assert got["status"] == "error" and got["kind"] != "internal", got["message"]
    assert len(got["message"]) < 200


S_1400 = 10**1400  # A = -3s^2, B = 2s^3 is singular, each within the digit limit


@pytest.mark.parametrize("verb, args, kind", [
    ("curve.j", {"A": str(-3 * S_1400**2), "B": str(2 * S_1400**3)}, "SingularCurveError"),
    ("cf.convergents", {"period": [1], "count": "9" * 4001}, "usage"),
    ("dimgroup.compare", {"phi": [[2, 1], [1, 1]], "e1": {"vector": [1, 0]},
                          "e2": {"stage": "9" * 4001, "vector": [1, 0]}}, "DimGroupError"),
], ids=["singular-curve", "count-bound", "stage-gap"])
def test_large_values_in_messages_are_clipped(verb, args, kind):
    (got,) = run_batch([{"id": 0, "verb": verb, "args": args}])
    assert got["kind"] == kind and " more characters)" in got["message"]
    assert len(json.dumps(got)) < 1000


@pytest.mark.parametrize("mode", ["batch", "single"])
def test_division_by_zero_is_internal(monkeypatch, capsys, mode):
    """No verb divides by zero on any input, so one that does is a fault
    of the program, not a domain error; a single command reports it as
    its error, with exit code 2, not as a traceback."""
    def divide(args):
        return 1 // 0

    monkeypatch.setitem(VERBS, "cf.value", divide)
    if mode == "batch":
        (got,) = run_batch([{"id": 0, "verb": "cf.value", "args": {}}])
    else:
        code, out, err = run_main(["cf.value", "{}"], capsys)
        assert (code, err) == (2, "")
        got = json.loads(out)["error"]
        assert set(got) == {"message", "kind"}
    assert got["kind"] == "internal" and got["message"].startswith("ZeroDivisionError")


class TestStrictIntegers:
    def test_float_period_rejected(self):
        with pytest.raises(UsageError):
            run_command("cf.value", {"period": [1.7, 2]})

    def test_non_object_element_rejected(self):
        args = {"phi": [[2, 1], [1, 1]], "e1": [0, [1, 0]],
                "e2": {"stage": 0, "vector": [1, 0]}}
        with pytest.raises(UsageError):
            run_command("dimgroup.compare", args)

    @pytest.mark.parametrize(
        "bad",
        [True, 2.0, "2.0", " 2", "", None, [2], {"n": 2}],
        ids=["bool", "float", "float-text", "padded", "empty", "null", "array", "object"],
    )
    def test_count_rejects_non_integers(self, bad):
        with pytest.raises(UsageError):
            run_command("cf.convergents", {"terms": [1, 2, 2], "count": bad})

    @pytest.mark.parametrize(
        "args",
        [
            {"phi": [[2, "1.5"], [1, 1]], "vector": [1, 0]},
            {"phi": "[[2, 1], [1, 1]]", "vector": [1, 0]},
            {"phi": [[2, 1], [1, 1]], "vector": [1, False]},
            {"phi": [[2, 1], [1, 1]], "vector": [1, 0], "stage": 0.5},
            {"period": [1, 2], "vector": "10"},
        ],
    )
    def test_group_arguments_strict(self, args):
        with pytest.raises(UsageError):
            run_command("dimgroup.positive", args)

    def test_integer_strings_accepted(self):
        got = run_command("cf.convergents", {"terms": ["1", "+2", 2], "count": "3"})
        assert got == run_command("cf.convergents", {"terms": [1, 2, 2], "count": 3})
        got = run_command("dimgroup.positive", {"phi": [["2", 1], [1, 1]], "vector": ["-1", 0]})
        assert got == run_command("dimgroup.positive", {"phi": [[2, 1], [1, 1]], "vector": [-1, 0]})


class TestSurdLiteralStrings:
    @pytest.mark.parametrize(
        "bad, shown",
        [(3, "3"), (2.5, "2.5"), (True, "True"), (None, "None"), (["sqrt(2)"], "['sqrt(2)']"),
         ({"p": 1}, "{'p': 1}"), (nested(1000), shown_nested(nested(1000))),
         (nested(REFUSED_DEPTH), "<value nested too deeply>")],
        ids=["int", "float", "bool", "null", "array", "object", "nested", "nested-refused"],
    )
    @pytest.mark.parametrize("verb, key", [
        ("cf.expand", "theta"), ("torus.invariant", "theta"),
        ("torus.morita", "theta1"), ("torus.iso", "theta2"),
    ])
    def test_non_string_theta_is_usage(self, verb, key, bad, shown):
        # a JSON number is not read as literal text: 3 is not the integer 3
        args = {"theta1": "sqrt(2)", "theta2": "sqrt(2)", key: bad}
        (got,) = run_batch([{"id": 0, "verb": verb, "args": args}])
        assert got == {"id": 0, "status": "error", "kind": "usage",
                       "message": f"argument '{key}' must be a surd literal string, got {shown}"}


class TestStrictRationals:
    @pytest.mark.parametrize(
        "bad",
        ["1e5", "0.5", " 1_000 ", "1 ", "1/0", "1/-2", "1/2/3", "", "\u0663", 0.5, True, None, [1]],
        ids=["exponent", "decimal", "underscore", "padded", "zero-denominator",
             "signed-denominator", "two-slashes", "empty", "unicode-digit", "float",
             "bool", "null", "array"],
    )
    def test_curve_arguments_rejected(self, bad):
        with pytest.raises(UsageError):
            run_command("curve.j", {"A": bad, "B": "1"})

    def test_integer_and_fraction_forms_accepted(self):
        want = run_command("curve.j", {"A": "-3/4", "B": "1"})
        assert want == {"j": "-576/5"}
        for A in (str(Fraction(-3, 4)), "-6/8", "-0003/4"):
            assert run_command("curve.j", {"A": A, "B": 1}) == want
        assert run_command("curve.twist", {"A": 2, "B": "+1", "t": "-2/1"}) == {
            "A": "8", "B": "-8"}

    def test_digit_limit_is_usage_error(self):
        with pytest.raises(UsageError) as info:
            run_command("curve.j", {"A": "1/" + "7" * 5000, "B": "1"})
        assert str(info.value) == f"argument 'A': {DIGIT_LIMIT_4300}"


# 10^4298, the largest power of ten the interpreter prints
TEN_4298 = "1" + "0" * 4298

# Wielandt's matrix, a cycle plus one chord: primitive with the largest
# exponent, n^2 - 2n + 2, of any n x n matrix
WIELANDT_40 = [[int(j == i + 1 or (i == 39 and j < 2)) for j in range(40)] for i in range(40)]


def j_plus_i(n: int, big: int = 1) -> list[list[int]]:
    """big everywhere, big + 1 on the diagonal: equal row sums, and
    (1, -1, 0, ...) pairs to zero with w = (1, ..., 1)."""
    return [[big + (i == j) for j in range(n)] for i in range(n)]


def ones_off(*diagonal: int) -> list[list[int]]:
    """diagonal on the diagonal and 1 elsewhere.  For (big, big, 1) the
    Perron root and big - 1 lie above the least row sum, about log2(big)
    halvings apart; for (big, big, big) the row sums are equal."""
    return [[x if i == j else 1 for j in range(len(diagonal))] for i, x in enumerate(diagonal)]


def random_matrix(n: int) -> list[list[int]]:
    rng = random.Random(n)
    return [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]


# Inputs that are slow by construction (huge literals, long expansions,
# narrow spectral gaps) or once ended in a traceback; each must give an
# answer or a typed error within the alarm.
BOUNDED = [
    pytest.param("dimgroup.positive",
                 {"phi": [[2, 1, 1], [1, 2, 1], [1, 1, 2]], "vector": [1, -1, 0]},
                 {"verdict": "infinitesimal-undecided"}, id="zero-pairing"),
    pytest.param("dimgroup.positive",
                 {"phi": [[1000000, 1], [1, 1000000]], "vector": [1000000, -999999]},
                 {"verdict": "strictly-positive"}, id="narrow-spectral-gap"),
    pytest.param("dimgroup.positive",
                 {"phi": [[1000000, 1, 1], [1, 1000000, 1], [1, 1, 1000000]],
                  "vector": [1000000, -999999, -1]},
                 {"verdict": "infinitesimal-undecided"}, id="narrow-gap-zero-pairing"),
    pytest.param("curve.j", {"A": "1e5000", "B": "1"}, "usage", id="exponent"),
    pytest.param("curve.j", {"A": "1e3000000", "B": "1"}, "usage", id="huge-exponent"),
    pytest.param("curve.j", {"A": "7" * 3000, "B": "1"}, "CurveError", id="j-too-long"),
    pytest.param("cf.expand", {"theta": "sqrt(1000000000000000003)"}, "CFError",
                 id="expand-over-budget"),
    pytest.param("torus.invariant", {"theta": "sqrt(1000000000000000003)"}, "CFError",
                 id="invariant-over-budget"),
    # another field: theta2 is never expanded, so its budget is never reached
    pytest.param("torus.morita", {"theta1": "sqrt(2)", "theta2": "sqrt(1000000000000000003)"},
                 {"equivalent": False, "witness": None, "det": None, "invariant": [2]},
                 id="morita-other-field-over-budget"),
    pytest.param("cf.expand", {"theta": "sqrt(\u0663)"}, "SurdParseError", id="unicode-digit"),
    pytest.param("dimgroup.positive", {"phi": WIELANDT_40, "vector": [1] * 40},
                 {"verdict": "strictly-positive"}, id="wielandt-40"),
    pytest.param("dimgroup.compare",
                 {"phi": [[2, 1], [1, 1]], "e1": {"stage": 0, "vector": [1, 0]},
                  "e2": {"stage": 100000000, "vector": [1, 0]}},
                 "DimGroupError", id="compare-over-stage-budget"),
    pytest.param("dimgroup.compare",
                 {"phi": [[10**100 + (i == j) for j in range(6)] for i in range(6)],
                  "e1": {"stage": 0, "vector": [1, 2, 3, 4, 5, 6]},
                  "e2": {"stage": 1000, "vector": [1, 2, 3, 4, 5, 6]}},
                 "DimGroupError", id="compare-over-bit-budget"),
    pytest.param("dimgroup.compare",
                 {"phi": random_matrix(60), "e1": {"stage": 0, "vector": [1] * 60},
                  "e2": {"stage": 1000, "vector": [1] * 60}},
                 "DimGroupError", id="compare-over-push-budget"),
    pytest.param("cf.convergents", {"period": [1], "count": 25000}, "CFError",
                 id="convergents-too-long-to-print"),
    pytest.param("torus.invariant", {"theta": TEN_4298 + "*sqrt(10)"}, "CFError",
                 id="invariant-huge-radicand"),
    pytest.param("cf.value", {"preperiod": [3] * 9000, "period": [2]}, "CFError",
                 id="value-too-long-to-print"),
    pytest.param("dimgroup.positive", {"phi": j_plus_i(100), "vector": [1, -1] + [0] * 98},
                 "DimGroupError", id="perron-over-budget-rank-100"),
    pytest.param("dimgroup.positive", {"phi": j_plus_i(100), "vector": [0, 1] + [0] * 98},
                 {"verdict": "strictly-positive"}, id="push-decides-at-rank-100"),
    pytest.param("dimgroup.positive",
                 {"phi": j_plus_i(20, 10**1000), "vector": [1, -1] + [0] * 18},
                 "DimGroupError", id="det-over-budget-big-entries"),
    pytest.param("dimgroup.positive", {"phi": random_matrix(300), "vector": [1] * 300},
                 "DimGroupError", id="det-over-budget-rank-300"),
    pytest.param("dimgroup.positive", {"phi": ones_off(10**400, 10**400, 1), "vector": [1, -1, 0]},
                 {"verdict": "infinitesimal-undecided"}, id="spread-row-sums"),
    pytest.param("dimgroup.positive",
                 {"phi": ones_off(10**1000, 10**1000, 1), "vector": [1, -1, 0]},
                 "DimGroupError", id="halvings-over-budget"),
    pytest.param("dimgroup.positive", {"phi": ones_off(*[10**2000] * 3), "vector": [1, -1, 0]},
                 {"verdict": "infinitesimal-undecided"}, id="equal-row-sums"),
]


@pytest.mark.parametrize("verb, args, want", BOUNDED)
class TestBoundedInputs:
    def test_batch(self, verb, args, want, alarm):
        (got,) = run_batch([{"id": 0, "verb": verb, "args": args}])
        if isinstance(want, dict):
            assert got == {"id": 0, "status": "ok", "result": want}
        else:
            assert got["status"] == "error" and got["kind"] == want

    def test_single_command(self, verb, args, want, alarm, capsys):
        code, out, err = run_main([verb, json.dumps(args)], capsys)
        assert "Traceback" not in out + err
        if isinstance(want, dict):
            assert code == 0 and json.loads(out) == want
        elif want == "usage":
            assert code == 1 and out == "" and err.startswith("twistlab: ")
        else:
            assert code == 2 and json.loads(out)["error"]["kind"] == want


# Each verb's argument names
VERB_ARGS = {
    "cf.expand": ["theta"],
    "cf.value": ["terms", "preperiod", "period"],
    "cf.convergents": ["terms", "preperiod", "period", "count"],
    "torus.morita": ["theta1", "theta2"],
    "torus.iso": ["theta1", "theta2"],
    "torus.invariant": ["theta"],
    "dimgroup.from-period": ["period"],
    "dimgroup.positive": ["period", "phi", "vector", "stage"],
    "dimgroup.compare": ["period", "phi", "e1", "e2"],
    "curve.j": ["A", "B"],
    "curve.twist": ["A", "B", "t"],
    "curve.iso": ["A1", "B1", "A2", "B2"],
    "curve.twist-between": ["A1", "B1", "A2", "B2"],
}
SCALARS = (
    st.integers(-3, 9)
    | st.integers(-999, 999).map(str)
    | st.tuples(st.integers(-99, 99), st.integers(0, 9)).map("{0[0]}/{0[1]}".format)
    | st.sampled_from(["sqrt(2)", "(1+sqrt(5))/2", "2-sqrt(7)", "sqrt(4)", ""])
    | st.floats()
    | st.booleans()
    | st.none()
)
JSON_VALUES = st.deferred(lambda: st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=4),
    st.lists(st.lists(SCALARS, max_size=4), max_size=4),
    st.dictionaries(st.sampled_from(["stage", "vector"]) | st.text(max_size=2),
                    JSON_VALUES, max_size=3),
))


@st.composite
def entries(draw):
    verb = draw(st.sampled_from(sorted(VERB_ARGS)))
    values = {k: JSON_VALUES for k in VERB_ARGS[verb]}
    args = draw(st.fixed_dictionaries(values) | st.fixed_dictionaries({}, optional=values))
    return {"verb": verb, "args": args}


def test_verb_args_cover_every_verb():
    assert set(VERB_ARGS) == set(VERBS)


@settings(max_examples=300, deadline=None)
@given(st.lists(entries(), max_size=6))
def test_arbitrary_json_arguments(batch):
    req = [{"id": i, **entry} for i, entry in enumerate(batch)]
    got = run_batch(req)
    assert len(got) == len(req)
    assert [r for r in got if r.get("kind") == "internal"] == []


def writes_json(value) -> bool:
    """Whether json.dumps writes value as JSON: a NaN or an infinity it
    writes as NaN, Infinity or -Infinity, which JSON does not have."""
    try:
        json.dumps(value, allow_nan=False)
    except ValueError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(entries())
def test_single_command_is_a_batch_of_one(entry):
    # capsys is function-scoped, so each example captures its own output
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([entry["verb"], json.dumps(entry["args"])])
    (want,) = run_batch([{"id": 0, **entry}])
    if not writes_json(entry["args"]):
        # main refuses the text of a NaN or an infinity; run_batch takes the float
        assert (code, out.getvalue()) == (1, "")
        assert err.getvalue().startswith("twistlab: malformed JSON input: ")
        assert err.getvalue().endswith(" is not a finite float\n")
    elif want["status"] == "ok":
        assert (code, json.loads(out.getvalue()), err.getvalue()) == (0, want["result"], "")
    elif want["kind"] == "usage":
        assert (code, out.getvalue()) == (1, "")
        assert err.getvalue() == f"twistlab: {want['message']}\n"
    else:
        error = {"message": want["message"], "kind": want["kind"]}
        assert (code, json.loads(out.getvalue()), err.getvalue()) == (2, {"error": error}, "")


@st.composite
def long_words(draw):
    """Words of terms 1..9 of up to 20000 terms, random or one term repeated."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    length = draw(st.integers(1, 400) | st.integers(4000, 20000))
    if draw(st.booleans()):
        return [rng.randint(1, 9) for _ in range(length)]
    return [rng.randint(1, 9)] * length


@st.composite
def long_word_entries(draw):
    word = draw(long_words())
    shape = draw(st.sampled_from(["cf.value", "cf.value preperiod",
                                  "dimgroup.from-period", "dimgroup.positive"]))
    if shape == "cf.value preperiod":
        return {"verb": "cf.value", "args": {"preperiod": word, "period": [word[-1] % 9 + 1]}}
    args = {"period": word}
    if shape == "dimgroup.positive":
        args["vector"] = draw(st.lists(st.integers(-99, 99), min_size=2, max_size=2))
    return {"verb": shape, "args": args}


@settings(max_examples=12, deadline=None)
@given(st.lists(long_word_entries(), min_size=1, max_size=3))
def test_long_words_through_main(tmp_path_factory, batch):
    # every long word gets an answer or a typed error, printable entry by entry
    req = [{"id": i, **entry} for i, entry in enumerate(batch)]
    folder = tmp_path_factory.mktemp("long")
    (folder / "in.json").write_text(json.dumps(req))
    code = main(["batch", "--in", str(folder / "in.json"), "--out", str(folder / "out.json")])
    assert code == 0
    got = json.loads((folder / "out.json").read_text())
    assert [r["id"] for r in got] == [r["id"] for r in req]
    assert [r for r in got if r.get("kind") == "internal"] == []


_DRAWS = random.Random(3)
# Sizes that test_arbitrary_json_arguments never draws, on a log scale up to
# each argument's limit, the largest of each kind always among them.  A word
# (n, e) is n - 1 terms of 10^e and a last one of 10^e + 1, so it is
# primitive: up to 2 * 10^5 ones, or up to 200 terms of up to 10^4299.
# Stage gaps reach 10^9.
SIZED_WORDS = [(200000, 0), (200, 4299)] + [
    (round(10 ** _DRAWS.uniform(0, 5.3)), 0) for _ in range(2)] + [
    (round(10 ** _DRAWS.uniform(0, 2.3)), round(10 ** _DRAWS.uniform(0, 3.63))) for _ in range(2)]
GAPS = [10**9] + [round(10 ** _DRAWS.uniform(0, 9)) for _ in range(5)]
# phi and a vector it fixes or grows
SIZED_GROUPS = {"[[1]]": ([[1]], [1]), "[[2,1],[1,1]]": ([[2, 1], [1, 1]], [1, 0]),
                "J+I": ([[2, 1, 1], [1, 2, 1], [1, 1, 2]], [1, -1, 0])}
SIZED = [
    pytest.param(verb, size, None, id=f"{verb}-{size[0]}x10^{size[1]}")
    for verb in ("cf.value", "dimgroup.from-period", "torus.morita") for size in SIZED_WORDS
] + [
    pytest.param("dimgroup.compare", size, gap, id=f"{size[0]}x10^{size[1]}-gap-{gap}")
    for size in SIZED_WORDS for gap in (1, GAPS[0])
] + [
    pytest.param("dimgroup.compare", group, gap, id=f"{group}-gap-{gap}")
    for group in SIZED_GROUPS for gap in GAPS
]


def answered(verb: str, args: dict) -> dict:
    (got,) = run_batch([{"id": 0, "verb": verb, "args": args}])
    assert got["status"] == "ok" or got["kind"] != "internal", got["message"]
    return got


@pytest.mark.parametrize("verb, size, gap", SIZED)
def test_sized_inputs_answer_in_bounded_time(verb, size, gap, alarm):
    # each entry answers or gives a typed error within the alarm; a Morita
    # pair is the golden ratio and the value of [word; (1)], when it prints
    if size in SIZED_GROUPS:
        phi, v = SIZED_GROUPS[size]
        answered(verb, {"phi": phi, "e1": {"vector": v}, "e2": {"stage": gap, "vector": v}})
        return
    n, e = size
    word = [10**e] * (n - 1) + [10**e + 1]
    if verb == "dimgroup.compare":
        answered(verb, {"period": word, "e1": {"vector": [1, 0]},
                        "e2": {"stage": gap, "vector": [1, 0]}})
    elif verb != "torus.morita":
        answered(verb, {"period": word})
    else:
        value = answered("cf.value", {"preperiod": word, "period": [1]})
        if value["status"] == "ok":
            got = answered(verb, {"theta1": "(1+sqrt(5))/2", "theta2": value["result"]["value"]})
            assert got["status"] == "error" or got["result"]["equivalent"] is True


# The other verbs' arguments at the same sizes: surd literals, curve
# coefficients and cf terms of up to 4300 digits, the most the interpreter
# reads, some drawn on a log scale; phi up to rank 130 or with 4300-digit
# entries; a convergent count past where the convergents stop printing.
N_4300 = 10**4300 - 1
B_4300 = 10**4299 + 7
_SIZES = random.Random(25)
DIGITS = [4300] + [round(10 ** _SIZES.uniform(0, 3.63)) for _ in range(2)]


def digits(n: int) -> str:
    """A seeded random integer of n digits, as text."""
    return str(_SIZES.randrange(10 ** (n - 1), 10**n))


# Literals with 4300-digit parts.  (N + sqrt(2))/N = 1 + sqrt(2)/N,
# B*sqrt(2) and the random (a - b*sqrt(5))/r pass the term budget in their
# periods, in 0.35-0.7 s each, so each verb gets one of them; sqrt(B) is a
# SurdError on parsing.  A theta2 over another radicand than theta1's is
# refused before its period is walked.
SLOW = f"({N_4300}+sqrt(2))/{N_4300}"
FIELD_5 = [f"({digits(n)}-{digits(n)}*sqrt(5))/{digits(n)}" for n in DIGITS]
LITERALS = [SLOW, f"{digits(4300)}*sqrt(2)", f"sqrt({digits(4300)})"] + FIELD_5
SIZED_OTHERS = [
    pytest.param("cf.expand", {"theta": SLOW}, id="expand-preperiod-over-budget"),
    pytest.param("torus.invariant", {"theta": LITERALS[1]}, id="invariant-over-budget"),
] + [
    pytest.param(verb, {"theta": LITERALS[2]}, id=f"{verb}-unparsed")
    for verb in ("cf.expand", "torus.invariant")
] + [
    pytest.param("torus.iso", {"theta1": x, "theta2": y}, id=f"iso-{i}-{order}")
    for i, x in enumerate(LITERALS) for order, (x, y) in enumerate([(x, "sqrt(2)"), ("sqrt(5)", x)])
] + [
    pytest.param("torus.morita", {"theta1": x, "theta2": y}, id=f"morita-{name}")
    for name, x, y in [("sqrt(2)-slow", "sqrt(2)", SLOW), ("5-4300-first", FIELD_5[0], "sqrt(5)"),
                       ("unparsed-first", LITERALS[2], "sqrt(2)"),
                       ("unparsed-second", "sqrt(2)", LITERALS[2])]
                      + [(f"sqrt(5)-{n}", "sqrt(5)", x) for n, x in zip(DIGITS, FIELD_5)]
] + [
    pytest.param(verb, {"A": digits(n), "B": f"-{digits(n)}/{digits(n)}", "t": digits(n),
                        "A1": digits(n), "B1": digits(n), "A2": f"{digits(n)}/7", "B2": "1"},
                 id=f"{verb}-{n}")
    for verb in ("curve.j", "curve.twist", "curve.iso", "curve.twist-between") for n in DIGITS
] + [
    pytest.param(verb, {"phi": phi, "vector": [1, -1] + [0] * (len(phi) - 2),
                        "e1": {"vector": [1] * len(phi)},
                        "e2": {"stage": 1, "vector": [1] * len(phi)}}, id=f"{verb}-{name}")
    for verb in ("dimgroup.positive", "dimgroup.compare")
    for name, phi in [("rank-130", random_matrix(130)),
                      ("4300-digits", ones_off(B_4300, B_4300 - 1, 1))]
] + [
    pytest.param("cf.convergents", {"terms": [B_4300, B_4300 + 1], "count": 2}, id="terms"),
    pytest.param("cf.convergents", {"period": [B_4300, 1], "count": 40}, id="period"),
    pytest.param("cf.convergents", {"period": [2], "count": 25000}, id="count-25000"),
]


@pytest.mark.parametrize("verb, args", SIZED_OTHERS)
def test_sized_arguments_of_the_other_verbs(verb, args, alarm):
    answered(verb, {k: v for k, v in args.items() if k in VERB_ARGS[verb]})


class TestUnprintableResults:
    """Results with an int past the interpreter's 4300-digit limit for
    printing; run_batch keeps them exact and main prints the verb's
    domain error in their place."""

    @pytest.fixture(scope="class")
    def requests(self):
        # the period of sqrt(1000000007) has 12352 terms; the entries of its
        # phi have about 6400 digits, as does a0 of 10^6447
        period = list(expand_surd(QuadraticSurd.normalize(0, 1, 1, 1000000007)).period)
        return [
            {"id": "phi", "verb": "dimgroup.from-period", "args": {"period": period}},
            {"id": "a0", "verb": "cf.expand", "args": {"theta": f"{TEN_4298}*sqrt({TEN_4298})"}},
            {"id": "j", "verb": "curve.j", "args": {"A": "1", "B": "0"}},
        ]

    def test_run_batch_keeps_exact_values(self, requests):
        phi, a0, _ = run_batch(requests)
        assert phi["result"]["phi"][0][0] > 10**6000
        assert a0["result"] == {"terms": [10**6447]}

    def test_batch_keeps_its_neighbour(self, requests, tmp_path, capsys):
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(requests))
        code, out, err = run_main(["batch", "--in", str(path)], capsys)
        assert code == 0 and err == ""
        phi, a0, j = json.loads(out)
        for got, kind in ((phi, "DimGroupError"), (a0, "CFError")):
            assert got == {"id": got["id"], "status": "error", "kind": kind,
                           "message": f"result too long to print: {DIGIT_LIMIT_4300}"}
        assert j == {"id": "j", "status": "ok", "result": {"j": "1728"}}

    @pytest.mark.parametrize("index, kind", [(0, "DimGroupError"), (1, "CFError")])
    def test_single_command(self, requests, index, kind, capsys):
        entry = requests[index]
        code, out, _ = run_main([entry["verb"], json.dumps(entry["args"])], capsys)
        assert code == 2
        error = json.loads(out)["error"]
        assert error == {"kind": kind, "message": f"result too long to print: {DIGIT_LIMIT_4300}"}


def test_curve_verbs_at_4000_digits(tmp_path, capsys, alarm):
    # each curve identity cross-multiplies numerators and denominators of
    # 4000 digits, larger than the reduced values it compares or returns;
    # the output is pinned by its digest, its errors also by their text
    P, Q, S = 10**3999 + 1233, 3**8383, 7**1578  # 4000, 4000 and 1334 digits

    def entry(i, verb, **args):
        return {"id": i, "verb": verb, "args": {k: str(v) for k, v in args.items()}}

    req = [
        entry("j", "curve.j", A=P, B=P),
        entry("j-long", "curve.j", A=P, B=Q),
        entry("twist", "curve.twist", A=P, B=f"{Q}/{P}", t="-3/2"),
        entry("twist-long", "curve.twist", A=P, B=Q, t=P),
        entry("iso-q", "curve.iso", A1=f"{P}/{Q}", B1=f"{Q}/{P}",
              A2=f"{81 * P}/{16 * Q}", B2=f"{729 * Q}/{64 * P}"),
        entry("iso-c", "curve.iso", A1=P, B1=Q, A2=4 * P, B2=8 * Q),
        entry("iso-none", "curve.iso", A1=P, B1=Q, A2=Q, B2=P),
        entry("between", "curve.twist-between", A1=P, B1=Q, A2=9 * P, B2=-27 * Q),
        entry("between-long", "curve.twist-between", A1=f"1/{P}", B1=0, A2=P, B2=0),
        entry("between-none", "curve.twist-between", A1=P, B1=Q, A2=Q, B2=P),
        entry("singular", "curve.j", A=-3 * S**2, B=2 * S**3),
        entry("zero-t", "curve.twist", A=P, B=Q, t=f"0/{Q}"),
    ]
    path = tmp_path / "curves.json"
    path.write_text(json.dumps(req))
    code, out, err = run_main(["batch", "--in", str(path)], capsys)
    assert code == 0 and err == ""
    assert (len(out), hashlib.sha256(out.encode()).hexdigest()) == (
        21515, "5e88274bec9a56c3a3d25cbfab43e3870c7abb1bfb0747ba5e32078514cd7676")
    got = {r["id"]: r for r in json.loads(out)}
    too_long = f"result too long to print: {DIGIT_LIMIT_4300}"
    for i in ("j-long", "twist-long", "between-long"):
        assert got[i] == {"id": i, "status": "error", "kind": "CurveError", "message": too_long}
    assert got["between-none"]["message"] == "twist_between requires equal j-invariants"
    assert got["singular"]["kind"] == "SingularCurveError"
    assert got["zero-t"]["message"] == "twist parameter must be nonzero"
    assert got["iso-q"]["result"] == {"c_isomorphic": True, "q_isomorphic": True, "u": "3/2"}
    assert got["iso-c"]["result"] == {"c_isomorphic": True, "q_isomorphic": False, "u": None}
    assert got["iso-none"]["result"] == {"c_isomorphic": False, "q_isomorphic": False, "u": None}
    assert got["between"]["result"] == {"t": "-3"}


class TestMainExitCodes:
    def test_success(self, capsys):
        code, out, _ = run_main(["curve.j", '{"A": "1", "B": "0"}'], capsys)
        assert code == 0
        assert json.loads(out) == {"j": "1728"}

    def test_usage_error_unknown_verb(self, capsys):
        code, _, err = run_main(["bogus.verb", "{}"], capsys)
        assert code == 1
        assert "unknown verb" in err

    def test_usage_error_bad_json(self, capsys):
        code, _, err = run_main(["curve.j", "{not json"], capsys)
        assert code == 1

    def test_domain_error(self, capsys):
        code, out, _ = run_main(["curve.j", '{"A": "0", "B": "0"}'], capsys)
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "SingularCurveError"

    def test_huge_json_integer_is_usage_error(self, capsys):
        args = '{"terms": [1], "count": %s}' % ("7" * 5000)
        code, out, err = run_main(["cf.convergents", args], capsys)
        assert code == 1 and out == ""
        assert err == f"twistlab: malformed JSON input: {DIGIT_LIMIT_4300}\n"

    def test_count_past_maxsize_is_usage_error(self, capsys):
        args = '{"period": [1], "count": "100000000000000000000"}'
        code, out, err = run_main(["cf.convergents", args], capsys)
        assert code == 1 and out == ""
        assert "count must be at most" in err

    def test_convergent_too_long_to_print_is_domain_error(self, capsys):
        # at the default limit of 4300 digits: q_k >= F_(k+1) stops this near
        # 20.6k terms, whatever the count
        code, out, _ = run_main(["cf.convergents", '{"period": [1], "count": 25000}'], capsys)
        assert code == 2
        error = json.loads(out)["error"]
        assert error["kind"] == "CFError"
        assert error["message"] == f"convergent 20576 is too long to print: {DIGIT_LIMIT_4300}"

    def test_huge_surd_literal_is_domain_error(self, capsys):
        theta = "(1+sqrt(" + "7" * 5000 + "))/2"
        code, out, _ = run_main(["cf.expand", json.dumps({"theta": theta})], capsys)
        assert code == 2
        error = json.loads(out)["error"]
        assert error == {"kind": "SurdParseError", "message": f"{DIGIT_LIMIT_4300} (column 8)"}

    def test_batch_with_entry_error_exits_zero(self, tmp_path, capsys):
        req = [
            {"id": "ok", "verb": "torus.invariant", "args": {"theta": "sqrt(2)"}},
            {"id": "bad", "verb": "nope", "args": {}},
        ]
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(req))
        code, out, _ = run_main(["batch", "--in", str(path)], capsys)
        assert code == 0
        resp = json.loads(out)
        assert [r["status"] for r in resp] == ["ok", "error"]

    def test_array_id_exits_one(self, capsys):
        req = '[{"id": [1], "verb": "curve.j", "args": {"A": "1", "B": "0"}}]'
        code, out, err = run_main(["batch", req], capsys)
        assert (code, out) == (1, "")
        assert err == "twistlab: batch entry 0: 'id' must not be an array or object\n"

    @pytest.mark.parametrize("depth", [1000, REFUSED_DEPTH])
    @pytest.mark.parametrize("verb", ["batch", "cf.value"])
    def test_deeply_nested_json_is_usage_error(self, tmp_path, capsys, verb, depth):
        # where this interpreter reads the arrays, main answers what they hold
        text = "[" * depth + "]" * depth
        if depth == REFUSED_DEPTH or refuses(json.loads, text):
            want = "malformed JSON input: nested too deeply"
        elif verb == "batch":
            want = "batch entry 0 must have 'verb' and 'id'"
        else:
            want = "command arguments must be a JSON object"
        path = tmp_path / "deep.json"
        path.write_text(text)
        for args in ([verb, text], [verb, "--in", str(path)]):
            code, out, err = run_main(args, capsys)
            assert (code, out) == (1, "")
            assert err == f"twistlab: {want}\n"

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
    @pytest.mark.parametrize("verb", ["batch", "curve.j"])
    def test_non_finite_number_is_usage_error(self, tmp_path, capsys, verb, number):
        # Python's json reads these, and 1e400 as inf, but no JSON number
        # is one; an id or an argument that no verb reads is refused alike
        if verb == "batch":
            text = f'[{{"id": {number}, "verb": "curve.j", "args": {{"A": 1, "B": 2}}}}]'
        else:
            text = f'{{"A": 1, "B": 2, "unused": {number}}}'
        path = tmp_path / "input.json"
        path.write_text(text)
        for args in ([verb, text], [verb, "--in", str(path)]):
            code, out, err = run_main(args, capsys)
            assert (code, out) == (1, "")
            assert err == f"twistlab: malformed JSON input: {number} is not a finite float\n"

    def test_finite_floats_still_read(self, capsys):
        # a float id is still an id, and a float argument still a usage error
        text = '[{"id": 1e300, "verb": "curve.j", "args": {"A": 1.5, "B": 2}}]'
        code, out, _ = run_main(["batch", text], capsys)
        assert code == 0
        assert json.loads(out) == [{"id": 1e300, "status": "error", "kind": "usage",
                                    "message": "argument 'A' must be an integer or n/m, got 1.5"}]

    @pytest.mark.parametrize("verb", ["batch", "curve.j"])
    def test_input_not_utf8_exits_one(self, tmp_path, capsys, verb):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
        code, out, err = run_main([verb, "--in", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("twistlab: 'utf-8' codec can't decode") and err.count("\n") == 1

    def test_domain_error_to_missing_folder_exits_one(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.json"
        code, out, err = run_main(["curve.j", '{"A": "0", "B": "0"}', "--out", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("twistlab: [Errno 2] ") and err.count("\n") == 1
        assert not path.parent.exists()

    def test_inline_args_and_in_file_exit_one(self, tmp_path, capsys):
        path = tmp_path / "args.json"
        path.write_text('{"A": "1", "B": "0"}')
        code, out, err = run_main(["curve.j", '{"A": "1", "B": "0"}', "--in", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err == "twistlab: give inline JSON args or --in, not both\n"

    def test_malformed_batch_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, _ = run_main(["batch", "--in", str(path)], capsys)
        assert code == 1

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        code, out, _ = run_main(
            ["curve.j", '{"A": "1", "B": "0"}', "--out", str(path)], capsys
        )
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text()) == {"j": "1728"}


class TestDeterminismAndRoundTrip:
    def test_identical_invocations_byte_identical(self, capsys):
        args = ["torus.morita", '{"theta1": "sqrt(2)", "theta2": "(2+sqrt(2))/2"}']
        _, out1, _ = run_main(args, capsys)
        _, out2, _ = run_main(args, capsys)
        assert out1 == out2

    def test_printed_values_reparse(self, capsys):
        _, out, _ = run_main(["cf.value", '{"preperiod": [1], "period": [2]}'], capsys)
        value = json.loads(out)["value"]
        parsed = parse_surd(value)
        _, out2, _ = run_main(["cf.expand", json.dumps({"theta": value})], capsys)
        assert json.loads(out2) == {"preperiod": [1], "period": [2]}
        assert parsed == QuadraticSurd(0, 1, 1, 2)

    def test_results_do_not_depend_on_batch_order(self):
        # several of these enter one cycle of reduced states, at one state or at two
        thetas = ["sqrt(19)", "(3+sqrt(19))/2", "4+sqrt(19)", "sqrt(94)", "(1+sqrt(94))/3",
                  "sqrt(100003)", "1+sqrt(100003)", "(1+sqrt(100003))/2"]
        entries = [{"verb": verb, "args": {"theta": theta}}
                   for theta in thetas for verb in ("cf.expand", "torus.invariant")]
        entries += [{"verb": "torus.morita", "args": {"theta1": a, "theta2": b}}
                    for a in thetas for b in thetas[::3]]
        for i, entry in enumerate(entries):
            entry["id"] = i
        forward = run_batch(entries)
        assert all(r["status"] == "ok" for r in forward)
        backward = run_batch(entries[::-1])
        contfrac._clear_cycles()
        assert run_batch(entries[::-1]) == backward == forward[::-1]

    def test_pretty_flag(self, capsys):
        code, out, _ = run_main(["curve.j", '{"A": "1", "B": "0"}', "--pretty"], capsys)
        assert code == 0
        assert "\n  " in out


def test_console_entry_point_runs():
    # the child imports the same twistlab as the tests, installed or not
    src = str(Path(twistlab.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "twistlab.cli", "curve.j", '{"A": "0", "B": "1"}'],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"j": "0"}
