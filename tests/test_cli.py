import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import twistlab
from twistlab.cli import VERBS, UsageError, main, run_batch, run_command
from twistlab.surd import QuadraticSurd, parse_surd


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
        assert got[0]["status"] == "error" and got[0]["kind"] == "SurdParseError"
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
        assert long["message"].startswith("convergent 3063 is too long to print")
        assert ok["result"] == {"convergents": ["1/1", "2/1", "3/2"]}


@pytest.fixture
def low_digit_limit():
    """The interpreter's least digit limit for int-to-str: convergents of
    [; (1)] pass it after 3063 terms, not 20576, so the test stays fast."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(limit)


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
        with pytest.raises(UsageError, match="argument 'A'"):
            run_command("curve.j", {"A": "1/" + "7" * 5000, "B": "1"})


# Wielandt's matrix, a cycle plus one chord: primitive with the largest
# exponent, n^2 - 2n + 2, of any n x n matrix
WIELANDT_40 = [[int(j == i + 1 or (i == 39 and j < 2)) for j in range(40)] for i in range(40)]


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
    pytest.param("cf.expand", {"theta": "sqrt(\u0663)"}, "SurdParseError", id="unicode-digit"),
    pytest.param("dimgroup.positive", {"phi": WIELANDT_40, "vector": [1] * 40},
                 {"verdict": "strictly-positive"}, id="wielandt-40"),
    pytest.param("dimgroup.compare",
                 {"phi": [[2, 1], [1, 1]], "e1": {"stage": 0, "vector": [1, 0]},
                  "e2": {"stage": 100000000, "vector": [1, 0]}},
                 "DimGroupError", id="compare-over-stage-budget"),
    pytest.param("cf.convergents", {"period": [1], "count": 25000}, "CFError",
                 id="convergents-too-long-to-print"),
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
        assert "malformed JSON input" in err

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
        assert error["message"].startswith("convergent 20576 is too long to print")

    def test_huge_surd_literal_is_domain_error(self, capsys):
        theta = "(1+sqrt(" + "7" * 5000 + "))/2"
        code, out, _ = run_main(["cf.expand", json.dumps({"theta": theta})], capsys)
        assert code == 2
        error = json.loads(out)["error"]
        assert error["kind"] == "SurdParseError" and error["message"].endswith("(column 8)")

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
