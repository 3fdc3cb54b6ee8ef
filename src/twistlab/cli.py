"""twistlab command-line interface.

One binary with dotted verbs (cf.expand, torus.morita, curve.j, ...)
plus a `batch` mode that runs a JSON array of commands.  All numeric
output is exact (surds and fractions as strings, integers as JSON
integers); a result too long to print is the verb's domain error, and
identical invocations produce byte-identical output.  A single command
runs as a batch of one, so both modes answer alike.  Exit codes: 0
success (batch entry errors included), 1 usage or parse error, 2 a
single command's error: a domain error, or kind "internal" for a fault
of the program.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import cache
from math import isfinite

# the layers are loaded lazily (see __init__): a verb runs only the ones it calls
from . import contfrac, dimgroup, elliptic, surd, torus
from .errors import (
    CFError, CurveError, DimGroupError, SurdError, TorusError, clipped, digit_limit_text,
)


class UsageError(Exception):
    pass


DOMAIN_ERRORS = (SurdError, CFError, TorusError, DimGroupError, CurveError)


def _arg(args: dict, key: str):
    if key not in args:
        raise UsageError(f"missing argument '{key}'")
    return args[key]


def _surd_arg(args: dict, key: str) -> surd.QuadraticSurd:
    """A surd literal, given as a JSON string; a number, bool, null,
    array or object is a usage error, never read as text."""
    value = _arg(args, key)
    if not isinstance(value, str):
        raise UsageError(f"argument '{key}' must be a surd literal string, got {clipped(value, repr)}")
    return surd.parse_surd(value)


_INT_TEXT = re.compile(r"[+-]?[0-9]+")


def _int(value, what: str) -> int:
    """A JSON integer or a signed decimal-digit string; a bool, a float
    or anything else is a usage error, never coerced."""
    if type(value) is int:  # a bool is not one
        return value
    if isinstance(value, str) and _INT_TEXT.fullmatch(value):
        try:
            return int(value)
        except ValueError:  # beyond the interpreter's digit limit
            raise UsageError(f"{what}: {digit_limit_text()}") from None
    raise UsageError(f"{what} must be an integer, got {clipped(value, repr)}")


_FRACTION_TEXT = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _fraction_arg(args: dict, key: str) -> Fraction:
    """A JSON integer or a string n or n/m of decimal digits, each part
    decoded by _int; decimals, exponents, underscores, spaces and floats
    are usage errors."""
    value = _arg(args, key)
    if type(value) is int:
        return Fraction(value)
    match = _FRACTION_TEXT.fullmatch(value) if isinstance(value, str) else None
    if not match:
        raise UsageError(f"argument '{key}' must be an integer or n/m, got {clipped(value, repr)}")
    num = _int(match[1], f"argument '{key}'")
    den = _int(match[2] or "1", f"argument '{key}'")
    if den == 0:
        raise UsageError(f"argument '{key}' has a zero denominator")
    return Fraction(num, den)


def _shaped(value, kind: type, what: str):
    """value itself if it is a JSON array (kind list) or object (kind dict)."""
    if not isinstance(value, kind):
        name = "array" if kind is list else "object"
        raise UsageError(f"{what} must be a JSON {name}, got {clipped(value, repr)}")
    return value


def _ints(value, what: str) -> tuple[int, ...]:
    items = _shaped(value, list, what)
    if set(map(type, items)) <= {int}:  # the common case, decoded at C speed
        return tuple(items)
    return tuple(x if type(x) is int else _int(x, f"{what} entry") for x in items)


def _cf_from_args(args: dict):
    if "terms" in args:
        return contfrac.FiniteCF(_ints(args["terms"], "terms"))
    if "period" in args:
        pre = _ints(args.get("preperiod", []), "preperiod")
        return contfrac.EventuallyPeriodicCF(pre, _ints(args["period"], "period"))
    raise UsageError("expected 'terms' or 'preperiod'/'period'")


def _text(x, error: type) -> str:
    """str(x) for an exact result printed as a string; an int in x past
    the interpreter's digit limit raises error."""
    try:
        return str(x)
    except ValueError:
        raise error(f"result too long to print: {digit_limit_text()}") from None


def _cf_json(cf) -> dict:
    if isinstance(cf, contfrac.FiniteCF):
        return {"terms": list(cf.terms)}
    return {"preperiod": list(cf.preperiod), "period": list(cf.period)}


# -- verb handlers ----------------------------------------------------

def _cmd_cf_expand(args: dict) -> dict:
    theta = _surd_arg(args, "theta")
    if theta.is_rational:
        return _cf_json(contfrac.expand_rational(theta.to_fraction()))
    return _cf_json(contfrac.expand_surd(theta))


def _cmd_cf_value(args: dict) -> dict:
    return {"value": _text(contfrac.value_of(_cf_from_args(args)), CFError)}


@cache
def _digit_ceiling(limit: int) -> int | None:
    """The least integer too long for str() under a digit limit; 0 is no limit."""
    return 10**limit if limit else None


def _cmd_cf_convergents(args: dict) -> dict:
    cf = _cf_from_args(args)
    count = _int(_arg(args, "count"), "count")
    if count > sys.maxsize:
        raise UsageError(f"count must be at most {sys.maxsize}, got {clipped(count)}")
    # q_k >= F_(k+1), so a long expansion reaches the interpreter's digit
    # limit for printing after about 20k terms: find the first convergent
    # with an entry of more digits than the limit before printing any
    ceiling = _digit_ceiling(sys.get_int_max_str_digits())
    found = []
    for c in contfrac.iter_convergents(cf, count):
        if ceiling and max(abs(c.p), abs(c.q)) >= ceiling:
            raise CFError(f"convergent {c.index} is too long to print: {digit_limit_text()}")
        found.append(c)
    return {"convergents": [f"{c.p}/{c.q}" for c in found]}


def _cmd_torus_morita(args: dict) -> dict:
    t1 = torus.TorusParameter(_surd_arg(args, "theta1"))
    t2 = torus.TorusParameter(_surd_arg(args, "theta2"))
    witness = torus.morita_equivalent(t1, t2)
    return {
        "equivalent": witness is not None,
        "witness": [list(row) for row in witness.rows()] if witness else None,
        "det": witness.det if witness else None,
        "invariant": list(torus.morita_invariant(t1)),
    }


def _cmd_torus_iso(args: dict) -> dict:
    t1 = torus.TorusParameter(_surd_arg(args, "theta1"))
    t2 = torus.TorusParameter(_surd_arg(args, "theta2"))
    return {"isomorphic": torus.isomorphic(t1, t2)}


def _cmd_torus_invariant(args: dict) -> dict:
    t = torus.TorusParameter(_surd_arg(args, "theta"))
    return {"invariant": list(torus.morita_invariant(t))}


def _cmd_dimgroup_from_period(args: dict) -> dict:
    g = dimgroup.from_cf_period(_ints(_arg(args, "period"), "period"))
    return {
        "phi": [list(row) for row in g.phi],
        "rank": g.rank,
        "det": g.determinant,
        "shift_automorphism": g.shift_is_automorphism,
        "slope": _text(dimgroup.rank2_slope(g), DimGroupError),
    }


def _group_from_args(args: dict) -> dimgroup.StationaryDimensionGroup:
    if "period" in args:
        return dimgroup.from_cf_period(_ints(args["period"], "period"))
    rows = _shaped(_arg(args, "phi"), list, "phi")
    return dimgroup.from_matrix([_ints(row, "phi row") for row in rows])


def _element(spec: dict, what: str = "") -> dimgroup.K0Element:
    return dimgroup.K0Element(
        _int(spec.get("stage", 0), what + "stage"), _ints(_arg(spec, "vector"), what + "vector")
    )


def _cmd_dimgroup_positive(args: dict) -> dict:
    g = _group_from_args(args)
    return {"verdict": dimgroup.is_positive(g, _element(args)).value}


def _cmd_dimgroup_compare(args: dict) -> dict:
    g = _group_from_args(args)
    e1, e2 = (_element(_shaped(_arg(args, k), dict, k), f"{k} ") for k in ("e1", "e2"))
    return {"equal": dimgroup.element_equal(g, e1, e2)}


def _curve(args: dict, a_key: str = "A", b_key: str = "B") -> elliptic.EllipticCurve:
    return elliptic.EllipticCurve(_fraction_arg(args, a_key), _fraction_arg(args, b_key))


def _cmd_curve_j(args: dict) -> dict:
    return {"j": _text(elliptic.j_invariant(_curve(args)), CurveError)}


def _cmd_curve_twist(args: dict) -> dict:
    e = elliptic.twist(_curve(args), elliptic.TwistParameter(_fraction_arg(args, "t")))
    return {"A": _text(e.A, CurveError), "B": _text(e.B, CurveError)}


def _cmd_curve_iso(args: dict) -> dict:
    e1 = _curve(args, "A1", "B1")
    e2 = _curve(args, "A2", "B2")
    c_iso = elliptic.c_isomorphic(e1, e2)  # decided once: q_isomorphic would decide it again
    u = elliptic._scaling(e1, e2) if c_iso else None
    return {
        "c_isomorphic": c_iso,
        "q_isomorphic": u is not None,
        "u": _text(u, CurveError) if u is not None else None,
    }


def _cmd_curve_twist_between(args: dict) -> dict:
    t = elliptic.twist_between(_curve(args, "A1", "B1"), _curve(args, "A2", "B2"))
    return {"t": _text(t.t, CurveError)}


VERBS = {
    "cf.expand": _cmd_cf_expand,
    "cf.value": _cmd_cf_value,
    "cf.convergents": _cmd_cf_convergents,
    "torus.morita": _cmd_torus_morita,
    "torus.iso": _cmd_torus_iso,
    "torus.invariant": _cmd_torus_invariant,
    "dimgroup.from-period": _cmd_dimgroup_from_period,
    "dimgroup.positive": _cmd_dimgroup_positive,
    "dimgroup.compare": _cmd_dimgroup_compare,
    "curve.j": _cmd_curve_j,
    "curve.twist": _cmd_curve_twist,
    "curve.iso": _cmd_curve_iso,
    "curve.twist-between": _cmd_curve_twist_between,
}


def run_command(verb: str, args: dict) -> dict:
    if not isinstance(verb, str) or verb not in VERBS:  # an array or object cannot be looked up
        raise UsageError(f"unknown verb '{clipped(verb)}'")
    if not isinstance(args, dict):
        raise UsageError("command arguments must be a JSON object")
    return VERBS[verb](args)


def run_batch(entries: list) -> list:
    """Run a batch; responses align positionally with the requests and a
    failing entry never aborts the rest.  Results hold exact Python
    values; main prints them, or an error for one too long to print."""
    if not isinstance(entries, list):
        raise UsageError("batch must be a JSON array")
    ids = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "verb" not in entry or "id" not in entry:
            raise UsageError(f"batch entry {i} must have 'verb' and 'id'")
        if isinstance(entry["id"], (list, dict)):  # unhashable
            raise UsageError(f"batch entry {i}: 'id' must not be an array or object")
        ids.append((type(entry["id"]), entry["id"]))  # 1, 1.0 and true are distinct JSON ids
    if len(set(ids)) != len(ids):
        raise UsageError("batch ids must be unique")

    def one(entry: dict) -> dict:
        try:
            result = run_command(entry["verb"], entry.get("args", {}))
            return {"id": entry["id"], "status": "ok", "result": result}
        except UsageError as exc:
            return _failed(entry["id"], str(exc), "usage")
        except DOMAIN_ERRORS as exc:
            return _failed(entry["id"], str(exc), type(exc).__name__)
        except Exception as exc:  # a fault of the program: report it, keep going
            return _failed(entry["id"], f"{type(exc).__name__}: {exc}", "internal")

    return [one(entry) for entry in entries]


def _failed(entry_id, message: str, kind: str) -> dict:
    return {"id": entry_id, "status": "error", "message": message, "kind": kind}


# the domain error of each verb family
_VERB_ERRORS = {"cf": CFError, "torus": TorusError, "dimgroup": DimGroupError, "curve": CurveError}


def _printable(response: dict, verb: str) -> dict:
    """A batch response, or its verb's domain error if it holds an int
    past the interpreter's digit limit, which json.dumps refuses to print."""
    try:
        json.dumps(response)
    except ValueError:
        kind = _VERB_ERRORS[verb.partition(".")[0]].__name__
        return _failed(response["id"], f"result too long to print: {digit_limit_text()}", kind)
    return response


def _shown(responses: list, verb: str, indent) -> tuple[str, int]:
    """What main prints for run_batch's responses, and its exit code: a
    batch prints them all; a single command its result (0) or its error
    (2), and its usage error is raised."""
    if verb == "batch":
        return json.dumps(responses, indent=indent), 0
    (response,) = responses
    if response["status"] == "ok":
        return json.dumps(response["result"], indent=indent), 0
    if response["kind"] == "usage":
        raise UsageError(response["message"])
    error = {"message": response["message"], "kind": response["kind"]}
    return json.dumps({"error": error}, indent=indent), 2


def _finite(text: str) -> float:
    """A float in main's JSON: NaN, the infinities and overflow are refused, not coerced."""
    if not isfinite(value := float(text)):
        raise UsageError(f"malformed JSON input: {clipped(text)} is not a finite float")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="twistlab",
        description="Exact invariants: continued fractions, torus parameters, "
        "stationary dimension groups, elliptic twists.",
    )
    parser.add_argument("verb", help="dotted verb (e.g. cf.expand) or 'batch'")
    parser.add_argument("args", nargs="?", default=None,
                        help="JSON object of arguments for a single verb")
    parser.add_argument("--in", dest="infile", metavar="FILE",
                        help="read args (single) or request array (batch) from FILE")
    parser.add_argument("--out", dest="outfile", metavar="FILE",
                        help="write output to FILE instead of stdout")
    parser.add_argument("--pretty", action="store_true", help="indented JSON")
    opts = parser.parse_args(argv)

    try:
        if opts.args is not None and opts.infile:
            raise UsageError("give inline JSON args or --in, not both")
        raw = "{}" if opts.args is None else opts.args
        if opts.infile:
            with open(opts.infile, encoding="utf-8") as fh:
                raw = fh.read()
        try:
            payload = json.loads(raw, parse_float=_finite, parse_constant=_finite)
        except json.JSONDecodeError as exc:
            raise UsageError(f"malformed JSON input: {exc}")
        except ValueError:  # an integer past the interpreter's digit limit
            raise UsageError(f"malformed JSON input: {digit_limit_text()}") from None
        except RecursionError:  # arrays or objects nested about 1000 deep
            raise UsageError("malformed JSON input: nested too deeply") from None

        # a single command is a batch of one: one path runs and classifies every verb
        batch = payload if opts.verb == "batch" else [{"id": 0, "verb": opts.verb, "args": payload}]
        responses = run_batch(batch)
        indent = 2 if opts.pretty else None
        try:
            text, code = _shown(responses, opts.verb, indent)
        except ValueError:  # checked entry by entry only when the whole fails to print
            responses = [_printable(r, entry["verb"]) for r, entry in zip(responses, batch)]
            text, code = _shown(responses, opts.verb, indent)
        if opts.outfile:  # a failing --out is a usage error, whatever was to be printed
            with open(opts.outfile, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            sys.stdout.write(text + "\n")
        return code
    except (UsageError, OSError, UnicodeDecodeError) as exc:  # --in FILE not UTF-8
        print(f"twistlab: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
