"""twistlab command-line interface.

One binary with dotted verbs (cf.expand, torus.morita, curve.j, ...)
plus a `batch` mode that runs a JSON array of commands.  All numeric
output is exact strings; identical invocations produce byte-identical
output.  Exit codes: 0 success (batch entry errors included), 1 usage
or parse error, 2 domain error in single-command mode.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

from . import contfrac, dimgroup, elliptic, torus
from .contfrac import EventuallyPeriodicCF, FiniteCF
from .surd import QuadraticSurd, SurdError, format_surd, parse_surd


class UsageError(Exception):
    pass


DOMAIN_ERRORS = (
    SurdError,
    contfrac.CFError,
    torus.TorusError,
    dimgroup.DimGroupError,
    elliptic.CurveError,
    ZeroDivisionError,
)


def parse_surd_literal(text: str) -> QuadraticSurd:
    return parse_surd(text)


def _arg(args: dict, key: str):
    if key not in args:
        raise UsageError(f"missing argument '{key}'")
    return args[key]


def _surd_arg(args: dict, key: str) -> QuadraticSurd:
    return parse_surd(str(_arg(args, key)))


def _fraction_arg(args: dict, key: str) -> Fraction:
    try:
        return Fraction(str(_arg(args, key)))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"argument '{key}' is not an exact rational: {exc}")


def _cf_from_args(args: dict):
    if "terms" in args:
        return FiniteCF(tuple(int(a) for a in args["terms"]))
    if "period" in args:
        pre = tuple(int(a) for a in args.get("preperiod", ()))
        return EventuallyPeriodicCF(pre, tuple(int(b) for b in args["period"]))
    raise UsageError("expected 'terms' or 'preperiod'/'period'")


def _cf_json(cf) -> dict:
    if isinstance(cf, FiniteCF):
        return {"terms": list(cf.terms)}
    return {"preperiod": list(cf.preperiod), "period": list(cf.period)}


# -- verb handlers ----------------------------------------------------

def _cmd_cf_expand(args: dict) -> dict:
    theta = _surd_arg(args, "theta")
    if theta.is_rational:
        return _cf_json(contfrac.expand_rational(theta.to_fraction()))
    return _cf_json(contfrac.expand_surd(theta))


def _cmd_cf_value(args: dict) -> dict:
    return {"value": format_surd(contfrac.value_of(_cf_from_args(args)))}


def _cmd_cf_convergents(args: dict) -> dict:
    cf = _cf_from_args(args)
    count = int(_arg(args, "count"))
    convs = contfrac.convergents(cf, count)
    return {"convergents": [f"{c.p}/{c.q}" for c in convs]}


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
    g = dimgroup.from_cf_period(tuple(int(b) for b in _arg(args, "period")))
    return {
        "phi": [list(row) for row in g.phi],
        "rank": g.rank,
        "det": g.determinant,
        "shift_automorphism": g.shift_is_automorphism,
        "slope": format_surd(dimgroup.rank2_slope(g)),
    }


def _iter_cap() -> int:
    raw = os.environ.get("TWISTLAB_ITER_CAP", "")
    if not raw:
        return 64
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"TWISTLAB_ITER_CAP is not an integer: {raw!r}")


def _group_from_args(args: dict) -> dimgroup.StationaryDimensionGroup:
    if "period" in args:
        return dimgroup.from_cf_period(tuple(int(b) for b in args["period"]))
    return dimgroup.from_matrix(_arg(args, "phi"))


def _cmd_dimgroup_positive(args: dict) -> dict:
    g = _group_from_args(args)
    e = dimgroup.K0Element(
        int(args.get("stage", 0)), tuple(int(x) for x in _arg(args, "vector"))
    )
    verdict = dimgroup.is_positive(g, e, iteration_cap=_iter_cap())
    return {"verdict": verdict.value}


def _cmd_dimgroup_compare(args: dict) -> dict:
    g = _group_from_args(args)
    def element(key):
        spec = _arg(args, key)
        return dimgroup.K0Element(
            int(spec.get("stage", 0)), tuple(int(x) for x in _arg(spec, "vector"))
        )
    return {"equal": dimgroup.element_equal(g, element("e1"), element("e2"))}


def _curve(args: dict, a_key: str = "A", b_key: str = "B") -> elliptic.EllipticCurve:
    return elliptic.EllipticCurve(_fraction_arg(args, a_key), _fraction_arg(args, b_key))


def _cmd_curve_j(args: dict) -> dict:
    return {"j": str(elliptic.j_invariant(_curve(args)))}


def _cmd_curve_twist(args: dict) -> dict:
    e = elliptic.twist(_curve(args), elliptic.TwistParameter(_fraction_arg(args, "t")))
    return {"A": str(e.A), "B": str(e.B)}


def _cmd_curve_iso(args: dict) -> dict:
    e1 = _curve(args, "A1", "B1")
    e2 = _curve(args, "A2", "B2")
    q_iso, u = elliptic.q_isomorphic(e1, e2)
    return {
        "c_isomorphic": elliptic.c_isomorphic(e1, e2),
        "q_isomorphic": q_iso,
        "u": str(u) if u is not None else None,
    }


def _cmd_curve_twist_between(args: dict) -> dict:
    t = elliptic.twist_between(_curve(args, "A1", "B1"), _curve(args, "A2", "B2"))
    return {"t": str(t.t) if t is not None else None}


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
    if verb not in VERBS:
        raise UsageError(f"unknown verb '{verb}'")
    if not isinstance(args, dict):
        raise UsageError("command arguments must be a JSON object")
    return VERBS[verb](args)


def run_batch(entries: list, parallel: bool = False) -> list:
    """Run a batch; responses align positionally with the requests and a
    failing entry never aborts the rest."""
    if not isinstance(entries, list):
        raise UsageError("batch must be a JSON array")
    ids = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "verb" not in entry or "id" not in entry:
            raise UsageError(f"batch entry {i} must have 'verb' and 'id'")
        ids.append(entry["id"])
    if len(set(ids)) != len(ids):
        raise UsageError("batch ids must be unique")

    def one(entry: dict) -> dict:
        try:
            result = run_command(entry["verb"], entry.get("args", {}))
            return {"id": entry["id"], "status": "ok", "result": result}
        except UsageError as exc:
            return {"id": entry["id"], "status": "error",
                    "message": str(exc), "kind": "usage"}
        except DOMAIN_ERRORS as exc:
            return {"id": entry["id"], "status": "error",
                    "message": str(exc), "kind": type(exc).__name__}

    if parallel:
        with ThreadPoolExecutor() as pool:
            return list(pool.map(one, entries))
    return [one(entry) for entry in entries]


def _dump(obj, pretty: bool) -> str:
    return json.dumps(obj, indent=2 if pretty else None, sort_keys=False)


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
    parser.add_argument("--parallel", action="store_true",
                        help="run batch entries concurrently")
    parser.add_argument("--pretty", action="store_true", help="indented JSON")
    opts = parser.parse_args(argv)

    def emit(obj):
        text = _dump(obj, opts.pretty) + "\n"
        if opts.outfile:
            with open(opts.outfile, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)

    try:
        if opts.args is not None and opts.infile:
            raise UsageError("give inline JSON args or --in, not both")
        raw = None
        if opts.infile:
            with open(opts.infile, encoding="utf-8") as fh:
                raw = fh.read()
        elif opts.args is not None:
            raw = opts.args
        try:
            payload = json.loads(raw) if raw is not None else {}
        except json.JSONDecodeError as exc:
            raise UsageError(f"malformed JSON input: {exc}")

        if opts.verb == "batch":
            emit(run_batch(payload, parallel=opts.parallel))
        else:
            emit(run_command(opts.verb, payload))
        return 0
    except UsageError as exc:
        print(f"twistlab: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"twistlab: {exc}", file=sys.stderr)
        return 1
    except DOMAIN_ERRORS as exc:
        emit({"error": {"message": str(exc), "kind": type(exc).__name__}})
        return 2


if __name__ == "__main__":
    sys.exit(main())
