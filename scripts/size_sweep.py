#!/usr/bin/env python3
"""Seeded sweep of every verb over argument sizes drawn on a log scale.

Each verb in turn gets one entry whose argument sizes are drawn on a log
scale up to the limits of adversarial input: digit runs of up to 4300
digits (the most the interpreter reads), words of up to 2 * 10^5 terms or
10^6 bits, ranks up to 130, stages up to 10^9, strings of up to 10^6
characters and arrays nested up to 1000 deep.  Each entry runs through
twistlab.cli.run_batch under a 10-s alarm.  The sweep stops drawing after
--seconds, once every verb has had an entry, and prints one JSON line:
per verb, the entries run, the slowest and the one with the largest
printed response, each described by its sizes, and every failure.  It
exits 1 when an entry reports kind "internal", passes the alarm, or
raises out of run_batch.

    python scripts/size_sweep.py --seconds 30 --seed 1
"""

import argparse
import json
import math
import random
import signal
import sys
import time

from twistlab.cli import VERBS, run_batch

ALARM_S = 10
DIGITS = 4300
WORD_TERMS = 200000
WORD_BITS = 10**6
RANK = 130
STAGE = 10**9
TEXT_CHARS = 10**6
NESTING = 1000


class Alarm(BaseException):
    """Raised by the alarm; not an Exception, so run_batch cannot catch it."""


def expire(signum, frame):
    raise Alarm


def log_size(rng, hi):
    """An integer in 1..hi, uniform on a log scale."""
    return min(hi, round(10 ** rng.uniform(0, math.log10(hi))))


def number(rng, digits=DIGITS):
    """A positive integer of up to `digits` digits, its length log-scale."""
    n = log_size(rng, digits)
    return rng.randrange(10 ** (n - 1), 10**n)


def signed(rng, digits=DIGITS):
    return rng.choice((-1, 1)) * number(rng, digits)


def literal(rng):
    """A surd literal (p + q*sqrt(d))/r, or sqrt(d), with parts of drawn size."""
    d = rng.choice((2, 3, 5, 7, 13, 19, 94, 1009)) if rng.random() < 0.5 else number(rng)
    if rng.random() < 0.25:
        return f"sqrt({d})", f"sqrt(d), d {len(str(d))} digits"
    p, q, r = signed(rng), number(rng), number(rng)
    sizes = "/".join(str(len(str(x))) for x in (p, q, d, r))
    return f"({p}+{q}*sqrt({d}))/{r}", f"literal, p/q/d/r {sizes} digits"


def word(rng):
    """A positive word of up to WORD_TERMS terms and WORD_BITS bits."""
    n = log_size(rng, WORD_TERMS)
    digits = log_size(rng, max(1, min(DIGITS, WORD_BITS // (4 * n))))
    terms = [number(rng, digits) for _ in range(min(n, 64))]
    return [terms[i % len(terms)] for i in range(n - 1)] + [terms[0] + 1], f"{n} terms of {digits} digits"


def fraction(rng):
    text = str(signed(rng))
    return text if rng.random() < 0.5 else f"{text}/{number(rng)}"


def matrix(rng):
    """A nonnegative square matrix of drawn rank, its digits bounded by
    the rank so that the whole stays within about 10^5 digits."""
    n = log_size(rng, RANK)
    digits = log_size(rng, max(1, min(DIGITS, 10**5 // (n * n))))
    rows = [[rng.randrange(10**digits) if rng.random() < 0.8 else 0 for _ in range(n)] for _ in range(n)]
    return rows, f"rank {n} of {digits} digits"


def vector(rng, n):
    return [signed(rng, 12) if rng.random() < 0.9 else 0 for _ in range(n)]


def group(rng):
    """dimgroup arguments: a period word or a matrix, and its rank."""
    if rng.random() < 0.5:
        w, sizes = word(rng)
        return {"period": w}, 2, f"period {sizes}"
    phi, sizes = matrix(rng)
    return {"phi": phi}, len(phi), f"phi {sizes}"


def element(rng, n):
    return {"stage": log_size(rng, STAGE) - 1, "vector": vector(rng, n)}


def cf_args(rng):
    w, sizes = word(rng)
    shape = rng.choice(("terms", "period", "preperiod"))
    if shape == "preperiod":
        return {"preperiod": w, "period": [w[-1] + 1]}, f"preperiod {sizes}"
    return {shape: w}, f"{shape} {sizes}"


def draw(rng, verb):
    """(args, description) for one entry of verb."""
    family = verb.partition(".")[0]
    if verb in ("cf.expand", "torus.invariant"):
        theta, sizes = literal(rng)
        return {"theta": theta}, sizes
    if family == "torus":
        (x, sx), (y, sy) = literal(rng), literal(rng)
        if rng.random() < 0.5:
            y, sy = "sqrt(2)", "sqrt(2)"
        args = {"theta1": x, "theta2": y} if rng.random() < 0.5 else {"theta1": y, "theta2": x}
        return args, f"{sx}; {sy}"
    if verb == "cf.value":
        return cf_args(rng)
    if verb == "cf.convergents":
        # the golden ratio's convergents grow the slowest: the most output per count
        args, sizes = cf_args(rng) if rng.random() < 0.7 else ({"period": [1]}, "period (1)")
        count = log_size(rng, 10**5)
        return {**args, "count": count}, f"{sizes}, count {count}"
    if verb == "dimgroup.from-period":
        w, sizes = word(rng)
        return {"period": w}, sizes
    if family == "dimgroup":
        args, n, sizes = group(rng)
        if verb == "dimgroup.positive":
            return {**args, "vector": vector(rng, n), "stage": log_size(rng, STAGE) - 1}, sizes
        e1, e2 = element(rng, n), element(rng, n)
        return {**args, "e1": e1, "e2": e2}, f"{sizes}, stages {e1['stage']} and {e2['stage']}"
    keys = {"curve.j": ("A", "B"), "curve.twist": ("A", "B", "t")}.get(verb, ("A1", "B1", "A2", "B2"))
    args = {key: fraction(rng) for key in keys}
    return args, "digits " + "/".join(str(len(v)) for v in args.values())


def disturbed(rng, args, sizes):
    """Now and then one argument nested deep in arrays, or a long string."""
    u = rng.random()
    if u >= 0.1 or not args:
        return args, sizes
    key = rng.choice(sorted(args))
    if u < 0.05:
        depth = log_size(rng, NESTING)
        value = args[key]
        for _ in range(depth):
            value = [value]
        return {**args, key: value}, f"{sizes}; {key} nested {depth} deep"
    length = log_size(rng, TEXT_CHARS)
    return {**args, key: rng.choice("9x(") * length}, f"{sizes}; {key} a string of {length}"


def printed_size(response):
    """Characters of the response as JSON; 0 for one holding an int past
    the digit limit, which the CLI prints as a short error instead."""
    try:
        return len(json.dumps(response))
    except ValueError:
        return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seconds", type=float, default=30.0, help="stop drawing after this long")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    rng = random.Random(f"size-sweep:{args.seed}")
    verbs = sorted(VERBS)
    stats = {verb: {"entries": 0} for verb in verbs}
    failures = []
    signal.signal(signal.SIGALRM, expire)
    end = time.monotonic() + args.seconds
    i = 0
    while i < len(verbs) or time.monotonic() < end:  # every verb at least once
        verb = verbs[i % len(verbs)]
        entry_args, sizes = disturbed(rng, *draw(rng, verb))
        start = time.perf_counter()
        signal.alarm(ALARM_S)
        try:
            (response,) = run_batch([{"id": i, "verb": verb, "args": entry_args}])
            outcome = response.get("kind", "ok")
        except Alarm:
            response, outcome = None, f"no answer within {ALARM_S} s"
        except Exception as exc:  # escaped run_batch
            response, outcome = None, f"raised {type(exc).__name__}: {str(exc)[:200]}"
        finally:
            signal.alarm(0)
        seconds = time.perf_counter() - start
        size = printed_size(response) if response else 0
        record = stats[verb]
        record["entries"] += 1
        if seconds > record.get("slowest", {}).get("seconds", -1):
            record["slowest"] = {"seconds": round(seconds, 3), "outcome": outcome, "sizes": sizes}
        if size > record.get("largest", {}).get("chars", -1):
            record["largest"] = {"chars": size, "outcome": outcome, "sizes": sizes}
        if response is None or outcome == "internal":
            message = outcome if response is None else response["message"][:200]
            failures.append({"verb": verb, "sizes": sizes, "failure": message})
        i += 1
    print(json.dumps({"seed": args.seed, "seconds": args.seconds, "entries": i,
                      "verbs": stats, "failures": failures}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
