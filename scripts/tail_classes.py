#!/usr/bin/env python3
"""Group the reduced quadratic irrationals of one radicand by Morita tail class.

The reduced (P + sqrt(D))/Q with Q | D - P^2, 0 < P <= sqrt(D) and
sqrt(D) - P < Q <= sqrt(D) + P are exactly the irrationals over sqrt(D)
with a purely periodic continued fraction.  The expansion's state
recursion permutes them in cycles, one cycle per tail class, so two of
them are Morita-equivalent exactly when their canonical periods
(torus.morita_invariant) agree.  Non-primitive states, where P, Q and
(D - P^2)/Q share a factor, are included.  This prints each class with
its members (P, Q).
"""

import argparse
from collections import defaultdict
from math import isqrt

from twistlab.surd import QuadraticSurd
from twistlab.torus import TorusParameter, morita_invariant


def reduced_states(D):
    root = isqrt(D)
    for P in range(1, root + 1):
        for Q in range(root - P + 1, root + P + 1):
            if (D - P * P) % Q == 0:
                yield P, Q


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--disc", type=int, default=60, help="the radicand D, not a square")
    ap.add_argument("--min-size", type=int, default=1,
                    help="only print classes with at least this many members")
    args = ap.parse_args()
    D = args.disc
    if D < 2 or isqrt(D) ** 2 == D:
        ap.error("--disc must be a positive non-square")

    classes = defaultdict(list)
    states = list(reduced_states(D))
    for P, Q in states:
        t = TorusParameter(QuadraticSurd.normalize(P, 1, Q, D))
        classes[morita_invariant(t)].append((P, Q))

    print(f"{len(classes)} tail classes among the {len(states)} reduced (P + sqrt({D}))/Q\n")
    for period, members in sorted(classes.items(), key=lambda kv: (len(kv[0]), kv[0])):
        if len(members) >= args.min_size:
            word = ", ".join(map(str, period))
            print(f"  period ({word}): (P, Q) = {members}")


if __name__ == "__main__":
    main()
