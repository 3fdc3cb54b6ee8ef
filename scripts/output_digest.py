#!/usr/bin/env python3
"""Digest of twistlab's answers to every benchmark generator entry.

Draws the entries of one pass of each workload of perfbench/run.py, for
seeds 1-3 (20742 entries), as perfbench/gen.py draws them, and runs each
through twistlab.cli.run_batch on its own, as the benchmark does: first
in generator order, then in reverse.  It prints one line per pass, the
pass and the sha256 of the JSON responses in generator order, and exits 1
when the two differ: an answer that depends on what the process answered
before it, such as the contents of the cycle memo.  A change that keeps
every output byte-identical keeps the digest.

    python scripts/output_digest.py
    python scripts/output_digest.py --workload tails --seed 1
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

from twistlab.cli import run_batch

sys.dont_write_bytecode = True  # leave perfbench/ as it is
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402
from run import WORKLOADS  # noqa: E402

SEEDS = (1, 2, 3)


def requests(workloads, seeds) -> list[str]:
    """Each entry as the JSON request the benchmark sends, in generator order."""
    out = []
    for workload in workloads:
        for seed in seeds:
            for block in gen.blocks(workload, seed, WORKLOADS[workload].blocks):
                out += [json.dumps({"id": len(out), "verb": e.verb, "args": e.args}) for e in block]
    return out


def answers(texts: list[str], order) -> list[str]:
    """The response to each request, run in the given order, listed in
    generator order."""
    got = [""] * len(texts)
    for i in order:
        got[i] = json.dumps(run_batch([json.loads(texts[i])]))
    return got


def digest(responses: list[str]) -> str:
    return hashlib.sha256("\n".join(responses).encode()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), help="one workload, not all four")
    ap.add_argument("--seed", type=int, help="one seed, not 1-3")
    args = ap.parse_args(argv)
    texts = requests([args.workload] if args.workload else list(WORKLOADS),
                     [args.seed] if args.seed is not None else SEEDS)
    forward = digest(answers(texts, range(len(texts))))
    backward = digest(answers(texts, reversed(range(len(texts)))))
    print(f"generator-order {forward}")
    print(f"reversed {backward}")
    return 0 if forward == backward else 1


if __name__ == "__main__":
    sys.exit(main())
