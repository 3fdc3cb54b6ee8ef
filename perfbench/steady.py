"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steady.py --workload tails --seeds 1-10

Runs the benchmark once per seed, one run at a time, from the current
directory (the root of a twistlab checkout), and prints for each end-to-end
metric the median of the runs and the distance between their first and
third quartiles (statistics.quantiles, n=4) as a share of the median.  That
share is what each metric's bound in BENCHMARK.json must stay above.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_of(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(os.path.dirname(here), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in seeds_of(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=600).stdout
        result = json.loads(out.strip().rsplit("\n", 1)[-1])
        runs.append({k: v["value"] for k, v in result["metrics"].items()})
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()),
              f"correct={result['correct']} failed={result['failed']}/{result['attempted']}",
              flush=True)
    for name in runs[0]:
        values = [r[name] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        print(f"{args.workload:12s} {name:16s} median {median:12.6g}  iqr/median {spread:7.4f}"
              f"  bound {bounds.get(name, float('nan'))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
