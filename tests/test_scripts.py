"""Smoke tests: the example scripts run on the library they ship with."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twistlab
from twistlab.cli import VERBS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(script, args):
    # the child imports the same twistlab as the tests, installed or not
    src = str(Path(twistlab.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize(
    "script,args,header",
    [
        ("tail_classes.py", ["--disc", "60", "--min-size", "2"],
         "4 tail classes among the 14 reduced (P + sqrt(60))/Q"),
        ("twist_dichotomy.py", ["--t-max", "4"],
         "base curve y^2 = x^3 + (1)x + (1), j = 6912/31"),
    ],
    ids=["tail_classes", "twist_dichotomy"],
)
def test_script_runs(script, args, header):
    assert run_script(script, args)[0] == header


def test_tail_classes_are_cycles():
    """Each class holds one reduced state per term of its period, and the
    classes partition the reduced states."""
    lines = run_script("tail_classes.py", ["--disc", "1000"])
    members = 0
    for line in lines[2:]:
        period, states = line.split(": (P, Q) = ")
        size = len(ast.literal_eval(states))
        assert size == len(period.split("(")[1].split(",")), line
        members += size
    assert lines[0] == f"{len(lines) - 2} tail classes among the {members} reduced (P + sqrt(1000))/Q"


def test_size_sweep_reports_every_verb():
    """A 2-s sweep gives every verb at least one entry, each answered or
    a typed error within the alarm, and exits 0."""
    (line,) = run_script("size_sweep.py", ["--seconds", "2", "--seed", "1"])
    report = json.loads(line)
    assert report["failures"] == []
    assert set(report["verbs"]) == set(VERBS)
    assert all(record["entries"] >= 1 and "slowest" in record for record in report["verbs"].values())


@pytest.mark.parametrize("workload", ["tails", "verbs-mixed"])
def test_output_digest_is_order_free(workload):
    """A workload's entries of seed 1 get the same answers in generator
    order and reversed: one digest, printed for each pass.  tails and
    verbs-mixed are the workloads that read the cycle memo most."""
    lines = run_script("output_digest.py", ["--workload", workload, "--seed", "1"])
    assert [line.split()[0] for line in lines] == ["generator-order", "reversed"]
    forward, backward = (line.split()[1] for line in lines)
    assert forward == backward and len(forward) == 64
