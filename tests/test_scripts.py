"""Smoke tests: the example scripts run on the library they ship with."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import twistlab

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script,args,header",
    [
        ("tail_classes.py", ["--limit", "60", "--min-size", "2"],
         "36 tail classes among sqrt(d), d squarefree <= 60"),
        ("twist_dichotomy.py", ["--t-max", "4"],
         "base curve y^2 = x^3 + (1)x + (1), j = 6912/31"),
    ],
    ids=["tail_classes", "twist_dichotomy"],
)
def test_script_runs(script, args, header):
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
    assert proc.stdout.splitlines()[0] == header
