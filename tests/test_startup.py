"""The start-up contract, each check in a fresh interpreter: importing the
CLI registers the five layers without running any, a verb runs only
the layers it calls into, and annotations import nothing."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twistlab

LAYERS = ("surd", "contfrac", "torus", "dimgroup", "elliptic")

PROBE = """
import json, sys, types
before = set(sys.modules)
import twistlab.cli
imported = set(sys.modules) - before
{action}
# a lazily loaded module's class is a subclass of ModuleType until its body has run
print(json.dumps({{
    "registered": [m for m in {layers!r} if "twistlab." + m in sys.modules],
    "ran": [m for m in {layers!r} if type(sys.modules["twistlab." + m]) is types.ModuleType],
    "imported": sorted(imported),
    "typing": "typing" in sys.modules,
}}))
"""


def probe(action: str = "", *flags: str) -> dict:
    # the child imports the same twistlab as the tests, installed or not
    src = str(Path(twistlab.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", PROBE.format(action=action, layers=LAYERS)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_registers_every_layer_and_runs_none():
    # perfbench's tracer finds the layers in sys.modules right after this import
    seen = probe()
    assert seen["registered"] == list(LAYERS)
    assert seen["ran"] == []
    assert "dataclasses" not in seen["imported"]
    assert "inspect" not in seen["imported"]


RUN_COMMAND = "twistlab.cli.run_command({verb!r}, {args!r})"
# a single command through main, which runs it as a batch of one; the
# probe's JSON line must be all the child prints
MAIN = ("import contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert twistlab.cli.main([{verb!r}, json.dumps({args!r})]) == 0\n")


VERB_CALLS = [
    (RUN_COMMAND, "curve.j", {"A": 1, "B": 2}, ["elliptic"]),
    (RUN_COMMAND, "dimgroup.positive", {"phi": [[2, 1], [1, 1]], "vector": [1, -1]},
     ["dimgroup"]),
    (RUN_COMMAND, "dimgroup.positive", {"period": [1, 2], "vector": [1, -1]},
     ["contfrac", "dimgroup"]),
    (RUN_COMMAND, "cf.expand", {"theta": "sqrt(7)"}, ["surd", "contfrac"]),
    (RUN_COMMAND, "torus.morita", {"theta1": "sqrt(7)", "theta2": "(1+sqrt(7))/3"},
     ["surd", "contfrac", "torus"]),
    (MAIN, "curve.j", {"A": 1, "B": 2}, ["elliptic"]),
    (MAIN, "dimgroup.positive", {"phi": [[2, 1], [1, 1]], "vector": [1, -1]}, ["dimgroup"]),
    (MAIN, "torus.morita", {"theta1": "sqrt(7)", "theta2": "(1+sqrt(7))/3"},
     ["surd", "contfrac", "torus"]),
]
VERB_IDS = ["curve.j", "dimgroup.positive-phi", "dimgroup.positive-period", "cf.expand",
            "torus.morita", "main-curve.j", "main-dimgroup.positive-phi", "main-torus.morita"]


@pytest.mark.parametrize("call,verb,args,ran", VERB_CALLS, ids=VERB_IDS)
def test_verb_runs_only_its_layers(call, verb, args, ran):
    seen = probe(call.format(verb=verb, args=args))
    assert seen["ran"] == ran
    assert seen["registered"] == list(LAYERS)


@pytest.mark.parametrize(
    "action",
    [""] + [call.format(verb=verb, args=args) for call, verb, args, _ in VERB_CALLS],
    ids=["import"] + VERB_IDS,
)
def test_annotations_import_no_typing(action):
    # -S: a site hook may import typing before any twistlab code runs
    assert probe(action, "-S")["typing"] is False


def test_domain_errors_load_no_layer():
    # an error from one layer is reported without loading the others
    seen = probe("twistlab.cli.run_batch([{'id': 0, 'verb': 'curve.j', "
                 "'args': {'A': 0, 'B': 0}}])")
    assert seen["ran"] == ["elliptic"]


def test_public_names_resolve():
    action = ("ns = {}\n"
              "exec('from twistlab import *', ns)\n"
              "assert set(twistlab.__all__) <= set(ns)\n"
              "for name in twistlab.__all__:\n"
              "    home = sys.modules[ns[name].__module__]\n"
              "    assert ns[name] is getattr(home, name), name\n")
    assert probe(action)["ran"] == list(LAYERS)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        twistlab.nonexistent


def test_public_names_unchanged():
    assert twistlab.__all__ == [
        "QuadraticSurd", "parse_surd", "format_surd",
        "FiniteCF", "EventuallyPeriodicCF", "expand_rational", "expand_surd",
        "value_of", "convergents", "canonical_rotation",
        "TorusParameter", "UnimodularWitness", "apply_mobius", "isomorphic",
        "morita_equivalent", "sl2_witness", "morita_invariant",
        "StationaryDimensionGroup", "K0Element", "Positivity", "from_matrix",
        "from_cf_period", "is_positive", "rank2_slope", "rank2_morita_equivalent",
        "EllipticCurve", "TwistParameter", "j_invariant", "twist",
        "c_isomorphic", "q_isomorphic", "twist_between",
    ]


@pytest.mark.parametrize("layer,names", [
    ("surd", ("SurdError", "SurdParseError")),
    ("contfrac", ("CFError", "NotPrimitiveError")),
    ("torus", ("TorusError",)),
    ("dimgroup", ("DimGroupError", "NotPrimitiveMatrixError", "SingularMatrixError",
                  "NotCFTypeError")),
    ("elliptic", ("CurveError", "SingularCurveError")),
])
def test_errors_reexported_by_their_layer(layer, names):
    from twistlab import errors

    module = getattr(twistlab, layer)
    for name in names:
        cls = getattr(errors, name)
        assert getattr(module, name) is cls
        assert cls.__name__ == name  # the JSON "kind" of a domain error
