"""The benchmark's traced mode (perfbench/tracer.py) patches picodim's
entry points by name; a renamed method must fail here, not only under
`perfbench/run.py --trace 1`."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# runs in a fresh interpreter, so the patching cannot leak into this one
SCRIPT = """
import io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer
from picodim import cli

t = tracer.Tracer()
tracer.install(t)
tuples = {}  # evaluation.tuples after each command
for argv in (["codim", "sl2", "--n", "3", "--no-cache"],
             ["growth", "sl2", "--max-n", "3", "--mode", "sampled",
              "--samples", "20", "--no-cache"],
             ["capelli", "sl2", "--t", "3", "--n", "4", "--no-cache"],
             ["cocharacter", "sl2", "--n", "3", "--no-cache"],
             ["verify-upper", "sl2", "--mode", "sampled", "--samples", "5",
              "--no-cache"],
             ["find-witness", "sl2", "--max-n", "4", "--no-cache"]):
    assert cli.run(argv, stdout=io.StringIO()) == 0, argv
    tuples[argv[0]] = t.report()["counts"].get("evaluation.tuples", 0)
print(json.dumps({"spans": sorted(t.report()["spans"]), "tuples": tuples}))
"""


def test_tracer_installs_and_traces_every_layer():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    # exact codim runs first and evaluates no basis tuple; sampled growth
    # must reach the kernel through `_tuple_columns`
    assert report["tuples"]["codim"] == 0 and report["tuples"]["growth"] > 0
    spans = set(report["spans"])
    assert {
        "cli.run",
        "evaluation.codimension",
        "evaluation.columns",
        "evaluation.insert",
        "evaluation.capelli",
        "evaluation.cocharacter",
        "exponent.alt_check",
        "exponent.verify_upper",
        "exponent.find_witness",
        "exponent.growth",
        "exponent.candidate",
        "exponent.height_spans",
        "liealg.analyze",
    } <= spans
