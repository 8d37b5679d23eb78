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
for argv in (["codim", "sl2", "--n", "3", "--no-cache"],
             ["growth", "sl2", "--max-n", "3", "--mode", "sampled",
              "--samples", "20", "--no-cache"],
             ["capelli", "sl2", "--t", "3", "--n", "4", "--no-cache"]):
    assert cli.run(argv, stdout=io.StringIO()) == 0, argv
print(json.dumps(sorted(t.report()["spans"])))
"""


def test_tracer_installs_and_traces_every_layer():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    spans = set(json.loads(proc.stdout))
    assert {
        "cli.run",
        "evaluation.codimension",
        "evaluation.columns",
        "evaluation.insert",
        "evaluation.capelli",
        "exponent.alt_check",
        "exponent.growth",
        "exponent.candidate",
        "exponent.height_spans",
        "liealg.analyze",
    } <= spans
