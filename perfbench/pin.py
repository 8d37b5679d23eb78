"""Regenerate reference.json: the answers the benchmark checks against.

Runs every job of every workload once, plus the exact counterpart of
each sampled job, and records exit codes and reports without
provenance.  Sampled jobs are pinned at seed 0; only their
seed-independent fields are compared.  Pin only from a commit whose
answers are trusted (the exact codim of sl2_natural at n=6 alone takes
about a minute).

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from answers import REFERENCE_PATH, exact_key, parse_payload, strip_volatile
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def run_cli(args: tuple[str, ...]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, "-m", "picodim.cli", *args, "--no-cache"],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    payload = parse_payload(proc.stdout)
    if payload is None:
        raise SystemExit(f"{' '.join(args)}: no JSON report (exit {proc.returncode})")
    return {"exit": proc.returncode, "payload": strip_volatile(payload)}


def main() -> None:
    keys: dict[str, tuple[str, ...]] = {}
    for jobs in WORKLOADS.values():
        for job in jobs:
            keys[job.key] = job.args
            if job.sampled and job.args[0] != "verify-upper":
                exact = exact_key(job)
                keys[exact] = tuple(exact.split())
    reference = {}
    for key, args in sorted(keys.items()):
        print(key, file=sys.stderr, flush=True)
        reference[key] = run_cli(args)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
