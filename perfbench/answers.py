"""Reference-answer checker behind the benchmark's error rate.

Exact jobs must reproduce the pinned exit code and report (everything
but provenance) byte for byte.  Sampled jobs depend on the seed, so
they are checked against invariants that hold for any seed: a sampled
c_n or m_lambda never exceeds the exact value, and a sampled
verify-upper of a true identity passes.  Every cocharacter table must
satisfy sum(m_lambda * d_lambda) = c_n and sum(m_lambda) = l_n.
"""

from __future__ import annotations

import json
from pathlib import Path

from workloads import Job

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


def exact_key(job: Job) -> str:
    """The exact job whose answer bounds a sampled job's answer."""
    args = list(job.args)
    for flag in ("--mode", "--samples"):
        if flag in args:
            i = args.index(flag)
            del args[i : i + 2]
    return " ".join(args)


def parse_payload(stdout: str) -> dict | None:
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return None
    return payload if isinstance(payload, dict) else None


def strip_volatile(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k not in ("provenance", "cache")}


def check(job: Job, exit_code: int, stdout: str, reference: dict) -> list[str]:
    """Problems with one job's result; an empty list means correct."""
    pinned = reference.get(job.key)
    if pinned is None:
        return [f"no reference answer for {job.key!r}"]
    problems = []
    if exit_code != pinned["exit"]:
        problems.append(f"exit code {exit_code}, expected {pinned['exit']}")
    payload = parse_payload(stdout)
    if payload is None:
        return problems + ["stdout is not a JSON object"]
    if job.warm and payload.get("cache") != "hit":
        problems.append("warm replay missed the cache")
    if job.sampled:
        problems += _check_sampled(job, payload, reference)
    elif strip_volatile(payload) != pinned["payload"]:
        problems.append("answer differs from the pinned reference")
    problems += _invariants(job, payload)
    return problems


def _invariants(job: Job, payload: dict) -> list[str]:
    command = job.args[0]
    problems = []
    if command == "cocharacter" and "rows" in payload:
        rows = payload["rows"]
        if any(r["multiplicity"] < 0 for r in rows):
            problems.append("negative multiplicity")
        if sum(r["multiplicity"] * r["degree"] for r in rows) != payload["codimension"]:
            problems.append("sum of m_lambda * d_lambda differs from c_n")
        if sum(r["multiplicity"] for r in rows) != payload["colength"]:
            problems.append("sum of m_lambda differs from l_n")
    if command == "growth" and "rows" in payload:
        for row in payload["rows"]:
            if not 0 <= row["colength"] <= row["codimension"]:
                problems.append(f"growth row n={row['n']}: l_n outside [0, c_n]")
    return problems


def _samples(job: Job) -> int:
    return int(job.args[job.args.index("--samples") + 1])


def _check_sampled(job: Job, payload: dict, reference: dict) -> list[str]:
    command = job.args[0]
    if command == "codim":
        exact = reference[exact_key(job)]["payload"]
        if payload.get("certainty") != "lower-bound":
            return ["sampled codim not labelled lower-bound"]
        if not 0 <= payload.get("codimension", -1) <= exact["codimension"]:
            return [
                f"sampled c_n {payload.get('codimension')} outside "
                f"[0, {exact['codimension']}]"
            ]
        return []
    if command == "cocharacter":
        exact = reference[exact_key(job)]["payload"]
        got = [(r["partition"], r["degree"]) for r in payload.get("rows", [])]
        want = [(r["partition"], r["degree"]) for r in exact["rows"]]
        if got != want:
            return ["sampled cocharacter has different partitions or degrees"]
        for r, e in zip(payload["rows"], exact["rows"]):
            if r["multiplicity"] > e["multiplicity"]:
                return [f"sampled m_lambda for {r['partition']} exceeds the exact value"]
        return []
    if command == "verify-upper":
        pinned = reference[job.key]["payload"]
        spec = {k: payload.get(k) for k in ("r", "k", "n")}
        if spec != {k: pinned[k] for k in ("r", "k", "n")}:
            return [f"verify-upper spec {spec} differs from the pinned one"]
        if not payload.get("passed") or payload.get("counterexample") is not None:
            return ["sampled verify-upper of a true identity failed"]
        if payload.get("checks") != _samples(job) or payload.get("coverage") != "sampled":
            return ["sampled verify-upper did not run every sample"]
        return []
    return [f"no sampled-answer rule for {command!r}"]
