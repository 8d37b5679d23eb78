"""Self-tests of the reference-answer checker (no benchmark jobs are run)."""

import copy
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from answers import check, exact_key, load_reference  # noqa: E402
from workloads import WORKLOADS, Job  # noqa: E402

REFERENCE = load_reference()


def job(line, **kw):
    return Job(tuple(line.split()), **kw)


def stdout_of(payload, **extra):
    return json.dumps({**payload, **extra, "provenance": {"mode": "exact"}})


def test_every_job_and_sampled_bound_is_pinned():
    for jobs in WORKLOADS.values():
        for j in jobs:
            assert j.key in REFERENCE
            if j.sampled and j.args[0] != "verify-upper":
                assert exact_key(j) in REFERENCE


def test_every_workload_has_exactly_one_heavy_job():
    for jobs in WORKLOADS.values():
        assert sum(j.heavy for j in jobs) == 1


def test_pinned_answer_passes_and_a_changed_one_fails():
    j = job("codim sl2 --n 6")
    pinned = REFERENCE[j.key]["payload"]
    assert check(j, 0, stdout_of(pinned), REFERENCE) == []
    wrong = dict(pinned, codimension=pinned["codimension"] + 1)
    assert check(j, 0, stdout_of(wrong), REFERENCE)
    assert check(j, 1, stdout_of(pinned), REFERENCE)
    assert check(j, 0, "Traceback (most recent call last):", REFERENCE)


def test_expected_hypothesis_failure_counts_as_correct():
    j = job("find-witness solvable2")
    pinned = REFERENCE[j.key]
    assert pinned["exit"] == 3
    assert check(j, 3, stdout_of(pinned["payload"]), REFERENCE) == []


def test_warm_replay_must_hit_the_cache():
    j = job("codim sl2 --n 6", warm=True)
    pinned = REFERENCE[j.key]["payload"]
    assert check(j, 0, stdout_of(pinned, cache="hit"), REFERENCE) == []
    assert check(j, 0, stdout_of(pinned), REFERENCE)


def test_sampled_codim_may_not_exceed_the_exact_value():
    j = job("codim sl2_natural --n 6 --mode sampled --samples 400", sampled=True)
    exact = REFERENCE[exact_key(j)]["payload"]["codimension"]
    ok = {"n": 6, "codimension": exact - 3, "certainty": "lower-bound"}
    assert check(j, 0, stdout_of(ok), REFERENCE) == []
    over = dict(ok, codimension=exact + 1)
    assert check(j, 0, stdout_of(over), REFERENCE)


def test_cocharacter_invariants():
    j = job("cocharacter sl2_natural --n 5 --mode sampled --samples 60", sampled=True)
    table = copy.deepcopy(REFERENCE[exact_key(j)]["payload"])
    assert check(j, 0, stdout_of(table), REFERENCE) == []
    table["codimension"] += 1  # sum m*d no longer equals c_n
    assert check(j, 0, stdout_of(table), REFERENCE)
    table = copy.deepcopy(REFERENCE[exact_key(j)]["payload"])
    row = next(r for r in table["rows"] if r["multiplicity"])
    row["multiplicity"] += 1  # above the exact m_lambda
    table["codimension"] += row["degree"]
    table["colength"] += 1
    assert check(j, 0, stdout_of(table), REFERENCE)


def test_sampled_verify_upper_of_a_true_identity_must_pass():
    j = job("verify-upper gl2 --mode sampled --samples 300", sampled=True)
    pinned = REFERENCE[j.key]["payload"]
    assert check(j, 0, stdout_of(pinned), REFERENCE) == []
    failed = dict(pinned, passed=False, counterexample="x")
    assert check(j, 0, stdout_of(failed), REFERENCE)
    short = dict(pinned, checks=10)
    assert check(j, 0, stdout_of(short), REFERENCE)
