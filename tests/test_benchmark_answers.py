"""Every benchmark job, run in-process, passes the benchmark's own
answer checker, so a changed answer fails here before a benchmark run.

Each workload gets a fresh result cache, as one benchmark repetition
does, so its warm replays hit; sampled jobs get a fixed seed."""

import io
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from answers import check, load_reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from picodim import cli  # noqa: E402


def test_every_benchmark_job_passes_the_answer_checker(tmp_path):
    reference = load_reference()
    problems = {}
    for name, jobs in WORKLOADS.items():
        cache = tmp_path / name / "results.jsonl"
        for seed, job in enumerate(jobs):
            argv = [*job.args, "--cache", str(cache)]
            if job.sampled:
                argv += ["--seed", str(seed)]
            out = io.StringIO()
            code = cli.run(argv, out)
            found = check(job, code, out.getvalue(), reference)
            if found:
                problems[f"{name}: {job.key}{' (warm)' if job.warm else ''}"] = found
    assert problems == {}
