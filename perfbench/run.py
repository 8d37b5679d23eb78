"""picodim benchmark: runs a workload's CLI jobs in a closed loop and
reports end-to-end metrics (--trace 0) or per-layer metrics (--trace 1).

    python3 perfbench/run.py --workload codim-wall --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py                         # every workload in turn

One client: run.py starts one job at a time, each in a fresh
interpreter as a user would run the CLI, and waits for it, so at most
two cores are busy.  The job list is repeated until the next repetition
would end after --seconds; each repetition gets a fresh cache directory
(passed as --cache and XDG_CACHE_HOME), so only the warm replay inside
a repetition can hit the cache.  Reported values are medians over the
repetitions.  The workload seed reaches the program only as --seed of
the sampled jobs.  Every answer is checked (see answers.py); the last
line of stdout is the JSON result, and --out appends a fuller record
with machine details for compare.py.

With --trace 1 each repetition runs twice, untraced and then traced
with the same seeds; the per-layer metrics come from the traced one and
trace.overhead_ratio is traced over untraced wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from answers import check, load_reference
from tracer import layer_metrics
from workloads import WORKLOADS, Job

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"
# jobs still running this long after start are killed: a run must end
# within 180 s
HARD_LIMIT_S = 165.0
# stands in for the trace of a traced job that died before writing one
_EMPTY_TRACE = {"spans": {}, "counts": {}, "word_cache_entries": 0}


@dataclass
class JobResult:
    job: Job
    wall_s: float
    setup_s: float
    rss_mb: float
    problems: list[str] = field(default_factory=list)
    trace: dict | None = None


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith(("_rate", "_ratio")):
        return "ratio"
    return "count"


def run_job(job: Job, args: list[str], traced: bool, workdir: Path, env: dict,
            kill_at: float, reference: dict | None) -> JobResult:
    record = workdir / "record.json"
    out, err = workdir / "stdout", workdir / "stderr"
    argv = [sys.executable, str(HERE / "job.py"), str(record),
            "1" if traced else "0", "--", *args]
    with open(out, "w") as fo, open(err, "w") as fe:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=env, cwd=ROOT)
        timer = threading.Timer(max(0.0, kill_at - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = JobResult(job, end - start, 0.0, usage.ru_maxrss / 1024)
    if reference is not None:
        result.problems = check(job, proc.returncode, out.read_text(), reference)
    if not record.exists():
        tail = err.read_text().strip().splitlines()[-1:]
        result.problems.append(f"job died (exit {proc.returncode}): {tail}")
        return result
    data = json.loads(record.read_text())
    record.unlink()
    if data["run_entered"] is None:
        result.problems.append("picodim.cli.run was never entered")
    else:
        result.setup_s = data["run_entered"] - start
    result.trace = data.get("trace")
    return result


def run_repetition(jobs: list[Job], seeds: list[int], traced: bool, env: dict,
                   run_dir: Path, kill_at: float,
                   reference: dict | None) -> list[JobResult]:
    """The whole job list once, against a fresh cache directory."""
    workdir = Path(tempfile.mkdtemp(dir=run_dir))
    try:
        cache = workdir / "cache" / "results.jsonl"
        job_env = dict(env, XDG_CACHE_HOME=str(workdir / "xdg"))
        results = []
        for job, seed in zip(jobs, seeds):
            args = [*job.args, "--cache", str(cache)]
            if job.sampled:
                args += ["--seed", str(seed)]
            results.append(
                run_job(job, args, traced, workdir, job_env, kill_at, reference)
            )
        return results
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def end_to_end(reps: list[list[JobResult]]) -> dict[str, float]:
    """Sums over the job list of each job's median over repetitions.

    A per-job median keeps a burst of machine noise that hits one job
    of a repetition out of every job's figure."""
    per_job = list(zip(*reps))

    def median(rs: tuple[JobResult, ...], attr: str) -> float:
        return statistics.median(getattr(r, attr) for r in rs)

    return {
        "wall_s": sum(median(rs, "wall_s") for rs in per_job),
        "heavy_s": sum(median(rs, "wall_s") for rs in per_job if rs[0].job.heavy),
        "light_s": sum(median(rs, "wall_s") for rs in per_job if not rs[0].job.heavy),
        "setup_s": sum(median(rs, "setup_s") for rs in per_job),
        "peak_rss_mb": max(r.rss_mb for rs in per_job for r in rs),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 env: dict, run_dir: Path, started: float) -> dict:
    jobs = WORKLOADS[name]
    reference = load_reference()
    kill_at = started + HARD_LIMIT_S
    # untimed warm-up: imports compile to bytecode once, as on a user's
    # second invocation
    run_repetition([Job(("catalog",))], [0], False, env, run_dir, kill_at, None)
    begin = time.monotonic()
    untraced, traced = [], []
    index = 0
    while True:
        step_start = time.monotonic()
        rng = random.Random(seed * 1_000_003 + index)
        seeds = [rng.randrange(1 << 30) for _ in jobs]
        untraced.append(
            run_repetition(jobs, seeds, False, env, run_dir, kill_at, reference))
        if trace:
            traced.append(
                run_repetition(jobs, seeds, True, env, run_dir, kill_at, reference))
        index += 1
        now = time.monotonic()
        if now + (now - step_start) > begin + seconds or now > kill_at:
            break
    all_results = [r for rep in untraced + traced for r in rep]
    failures = [f"{r.job.key}: {p}" for r in all_results for p in r.problems]
    if trace:
        samples: dict[str, list] = {}
        for rep in traced:
            layers = layer_metrics([r.trace or _EMPTY_TRACE for r in rep])
            for metric, value in layers.items():
                samples.setdefault(metric, []).append(value)
        metrics = {m: statistics.median(v) for m, v in samples.items()}
        metrics["trace.overhead_ratio"] = (
            end_to_end(traced)["wall_s"] / end_to_end(untraced)["wall_s"]
        )
    else:
        metrics = end_to_end(untraced)
    job_walls = {
        ("warm " if rs[0].job.warm else "") + rs[0].job.key: [r.wall_s for r in rs]
        for rs in zip(*untraced)
    }
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "repetitions": index,
        "attempted": len(all_results),
        "failed": sum(1 for r in all_results if r.problems),
        "failures": failures[:20],
        "metrics": {m: {"value": v, "unit": unit_of(m)} for m, v in metrics.items()},
        "job_walls": job_walls,
    }


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine() -> dict:
    return {
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "loadavg": list(os.getloadavg()),
    }


def print_report(result: dict) -> None:
    print(f"# workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  repetitions {result['repetitions']}")
    print("# machine " + "  ".join(f"{k} {v}" for k, v in result["meta"].items()))
    for key, walls in result["job_walls"].items():
        print(f"#   {statistics.median(walls):8.3f} s  {key}")
    for metric, m in result["metrics"].items():
        print(f"{metric:34s} {m['value']:14.6g} {m['unit']}")
    rate = result["failed"] / result["attempted"]
    print(f"{'error_rate':34s} {rate:14.6g} ratio  "
          f"({result['failed']} of {result['attempted']} jobs)")
    for line in result["failures"]:
        print(f"  FAILED {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path,
                        help="append a full JSON record per workload to this file")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "picodim" / "cli.py").is_file():
        print(f"picodim sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    meta = machine()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=WORK_DIR))
    # bytecode goes to the run's own directory whatever the caller's
    # settings, so every job after the warm-up loads compiled modules
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(run_dir / "pycache"))
    results = []
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                  env, run_dir,
                                  started if len(names) == 1 else time.monotonic())
            result["meta"] = meta
            print_report(result)
            if args.out is not None:
                with args.out.open("a") as fh:
                    fh.write(json.dumps(result) + "\n")
            results.append(result)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{m}": v
                   for r in results for m, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
