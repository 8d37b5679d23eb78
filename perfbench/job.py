"""Run one picodim CLI job in a fresh interpreter, as a user would.

    python3 perfbench/job.py RECORD TRACE -- picodim-args...

Writes RECORD (JSON) when the job ends: the CLOCK_MONOTONIC time at
which `picodim.cli.run` was entered, so run.py can measure set-up
from process spawn, and with TRACE=1 the per-layer trace report.  The
exit code is the CLI's.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    record_path, traced, sep, *args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: job.py RECORD TRACE -- picodim-args...")
    from picodim import cli

    tracer = None
    if traced == "1":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    entered = []
    run = cli.run

    def timed_run(argv=None, stdout=None):
        entered.append(time.monotonic())
        return run(argv, stdout)

    cli.run = timed_run
    sys.argv = ["picodim", *args]
    try:
        cli.main()
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    record = {"run_entered": entered[0] if entered else None}
    if tracer is not None:
        record["trace"] = tracer.report()
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
