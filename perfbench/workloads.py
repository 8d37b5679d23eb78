"""The benchmark's workloads: fixed lists of picodim CLI jobs.

Each workload stresses a different layer, and each keeps a job that
bypasses that layer's mechanism as a control.  Heavy jobs are the
largest instances that let a run of a few tens of seconds repeat the
whole list several times on a 2-core machine; the degree-6 instances
that take 15-45 s each (sl2_natural c_6, sl2 m_lambda at n=6, Capelli
sl2 t=4 n=6) are out of reach until a later change speeds them up.
"""

from __future__ import annotations

from dataclasses import dataclass

CATALOG = (
    "abelian3",
    "heisenberg3",
    "sl2",
    "gl2",
    "sl2_plus_sl2",
    "sl2_natural",
    "sl2_adjoint",
    "solvable2",
)


@dataclass(frozen=True)
class Job:
    """One CLI invocation, without the --seed and --cache flags the
    benchmark adds."""

    args: tuple[str, ...]
    heavy: bool = False
    sampled: bool = False  # takes a seed derived from the workload seed
    warm: bool = False  # replays a cold job against the cache it wrote

    @property
    def key(self) -> str:
        return " ".join(self.args)


def _job(line: str, **kw) -> Job:
    return Job(tuple(line.split()), **kw)


def _warm_replay(jobs: list[Job]) -> list[Job]:
    """Replays every exact cached command (codim, cocharacter)."""
    return [
        Job(j.args, warm=True)
        for j in jobs
        if not j.sampled and j.args[0] in ("codim", "cocharacter")
    ]


def _codim_wall() -> list[Job]:
    cold = [
        # ~75% of the time in _ColumnSpace.insert (729 tuples, rank 36)
        _job("codim sl2 --n 6", heavy=True),
        # control: c=0, one distinct column, no elimination at all
        _job("codim heisenberg3 --n 6"),
        # 7776 tuples, rank 14: word evaluation and dedup dominate
        _job("codim sl2_adjoint --n 5"),
        _job("codim sl2_natural --n 5"),
        # the random-tuple path
        _job("codim sl2_natural --n 6 --mode sampled --samples 400", sampled=True),
    ]
    return cold + _warm_replay(cold)


def _cocharacter() -> list[Job]:
    return [
        # Young symmetrizer action dominates; columns are ~15%
        _job("cocharacter sl2_natural --n 5", heavy=True),
        _job("cocharacter sl2 --n 5"),
        # every row short-circuits on rank 0
        _job("cocharacter heisenberg3 --n 6"),
        _job("growth sl2 --max-n 5"),
        _job("cocharacter sl2_natural --n 5 --mode sampled --samples 60", sampled=True),
    ]


def _alternation() -> list[Job]:
    jobs = [
        # symbolic alternation plus pairing; t > dim L, so it holds
        _job("capelli sl2 --t 4 --n 5", heavy=True),
        _job("capelli gl2 --t 4 --n 5"),
        _job("capelli sl2 --t 3 --n 5"),
        _job("verify-upper sl2_natural --mode sampled --samples 25", sampled=True),
        _job("verify-upper gl2 --mode sampled --samples 300", sampled=True),
        _job("verify-upper sl2_adjoint --k 1 --n 5"),
        _job("find-witness sl2_natural --k 2 --max-n 8"),
    ]
    # per-job algebra set-up and structure analysis over the catalog;
    # solvable2, abelian3 and heisenberg3 are expected exit-3 cases
    for command in ("analyze", "exponent", "find-witness"):
        jobs += [_job(f"{command} {name}") for name in CATALOG]
    return jobs


WORKLOADS = {
    "codim-wall": _codim_wall(),
    "cocharacter": _cocharacter(),
    "alternation": _alternation(),
}
