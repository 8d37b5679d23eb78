"""Command-line surface: algebra ingestion, dispatch, report emission.

Exit codes: 0 success, 2 usage/malformed input, 3 hypothesis failure,
4 budget exceeded, 5 internal invariant violation.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .errors import (
    BudgetExceededError,
    HypothesisFailure,
    InternalInvariantError,
    MalformedInputError,
)
from .evaluation import (
    DEFAULT_TUPLE_BUDGET,
    CodimEngine,
    CocharacterTable,
    ExactMode,
    SampledMode,
)
from .exponent import (
    QPolySpec,
    find_lower_witness,
    growth_report,
    pi_exponent_candidate,
    verify_upper,
)
from .liealg import (
    CATALOG_NAMES,
    LieAlgebra,
    analyze,
    catalog_algebra,
    from_json_dict,
    to_json_dict,
)

SCHEMA_VERSION = 1

# The algorithm behind each exact answer that is cached.  Exact
# provenance and cache keys carry it with the library version, so a
# changed algorithm never replays a result its predecessor computed.
ALGORITHMS = {
    "codim": "multihomogeneous-ranks",
    "cocharacter": "multihomogeneous-ranks",
}


# the commands that read --mode; the others never sample
SAMPLING_COMMANDS = {"codim", "cocharacter", "capelli", "verify-upper", "growth"}


@dataclass(frozen=True)
class RunConfig:  # the global options of one run, defaults in GLOBAL_DEFAULTS
    mode: str  # exact | sampled
    seed: int
    tuple_budget: int
    sample_count: int
    output_format: str  # json | csv | text

    def __post_init__(self):
        if self.tuple_budget < 1 or self.sample_count < 1:
            raise MalformedInputError("budget and samples must be positive")

    def eval_mode(self):
        if self.mode == "exact":
            return ExactMode()
        if self.mode == "sampled":
            return SampledMode(count=self.sample_count, seed=self.seed)
        raise MalformedInputError(f"unknown mode {self.mode!r}")

    def provenance(self, command: str) -> dict:
        mode = self.mode if command in SAMPLING_COMMANDS else "exact"
        out = {
            "version": __version__,
            "mode": mode,
            "seed": self.seed,
            "tuple_budget": self.tuple_budget,
            "sample_count": self.sample_count,
        }
        if command in ALGORITHMS and mode == "exact":
            out["algorithm"] = ALGORITHMS[command]
        return out


class ResultStore:
    """Append-only JSON-lines cache keyed by (algebra, operation, params)."""

    def __init__(self, path: Path | None):
        self.path = path
        self._entries: dict[str, dict] = {}
        if path is not None and path.exists():
            for line in path.read_text(errors="replace").splitlines():
                try:
                    entry = json.loads(line)
                    if entry["v"] == SCHEMA_VERSION:
                        self._entries[entry["key"]] = dict(entry["result"])
                except (ValueError, TypeError, KeyError):
                    continue  # a blank or corrupt line is a cache miss

    @staticmethod
    def key(algebra: LieAlgebra, operation: str, params: dict) -> str:
        payload = json.dumps(
            {
                "algebra": to_json_dict(algebra),
                "op": operation,
                "algorithm": ALGORITHMS[operation],
                "version": __version__,
                "params": params,
                "v": SCHEMA_VERSION,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def get(self, key: str):
        return self._entries.get(key)

    def put(self, key: str, result) -> None:
        self._entries[key] = result
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a") as fh:
                fh.write(
                    json.dumps({"v": SCHEMA_VERSION, "key": key, "result": result})
                    + "\n"
                )


def load_algebra(source: str) -> LieAlgebra:
    """Catalog name or path to a JSON structure-constant file."""
    try:
        return catalog_algebra(source)
    except MalformedInputError:
        pass
    path = Path(source)
    if not path.exists():
        raise MalformedInputError(
            f"{source!r} is neither a catalog name nor an existing file"
        )
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"{source}: invalid JSON: {exc}") from exc
    return from_json_dict(data)


def _cocharacter_payload(table: CocharacterTable) -> dict:
    return {
        "n": table.n,
        "rows": [
            {
                "partition": list(r.shape.parts),
                "multiplicity": r.multiplicity,
                "degree": r.degree,
            }
            for r in table.rows
        ],
        "colength": table.colength,
        "codimension": table.codimension_sum,
    }


def _emit(payload: dict, config: RunConfig, out, command: str) -> None:
    payload = dict(payload)
    payload["provenance"] = config.provenance(command)
    if config.output_format == "json":
        out.write(json.dumps(payload, indent=2, default=str) + "\n")
    elif config.output_format == "csv":
        out.write(_to_csv(payload))
    else:
        _emit_text(payload, out)


def _to_csv(payload: dict) -> str:
    buf = io.StringIO()
    rows = payload.get("rows")
    if isinstance(rows, list) and rows and isinstance(rows[0], dict):
        header = list(rows[0].keys())
        buf.write(",".join(header) + "\n")
        for row in rows:
            buf.write(
                ",".join(_csv_cell(row.get(h)) for h in header) + "\n"
            )
    else:
        for k, v in payload.items():
            if k == "provenance":
                continue
            buf.write(f"{k},{_csv_cell(v)}\n")
    return buf.getvalue()


def _csv_cell(value) -> str:
    if isinstance(value, list):
        return '"' + " ".join(str(v) for v in value) + '"'
    return str(value)


def _emit_text(payload: dict, out, indent: int = 0) -> None:
    pad = "  " * indent
    for k, v in payload.items():
        if k == "provenance":
            continue
        if isinstance(v, dict):
            out.write(f"{pad}{k}:\n")
            _emit_text(v, out, indent + 1)
        elif isinstance(v, list) and v and isinstance(v[0], dict):
            out.write(f"{pad}{k}:\n")
            for row in v:
                out.write(
                    pad + "  " + "  ".join(f"{kk}={vv}" for kk, vv in row.items()) + "\n"
                )
        else:
            out.write(f"{pad}{k}: {v}\n")


def _structure_payload(algebra: LieAlgebra) -> dict:
    report = analyze(algebra)
    return {
        "dim": algebra.dim,
        "nilradical_dim": report.nilradical.dim,
        "nilpotency_class": report.nil_class,
        "quotient_dim": report.quotient_dim,
        "component_dims": [c.dim for c in report.components],
    }


GLOBAL_DEFAULTS = {
    "mode": "exact",
    "seed": 0,
    "budget": DEFAULT_TUPLE_BUDGET,
    "samples": 1000,
    "format": "json",
    "out": None,
    "cache": None,
    "no_cache": False,
}


def _global_options() -> argparse.ArgumentParser:
    # SUPPRESS defaults so flags work both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--mode", choices=["exact", "sampled"])
    common.add_argument("--seed", type=int,
                        help="random seed of sampled mode")
    common.add_argument("--budget", type=int,
                        help="max generic evaluation points of exact "
                        "evaluation (xi-monomials, summed over the contents "
                        "mu; dim(L)^n basis tuples at mu = 1^n)")
    common.add_argument("--samples", type=int,
                        help="sample count for sampled mode")
    common.add_argument("--format", choices=["json", "csv", "text"])
    common.add_argument("--out", type=str, help="write report to file")
    common.add_argument("--cache", type=str, help="JSON-lines result cache path")
    common.add_argument("--no-cache", action="store_true")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _global_options()
    parser = argparse.ArgumentParser(
        prog="picodim",
        parents=[common],
        description=(
            "Exact polynomial-identity invariants of finite-dimensional "
            "Lie algebras: codimensions, cocharacters, Capelli checks and "
            "the integer exponent candidate"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("catalog", parents=[common], help="list built-in algebras")

    for name, needs_n in [
        ("validate", False),
        ("analyze", False),
        ("exponent", False),
        ("codim", True),
        ("cocharacter", True),
    ]:
        p = sub.add_parser(name, parents=[common])
        p.add_argument("algebra")
        if needs_n:
            p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("capelli", parents=[common])
    p.add_argument("algebra")
    p.add_argument("--t", type=int, required=True, help="alternating set size")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("verify-upper", parents=[common])
    p.add_argument("algebra")
    p.add_argument("--r", type=int, default=None, help="set size (default d+1)")
    p.add_argument("--k", type=int, default=None, help="set count (default nil class)")
    p.add_argument("--n", type=int, default=None, help="degree (default r*k)")

    p = sub.add_parser("find-witness", parents=[common])
    p.add_argument("algebra")
    p.add_argument("--r", type=int, default=None, help="set size (default d)")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--max-n", type=int, default=None)

    p = sub.add_parser("growth", parents=[common])
    p.add_argument("algebra")
    p.add_argument("--max-n", type=int, required=True)
    return parser


def _default_cache_path() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or str(Path.home() / ".cache")
    return Path(base) / "picodim" / "results.jsonl"


def run(argv=None, stdout=None) -> int:
    stdout = stdout or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    for attr, default in GLOBAL_DEFAULTS.items():
        if not hasattr(args, attr):
            setattr(args, attr, default)
    out = stdout
    close_out = False
    try:
        config = RunConfig(args.mode, args.seed, args.budget, args.samples, args.format)
        if args.out:
            try:
                out = open(args.out, "w")
            except OSError as exc:
                raise MalformedInputError(
                    f"cannot write {args.out}: {exc.strerror}"
                ) from exc
            close_out = True
        payload = _dispatch(args, config)
        _emit(payload, config, out, args.command)
        return 0
    except MalformedInputError as exc:
        _emit_error(stdout, "malformed-input", exc)
        return 2
    except HypothesisFailure as exc:
        _emit_error(stdout, "hypothesis-failure", exc)
        return 3
    except BudgetExceededError as exc:
        _emit_error(stdout, "budget-exceeded", exc)
        return 4
    except InternalInvariantError as exc:
        _emit_error(stdout, "internal-invariant-violation", exc)
        return 5
    finally:
        if close_out:
            out.close()


def _emit_error(stream, kind: str, exc: Exception) -> None:
    stream.write(json.dumps({"error": kind, "message": str(exc)}) + "\n")


def _cached(store, config: RunConfig, algebra: LieAlgebra, operation: str,
            n: int, compute) -> dict:
    """Exact results are cached under (algebra, operation, n): the seed
    cannot change them.  Sampled results are never cached."""
    if store is None or config.mode != "exact":
        return compute()
    key = ResultStore.key(algebra, operation, {"n": n})
    cached = store.get(key)
    if cached is not None:
        return {**cached, "cache": "hit"}
    result = compute()
    store.put(key, result)
    return result


def _dispatch(args, config: RunConfig) -> dict:
    if args.command == "catalog":
        return {
            "algebras": [
                {"name": name, "dim": catalog_algebra(name).dim}
                for name in CATALOG_NAMES
            ]
        }

    algebra = load_algebra(args.algebra)
    store = None
    if not args.no_cache:
        store = ResultStore(Path(args.cache) if args.cache else _default_cache_path())

    if args.command == "validate":
        return {"valid": True, "algebra": to_json_dict(algebra)}

    if args.command == "analyze":
        return _structure_payload(algebra)

    if args.command == "exponent":
        report = pi_exponent_candidate(algebra)
        return {
            "d": report.d,
            "maximizing_components": list(report.maximizing_subset),
            "witness_product": report.witness_str(),
            "structure": {
                "nilradical_dim": report.structure.nilradical.dim,
                "nilpotency_class": report.structure.nil_class,
                "component_dims": [c.dim for c in report.structure.components],
            },
        }

    engine = CodimEngine(algebra, tuple_budget=config.tuple_budget)
    mode = config.eval_mode()

    if args.command == "codim":
        return _cached(store, config, algebra, "codim", args.n, lambda: {
            "n": args.n,
            "codimension": engine.codimension(args.n, mode),
            "certainty": "exact" if config.mode == "exact" else "lower-bound",
        })

    if args.command == "cocharacter":
        return _cached(store, config, algebra, "cocharacter", args.n, lambda:
                       _cocharacter_payload(engine.cocharacter(args.n, mode)))

    if args.command == "capelli":
        holds = engine.capelli_holds(args.t, args.n, mode)
        return {
            "rank": args.t,
            "n": args.n,
            "holds": holds,
            "verdict": "exhaustive" if config.mode == "exact" else "not-refuted"
            if holds
            else "refuted",
        }

    if args.command == "verify-upper":
        report = pi_exponent_candidate(algebra)
        r = args.r if args.r is not None else report.d + 1
        k = args.k if args.k is not None else report.structure.nil_class
        n = args.n if args.n is not None else r * k
        spec = QPolySpec(r, k, n)
        verdict = verify_upper(algebra, spec, mode=mode, engine=engine)
        return {
            "r": r,
            "k": k,
            "n": n,
            "passed": verdict.passed,
            "checks": verdict.checks,
            "coverage": "full" if verdict.exhaustive else "sampled",
            "counterexample": str(verdict.counterexample)
            if verdict.counterexample
            else None,
        }

    if args.command == "find-witness":
        report = pi_exponent_candidate(algebra)
        r = args.r if args.r is not None else report.d
        if r < 1:
            raise HypothesisFailure("exponent candidate is 0: no witness search")
        n_max = args.max_n if args.max_n is not None else r * args.k + 2
        witness = find_lower_witness(algebra, r, args.k, n_max, engine=engine)
        if witness is None:
            return {"found": False, "note": "search exhausted; inconclusive"}
        return {
            "found": True,
            "degree": witness.spec.n,
            "witness": witness.describe(algebra),
        }

    if args.command == "growth":
        report = growth_report(algebra, args.max_n, mode, engine=engine)
        return {
            "rows": [
                {
                    "n": row.n,
                    "codimension": row.codimension,
                    "colength": row.colength,
                    "nth_root": round(row.nth_root, 6),
                }
                for row in report.rows
            ],
            "d": report.d,
            "note": report.note,
        }

    raise MalformedInputError(f"unknown command {args.command!r}")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
