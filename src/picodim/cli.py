"""Command-line surface: algebra ingestion, dispatch, report emission.

Exit codes: 0 success, 2 usage/malformed input, 3 hypothesis failure,
4 budget exceeded, 5 internal invariant violation.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from pathlib import Path

from . import __version__
from .errors import (
    BudgetExceededError,
    HypothesisFailure,
    InternalInvariantError,
    MalformedInputError,
    count_text,
)
from .evaluation import (
    DEFAULT_TUPLE_BUDGET,
    CodimEngine,
    CocharacterTable,
    SampledMode,
    full_pass,
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
    "codim": "cartan-slice-primitive-columns",
    "cocharacter": "cartan-slice-primitive-columns",
}


# the commands that read --mode, where a sample is a cheaper lower bound
# or refutation; the others never sample
SAMPLING_COMMANDS = {"codim", "capelli", "verify-upper"}


def _provenance(args) -> dict:
    out = {
        "version": __version__,
        "mode": args.mode,
        "seed": args.seed,
        "tuple_budget": args.budget,
        "sample_count": args.samples,
    }
    if args.command in ALGORITHMS and args.mode == "exact":
        out["algorithm"] = ALGORITHMS[args.command]
    return out


class ResultStore:
    """Append-only JSON-lines cache keyed by (algebra, operation, params)."""

    def __init__(self, path: Path):
        self.path = path
        self._entries: dict[str, dict] = {}
        # an unusable path fails here, before any result is computed
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.exists():
            for line in path.read_text(errors="replace").splitlines():
                try:
                    entry = json.loads(line)
                    if entry["v"] == SCHEMA_VERSION:
                        self._entries[entry["key"]] = dict(entry["result"])
                except (ValueError, TypeError, KeyError):
                    continue  # a blank or corrupt line is a cache miss

    @staticmethod
    def key(algebra: LieAlgebra, operation: str, params: dict) -> str:
        """The canonical JSON of what the result depends on, used as the
        key itself: it cannot collide, and hashing it would load OpenSSL
        on every cached run."""
        return json.dumps(
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

    def get(self, key: str):
        return self._entries.get(key)

    def put(self, key: str, result) -> None:
        self._entries[key] = result
        with self.path.open("a") as fh:
            fh.write(
                json.dumps({"v": SCHEMA_VERSION, "key": key, "result": result})
                + "\n"
            )


def load_algebra(source: str) -> LieAlgebra:
    """Catalog name or path to a JSON structure-constant file."""
    try:
        return catalog_algebra(source)
    except MalformedInputError as exc:
        reason = str(exc)
    path = Path(source)
    if not path.exists():
        raise MalformedInputError(
            f"{source!r} is neither a catalog name nor an existing file ({reason})"
        )
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"{source}: invalid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedInputError(f"{source}: unreadable: {exc}") from exc
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


def _emit(payload: dict, args, out) -> None:
    """The report in one write: JSON with its provenance, or CSV or text
    from one walk of its fields."""
    if args.format == "json":
        payload = {**payload, "provenance": _provenance(args)}
        text = json.dumps(payload, indent=2, default=str) + "\n"
    elif args.format == "csv":
        import csv

        fields = list(_fields(payload))
        # a report with a table prints only its tables
        tables = [row for _, cell in fields if isinstance(cell, list) for row in cell]
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(tables or fields)
        text = buf.getvalue()
    else:
        lines = []
        for key, cell in _fields(payload):
            if isinstance(cell, list):  # a table: a k=v line per row
                lines.append(f"{key}:")
                lines += ["  " + "  ".join(map("=".join, zip(cell[0], row)))
                          for row in cell[1:]]
            else:
                lines.append(f"{key}: {cell}")
        text = "\n".join(lines) + "\n"
    out.write(text)


def _fields(payload: dict, prefix: str = ""):
    """(dotted key, cell) for each value of a report and of its nested
    objects, and (key, [header, *rows]) for a list of objects, a table."""
    for k, v in payload.items():
        if isinstance(v, dict):
            yield from _fields(v, f"{prefix}{k}.")
        elif isinstance(v, list) and v and isinstance(v[0], dict):
            header = list(v[0])
            yield prefix + k, [header] + [[_cell(row.get(h)) for h in header] for row in v]
        else:
            yield prefix + k, _cell(v)


def _cell(value) -> str:
    """A list of scalars as one space-separated cell, any other list as
    compact JSON, and a scalar as its str."""
    if not isinstance(value, list):
        return str(value)
    if any(isinstance(x, (list, dict)) for x in value):
        return json.dumps(value, separators=(",", ":"), default=str)
    return " ".join(map(str, value))


def _structure_payload(algebra: LieAlgebra) -> dict:
    report = analyze(algebra)
    return {
        "dim": algebra.dim,
        "nilradical_dim": report.nilradical.dim,
        "nilpotency_class": report.nil_class,
        "quotient_dim": report.quotient_dim,
        "component_dims": [c.dim for c in report.components],
    }


# Each command's own options, flag -> (default or REQUIRED, help); all
# take an integer.  Every command but `catalog` takes an algebra first.
REQUIRED = object()
COMMANDS = {
    "catalog": {}, "validate": {}, "analyze": {}, "exponent": {},
    "codim": {"--n": (REQUIRED, "degree")},
    "cocharacter": {"--n": (REQUIRED, "degree")},
    "capelli": {"--t": (REQUIRED, "alternating set size"),
                "--n": (REQUIRED, "degree")},
    "verify-upper": {"--r": (None, "set size (default d+1)"),
                     "--k": (None, "set count (default nil class)"),
                     "--n": (None, "degree (default r*k)")},
    "find-witness": {"--r": (None, "set size (default d)"),
                     "--k": (1, "set count"),
                     "--max-n": (None, "largest degree searched (default r*k+2)")},
    "growth": {"--max-n": (REQUIRED, "largest degree")},
}


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, so `run` reports them as malformed input."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise MalformedInputError(f"{self.prog}: {message}")


def _global_options() -> argparse.ArgumentParser:
    """The flags every command reads, from the whole command line before
    the command parser sees the rest, so they bind before or after the
    command; abbreviations are off, or `--n` would read as `--no-cache`."""
    options = _Parser(prog="picodim", add_help=False, allow_abbrev=False)
    options.add_argument("--mode", choices=["exact", "sampled"], default="exact")
    options.add_argument("--seed", type=int, default=0,
                         help="random seed of sampled mode")
    options.add_argument("--budget", type=int, default=DEFAULT_TUPLE_BUDGET,
                         help="max generic evaluation points of exact "
                         "evaluation (xi-monomials, summed over the ranked "
                         "contents mu with x_1 in the Cartan slice); max "
                         "checks an alternation scan runs without a hit, and "
                         "max signed-pass states of each check")
    options.add_argument("--samples", type=int, default=1000,
                         help="sample count for sampled mode")
    options.add_argument("--format", choices=["json", "csv", "text"], default="json")
    options.add_argument("--out", help="write report to file")
    options.add_argument("--cache", help="JSON-lines result cache path")
    options.add_argument("--no-cache", action="store_true")
    return options


def build_parser(options: argparse.ArgumentParser,
                 command: str | None) -> argparse.ArgumentParser:
    """The parser of `command`'s own arguments, with the global `options`
    as parent, so its help lists them.  For anything but a command it
    parses the command name itself, and its help lists the commands."""
    parser = _Parser(
        prog="picodim",
        parents=[options],
        allow_abbrev=False,
        description=(
            "Exact polynomial-identity invariants of finite-dimensional "
            "Lie algebras: codimensions, cocharacters, Capelli checks and "
            "the integer exponent candidate"
        ),
    )
    if command not in COMMANDS:
        # the metavar, not the dest, names the commands when none is given
        parser.add_argument("command", choices=COMMANDS,
                            metavar="{" + ",".join(COMMANDS) + "}",
                            help="picodim COMMAND --help lists its options")
        return parser
    parser.prog += " " + command
    if command != "catalog":
        parser.add_argument("algebra")
    for flag, (default, text) in COMMANDS[command].items():
        parser.add_argument(flag, type=int, default=default, help=text,
                            required=default is REQUIRED)
    return parser


def _default_cache_path() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or str(Path.home() / ".cache")
    return Path(base) / "picodim" / "results.jsonl"


def run(argv=None, stdout=None) -> int:
    stdout = stdout or sys.stdout
    out = stdout
    try:
        options = _global_options()
        args, rest = options.parse_known_args(argv)
        args.command = rest.pop(0) if rest and rest[0] in COMMANDS else None
        build_parser(options, args.command).parse_args(rest, namespace=args)
        if args.budget < 1 or args.samples < 1:
            raise MalformedInputError("budget and samples must be positive")
        if args.command not in SAMPLING_COMMANDS:
            args.mode = "exact"
        if args.out:
            try:
                out = open(args.out, "w")
            except OSError as exc:
                raise MalformedInputError(
                    f"cannot write {args.out}: {exc.strerror}"
                ) from exc
        payload = _dispatch(args)
        _emit(payload, args, out)
        return 0
    except SystemExit as exc:  # --help
        return 2 if exc.code not in (0, None) else 0
    except (MalformedInputError, HypothesisFailure, BudgetExceededError,
            InternalInvariantError) as exc:
        stdout.write(json.dumps({"error": exc.kind, "message": str(exc)}) + "\n")
        return exc.exit_code
    finally:
        if out is not stdout:
            out.close()


def _cached(args, algebra: LieAlgebra, compute) -> dict:
    """Exact results are cached under (algebra, command, n): the seed
    cannot change them.  Sampled results are never cached; a command
    that never samples is exact under any --mode.  The cache file is
    opened only here, and an OSError on it is malformed input."""
    if args.no_cache or args.mode != "exact":
        return compute()
    path = Path(args.cache) if args.cache else _default_cache_path()
    key = ResultStore.key(algebra, args.command, {"n": args.n})
    try:
        store = ResultStore(path)
        cached = store.get(key)
        if cached is not None:
            return {**cached, "cache": "hit"}
        result = compute()  # does no I/O, so each OSError is the store's
        store.put(key, result)
        return result
    except OSError as exc:
        raise MalformedInputError(f"cannot use cache {path}: {exc.strerror}") from exc


def _dispatch(args) -> dict:
    if args.command == "catalog":
        return {
            "algebras": [
                {"name": name, "dim": catalog_algebra(name).dim}
                for name in CATALOG_NAMES
            ]
        }

    algebra = load_algebra(args.algebra)

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

    engine = CodimEngine(algebra, tuple_budget=args.budget)
    mode = (SampledMode(count=args.samples, seed=args.seed)
            if args.mode == "sampled" else None)

    if args.command == "codim":
        return _cached(args, algebra, lambda: {
            "n": args.n,
            "codimension": engine.codimension(args.n, mode),
            "certainty": "exact" if args.mode == "exact" else "lower-bound",
        })

    if args.command == "cocharacter":
        return _cached(args, algebra, lambda:
                       _cocharacter_payload(engine.cocharacter(args.n)))

    if args.command == "capelli":
        holds = engine.capelli_holds(args.t, args.n, mode)
        return {
            "rank": args.t,
            "n": args.n,
            "holds": holds,
            "verdict": "exhaustive" if full_pass(args.n, mode) else "not-refuted"
            if holds
            else "refuted",
        }

    if args.command == "verify-upper":
        r, k = args.r, args.k
        if r is None or k is None:
            report = pi_exponent_candidate(algebra)
            r = report.d + 1 if r is None else r
            k = report.structure.nil_class if k is None else k
        n = args.n if args.n is not None else r * k
        spec = QPolySpec(r, k, n)
        verdict = verify_upper(algebra, spec, mode=mode, engine=engine)
        return {
            "r": r,
            "k": k,
            "n": n,
            "passed": verdict.passed,
            "checks": verdict.checks if verdict.checks < 10**30
            else count_text(verdict.checks),
            "coverage": "full" if verdict.exhaustive else "sampled",
            "counterexample": None if verdict.passed
            else verdict.counterexample.describe(algebra),
        }

    if args.command == "find-witness":
        r = args.r
        if r is None:
            r = pi_exponent_candidate(algebra).d
            if r < 1:
                raise HypothesisFailure("exponent candidate is 0: no witness search")
        n_max = args.max_n if args.max_n is not None else r * args.k + 2
        witness = find_lower_witness(algebra, r, args.k, n_max, engine=engine)
        if witness is None:
            note = ("no witness: r > dim L, so every alternation vanishes"
                    if r > algebra.dim else "search exhausted; inconclusive")
            return {"found": False, "note": note}
        return {
            "found": True,
            "degree": witness.spec.n,
            "witness": witness.describe(algebra),
        }

    if args.command == "growth":
        report = growth_report(algebra, args.max_n, engine=engine)
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
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: end quietly, with stdout on
        # devnull so that the interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    main()
