import csv
import doctest
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from picodim import CodimEngine, __version__, catalog_algebra, cli, liealg, to_json_dict
from picodim.cli import load_algebra, run
from picodim.errors import (
    BudgetExceededError,
    HypothesisFailure,
    InternalInvariantError,
    MalformedInputError,
    NotSplitError,
)

from helpers import sl2_over_sqrt2, unsliced_cocharacter

ROOT = Path(__file__).resolve().parent.parent


def invoke(*argv):
    out = io.StringIO()
    code = run(list(argv), stdout=out)
    return code, out.getvalue()


def invoke_json(*argv):
    code, text = invoke(*argv)
    return code, json.loads(text)


def test_catalog_lists_builtin_algebras():
    code, payload = invoke_json("catalog")
    assert code == 0
    entries = {e["name"]: e["dim"] for e in payload["algebras"]}
    assert len(entries) == 8
    assert entries["sl2"] == 3
    assert entries["sl2_plus_sl2"] == 6


def test_exponent_sl2():
    code, payload = invoke_json("exponent", "sl2", "--no-cache")
    assert code == 0
    assert payload["d"] == 3
    assert payload["structure"]["component_dims"] == [3]


def test_codim_heisenberg_degree_four():
    code, payload = invoke_json("codim", "heisenberg3", "--n", "4", "--no-cache")
    assert code == 0
    assert payload["codimension"] == 0
    assert payload["certainty"] == "exact"


def test_cocharacter_command():
    code, payload = invoke_json("cocharacter", "sl2", "--n", "3", "--no-cache")
    assert code == 0
    mults = {tuple(r["partition"]): r["multiplicity"] for r in payload["rows"]}
    assert mults[(2, 1)] == 1
    assert payload["codimension"] == 2


def test_capelli_command():
    code, payload = invoke_json("capelli", "sl2", "--t", "4", "--n", "4",
                                "--no-cache")
    assert code == 0
    assert payload["holds"] is True
    assert payload["verdict"] == "exhaustive"


def test_capelli_verdict_reads_the_coverage():
    # 24 = 4! orderings are the full pass, which the verdict says
    for samples, verdict in (("24", "exhaustive"), ("23", "not-refuted")):
        code, payload = invoke_json("capelli", "gl2", "--t", "4", "--n", "5",
                                    "--mode", "sampled", "--samples", samples,
                                    "--no-cache")
        assert code == 0 and payload["holds"] is True
        assert payload["verdict"] == verdict, samples


def test_capelli_scan_is_bounded_by_budget_checks():
    # abelian(2) has no hit, so the scan would run all 7! = 5040 words;
    # 2^8 generic points fit both budgets
    code, payload = invoke_json("capelli", "abelian(2)", "--t", "1", "--n", "8",
                                "--budget", "300", "--no-cache")
    assert code == 4 and payload["error"] == "budget-exceeded"
    assert "5040" in payload["message"]
    code, payload = invoke_json("capelli", "abelian(2)", "--t", "1", "--n", "8",
                                "--budget", "6000", "--no-cache")
    assert code == 0 and payload["holds"] is True


def test_questions_that_need_no_check_answer_past_any_bound():
    # t, r > dim L: every alternation vanishes, and no dim(L)^n bound
    # refuses the answer; a rank-3 violation hits in its first check
    for argv, key, value in (
        (("capelli", "sl2", "--t", "4", "--n", "13"), "holds", True),
        (("capelli", "sl2", "--t", "3", "--n", "13"), "holds", False),
        (("find-witness", "sl2", "--r", "4", "--max-n", "13"), "found", False),
        # C(2000, 4) * 1999! checks, past Python's int-to-str limit
        (("verify-upper", "sl2", "--k", "1", "--n", "2000"), "checks",
         "at least 10^5744"),
    ):
        code, payload = invoke_json(*argv, "--no-cache")
        assert code == 0 and payload[key] == value, argv


def test_find_witness_says_when_no_degree_can_have_one():
    code, payload = invoke_json("find-witness", "sl2", "--r", "4", "--no-cache")
    assert code == 0 and payload["found"] is False
    assert payload["note"] == "no witness: r > dim L, so every alternation vanishes"
    code, payload = invoke_json("find-witness", "heisenberg3", "--r", "1",
                                "--k", "3", "--max-n", "4", "--no-cache")
    assert code == 0 and payload["note"] == "search exhausted; inconclusive"


def test_verify_upper_and_find_witness_commands():
    code, payload = invoke_json("verify-upper", "sl2", "--no-cache")
    assert code == 0
    assert payload["passed"] is True and payload["coverage"] == "full"
    code, payload = invoke_json("find-witness", "sl2", "--max-n", "5",
                                "--no-cache")
    assert code == 0
    assert payload["found"] is True and payload["degree"] <= 5


def test_verify_upper_sl2_natural_defaults_pass_exactly():
    # the defaults are the paper's parameters: r = d + 1, k = nil class
    code, payload = invoke_json("verify-upper", "sl2_natural", "--no-cache")
    assert code == 0
    assert {key: payload[key] for key in ("r", "k", "n", "passed", "checks",
                                          "coverage", "counterexample")} == {
        "r": 4, "k": 2, "n": 8, "passed": True, "checks": 176400,
        "coverage": "full", "counterexample": None,
    }


def test_growth_command_csv_format():
    code, text = invoke("growth", "sl2", "--max-n", "3", "--format", "csv",
                        "--no-cache")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0].startswith("n,codimension,colength")
    assert lines[1].startswith("1,1,1")


# a run of every command on sl2, and the reports with a failing check,
# a fraction-free witness product and a bracket list of lists
REPORT_RUNS = (
    ("catalog",), ("validate", "sl2"), ("analyze", "sl2"), ("exponent", "sl2"),
    ("codim", "sl2", "--n", "4"), ("cocharacter", "sl2", "--n", "4"),
    ("capelli", "sl2", "--t", "4", "--n", "4"), ("verify-upper", "sl2"),
    ("find-witness", "sl2", "--max-n", "5"), ("growth", "sl2", "--max-n", "4"),
    ("exponent", "sl2_natural"), ("verify-upper", "sl2", "--r", "3", "--k", "1", "--n", "4"),
    ("validate", "heisenberg3"),
)


def _json_fields(payload, prefix=""):
    """(dotted key, value) of each field of a JSON report, provenance skipped."""
    for k, v in payload.items():
        if k == "provenance":
            continue
        if isinstance(v, dict):
            yield from _json_fields(v, f"{prefix}{k}.")
        else:
            yield prefix + k, v


def _expected_cell(value) -> str:
    if not isinstance(value, list):
        return str(value)
    if any(isinstance(x, list) for x in value):
        return json.dumps(value, separators=(",", ":"))
    return " ".join(str(x) for x in value)


def test_csv_and_text_reports_walk_the_json_fields():
    # csv.reader splits a report into rows of one width, the header's for
    # a table and 2 otherwise, and each cell is what its JSON value
    # prints as; text gives the same cells as key: cell and k=v lines
    assert {argv[0] for argv in REPORT_RUNS} == set(cli.COMMANDS)
    for argv in REPORT_RUNS:
        _, payload = invoke_json(*argv, "--no-cache")
        pairs, tables, lines = [], [], []
        for key, value in _json_fields(payload):
            if isinstance(value, list) and value and isinstance(value[0], dict):
                header = list(value[0])
                cells = [[_expected_cell(obj[h]) for h in header] for obj in value]
                tables += [header] + cells
                lines += [f"{key}:"] + ["  " + "  ".join(f"{h}={c}" for h, c in zip(header, row))
                                        for row in cells]
            else:
                pairs.append([key, _expected_cell(value)])
                lines.append(f"{key}: {_expected_cell(value)}")
        code, text = invoke(*argv, "--no-cache", "--format", "csv")
        assert code == 0 and list(csv.reader(io.StringIO(text))) == (tables or pairs), argv
        code, text = invoke(*argv, "--no-cache", "--format", "text")
        assert code == 0 and text == "\n".join(lines) + "\n", argv
    # nested keys are dotted, and the failing check's counterexample,
    # commas and all, reads back whole
    assert "structure.component_dims: 3\n" in invoke(
        "exponent", "sl2_natural", "--no-cache", "--format", "text")[1]
    _, text = invoke(*REPORT_RUNS[-2], "--no-cache", "--format", "csv")
    assert dict(csv.reader(io.StringIO(text)))["counterexample"] == (
        "Alt[{x1,x2,x3}] x1(x2(x3(x4))) at (x1=e, x2=h, x3=f, x4=e) = -8*e")


def test_growth_budget_bounds_the_whole_table_first(monkeypatch):
    # degrees 1..6 of sl2 need 189 points together, so 188 ranks nothing
    def forbidden(*args):
        raise AssertionError("growth ranked a content over budget")

    argv = ("growth", "sl2", "--max-n", "6", "--no-cache")
    with monkeypatch.context() as patch:
        patch.setattr(CodimEngine, "_space", forbidden)
        code, payload = invoke_json(*argv, "--budget", "188")
    assert code == 4 and payload["error"] == "budget-exceeded"
    assert "needs 189 " in payload["message"]
    code, payload = invoke_json(*argv, "--budget", "189")
    assert code == 0
    assert [row["codimension"] for row in payload["rows"]] == [1, 1, 2, 6, 14, 36]


def test_reader_closing_stdout_early_ends_the_run_quietly():
    # the ~400 KB report outgrows the pipe, so the write meets the closed
    # pipe whatever the timing
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "picodim.cli", "cocharacter", "abelian(1)", "--n", "30",
         "--format", "text", "--no-cache"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"n: 30\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert (proc.wait(timeout=60), stderr) == (0, b"")


def test_validate_catalog_name():
    code, payload = invoke_json("validate", "sl2", "--no-cache")
    assert code == 0
    assert payload["valid"] is True
    assert payload["algebra"]["dim"] == 3


def test_load_algebra_from_file(tmp_path):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps({"dim": 2, "brackets": {"1,2": [["1", 2]]}}))
    algebra = load_algebra(str(path))
    assert algebra.table == catalog_algebra("solvable2").table


def test_load_algebra_round_trip(tmp_path):
    for name in ("sl2", "sl2_natural", "gl2"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(to_json_dict(catalog_algebra(name))))
        assert load_algebra(str(path)).table == catalog_algebra(name).table


def test_jacobi_violating_file_names_the_triple(tmp_path):
    path = tmp_path / "bad.json"
    bad = {
        "dim": 3,
        "basis": ["e", "h", "f"],
        "brackets": {
            "1,2": [["-2", 1]],
            "1,3": [["1", 2]],
            "2,3": [["2", 3]],
        },
    }
    path.write_text(json.dumps(bad))
    code, payload = invoke_json("validate", str(path), "--no-cache")
    assert code == 2
    assert payload["error"] == "malformed-input"
    assert "('e', 'h', 'f')" in payload["message"]


def test_unknown_algebra_is_usage_error():
    code, payload = invoke_json("analyze", "no-such-thing", "--no-cache")
    assert code == 2
    assert payload["error"] == "malformed-input"


def test_bad_catalog_argument_keeps_the_catalog_reason():
    for argv, reason in (
        (("analyze", "abelian(x)"), "bad abelian size in 'abelian(x)'"),
        (("codim", "abelian(0)", "--n", "2"), "abelian(k) needs k >= 1"),
        (("validate", "abelian(1001)"), "abelian(k) needs k <= 1000"),
        (("analyze", "no-such-thing"), "unknown catalog algebra 'no-such-thing'"),
    ):
        code, payload = invoke_json(*argv, "--no-cache")
        assert code == 2
        assert payload["error"] == "malformed-input"
        assert "neither a catalog name nor an existing file" in payload["message"]
        assert reason in payload["message"]


def test_unreadable_algebra_path_is_malformed_input(tmp_path):
    # a directory and a file that is not UTF-8 exit 2, naming the path
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    for source in (str(tmp_path), str(bad)):
        code, payload = invoke_json("analyze", source, "--no-cache")
        assert code == 2
        assert payload["error"] == "malformed-input"
        assert source in payload["message"]


def test_hypothesis_failure_exit_code():
    code, payload = invoke_json("analyze", "solvable2", "--no-cache")
    assert code == 3
    assert payload["error"] == "hypothesis-failure"


def test_find_witness_explicit_rank_below_one_is_malformed_input():
    # only a default r = d(L) = 0 fails the hypotheses; an explicit r < 1
    # is bad input, whatever d(L) is
    for r in ("0", "-2"):
        code, payload = invoke_json("find-witness", "sl2", "--r", r, "--no-cache")
        assert (code, payload) == (
            2, {"error": "malformed-input", "message": "need r >= 1"})
    for name in ("heisenberg3", "abelian3"):
        code, payload = invoke_json("find-witness", name, "--no-cache")
        assert (code, payload) == (3, {
            "error": "hypothesis-failure",
            "message": "exponent candidate is 0: no witness search",
        })


def test_non_split_component_exit_code(tmp_path):
    path = tmp_path / "sl2_sqrt2.json"
    path.write_text(json.dumps(to_json_dict(sl2_over_sqrt2())))
    code, payload = invoke_json("exponent", str(path), "--no-cache")
    assert code == 3
    assert payload["error"] == "hypothesis-failure"
    assert "does not split" in payload["message"]


def test_budget_exceeded_exit_code():
    for argv in (
        ("codim", "sl2", "--n", "5", "--budget", "10"),
        # 57 generic evaluation points, x_1 in the 1-dim Cartan slice
        ("cocharacter", "sl2", "--n", "5", "--budget", "10"),
        # one check of each walks more signed-pass states than the budget,
        # in either mode, though its population passes Python's 4300-digit
        # int-to-str limit
        ("capelli", "sl2", "--t", "2", "--n", "40", "--mode", "sampled",
         "--samples", "10"),
        ("capelli", "sl2", "--t", "2", "--n", "10000"),
        ("capelli", "sl2", "--t", "2", "--n", "2000", "--mode", "sampled",
         "--samples", "5"),
        # an alternation scan refuses in two ways: a check walks more
        # states than the budget, or the scan runs out of checks
        ("verify-upper", "sl2", "--r", "3", "--k", "1", "--n", "5",
         "--budget", "10"),
        ("find-witness", "sl2", "--budget", "10"),
        ("find-witness", "abelian(2)", "--r", "1", "--k", "2", "--max-n", "9",
         "--budget", "300"),
    ):
        code, payload = invoke_json(*argv, "--no-cache")
        assert code == 4
        assert payload["error"] == "budget-exceeded"


def test_global_flags_accepted_before_subcommand():
    # each flag must reach the run, not just parse: a subcommand's
    # default for the same option must not overwrite it
    code, text = invoke("--format", "text", "catalog")
    assert code == 0
    assert text.startswith("algebras:")
    code, payload = invoke_json("--budget", "5", "codim", "sl2", "--n", "3",
                                "--no-cache")
    assert code == 4
    assert payload["error"] == "budget-exceeded"
    assert "budget is 5" in payload["message"]
    code, payload = invoke_json("--mode", "sampled", "--seed", "4", "codim", "sl2",
                                "--n", "3", "--no-cache")
    assert code == 0
    assert payload["provenance"]["mode"] == "sampled"
    assert payload["provenance"]["seed"] == 4


def test_global_flags_bind_after_the_command_options(capsys):
    # the global flags are read from the whole command line first, so
    # one after a command's own options reaches the run too
    code, payload = invoke_json("codim", "sl2", "--n", "3", "--budget", "5",
                                "--no-cache")
    assert code == 4
    assert "budget is 5" in payload["message"]
    code, text = invoke("codim", "sl2", "--n", "3", "--format", "text",
                        "--no-cache")
    assert code == 0 and text.startswith("n: 3\n")
    assert invoke("codim", "--help")[0] == 0
    help_text = capsys.readouterr().out
    assert "--budget" in help_text and "--cache" in help_text


GLOBAL_FLAGS = ("--mode", "--seed", "--budget", "--samples", "--format",
                "--out", "--cache", "--no-cache")


def test_help_lists_every_command_and_global_flag(capsys):
    assert invoke("--help")[0] == 0
    help_text = capsys.readouterr().out
    for name in (*cli.COMMANDS, *GLOBAL_FLAGS):
        assert name in help_text, name


def test_command_help_lists_its_options_and_the_global_flags(capsys):
    assert invoke("capelli", "--help")[0] == 0
    help_text = capsys.readouterr().out
    assert "alternating set size" in help_text and "--budget" in help_text


def test_missing_or_unknown_command_is_usage_error():
    for argv in ((), ("nosuch", "sl2"), ("--no-cache",)):
        code, payload = invoke_json(*argv)
        assert code == 2 and payload["error"] == "malformed-input", argv
        assert all(name in payload["message"] for name in cli.COMMANDS), argv


def test_one_run_builds_two_parsers(monkeypatch):
    # the global flags' parser and the one command's parser
    built = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    for argv in (("analyze", "sl2"), ("--format", "text", "catalog"),
                 ("codim", "sl2", "--n", "3", "--budget", "5"), ("nosuch",)):
        built.clear()
        invoke(*argv, "--no-cache")
        assert len(built) == 2, (argv, built)


def test_readme_command_block_lists_the_commands():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1]
    block = section.split("```", 1)[0]
    assert [line.split()[1] for line in block.splitlines()] == list(cli.COMMANDS)


def test_readme_python_example_runs():
    # the closing fence is not read as expected output, as it is by
    # `python -m doctest README.md`
    readme = (ROOT / "README.md").read_text()
    blocks = [part.split("```", 1)[0] for part in readme.split("```python\n")[1:]]
    assert blocks
    for block in blocks:
        test = doctest.DocTestParser().get_doctest(block, {}, "README.md", "README.md", 0)
        out = io.StringIO()
        result = doctest.DocTestRunner().run(test, out=out.write)
        assert result.attempted and not result.failed, out.getvalue()


def test_global_flags_must_be_spelled_out():
    # abbreviations are off, so the command's --n is never read as
    # --no-cache; the price is that --budg is a usage error
    for argv in (("codim", "sl2", "--n", "3", "--budg", "5"),
                 ("--budg", "5", "codim", "sl2", "--n", "3")):
        code, payload = invoke_json(*argv, "--no-cache")
        assert code == 2, argv
        assert payload["error"] == "malformed-input", argv


def test_explicit_parameters_need_no_exponent_candidate():
    # solvable2 is not almost nilpotent, so only a default r or k, which
    # needs d(L), fails the hypotheses
    code, payload = invoke_json("verify-upper", "solvable2", "--r", "2",
                                "--k", "1", "--n", "3", "--no-cache")
    assert code == 0
    assert payload["passed"] is False and payload["checks"] == 1
    # a counterexample reads as find-witness prints a witness
    assert payload["counterexample"] == (
        "Alt[{x1,x2}] x1(x2(x3)) at (x1=e, x2=f, x3=e) = -f")
    code, payload = invoke_json("find-witness", "solvable2", "--r", "1",
                                "--max-n", "3", "--no-cache")
    assert code == 0
    assert payload["degree"] == 1
    assert payload["witness"] == "Alt[{x1}] x1 at (x1=e) = e"
    for argv in (("find-witness", "solvable2"), ("exponent", "solvable2"),
                 ("verify-upper", "solvable2", "--r", "2")):
        code, payload = invoke_json(*argv, "--no-cache")
        assert code == 3 and payload["error"] == "hypothesis-failure", argv


def test_find_witness_below_degree_rk_is_malformed_input():
    code, payload = invoke_json("find-witness", "sl2", "--max-n", "2",
                                "--no-cache")
    assert (code, payload) == (2, {
        "error": "malformed-input",
        "message": "max n 2 is below r*k = 3: no degree to search",
    })
    # growth has no degree to tabulate below n = 1
    for max_n in ("0", "-1"):
        code, payload = invoke_json("growth", "sl2", "--max-n", max_n, "--no-cache")
        assert (code, payload) == (2, {
            "error": "malformed-input",
            "message": f"max n {max_n} is below 1: no degree to tabulate",
        })


def test_basis_names_must_be_distinct_strings(tmp_path):
    for basis in ([1, 2, 3], ["a", "a", "b"]):
        path = tmp_path / "basis.json"
        path.write_text(json.dumps({"dim": 3, "basis": basis}))
        code, payload = invoke_json("analyze", str(path), "--no-cache")
        assert code == 2 and payload["error"] == "malformed-input", basis


def test_algebra_file_dim_is_capped(tmp_path):
    # one past the cap is refused before any table is built; the cap
    # itself loads
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dim": liealg.MAX_DIM + 1}))
    code, payload = invoke_json("validate", str(path), "--no-cache")
    assert (code, payload) == (2, {
        "error": "malformed-input",
        "message": f"'dim' is {liealg.MAX_DIM + 1}, above the cap of 1000",
    })
    assert liealg.from_json_dict({"dim": liealg.MAX_DIM}).dim == 1000


def test_validate_large_abelian_file_is_fast(tmp_path):
    # the Jacobi check visits only triples through a nonzero bracket, so
    # an algebra with no brackets costs nothing to check, at any dim
    path = tmp_path / "abelian400.json"
    path.write_text(json.dumps({"dim": 400}))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "picodim.cli", "validate", str(path), "--no-cache"],
        capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["algebra"]["dim"] == 400


def test_determinism_byte_identical_reports():
    for argv in (
        ("exponent", "sl2_natural", "--no-cache"),
        ("cocharacter", "sl2", "--n", "4", "--no-cache"),
        ("growth", "gl2", "--max-n", "3", "--no-cache", "--seed", "7"),
    ):
        _, first = invoke(*argv)
        _, second = invoke(*argv)
        assert first == second


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "report.json"
    code, text = invoke("codim", "sl2", "--n", "3", "--no-cache", "--out",
                        str(target))
    assert code == 0
    assert json.loads(target.read_text())["codimension"] == 2


def test_cache_round_trip(tmp_path):
    cache = tmp_path / "cache.jsonl"
    code, fresh = invoke_json("codim", "sl2", "--n", "3", "--cache", str(cache))
    assert code == 0 and "cache" not in fresh
    code, cached = invoke_json("codim", "sl2", "--n", "3", "--cache", str(cache))
    assert code == 0 and cached.pop("cache") == "hit"
    fresh.pop("provenance")
    cached.pop("provenance")
    assert cached == fresh


def test_cache_coherence_random_probes(tmp_path):
    import random

    cache = tmp_path / "cache.jsonl"
    rng = random.Random(2)
    probes = [(rng.choice(["sl2", "gl2", "heisenberg3"]), rng.randint(1, 4))
              for _ in range(20)]
    for name, n in probes:
        _, first = invoke_json("codim", name, "--n", str(n), "--cache", str(cache))
        _, again = invoke_json("codim", name, "--n", str(n), "--cache", str(cache))
        assert again["codimension"] == first["codimension"]


def test_cache_hit_across_seeds_in_exact_mode(tmp_path):
    cache = tmp_path / "cache.jsonl"
    code, first = invoke_json("codim", "sl2", "--n", "4", "--seed", "1",
                              "--cache", str(cache))
    assert code == 0 and "cache" not in first
    code, second = invoke_json("codim", "sl2", "--n", "4", "--seed", "2",
                               "--cache", str(cache))
    assert code == 0 and second["cache"] == "hit"
    assert second["codimension"] == first["codimension"]


def test_corrupt_cache_line_is_a_miss(tmp_path):
    cache = tmp_path / "cache.jsonl"
    invoke_json("codim", "sl2", "--n", "3", "--cache", str(cache))
    lines = cache.read_text().splitlines()
    corrupt = ["{not json", "[1, 2]", lines[0][: len(lines[0]) // 2]]
    cache.write_text("\n".join(corrupt) + "\n")
    code, payload = invoke_json("codim", "sl2", "--n", "3", "--cache", str(cache))
    assert code == 0 and "cache" not in payload
    assert payload["codimension"] == 2
    code, payload = invoke_json("codim", "sl2", "--n", "3", "--cache", str(cache))
    assert code == 0 and payload["cache"] == "hit"


def test_out_into_missing_directory_is_malformed_input(tmp_path):
    target = tmp_path / "missing" / "report.json"
    code, payload = invoke_json("codim", "sl2", "--n", "3", "--no-cache",
                                "--out", str(target))
    assert code == 2
    assert payload["error"] == "malformed-input"
    assert not target.exists()


def test_each_error_class_prints_its_kind_and_exit_code(monkeypatch):
    # exit 5 has no input that reaches it, so every class is raised here
    cases = [
        (MalformedInputError, "malformed-input", 2),
        (HypothesisFailure, "hypothesis-failure", 3),
        (NotSplitError, "hypothesis-failure", 3),
        (BudgetExceededError, "budget-exceeded", 4),
        (InternalInvariantError, "internal-invariant-violation", 5),
    ]
    for cls, kind, code in cases:
        def fail(args):
            raise cls("boom")

        monkeypatch.setattr(cli, "_dispatch", fail)
        expected = json.dumps({"error": kind, "message": "boom"}) + "\n"
        assert invoke("analyze", "sl2", "--no-cache") == (code, expected), cls


def test_unusable_cache_is_malformed_input(tmp_path):
    # the cache is opened only by the commands that read it, and an
    # OSError on it names the path instead of raising
    regular = tmp_path / "file"
    regular.write_text("")
    for cache in (tmp_path, regular / "x"):
        code, payload = invoke_json("codim", "sl2", "--n", "3", "--cache", str(cache))
        assert code == 2, cache
        assert payload["error"] == "malformed-input", cache
        assert str(cache) in payload["message"], cache
    code, payload = invoke_json("analyze", "sl2", "--cache", str(tmp_path))
    assert code == 0 and payload["dim"] == 3


def test_unusable_cache_fails_before_computing(tmp_path, monkeypatch):
    # a cache path under a regular file is refused before the engine runs
    def forbidden(*args, **kwargs):
        raise AssertionError("computed before checking the cache path")

    monkeypatch.setattr(cli.CodimEngine, "cocharacter", forbidden)
    regular = tmp_path / "file"
    regular.write_text("")
    for command in ("codim", "cocharacter"):
        code, payload = invoke_json(command, "sl2_natural", "--n", "7",
                                    "--cache", str(regular / "x"))
        assert code == 2, command
        assert payload["error"] == "malformed-input", command


def test_cli_import_creates_no_dataclasses_and_loads_no_hashlib():
    # every CLI run is a fresh interpreter, so what `import picodim.cli`
    # loads is paid by each run; -S keeps site hooks out of the result
    script = ("import picodim.cli, sys; "
              "print(sorted({'dataclasses', 'inspect', 'hashlib', 'csv'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cached_run_loads_no_hashlib(tmp_path):
    # the cache key is the canonical JSON itself, so a cached run, a
    # miss that writes and a hit that replays, never loads OpenSSL
    script = ("import io, sys; from picodim.cli import run; "
              f"argv = ['codim', 'sl2', '--n', '3', '--cache', {str(tmp_path / 'c.jsonl')!r}]; "
              "print([run(argv, io.StringIO()) for _ in range(2)], "
              "sorted({'hashlib', 'csv'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0] []"
    assert len((tmp_path / "c.jsonl").read_text().splitlines()) == 1


def test_removed_options_are_usage_errors():
    # usage errors print JSON too; the last case leaves out the required
    # --n, and the two before it fail run's check of the values
    for argv in (("--n", "3", "--mode", "modular"), ("--n", "3", "--prime-bits", "31"),
                 ("--n", "3", "--jobs", "2"), ("--n", "3", "--budget", "0"),
                 ("--n", "3", "--samples", "0"), ()):
        code, payload = invoke_json("codim", "sl2", "--format", "json",
                                    "--no-cache", *argv)
        assert code == 2, argv
        assert payload["error"] == "malformed-input", argv
    assert invoke("codim", "--help")[0] == 0


def _stale_key(operation: str, **fields) -> str:
    return json.dumps(
        {"algebra": to_json_dict(catalog_algebra("sl2")), "op": operation,
         "params": {"n": 3}, "v": 1, **fields},
        sort_keys=True,
    )


def test_cache_entry_of_another_algorithm_misses(tmp_path):
    # wrong answers under keys of earlier algorithms: a cocharacter key
    # without the library version and algorithm id, as written before
    # either entered the key, and a codim key of the multilinear column
    # rank that exact codim used before multihomogeneous ranks, and keys
    # of the unsliced multihomogeneous ranks and of the sliced ranks
    # that skipped only exact duplicate columns
    cache = tmp_path / "cache.jsonl"
    stale = [
        (_stale_key("cocharacter"),
         {"n": 3, "rows": [], "colength": 99, "codimension": 99}),
        (_stale_key("codim", algorithm="multilinear-column-rank", version=__version__),
         {"n": 3, "codimension": 99, "certainty": "exact"}),
    ] + [
        (_stale_key(command, algorithm=algorithm, version=__version__),
         {"n": 3, "rows": [], "colength": 99, "codimension": 99, "certainty": "exact"})
        for command in ("cocharacter", "codim")
        for algorithm in ("multihomogeneous-ranks", "cartan-slice-ranks")
    ]
    cache.write_text("".join(
        json.dumps({"v": 1, "key": key, "result": result}) + "\n"
        for key, result in stale
    ))
    for command in ("cocharacter", "codim"):
        code, payload = invoke_json(command, "sl2", "--n", "3", "--cache", str(cache))
        assert code == 0 and "cache" not in payload
        assert payload["codimension"] == 2
        assert payload["provenance"]["version"] == __version__
        assert payload["provenance"]["algorithm"] == "cartan-slice-primitive-columns"
        code, payload = invoke_json(command, "sl2", "--n", "3", "--cache", str(cache))
        assert code == 0 and payload["cache"] == "hit"
        assert payload["codimension"] == 2


def test_sampled_provenance_names_no_exact_algorithm():
    code, payload = invoke_json("codim", "sl2", "--n", "3", "--mode", "sampled",
                                "--no-cache")
    assert code == 0
    assert payload["provenance"]["version"] == __version__
    assert "algorithm" not in payload["provenance"]


def test_commands_that_never_sample_report_exact_mode():
    for argv in (("catalog",), ("validate", "sl2"), ("analyze", "sl2"),
                 ("exponent", "sl2"), ("find-witness", "sl2", "--max-n", "4"),
                 ("cocharacter", "sl2", "--n", "4"), ("growth", "sl2", "--max-n", "4")):
        code, payload = invoke_json(*argv, "--mode", "sampled", "--no-cache")
        assert code == 0, argv
        assert payload["provenance"]["mode"] == "exact", argv
    code, payload = invoke_json("codim", "sl2", "--n", "3", "--mode", "sampled",
                                "--no-cache")
    assert payload["provenance"]["mode"] == "sampled"


def test_sampled_mode_gives_exact_cocharacter_and_growth(tmp_path):
    # m_lambda and l_n have no sampled lower bound: --mode sampled runs
    # the exact kernel, labelled, cached and budgeted as exact
    cache = tmp_path / "cache.jsonl"
    argv = ("cocharacter", "sl2_natural", "--n", "5")
    code, exact = invoke_json(*argv, "--no-cache")
    assert code == 0
    code, fresh = invoke_json(*argv, "--mode", "sampled", "--cache", str(cache))
    assert code == 0 and "cache" not in fresh
    assert fresh == exact
    assert fresh["provenance"]["algorithm"] == "cartan-slice-primitive-columns"
    code, replay = invoke_json(*argv, "--mode", "sampled", "--cache", str(cache))
    assert code == 0 and replay.pop("cache") == "hit"
    assert replay == exact
    code, payload = invoke_json("cocharacter", "sl2_adjoint", "--n", "9",
                                "--mode", "sampled", "--samples", "10",
                                "--no-cache")
    assert code == 4 and payload["error"] == "budget-exceeded"
    assert "868588" in payload["message"]
    growth = ("growth", "sl2", "--max-n", "5", "--no-cache")
    assert invoke(*growth, "--mode", "sampled") == invoke(*growth)


def test_cocharacter_sl2_adjoint_degree_seven_fits_the_default_budget():
    # 59,356 generic evaluation points with x_1 in the 2-dim Cartan slice
    # and no content 1^7 (540,618 unsliced); the unsliced oracle, which
    # has no budget, gives the same table
    code, payload = invoke_json("cocharacter", "sl2_adjoint", "--n", "7", "--no-cache")
    assert code == 0
    assert (payload["codimension"], payload["colength"]) == (90, 5)
    oracle = unsliced_cocharacter(CodimEngine(catalog_algebra("sl2_adjoint")), 7)
    assert {tuple(r["partition"]): r["multiplicity"] for r in payload["rows"]} == oracle


def test_commands_that_rank_nothing_never_build_the_slice(monkeypatch):
    # alternation scans, sampled columns and structure analysis keep to
    # the basis brackets
    def forbidden(engine):
        raise AssertionError("the Cartan slice was built")

    monkeypatch.setattr(CodimEngine, "_select_slice", forbidden)
    for argv in (
        ("capelli", "sl2", "--t", "4", "--n", "5"),
        ("capelli", "sl2", "--t", "3", "--n", "5"),
        ("capelli", "gl2", "--t", "3", "--n", "5", "--mode", "sampled"),
        ("verify-upper", "sl2_adjoint", "--k", "1", "--n", "5"),
        ("verify-upper", "gl2", "--mode", "sampled", "--samples", "30"),
        ("find-witness", "sl2_natural", "--k", "2", "--max-n", "6"),
        ("analyze", "sl2_adjoint"),
        ("exponent", "sl2_plus_sl2"),
        ("codim", "sl2_natural", "--n", "5", "--mode", "sampled", "--samples", "50"),
    ):
        assert invoke(*argv, "--no-cache")[0] == 0, argv


_scalar = (st.none() | st.booleans() | st.integers(-2, 5) | st.text(max_size=3)
           | st.floats(-10, 10, allow_nan=False))
_junk = st.recursive(
    _scalar,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_entry = st.tuples(
    st.sampled_from(["1", "-2", "1/2", "x", "1/0", 1]) | _junk,
    st.integers(0, 5) | _junk,
).map(list) | _junk
_key = st.tuples(st.integers(0, 5), st.integers(0, 5)).map("{0[0]},{0[1]}".format)
_algebra_json = st.fixed_dictionaries({"dim": st.integers(0, 4) | _junk}, optional={
    "basis": st.lists(st.text(max_size=2), max_size=5) | _junk,
    "brackets": st.dictionaries(_key | st.text(max_size=4),
                                st.lists(_entry, max_size=3) | _junk,
                                max_size=4) | _junk,
}) | _junk
_small = st.integers(-1, 5).map(str)
_options = {  # per command: (option, value) pairs it may get
    "catalog": [],
    "validate": [], "analyze": [], "exponent": [],
    "codim": [("--n", _small)],
    "cocharacter": [("--n", _small)],
    "capelli": [("--t", _small), ("--n", _small)],
    "verify-upper": [("--r", _small), ("--k", _small), ("--n", _small)],
    "find-witness": [("--r", _small), ("--k", _small), ("--max-n", _small)],
    "growth": [("--max-n", _small)],
}
_required = {"--n", "--t", "--max-n"}  # passed unless omitted, so n stays <= 5


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), algebra=_algebra_json)
@example(data=None, algebra={"dim": 2, "brackets": [1]})
@example(data=None, algebra={"dim": 2, "brackets": {"1,2": 5}})
@example(data=None, algebra={"dim": 2, "brackets": {"1,2": [["1", "x"]]}})
def test_cli_fuzz_exits_cleanly_with_json(tmp_path, data, algebra):
    # random argv over random algebra JSON files, small catalog algebras,
    # a directory and a file that is not UTF-8: every run exits 0, 2, 3,
    # 4 or 5 and prints JSON
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(algebra))
    unreadable = tmp_path / "utf16.json"
    unreadable.write_bytes(b"\xff\xfe{}")
    if data is None:  # an explicit example: validate the file
        command, source, argv = "validate", str(path), []
    else:
        command = data.draw(st.sampled_from(sorted(_options)))
        source = data.draw(st.just(str(path)) | st.sampled_from(
            ["sl2", "gl2", "heisenberg3", "solvable2", "abelian(2)",
             str(tmp_path), str(unreadable)]
        ))
        # now and then leave out a required option: a usage error
        omit = data.draw(st.sampled_from(
            [None] * 4 + [o for o, _ in _options[command] if o in _required]
        ))
        argv = []
        for option, values in _options[command]:
            if option == omit:
                continue
            if option in _required or data.draw(st.booleans()):
                argv += [option, data.draw(values)]
        argv += ["--mode", data.draw(st.sampled_from(["exact", "sampled"])),
                 "--seed", str(data.draw(st.integers(-3, 3))),
                 "--budget", str(data.draw(st.integers(1, 10**4))),
                 "--samples", str(data.draw(st.integers(1, 30)))]
    argv = [command] + ([] if command == "catalog" else [source]) + argv
    code, text = invoke(*argv, "--format", "json", "--no-cache")
    assert code in (0, 2, 3, 4, 5), argv
    json.loads(text)
