import io
import json

from picodim import catalog_algebra, to_json_dict
from picodim.cli import load_algebra, run

from helpers import sl2_over_sqrt2


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


def test_verify_upper_and_find_witness_commands():
    code, payload = invoke_json("verify-upper", "sl2", "--no-cache")
    assert code == 0
    assert payload["passed"] is True and payload["coverage"] == "full"
    code, payload = invoke_json("find-witness", "sl2", "--max-n", "5",
                                "--no-cache")
    assert code == 0
    assert payload["found"] is True and payload["degree"] <= 5


def test_growth_command_csv_format():
    code, text = invoke("growth", "sl2", "--max-n", "3", "--format", "csv",
                        "--no-cache")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0].startswith("n,codimension,colength")
    assert lines[1].startswith("1,1,1")


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


def test_hypothesis_failure_exit_code():
    code, payload = invoke_json("analyze", "solvable2", "--no-cache")
    assert code == 3
    assert payload["error"] == "hypothesis-failure"


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
        # more alternations than random.sample can index
        ("capelli", "sl2", "--t", "2", "--n", "40", "--mode", "sampled",
         "--samples", "10"),
    ):
        code, payload = invoke_json(*argv, "--no-cache")
        assert code == 4
        assert payload["error"] == "budget-exceeded"


def test_global_flags_accepted_before_subcommand():
    code, text = invoke("--format", "text", "catalog")
    assert code == 0
    assert "sl2" in text


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


def test_removed_options_are_usage_errors():
    for argv in (("--mode", "modular"), ("--prime-bits", "31"), ("--jobs", "2")):
        code, _ = invoke("codim", "sl2", "--n", "3", "--no-cache", *argv)
        assert code == 2
