import hashlib
import io
import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from picodim import __version__, catalog_algebra, to_json_dict
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
        # 324 generic evaluation points
        ("cocharacter", "sl2", "--n", "5", "--budget", "10"),
        # more alternations than random.sample can index
        ("capelli", "sl2", "--t", "2", "--n", "40", "--mode", "sampled",
         "--samples", "10"),
        # counts past Python's 4300-digit int-to-str limit: 3^10000
        # evaluation points, and over 10^5700 alternations to sample
        # from or to check against the budget
        ("capelli", "sl2", "--t", "2", "--n", "10000"),
        ("capelli", "sl2", "--t", "2", "--n", "2000", "--mode", "sampled",
         "--samples", "5"),
        ("verify-upper", "sl2", "--k", "1", "--n", "2000"),
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


def _stale_key(operation: str, **fields) -> str:
    return hashlib.sha256(json.dumps(
        {"algebra": to_json_dict(catalog_algebra("sl2")), "op": operation,
         "params": {"n": 3}, "v": 1, **fields},
        sort_keys=True,
    ).encode()).hexdigest()


def test_cache_entry_of_another_algorithm_misses(tmp_path):
    # wrong answers under keys of earlier algorithms: a cocharacter key
    # without the library version and algorithm id, as written before
    # either entered the key, and a codim key of the multilinear column
    # rank that exact codim used before multihomogeneous ranks
    cache = tmp_path / "cache.jsonl"
    stale = [
        (_stale_key("cocharacter"),
         {"n": 3, "rows": [], "colength": 99, "codimension": 99}),
        (_stale_key("codim", algorithm="multilinear-column-rank", version=__version__),
         {"n": 3, "codimension": 99, "certainty": "exact"}),
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
        assert payload["provenance"]["algorithm"] == "multihomogeneous-ranks"
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
                 ("exponent", "sl2"), ("find-witness", "sl2", "--max-n", "4")):
        code, payload = invoke_json(*argv, "--mode", "sampled", "--no-cache")
        assert code == 0, argv
        assert payload["provenance"]["mode"] == "exact", argv
    code, payload = invoke_json("codim", "sl2", "--n", "3", "--mode", "sampled",
                                "--no-cache")
    assert payload["provenance"]["mode"] == "sampled"


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
_required = {"--n", "--t", "--max-n"}  # always passed, so n stays <= 5


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), algebra=_algebra_json)
@example(data=None, algebra={"dim": 2, "brackets": [1]})
@example(data=None, algebra={"dim": 2, "brackets": {"1,2": 5}})
@example(data=None, algebra={"dim": 2, "brackets": {"1,2": [["1", "x"]]}})
def test_cli_fuzz_exits_cleanly_with_json(tmp_path, data, algebra):
    # random argv over random algebra JSON files and small catalog
    # algebras: every run exits 0, 2, 3, 4 or 5 and prints JSON
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(algebra))
    if data is None:  # an explicit example: validate the file
        command, source, argv = "validate", str(path), []
    else:
        command = data.draw(st.sampled_from(sorted(_options)))
        source = data.draw(st.just(str(path)) | st.sampled_from(
            ["sl2", "gl2", "heisenberg3", "solvable2", "abelian(2)"]
        ))
        argv = []
        for option, values in _options[command]:
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
