"""Self-tests of the comparison rule (no benchmark jobs are run).

    python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from compare import compare, machines, verdict  # noqa: E402

BASE = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]


def paired(change):
    return list(zip(BASE, change))


def test_gain_needs_nine_of_ten_wins_and_a_shift_beyond_the_iqr():
    change = [x - 1.0 for x in BASE]
    assert verdict(BASE, change, paired(change), "lower", 0.1) == "gain"


def test_eight_wins_of_ten_is_not_a_gain():
    change = [x - 1.0 for x in BASE[:8]] + [x + 0.1 for x in BASE[8:]]
    assert verdict(BASE, change, paired(change), "lower", 0.1) == "unchanged"


def test_shift_inside_the_base_iqr_is_not_a_gain():
    change = [x - 0.01 for x in BASE]  # wins every pair, moves less than q3 - q1
    assert verdict(BASE, change, paired(change), "lower", 0.1) == "unchanged"


def test_worse_beyond_the_bound_is_a_regression():
    change = [x * 1.2 for x in BASE]
    assert verdict(BASE, change, paired(change), "lower", 0.1) == "regression"
    assert verdict(BASE, change, paired(change), "lower", 0.25) == "unchanged"


def test_higher_is_better_flips_the_direction():
    change = [x * 1.2 for x in BASE]
    assert verdict(BASE, change, paired(change), "higher", 0.1) == "gain"


def test_spread_beyond_the_bound_is_unresolved():
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict(noisy, BASE, paired(noisy), "lower", 0.1) == "unresolved"


def test_every_run_better_overrides_the_spread():
    noisy = [5.0, 6.0, 5.5, 5.2, 6.5, 5.0, 6.0, 5.5, 5.2, 6.5]
    assert verdict(BASE, noisy, paired(noisy), "lower", 0.1) == "gain"


def test_metric_without_bound_is_only_marked_on_gain():
    change = [x * 1.5 for x in BASE]
    assert verdict(BASE, change, paired(change), "lower", None) == "-"


def record(seed, value, cpu="cpu-a"):
    return {
        "workload": "w", "trace": 0, "seed": seed,
        "metrics": {"wall_s": {"value": value, "unit": "s"}},
        "meta": {"cpu": cpu, "nproc": 2, "python": "3.11"},
    }


def test_compare_pairs_runs_by_seed_and_flags_machines():
    spec = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower",
                            "bound": 0.1}], "per_layer": []}
    base = [record(s, v) for s, v in enumerate(BASE)]
    change = [record(s, v - 2.0, cpu="cpu-b") for s, v in enumerate(BASE)]
    (row,) = compare(base, change, spec)
    assert (row["metric"], row["workload"]) == ("wall_s", "w")
    assert (row["wins"], row["pairs"], row["verdict"]) == (10, 10, "gain")
    assert len(machines(base) | machines(change)) == 2
