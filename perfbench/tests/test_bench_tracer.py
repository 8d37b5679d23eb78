"""Self-tests of span accounting and per-layer aggregation."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from tracer import Tracer, layer_metrics  # noqa: E402


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    ticks = iter(range(100))
    tracer.clock = lambda: next(ticks)
    inner = tracer.span("evaluation.insert", lambda: None)
    outer = tracer.span("evaluation.columns", lambda: (inner(), inner()))
    outer()
    calls, total, self_time = tracer.spans["evaluation.columns"]
    assert (calls, total) == (1, 5)  # start 0; children 1-2 and 3-4; end 5
    assert self_time == 5 - 2
    assert tracer.spans["evaluation.insert"] == [2, 2, 2]


def test_layer_metrics_sums_jobs_and_takes_ratios_of_sums():
    job = {
        "spans": {"evaluation.columns": [1, 2.0, 0.5], "cli.run": [1, 3.0, 0.25]},
        "counts": {"evaluation.word_calls": 10, "evaluation.word_cache_hits": 9,
                   "evaluation.columns_distinct": 4, "evaluation.columns_kept": 1},
        "word_cache_entries": 7,
    }
    other = dict(job, word_cache_entries=3)
    m = layer_metrics([job, other])
    assert m["evaluation.columns_s"] == 4.0
    assert m["evaluation.dedup_s"] == 1.0
    assert m["cli.self_s"] == 0.5
    assert m["evaluation.word_cache_hit_rate"] == 0.9
    assert m["evaluation.insert_useful_ratio"] == 0.25
    assert m["evaluation.word_cache_entries"] == 7


def test_reported_metrics_match_benchmark_json():
    import json

    from run import JobResult, end_to_end, unit_of
    from workloads import Job

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    empty = {"spans": {}, "counts": {}, "word_cache_entries": 0}
    per_layer = set(layer_metrics([empty])) | {"trace.overhead_ratio"}
    assert per_layer == {m["name"] for m in spec["per_layer"]}
    rep = [JobResult(Job(("codim", "sl2", "--n", "3"), heavy=True), 1.0, 0.1, 20.0)]
    assert set(end_to_end([rep])) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert unit_of(m["name"]) == m["unit"], m["name"]
