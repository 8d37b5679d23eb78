"""Per-layer tracing of one picodim job, installed from the benchmark's
own files so that src/ stays untouched.

`install` wraps the public entry points of each module under every name
a caller looks them up by (`act` in both `picodim.evaluation` and
`picodim.symgroup`, `permute` in `symgroup` and `freelie`, ...).  Each
wrapper opens a span on an in-memory stack; when it closes, its time is
added to its name's total and to the parent span's child time, so the
self time of a span is its duration minus the spans it caused.  Hot
functions get aggregated spans only; nothing is written until the job
ends.  `layer_metrics` turns the job reports of one benchmark
repetition into the per-layer metrics.
"""

from __future__ import annotations

import sys
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.stack: list[list] = []  # open spans: [name, child seconds]
        self.spans: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.counts: Counter = Counter()
        self.evaluators: list = []

    def span(self, name: str, fn, after=None):
        """`fn` wrapped in a span; `after(args, result)` may count outcomes."""
        stack, spans, clock = self.stack, self.spans, self.clock

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                agg = spans.setdefault(name, [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def report(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "word_cache_entries": sum(
                len(getattr(ev, "_cache", ())) for ev in self.evaluators
            ),
        }


def _picodim_modules() -> list:
    return [
        m for name, m in list(sys.modules.items())
        if name == "picodim" or name.startswith("picodim.")
    ]


def _patch_everywhere(module, attr: str, make_wrapper) -> None:
    """Replace `module.attr` in every picodim module that imported it."""
    original = getattr(module, attr)
    wrapped = make_wrapper(original)
    for m in _picodim_modules():
        if getattr(m, attr, None) is original:
            setattr(m, attr, wrapped)


def install(tracer: Tracer) -> None:
    from picodim import cli, evaluation, exponent, freelie, liealg, linalg, symgroup

    counts, stack = tracer.counts, tracer.stack

    def fn(module, attr, name, after=None):
        _patch_everywhere(module, attr, lambda f: tracer.span(name, f, after))

    def method(cls, attr, name, after=None):
        setattr(cls, attr, tracer.span(name, getattr(cls, attr), after))

    # entry points the CLI dispatches to, so cli.run's self time is
    # parsing, dispatch and emission only
    fn(cli, "run", "cli.run")
    fn(cli, "load_algebra", "liealg.load")
    fn(liealg, "analyze", "liealg.analyze")
    fn(exponent, "pi_exponent_candidate", "exponent.candidate")
    fn(exponent, "verify_upper", "exponent.verify_upper")
    fn(exponent, "find_lower_witness", "exponent.find_witness")
    fn(exponent, "growth_report", "exponent.growth")
    fn(exponent, "height_spans", "exponent.height_spans")
    engine = evaluation.CodimEngine
    method(engine, "codimension", "evaluation.codimension")
    method(engine, "cocharacter", "evaluation.cocharacter")
    method(engine, "capelli_holds", "evaluation.capelli")
    method(engine, "exhaustive_columns", "evaluation.columns")
    method(engine, "sampled_columns", "evaluation.columns")
    method(engine, "pairing", "evaluation.pairing")
    engine._tuple_columns = tracer.count("evaluation.tuples", engine._tuple_columns)

    # the word-value cache: time and count only the outermost call of
    # the recursion, and whether that call found its value cached
    evaluator = evaluation.Evaluator
    word_value = evaluator.word_value
    timed_word = tracer.span("evaluation.word_eval", word_value)
    active = False

    def traced_word_value(ev, seq):
        nonlocal active
        if active:
            return word_value(ev, seq)
        counts["evaluation.word_calls"] += 1
        if seq in getattr(ev, "_cache", ()):
            counts["evaluation.word_cache_hits"] += 1
        active = True
        try:
            return timed_word(ev, seq)
        finally:
            active = False

    evaluator.word_value = traced_word_value
    evaluator_init = evaluator.__init__

    def traced_evaluator_init(ev, *args, **kwargs):
        evaluator_init(ev, *args, **kwargs)
        tracer.evaluators.append(ev)

    evaluator.__init__ = traced_evaluator_init

    # column selection inserts count as elimination; the cocharacter's
    # image spaces use the same class and are kept apart
    insert = evaluation._ColumnSpace.insert
    column_insert = tracer.span("evaluation.insert", insert)
    image_insert = tracer.span("evaluation.image_insert", insert)

    def traced_insert(space, col):
        if not (stack and stack[-1][0] == "evaluation.columns"):
            return image_insert(space, col)
        kept = column_insert(space, col)
        counts["evaluation.columns_distinct"] += 1
        counts["evaluation.columns_kept"] += bool(kept)
        return kept

    evaluation._ColumnSpace.insert = traced_insert

    fn(symgroup, "act", "symgroup.act")
    fn(symgroup, "symmetrizer", "symgroup.symmetrizer")
    fn(freelie, "permute", "freelie.permute")
    fn(freelie, "alternate", "freelie.alternate")

    def count_nonzero(args, found):
        counts["exponent.alt_nonzero"] += found is not None

    method(exponent._AlternatedChecker, "find_nonzero", "exponent.alt_check",
           count_nonzero)
    fn(linalg, "rref", "linalg.rref")

    store = cli.ResultStore
    method(store, "__init__", "cli.cache_io")
    method(store, "put", "cli.cache_io")
    store.key = staticmethod(tracer.span("cli.cache_io", store.key))

    def count_lookup(args, result):
        counts["cli.cache_lookups"] += 1
        counts["cli.cache_hits"] += result is not None

    method(store, "get", "cli.cache_io", count_lookup)


# (metric, span name, which span field it reads)
_TOTAL, _SELF, _CALLS = 1, 2, 0
_SPAN_METRICS = [
    ("evaluation.columns_s", "evaluation.columns", _TOTAL),
    ("evaluation.word_eval_s", "evaluation.word_eval", _TOTAL),
    ("evaluation.dedup_s", "evaluation.columns", _SELF),
    ("evaluation.insert_s", "evaluation.insert", _TOTAL),
    ("evaluation.pairing_s", "evaluation.pairing", _TOTAL),
    ("evaluation.pairing_calls", "evaluation.pairing", _CALLS),
    ("symgroup.act_s", "symgroup.act", _TOTAL),
    ("symgroup.act_calls", "symgroup.act", _CALLS),
    ("symgroup.symmetrizer_s", "symgroup.symmetrizer", _TOTAL),
    ("freelie.permute_s", "freelie.permute", _TOTAL),
    ("freelie.permute_calls", "freelie.permute", _CALLS),
    ("freelie.alternate_s", "freelie.alternate", _TOTAL),
    ("freelie.alternate_calls", "freelie.alternate", _CALLS),
    ("exponent.alt_check_s", "exponent.alt_check", _TOTAL),
    ("exponent.alt_checks", "exponent.alt_check", _CALLS),
    ("exponent.height_spans_s", "exponent.height_spans", _TOTAL),
    ("liealg.load_s", "liealg.load", _TOTAL),
    ("liealg.analyze_s", "liealg.analyze", _TOTAL),
    ("liealg.analyze_calls", "liealg.analyze", _CALLS),
    ("linalg.rref_s", "linalg.rref", _TOTAL),
    ("linalg.rref_calls", "linalg.rref", _CALLS),
    ("cli.self_s", "cli.run", _SELF),
    ("cli.cache_io_s", "cli.cache_io", _TOTAL),
]
_COUNT_METRICS = [
    "evaluation.tuples",
    "evaluation.word_calls",
    "evaluation.columns_distinct",
    "evaluation.columns_kept",
    "exponent.alt_nonzero",
    "cli.cache_lookups",
    "cli.cache_hits",
]


def layer_metrics(reports: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one repetition: times and counts summed over
    its jobs, the largest word cache of any job, and ratios of sums."""
    spans: dict[str, list] = {}
    counts: Counter = Counter()
    for r in reports:
        for name, agg in r["spans"].items():
            total = spans.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                total[i] += agg[i]
        counts.update(r["counts"])
    out = {
        metric: spans.get(name, [0, 0.0, 0.0])[field]
        for metric, name, field in _SPAN_METRICS
    }
    out.update({name: counts[name] for name in _COUNT_METRICS})
    out["evaluation.word_cache_entries"] = max(
        (r["word_cache_entries"] for r in reports), default=0
    )
    calls = counts["evaluation.word_calls"]
    out["evaluation.word_cache_hit_rate"] = (
        counts["evaluation.word_cache_hits"] / calls if calls else 0.0
    )
    distinct = counts["evaluation.columns_distinct"]
    out["evaluation.insert_useful_ratio"] = (
        counts["evaluation.columns_kept"] / distinct if distinct else 0.0
    )
    return out
