import pytest

from picodim import (
    CodimEngine,
    ExactMode,
    QPolySpec,
    SampledMode,
    analyze,
    catalog_algebra,
    change_basis,
    find_lower_witness,
    growth_report,
    height_spans,
    pi_exponent_candidate,
    verify_upper,
)
from picodim.errors import (
    BudgetExceededError,
    HypothesisFailure,
    MalformedInputError,
)
from picodim.evaluation import evaluate
from picodim.exponent import eval_product
from picodim.linalg import Subspace, is_zero_vec

import random

from helpers import bracketing_enumeration_d, random_invertible

ANALYZABLE = (
    "abelian3",
    "heisenberg3",
    "sl2",
    "gl2",
    "sl2_plus_sl2",
    "sl2_natural",
    "sl2_adjoint",
)


def test_height_spans_heisenberg_has_only_the_empty_subset():
    table = height_spans(analyze(catalog_algebra("heisenberg3")))
    assert set(table.spans) == {frozenset()}
    assert table.spans[frozenset()] == Subspace.full(3)
    assert table.component_dims == ()


def test_height_spans_commuting_ideals_have_zero_mixed_span():
    table = height_spans(analyze(catalog_algebra("sl2_plus_sl2")))
    both = frozenset({0, 1})
    assert both not in table.spans or table.spans[both].is_zero()
    assert table.height(frozenset({0})) == 3
    assert table.height(both) == 6


def test_height_spans_single_component_nonzero():
    table = height_spans(analyze(catalog_algebra("sl2_natural")))
    assert not table.spans[frozenset({0})].is_zero()


def test_height_span_generators_reevaluate_exactly():
    # fixpoint soundness: every stored generator product re-evaluates to
    # its stored vector, which lies in the subset's span
    for name in ANALYZABLE:
        algebra = catalog_algebra(name)
        table = height_spans(analyze(algebra))
        for subset, gens in table.generators.items():
            span = table.spans[subset]
            for vector, expr in gens:
                assert eval_product(algebra, expr) == vector
                assert span.contains(vector)


def test_exponent_candidate_values():
    expected = {
        "abelian3": 0,
        "heisenberg3": 0,
        "sl2": 3,
        "gl2": 3,
        "sl2_plus_sl2": 3,
        "sl2_natural": 3,
        "sl2_adjoint": 3,
    }
    for name, d in expected.items():
        report = pi_exponent_candidate(catalog_algebra(name))
        assert report.d == d
        if d > 0:
            assert report.witness_value is not None
            assert not is_zero_vec(report.witness_value)
            assert sum(
                report.table.component_dims[i] for i in report.maximizing_subset
            ) == d


def test_exponent_candidate_rejects_bad_hypotheses():
    with pytest.raises(HypothesisFailure):
        pi_exponent_candidate(catalog_algebra("solvable2"))


def test_exponent_matches_bracketing_enumeration():
    # independent oracle: enumerate every bracketing of every sequence of
    # adapted basis elements up to length 6
    for name in ANALYZABLE:
        report = pi_exponent_candidate(catalog_algebra(name))
        oracle_d, oracle_subsets = bracketing_enumeration_d(
            report.structure, max_len=6
        )
        assert oracle_d == report.d
        fixpoint_nonzero = {
            s for s, span in report.table.spans.items() if not span.is_zero()
        }
        # the fixpoint misses no subset the enumeration can reach
        assert oracle_subsets <= fixpoint_nonzero


def test_semisimple_specialization():
    # for N = 0 the mixed brackets vanish, so d = max component dimension
    report = pi_exponent_candidate(catalog_algebra("sl2_plus_sl2"))
    assert report.d == max(report.table.component_dims)


def test_exponent_invariant_under_base_change():
    rng = random.Random(41)
    for name in ("sl2", "gl2", "sl2_natural", "heisenberg3"):
        algebra = catalog_algebra(name)
        d = pi_exponent_candidate(algebra).d
        moved = change_basis(algebra, random_invertible(rng, algebra.dim))
        assert pi_exponent_candidate(moved).d == d


def test_qpolyspec_validation():
    with pytest.raises(MalformedInputError):
        QPolySpec(r=3, k=2, n=5)  # n < r*k
    with pytest.raises(MalformedInputError):
        QPolySpec(r=0, k=1, n=1)
    assert QPolySpec(r=2, k=2, n=6).free_count == 2


def test_verify_upper_sl2_minimal_degrees(engine_for):
    engine = engine_for("sl2")
    algebra = engine.algebra
    for n in (4, 5):
        verdict = verify_upper(algebra, QPolySpec(r=4, k=1, n=n), engine=engine)
        assert verdict.passed and verdict.exhaustive
        assert verdict.counterexample is None


def test_verify_upper_abelian_trivially_passes():
    algebra = catalog_algebra("abelian3")
    verdict = verify_upper(algebra, QPolySpec(r=2, k=1, n=2))
    assert verdict.passed


def test_verify_upper_detects_non_identities(engine_for):
    # r = d is NOT an identity size for sl2, so the check must fail
    engine = engine_for("sl2")
    verdict = verify_upper(engine.algebra, QPolySpec(r=3, k=1, n=4), engine=engine)
    assert not verdict.passed
    assert verdict.counterexample is not None


def test_verify_upper_budget():
    algebra = catalog_algebra("sl2")
    with pytest.raises(BudgetExceededError):
        verify_upper(algebra, QPolySpec(r=4, k=1, n=5), budget=3)


def test_verify_upper_rank_above_dimension_reports_a_full_pass(engine_for):
    # r > dim L vanishes at once, with the counts a full pass would give
    engine = engine_for("sl2")
    spec = QPolySpec(r=4, k=1, n=5)
    for mode, checks, exhaustive in (
        (ExactMode(), 120, True),
        (SampledMode(count=10), 10, False),
        (SampledMode(count=500), 120, True),
    ):
        verdict = verify_upper(engine.algebra, spec, mode=mode, engine=engine)
        assert (verdict.passed, verdict.checks, verdict.exhaustive) == (
            True, checks, exhaustive
        )


def test_verify_upper_sampled_mode(engine_for):
    engine = engine_for("sl2_natural")
    verdict = verify_upper(
        engine.algebra,
        QPolySpec(r=4, k=2, n=8),
        mode=SampledMode(count=10, seed=0),
        engine=engine,
    )
    assert verdict.passed
    assert not verdict.exhaustive
    assert verdict.checks == 10


def test_find_lower_witness_sl2(engine_for):
    engine = engine_for("sl2")
    witness = find_lower_witness(engine.algebra, r=3, k=1, n_max=5, engine=engine)
    assert witness is not None
    assert witness.spec.n <= 5
    # the claimed evaluation point really is nonzero
    elems = [
        engine.algebra.basis_vector(witness.assignment[v])
        for v in sorted(witness.assignment)
    ]
    value = evaluate(witness.polynomial(), elems, engine.algebra)
    assert value == witness.value
    assert not is_zero_vec(value)


def test_find_lower_witness_sl2_natural(engine_for):
    engine = engine_for("sl2_natural")
    witness = find_lower_witness(engine.algebra, r=3, k=1, n_max=6, engine=engine)
    assert witness is not None
    assert witness.spec.n <= 6
    assert "Alt[" in witness.describe(engine.algebra)


def test_find_lower_witness_first_witness_is_pinned(engine_for):
    # the scan keeps the (set assignment, word) order of the loop it replaced
    cases = {
        ("sl2", 3, 1, 5): (4, (1, 2, 3, 4), ((1, 2, 3),),
                           {1: 0, 2: 1, 3: 2, 4: 0}),
        ("sl2_natural", 3, 2, 8): (6, (1, 2, 4, 3, 5, 6), ((1, 2, 3), (4, 5, 6)),
                                   {1: 0, 2: 1, 3: 2, 4: 0, 5: 1, 6: 4}),
    }
    for (name, r, k, n_max), expected in cases.items():
        engine = engine_for(name)
        w = find_lower_witness(engine.algebra, r, k, n_max, engine=engine)
        assert (w.spec.n, w.word, w.sets, w.assignment) == expected, name


def test_find_lower_witness_abelian_returns_none():
    # at degree 2 everything is an identity of an abelian algebra
    algebra = catalog_algebra("abelian3")
    assert find_lower_witness(algebra, r=1, k=1, n_max=2, n_min=2) is None


def test_find_lower_witness_validation():
    with pytest.raises(MalformedInputError):
        find_lower_witness(catalog_algebra("sl2"), r=0, k=1, n_max=2)


def test_sandwich_coherence(engine_for):
    # upper bound passes at set size d+1 and a witness exists at size d
    for name in ("sl2", "gl2", "sl2_natural"):
        engine = engine_for(name)
        report = pi_exponent_candidate(engine.algebra)
        d, q = report.d, report.structure.nil_class
        spec = QPolySpec(r=d + 1, k=q, n=(d + 1) * q)
        mode = SampledMode(count=10, seed=0) if spec.n > 5 else ExactMode()
        verdict = verify_upper(engine.algebra, spec, mode=mode, engine=engine)
        assert verdict.passed
        witness = find_lower_witness(engine.algebra, r=d, k=1, n_max=d + 2,
                                     engine=engine)
        assert witness is not None


def test_growth_report_heisenberg(engine_for):
    report = growth_report(catalog_algebra("heisenberg3"), 6,
                           engine=engine_for("heisenberg3"))
    codims = [row.codimension for row in report.rows]
    assert codims == [1, 1, 0, 0, 0, 0]
    assert all(row.nth_root == 0.0 for row in report.rows[2:])
    assert report.d == 0


def test_growth_report_abelian_line():
    report = growth_report(catalog_algebra("abelian(1)"), 4)
    assert [row.codimension for row in report.rows] == [1, 0, 0, 0]


def test_growth_report_sl2(engine_for):
    engine = engine_for("sl2")
    report = growth_report(engine.algebra, 5, engine=engine)
    for row in report.rows:
        table = engine.cocharacter(row.n)
        assert row.codimension == table.codimension_sum
        assert row.colength == table.colength
    assert report.d == 3


def test_sampled_growth_builds_each_column_space_once(monkeypatch):
    built = []
    sampled_columns = CodimEngine.sampled_columns

    def counting(engine, n, mode):
        built.append(n)
        return sampled_columns(engine, n, mode)

    monkeypatch.setattr(CodimEngine, "sampled_columns", counting)
    report = growth_report(catalog_algebra("sl2_natural"), 5,
                           SampledMode(count=50, seed=0))
    assert built == [1, 2, 3, 4, 5]
    assert report.rows[-1].colength  # the cocharacter reused the columns


def test_sampled_growth_does_not_stop_on_a_useless_tuple():
    # a repeated-index tuple adds no column; at n = 2 and 3 the run must
    # go on past one or two of them to reach the exact c_2 and c_3
    report = growth_report(catalog_algebra("sl2_natural"), 5,
                           SampledMode(count=50, seed=0))
    assert [row.codimension for row in report.rows[:3]] == [1, 1, 2]


def test_growth_report_d_is_none_when_hypotheses_fail():
    report = growth_report(catalog_algebra("solvable2"), 2)
    assert report.d is None
