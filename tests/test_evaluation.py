import random
from math import factorial

import pytest

from picodim import (
    CATALOG_NAMES,
    CodimEngine,
    SampledMode,
    catalog_algebra,
    change_basis,
    evaluate,
)
from picodim.errors import BudgetExceededError, MalformedInputError
from picodim.evaluation import _AlternatedChecker
from picodim.freelie import MultilinearPolynomial, rewrite, rewrite_word
from picodim.linalg import is_zero_vec, unit_vec

from helpers import listed_sample_scan, random_invertible, symbolic_capelli_holds


def test_evaluate_abelian_kills_higher_degrees():
    algebra = catalog_algebra("abelian3")
    f = rewrite(((1, 2), 3))
    elems = [algebra.basis_vector(i % 3) for i in range(3)]
    assert is_zero_vec(evaluate(f, elems, algebra))


def test_evaluate_sl2_bracket():
    algebra = catalog_algebra("sl2")
    f = rewrite((1, 2))
    e, f_vec = algebra.basis_vector(0), algebra.basis_vector(2)
    assert evaluate(f, (e, f_vec), algebra) == unit_vec(3, 1)  # [e,f] = h


def test_evaluate_heisenberg_center_annihilates():
    algebra = catalog_algebra("heisenberg3")
    f = rewrite_word((1, 2, 3), 3)
    z, x, y = (algebra.basis_vector(i) for i in (2, 0, 1))
    assert is_zero_vec(evaluate(f, (z, x, y), algebra))


def test_evaluate_rejects_wrong_arity():
    algebra = catalog_algebra("sl2")
    with pytest.raises(MalformedInputError):
        evaluate(rewrite((1, 2)), [algebra.basis_vector(0)], algebra)


def test_is_identity_zero_polynomial(engine_for):
    assert engine_for("sl2").is_identity(MultilinearPolynomial.zero(3))


def test_is_identity_abelian_degree_two():
    engine = CodimEngine(catalog_algebra("abelian(2)"))
    assert engine.is_identity(rewrite((1, 2)))


def test_is_identity_jacobi_relation_rewrites_to_zero():
    # (x1x2)x3 - x1(x2x3) + x2(x1x3) is zero after rewriting
    relation = rewrite(((1, 2), 3)) - rewrite((1, (2, 3))) + rewrite((2, (1, 3)))
    assert relation.is_zero()


def test_is_identity_refutation(engine_for):
    engine = engine_for("sl2")
    assert not engine.is_identity(rewrite((1, 2)))
    assert not engine.is_identity(rewrite((1, 2)), SampledMode(count=200, seed=0))


def test_codimension_abelian():
    assert CodimEngine(catalog_algebra("abelian(2)")).codimension(2) == 0
    assert CodimEngine(catalog_algebra("abelian3")).codimension(2) == 0


def test_codimension_nilpotent_vanishes_beyond_class(engine_for):
    engine = engine_for("heisenberg3")
    assert engine.codimension(1) == 1
    assert engine.codimension(2) == 1
    for n in range(3, 7):
        assert engine.codimension(n) == 0


def test_codimension_sl2_small_degrees(engine_for):
    engine = engine_for("sl2")
    assert [engine.codimension(n) for n in range(1, 6)] == [1, 1, 2, 6, 14]


def test_codimension_bounded_by_basis_size(engine_for):
    for name in ("sl2", "gl2", "sl2_natural"):
        engine = engine_for(name)
        for n in range(1, 6):
            assert engine.codimension(n) <= factorial(n - 1)


def test_codimension_sampled_never_exceeds_exact(engine_for):
    for name in ("sl2", "gl2"):
        engine = engine_for(name)
        for n in range(2, 5):
            exact = engine.codimension(n)
            for seed in range(3):
                sampled = engine.codimension(n, SampledMode(count=40, seed=seed))
                assert sampled <= exact


def test_codimension_sampled_answers_are_pinned(engine_for):
    # sampling stops early only at full rank, so n=5 seed 2 reaches the
    # exact c_5 = 24
    engine = engine_for("sl2_natural")
    pinned = {5: [24, 24, 24], 6: [42, 38, 46]}
    for n, expected in pinned.items():
        got = [engine.codimension(n, SampledMode(count=400, seed=s)) for s in range(3)]
        assert got == expected, n


def test_unknown_mode_is_rejected(engine_for):
    engine = engine_for("sl2")
    for call in (
        lambda: engine.codimension(2, "fast"),
        lambda: engine.cocharacter(2, "fast"),
        lambda: engine.is_identity(rewrite((1, 2)), "fast"),
        lambda: engine.capelli_holds(2, 3, "fast"),
    ):
        with pytest.raises(MalformedInputError):
            call()


def test_codimension_budget_exceeded():
    engine = CodimEngine(catalog_algebra("sl2"), tuple_budget=10)
    with pytest.raises(BudgetExceededError) as err:
        engine.codimension(4)
    assert err.value.required == 81


def test_codimension_invariant_under_base_change():
    rng = random.Random(31)
    for name in ("sl2", "heisenberg3", "gl2"):
        algebra = catalog_algebra(name)
        reference = CodimEngine(algebra)
        moved = CodimEngine(change_basis(algebra, random_invertible(rng, algebra.dim)))
        for n in range(1, 5):
            assert moved.codimension(n) == reference.codimension(n)


def test_cocharacter_degree_one(engine_for):
    table = engine_for("sl2").cocharacter(1)
    assert [(r.shape.parts, r.multiplicity) for r in table.rows] == [((1,), 1)]
    assert table.colength == 1 and table.codimension_sum == 1


def test_cocharacter_abelian_degree_two():
    table = CodimEngine(catalog_algebra("abelian(2)")).cocharacter(2)
    assert all(r.multiplicity == 0 for r in table.rows)
    assert table.colength == 0


def test_cocharacter_sl2_degree_three(engine_for):
    engine = engine_for("sl2")
    table = engine.cocharacter(3)
    mults = {r.shape.parts: r.multiplicity for r in table.rows}
    assert mults == {(3,): 0, (2, 1): 1, (1, 1, 1): 0}
    assert table.codimension_sum == engine.codimension(3)


def test_cocharacter_sl2_degree_four(engine_for):
    table = engine_for("sl2").cocharacter(4)
    mults = {r.shape.parts: r.multiplicity for r in table.rows}
    # the height-4 shape must vanish (rank-4 alternation dies in dim 3)
    assert mults[(1, 1, 1, 1)] == 0
    assert mults[(2, 1, 1)] == 1


def test_e4_cross_check_small(engine_for):
    for name in ("sl2", "gl2", "heisenberg3"):
        engine = engine_for(name)
        for n in range(1, 5):
            table = engine.cocharacter(n)
            assert table.codimension_sum == engine.codimension(n)
            assert table.colength == sum(r.multiplicity for r in table.rows)


def test_capelli_abelian():
    assert CodimEngine(catalog_algebra("abelian(2)")).capelli_holds(2, 2)


def test_capelli_heisenberg_rank_three(engine_for):
    engine = engine_for("heisenberg3")
    assert engine.capelli_holds(3, 3)
    assert engine.capelli_holds(3, 4)


def test_capelli_sl2_rank_four(engine_for):
    engine = engine_for("sl2")
    assert engine.capelli_holds(4, 4)
    assert engine.capelli_holds(4, 5)


def test_capelli_sl2_rank_three_first_violated_at_degree_four(engine_for):
    # At n = 3 every full alternation is a Jacobi sum and vanishes in any
    # Lie algebra, so the rank-3 check still holds; the first genuine
    # rank-3 violation for sl2 appears at n = 4.
    engine = engine_for("sl2")
    assert engine.capelli_holds(3, 3)
    assert not engine.capelli_holds(3, 4)


def test_capelli_rank_three_degree_three_holds_in_every_algebra(engine_for):
    # the same Jacobi argument, checked across the catalog
    for name in ("sl2", "gl2", "sl2_natural", "solvable2"):
        assert engine_for(name).capelli_holds(3, 3)


def test_capelli_validation(engine_for):
    with pytest.raises(MalformedInputError):
        engine_for("sl2").capelli_holds(0, 3)
    with pytest.raises(MalformedInputError):
        engine_for("sl2").capelli_holds(4, 3)


def test_capelli_height_link(engine_for):
    # rank-t Capelli holds iff every m_lambda with ht(lambda) >= t vanishes
    for name in ("sl2", "heisenberg3", "gl2"):
        engine = engine_for(name)
        for n in range(2, 5):
            table = engine.cocharacter(n)
            for t in range(2, n + 1):
                holds = engine.capelli_holds(t, n)
                tall_mults = [
                    r.multiplicity for r in table.rows if r.shape.height >= t
                ]
                assert holds == all(m == 0 for m in tall_mults)


def test_capelli_matches_symbolic_oracle(engine_for):
    # every catalog algebra up to n = 4; at n = 5 those with dim <= 5
    # (the two 6-dim algebras take the symbolic oracle several seconds)
    for name in CATALOG_NAMES:
        engine = engine_for(name)
        top = 5 if engine.algebra.dim <= 5 else 4
        for n in range(1, top + 1):
            for t in range(1, min(n, 5) + 1):
                expected = symbolic_capelli_holds(engine, t, n)
                assert engine.capelli_holds(t, n) == expected, (name, t, n)


def test_capelli_rank_above_dimension_holds_at_once(engine_for):
    assert engine_for("sl2").capelli_holds(4, 9)


def test_capelli_violation_at_high_degree_is_found_early(engine_for):
    # the scan streams (word, subset) items, so the first nonzero
    # alternation ends the check without listing the 10! basis words
    assert not engine_for("sl2").capelli_holds(3, 11)


def test_capelli_exact_mode_keeps_tuple_budget():
    engine = CodimEngine(catalog_algebra("sl2"), tuple_budget=10)
    with pytest.raises(BudgetExceededError) as err:
        engine.capelli_holds(4, 5)
    assert err.value.required == 243


def test_capelli_sampled_refutes_only_false_checks(engine_for):
    gl2, sl2 = engine_for("gl2"), engine_for("sl2")
    for seed in range(3):
        assert gl2.capelli_holds(4, 5, SampledMode(count=20, seed=seed))
        assert not sl2.capelli_holds(3, 4, SampledMode(count=20, seed=seed))


def test_sampled_scan_matches_listed_sample(engine_for):
    # sampling positions from range(total) draws the same items as
    # sampling from the listed items, so every answer is unchanged
    for name in ("gl2", "sl2"):
        checker = _AlternatedChecker(engine_for(name))
        for n in range(2, 7):
            for r, k in ((1, 1), (2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (2, 3)):
                if r * k > n:
                    continue
                for count, seed in ((3, 0), (10, 1), (10, 2), (200, 3)):
                    mode = SampledMode(count=count, seed=seed)
                    assert checker.scan(n, r, k, mode) == listed_sample_scan(
                        checker.engine, n, r, k, mode
                    ), (name, n, r, k, count, seed)


def test_sampled_capelli_at_high_degree_lists_nothing(engine_for):
    sl2 = engine_for("sl2")
    # 120 * 9! items: the sample is decoded from positions, not a list
    assert not sl2.capelli_holds(3, 10, SampledMode(count=10))
    assert sl2.capelli_holds(4, 12, SampledMode(count=10))
