import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from picodim import (
    CATALOG_NAMES,
    CodimEngine,
    ExactMode,
    QPolySpec,
    SampledMode,
    Subspace,
    catalog_algebra,
    change_basis,
    evaluate,
    find_lower_witness,
    growth_report,
    verify_upper,
)
from picodim import evaluation, symgroup
from picodim.errors import BudgetExceededError, MalformedInputError, count_text
from picodim.evaluation import (
    Evaluator,
    _AlternatedChecker,
    _alternating_contents,
    _ColumnSpace,
    _set_assignments,
)
from picodim.freelie import (
    MultilinearPolynomial,
    basis_Pn,
    perm_sign,
    rewrite,
    rewrite_word,
)
from picodim.linalg import is_zero_vec, kernel, rank_exact, unit_vec
from picodim.symgroup import partitions

from helpers import (
    evaluator_sampled_columns,
    listed_sample_scan,
    multilinear_columns,
    permutation_find_nonzero,
    random_fraction,
    random_invertible,
    sl2_over_sqrt2,
    symbolic_capelli_holds,
    symmetrizer_cocharacter,
)


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


def test_sampled_columns_match_evaluator_oracle(engine_for):
    # the kernel at the drawn basis tuples spans what the Evaluator word
    # cache spans there, with the same rank: every catalog algebra to
    # n = 5, two base changes each and sl2 over Q(sqrt 2) (D > 1)
    rng = random.Random(9)
    engines = [engine_for(name) for name in CATALOG_NAMES]
    for name in CATALOG_NAMES:
        algebra = catalog_algebra(name)
        engines += [
            CodimEngine(change_basis(algebra, random_invertible(rng, algebra.dim)))
            for _ in range(2)
        ]
    engines.append(CodimEngine(sl2_over_sqrt2()))
    assert sum(engine._content_ranks.scale > 1 for engine in engines) >= 10
    for engine in engines:
        scale = engine._content_ranks.scale
        for n in range(1, 6):
            words = basis_Pn(n)
            for mode in (SampledMode(count=2, seed=n), SampledMode(count=20, seed=n)):
                got = engine.columns(n, mode)
                expected = evaluator_sampled_columns(engine, n, mode)
                assert got.rank == len(expected.kept), (engine.algebra.labels, n, mode)
                scaled = [
                    tuple(Fraction(x, scale ** (n - 1)) for x in col) for col in got.kept
                ]
                assert Subspace.from_vectors(len(words), scaled) == (
                    Subspace.from_vectors(len(words), expected.kept)
                ), (engine.algebra.labels, n, mode)


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
    # exact c_n is the cocharacter's sum, so the budget counts the
    # generic evaluation points of its contents, the partitions of 4
    # into at most 3 parts
    engine = CodimEngine(catalog_algebra("sl2"), tuple_budget=10)
    with pytest.raises(BudgetExceededError) as err:
        engine.codimension(4)
    assert err.value.required == 135


def test_codimension_invariant_under_base_change():
    rng = random.Random(31)
    for name in ("sl2", "heisenberg3", "gl2"):
        algebra = catalog_algebra(name)
        reference = CodimEngine(algebra)
        moved = CodimEngine(change_basis(algebra, random_invertible(rng, algebra.dim)))
        for n in range(1, 5):
            assert moved.codimension(n) == reference.codimension(n)


def test_codimension_matches_multilinear_oracle(engine_for):
    # every catalog algebra for n <= 5, and two random base changes of
    # each (dense structure constants with denominators) for n <= 4
    rng = random.Random(7)
    for name in CATALOG_NAMES:
        algebra = catalog_algebra(name)
        cases = [(engine_for(name), 5)] + [
            (CodimEngine(change_basis(algebra, random_invertible(rng, algebra.dim))), 4)
            for _ in range(2)
        ]
        for engine, top in cases:
            for n in range(1, top + 1):
                expected = len(multilinear_columns(engine, n).kept)
                assert engine.codimension(n) == expected, (name, n)


def test_exact_is_identity_matches_multilinear_oracle():
    # random identities (left kernel of the oracle's columns), some with
    # a random polynomial added, decided by pairing with those columns
    rng = random.Random(8)
    # solvable2's identities are not closed under reversing the prefix
    # of each basis word, so it also tells a wrong row order apart
    for name in ("sl2", "gl2", "heisenberg3", "sl2_natural", "solvable2"):
        engine = CodimEngine(catalog_algebra(name))
        for n in range(2, 6):
            words = basis_Pn(n)
            kept = multilinear_columns(engine, n).kept
            # the same column space, rows in basis_Pn order
            assert Subspace.from_vectors(len(words), engine.columns(n).kept) == (
                Subspace.from_vectors(len(words), kept)
            ), (name, n)
            identities = kernel(tuple(kept), len(words)).basis
            for _ in range(6):
                coeffs = [Fraction(0)] * len(words)
                for v in identities:
                    w = rng.randint(-3, 3)
                    coeffs = [c + w * x for c, x in zip(coeffs, v)]
                if rng.random() < 0.5:
                    coeffs = [c + random_fraction(rng) for c in coeffs]
                f = MultilinearPolynomial(n, dict(zip(words, coeffs)))
                expected = all(
                    sum(c * x for c, x in zip(coeffs, col)) == 0 for col in kept
                )
                assert engine.is_identity(f) == expected, (name, n)


def test_exact_codimension_and_is_identity_skip_the_tuple_sweep(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("exact mode evaluated basis tuples")

    monkeypatch.setattr(CodimEngine, "_tuple_columns", forbidden)
    monkeypatch.setattr(evaluation.Evaluator, "word_value", forbidden)
    engine = CodimEngine(catalog_algebra("sl2"))
    assert [engine.codimension(n) for n in range(1, 6)] == [1, 1, 2, 6, 14]
    assert not engine.is_identity(rewrite((1, 2)))
    assert engine.columns(4).rank == 6
    assert CodimEngine(catalog_algebra("heisenberg3")).is_identity(rewrite_word((1, 2, 3), 3))


def test_cocharacter_checks_budget_before_listing_tall_shapes(monkeypatch):
    heights = []

    def recording(name):
        original = getattr(evaluation, name)

        def wrapper(n, max_height=None):
            heights.append(max_height)
            return original(n, max_height)

        monkeypatch.setattr(evaluation, name, wrapper)

    recording("partitions")
    recording("iter_partitions")
    engine = CodimEngine(catalog_algebra("sl2"))
    for call in (engine.cocharacter, engine.codimension):
        heights.clear()
        with pytest.raises(BudgetExceededError) as err:
            call(60)
        assert heights == [3]
        # every partition of 60 into at most 3 parts is a content
        assert err.value.required == 1322253845


def test_budget_bounds_the_listing_of_contents(monkeypatch):
    # 19858 partitions of 60 into at most 6 parts; each content costs at
    # least one point, so the check lists at most budget + 1 of them
    listed = []
    original = evaluation.iter_partitions

    def counting(n, max_height=None):
        for parts in original(n, max_height):
            listed.append(parts)
            yield parts

    monkeypatch.setattr(evaluation, "iter_partitions", counting)
    engine = CodimEngine(catalog_algebra("sl2_adjoint"), tuple_budget=1000)
    with pytest.raises(BudgetExceededError) as err:
        engine.codimension(60)
    assert err.value.required > 1000
    assert len(listed) <= 1001


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
    # exact codimension is the cocharacter's own sum, so the cross-check
    # compares it with the rank of the multilinear (mu = 1^n) columns
    for name in ("sl2", "gl2", "heisenberg3"):
        engine = engine_for(name)
        for n in range(1, 5):
            table = engine.cocharacter(n)
            assert table.codimension_sum == engine.columns(n, ExactMode()).rank
            assert table.colength == sum(r.multiplicity for r in table.rows)


def test_cocharacter_matches_symmetrizer_oracle(engine_for):
    # every catalog algebra for n <= 5, and two random base changes of
    # each (dense structure constants with denominators) for n <= 4
    rng = random.Random(6)
    for name in CATALOG_NAMES:
        algebra = catalog_algebra(name)
        cases = [(engine_for(name), 5)] + [
            (CodimEngine(change_basis(algebra, random_invertible(rng, algebra.dim))), 4)
            for _ in range(2)
        ]
        for engine, top in cases:
            for n in range(1, top + 1):
                table = engine.cocharacter(n)
                got = {r.shape.parts: r.multiplicity for r in table.rows}
                assert got == symmetrizer_cocharacter(engine, n), (name, n)


def test_cocharacter_pins_beyond_the_multilinear_wall():
    # the multilinear engine's c_7(sl2) = 90 and c_6(sl2_natural) = 106;
    # both fit the default budget (sl2_natural n=6 needs 30240 points)
    assert CodimEngine(catalog_algebra("sl2")).cocharacter(7).codimension_sum == 90
    table = CodimEngine(catalog_algebra("sl2_natural")).cocharacter(6)
    assert (table.codimension_sum, table.colength) == (106, 10)


def test_exact_cocharacter_builds_no_symmetrizer_and_no_columns(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("exact cocharacter took the multilinear path")

    for module in (evaluation, symgroup):
        monkeypatch.setattr(module, "act", forbidden)
        monkeypatch.setattr(module, "symmetrizer", forbidden)
    monkeypatch.setattr(CodimEngine, "columns", forbidden)
    table = CodimEngine(catalog_algebra("sl2")).cocharacter(5)
    assert table.codimension_sum == 14


def test_cocharacter_budget_counts_generic_evaluation_points():
    engine = CodimEngine(catalog_algebra("sl2"), tuple_budget=10)
    with pytest.raises(BudgetExceededError) as err:
        engine.cocharacter(5)
    assert err.value.required == 324
    # the count is the sum over contents mu of prod C(p + mu_i - 1, mu_i)
    table = CodimEngine(catalog_algebra("sl2"), tuple_budget=324).cocharacter(5)
    assert table.codimension_sum == 14


def test_alternating_contents_match_the_permutation_sum():
    for n in range(1, 8):
        for shape in partitions(n):
            m = shape.height
            expected = []
            for sigma in itertools.permutations(range(m)):
                mu = [shape.parts[i] + sigma[i] - i for i in range(m)]
                if min(mu) >= 0:
                    expected.append((
                        perm_sign(tuple(s + 1 for s in sigma)),
                        tuple(sorted((x for x in mu if x), reverse=True)),
                    ))
            assert sorted(_alternating_contents(shape.parts)) == sorted(expected)


def test_column_space_rank_matches_rank_exact():
    rng = random.Random(17)
    for _ in range(200):
        length, rank = rng.randint(1, 6), rng.randint(0, 4)
        generators = [
            tuple(random_fraction(rng) for _ in range(length)) for _ in range(rank)
        ]
        columns = []
        for _ in range(rng.randint(1, 9)):
            kind = rng.random()
            if kind < 0.15 or not generators:
                col = tuple(Fraction(0) for _ in range(length))  # zero column
            elif kind < 0.3 and columns:
                col = rng.choice(columns)  # duplicate column
            else:
                weights = [random_fraction(rng) for _ in generators]
                col = tuple(
                    sum((w * g[i] for w, g in zip(weights, generators)), Fraction(0))
                    for i in range(length)
                )
            columns.append(col)
        space = _ColumnSpace()
        for col in columns:
            space.insert(col)
        assert space.rank == rank_exact(tuple(columns))
        # kept holds original columns, and they are independent
        assert all(any(k is c for c in columns) for k in space.kept)
        assert rank_exact(tuple(space.kept)) == space.rank


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


def test_find_nonzero_matches_permutation_oracle(engine_for):
    # the signed pass returns the permutation sum's first hit, value
    # included, or None with it: every catalog algebra to n = 5, two
    # base changes each (scaled brackets, D > 1) and sl2 over Q(sqrt 2)
    # to n = 4, on a random slice of every (n, r, k) cell with r <= dim L
    rng = random.Random(8)
    cases = [(engine_for(name), 5) for name in CATALOG_NAMES]
    for name in CATALOG_NAMES:
        algebra = catalog_algebra(name)
        for _ in range(2):
            moved = change_basis(algebra, random_invertible(rng, algebra.dim))
            cases.append((CodimEngine(moved), 4))
    cases.append((CodimEngine(sl2_over_sqrt2()), 4))
    assert sum(engine._content_ranks.scale > 1 for engine, _ in cases) >= 10
    outcomes = []
    for engine, n_max in cases:
        checker, evaluator = _AlternatedChecker(engine), Evaluator(engine.algebra)
        for n in range(1, n_max + 1):
            words = basis_Pn(n)
            for r in range(1, min(engine.algebra.dim, n) + 1):
                for k in range(1, n // r + 1):
                    assignments = list(_set_assignments(n, r, k))
                    for sets in rng.sample(assignments, min(3, len(assignments))):
                        # the sets' variables in the given order, then reversed
                        for order in (sets, tuple(s[::-1] for s in sets)):
                            for word in rng.sample(words, min(3, len(words))):
                                found = checker.find_nonzero(word, order)
                                assert found == permutation_find_nonzero(
                                    evaluator, word, order
                                ), (engine.algebra.labels, word, order)
                                outcomes.append(found is not None)
    assert sum(outcomes) > 1000 and outcomes.count(False) > 200


def test_engine_evaluates_no_cached_words(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the engine evaluated cached words")

    monkeypatch.setattr(evaluation.Evaluator, "word_value", forbidden)
    monkeypatch.setattr(evaluation.Evaluator, "__init__", forbidden)
    # sampled columns walk the kernel at basis tuples
    natural = catalog_algebra("sl2_natural")
    engine, sampled = CodimEngine(natural), SampledMode(count=50, seed=1)
    assert [engine.codimension(n, sampled) for n in range(1, 6)] == [1, 1, 2, 5, 7]
    assert engine.cocharacter(4, sampled) == engine.cocharacter(4)
    assert not engine.is_identity(rewrite((1, 2)), sampled)
    assert CodimEngine(catalog_algebra("heisenberg3")).is_identity(
        rewrite_word((1, 2, 3), 3), sampled
    )
    report = growth_report(natural, 4, sampled)
    assert [(r.codimension, r.colength) for r in report.rows] == [
        (1, 1), (1, 1), (2, 1), (5, 2)
    ]
    # c_6 = 0 in both, so every alternation of every word is checked
    for name in ("heisenberg3", "abelian3"):
        assert CodimEngine(catalog_algebra(name)).capelli_holds(2, 6)
    sl2 = catalog_algebra("sl2")
    assert not CodimEngine(sl2).capelli_holds(3, 5)
    assert not CodimEngine(sl2).capelli_holds(3, 6, SampledMode(count=5))
    assert verify_upper(sl2, QPolySpec(r=4, k=1, n=5)).passed
    assert verify_upper(sl2, QPolySpec(r=3, k=1, n=4)).counterexample is not None
    assert verify_upper(sl2, QPolySpec(r=4, k=2, n=8), SampledMode(count=5)).passed
    # every check at n = 6 misses, the first at n = 7 hits
    witness = find_lower_witness(sl2, 3, 2, 7)
    assert witness.spec.n == 7 and witness.value == (64, 0, 0)


def test_count_text_never_converts_a_huge_int():
    assert count_text(0) == "0"
    assert count_text(10**30 - 1) == "9" * 30
    assert count_text(10**30) == "at least 10^30"
    assert count_text(10**31 - 1) == "at least 10^30"
    assert count_text(3**10000) == "at least 10^4771"
    assert count_text(10**5000) == "at least 10^5000"
    assert count_text(10**5000 - 1) == "at least 10^4999"
