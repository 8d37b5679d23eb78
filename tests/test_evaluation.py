import itertools
import random
import tracemalloc
from fractions import Fraction
from math import factorial

import pytest

from picodim import (
    CATALOG_NAMES,
    CodimEngine,
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
    _lie_absent,
    _span,
    _transpose,
    full_pass,
)
from picodim.freelie import (
    MultilinearPolynomial,
    basis_Pn,
    perm_sign,
    rewrite,
    rewrite_word,
)
from picodim.linalg import is_zero_vec, kernel, rank, unit_vec
from picodim.symgroup import partitions

from helpers import (
    _set_assignments,
    ad_nilpotent_sl2_plus_sl2,
    all_families_scan,
    choice_pass_find_nonzero,
    digit_key_find_nonzero,
    evaluator_sampled_columns,
    exact_duplicate_span,
    integer_slice,
    lie_multiplicity,
    listed_sample_scan,
    multilinear_columns,
    pairing_is_identity,
    permutation_find_nonzero,
    random_fraction,
    random_invertible,
    sl2_over_sqrt2,
    symbolic_capelli_holds,
    symmetrizer_cocharacter,
    unsliced_cocharacter,
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
    assert sum(engine.scale > 1 for engine in engines) >= 10
    for engine in engines:
        for n in range(1, 6):
            words = basis_Pn(n)
            for mode in (SampledMode(count=2, seed=n), SampledMode(count=20, seed=n)):
                got = engine.sampled_columns(n, mode)
                expected = evaluator_sampled_columns(engine, n, mode)
                assert got.rank == len(expected.kept), (engine.algebra.labels, n, mode)
                # the pivots span the inserted columns, rows in basis_Pn order
                pivots = [tuple(col) for _, col in got.pivots]
                assert Subspace.from_vectors(len(words), pivots) == (
                    Subspace.from_vectors(len(words), expected.kept)
                ), (engine.algebra.labels, n, mode)


def test_sampled_columns_stop_drawing_at_full_rank(monkeypatch):
    # sl2 has c_3 = 2 = (3-1)!, so a few tuples of a sample of 10^9
    # reach full rank, and the tuple that does is the last one drawn
    drawn = []
    tuple_columns = CodimEngine._tuple_columns

    def counting(engine, words, tup):
        drawn.append(tup)
        return tuple_columns(engine, words, tup)

    monkeypatch.setattr(CodimEngine, "_tuple_columns", counting)
    engine = CodimEngine(catalog_algebra("sl2"))
    assert engine.sampled_columns(3, SampledMode(10**9)).rank == 2
    used = len(drawn)
    assert 0 < used < 100
    assert engine.sampled_columns(3, SampledMode(used - 1)).rank < 2


def test_unknown_mode_is_rejected(engine_for):
    # a sample is a value: equal fields compare and hash equal
    assert SampledMode(5, 1) == SampledMode(5, 1) == SampledMode(count=5, seed=1)
    assert hash(SampledMode(5, 1)) == hash(SampledMode(5, 1))
    assert SampledMode(5, 1) != SampledMode(5, 2)
    # exact is no mode, so any other value is read as a sample and fails
    # there, and is_identity takes no mode at all; none answers as exact
    engine = engine_for("sl2")
    for call in (
        lambda: engine.codimension(2, "fast"),
        lambda: engine.is_identity(rewrite((1, 2)), "fast"),
        lambda: engine.capelli_holds(2, 3, "fast"),
    ):
        with pytest.raises((AttributeError, TypeError)):
            call()


def test_no_mode_is_exact(engine_for):
    # exact is no sample: None, the default of every mode parameter
    engine = engine_for("sl2")
    for n in range(1, 8):
        assert full_pass(n, None) and full_pass(n)
    assert [engine.codimension(n, None) for n in range(1, 6)] == [
        engine.codimension(n) for n in range(1, 6)] == [1, 1, 2, 6, 14]
    for t, n, holds in ((2, 3, False), (3, 4, False), (4, 5, True)):
        assert engine.capelli_holds(t, n, None) is engine.capelli_holds(t, n) is holds
    for spec in (QPolySpec(4, 1, 5), QPolySpec(3, 1, 4)):
        given, default = (verify_upper(engine.algebra, spec, *mode, engine=engine)
                          for mode in ((None,), ()))
        assert (given.passed, given.checks, given.exhaustive,
                given.counterexample is None) == (
            default.passed, default.checks, default.exhaustive,
            default.counterexample is None)


def test_codimension_budget_exceeded():
    # exact c_n is the cocharacter's sum, so the budget counts the
    # generic evaluation points of the contents it ranks, the partitions
    # of 4 into at most 3 parts, with x_1 in the 1-dim Cartan slice when
    # a content has two or more parts: 15 + 3 + 6 + 9
    engine = CodimEngine(catalog_algebra("sl2"), tuple_budget=10)
    with pytest.raises(BudgetExceededError) as err:
        engine.codimension(4)
    assert err.value.required == 33


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


def _random_polynomials(rng, words, space, count):
    """`count` polynomials of the words: random identities of the
    oracle's columns (its left kernel), half of them plus a random
    polynomial, then one basis word."""
    identities = kernel(tuple(space.kept), len(words)).basis
    out = []
    for _ in range(count):
        coeffs = [Fraction(0)] * len(words)
        for v in identities:
            w = rng.randint(-3, 3)
            coeffs = [c + w * x for c, x in zip(coeffs, v)]
        if rng.random() < 0.5:
            coeffs = [c + random_fraction(rng) for c in coeffs]
        out.append(MultilinearPolynomial(len(words[0]), dict(zip(words, coeffs))))
    out.append(MultilinearPolynomial(len(words[0]), {rng.choice(words): Fraction(1)}))
    return out


def test_is_identity_matches_pairing_oracle(engine_for):
    # evaluation decides as the pairing with the kept columns of every
    # basis tuple that it replaced; every catalog algebra and one base
    # change of each (D > 1), n <= 5, but n = 5 skips the base changes
    # of the two 6-dim algebras (a minute of oracle each);
    # solvable2's identities are not closed under reversing the prefix
    # of each basis word, so it also tells a wrong word order apart
    rng = random.Random(12)
    engines = []
    for name in CATALOG_NAMES:
        algebra = catalog_algebra(name)
        moved = change_basis(algebra, random_invertible(rng, algebra.dim))
        engines += [(engine_for(name), 5), (CodimEngine(moved), 5 if algebra.dim < 6 else 4)]
    verdicts = []
    for engine, top in engines:
        for n in range(1, top + 1):
            words = basis_Pn(n)
            space = multilinear_columns(engine, n)
            assert engine.exhaustive_columns(n).rank == len(space.kept)
            for f in _random_polynomials(rng, words, space, 3):
                got = engine.is_identity(f)
                assert got == pairing_is_identity(f, space), (
                    engine.algebra.labels, n, f
                )
                verdicts.append(got)
    assert verdicts.count(True) > 100 and verdicts.count(False) > 100


def test_is_identity_eliminates_nothing(monkeypatch):
    # a decision evaluates f and never inserts a column
    def forbidden(*args, **kwargs):
        raise AssertionError("is_identity eliminated columns")

    monkeypatch.setattr(_ColumnSpace, "insert", forbidden)
    sl2, natural, heisenberg, abelian = (
        CodimEngine(catalog_algebra(name))
        for name in ("sl2", "sl2_natural", "heisenberg3", "abelian3")
    )
    assert not sl2.is_identity(rewrite((1, 2)))
    assert not natural.is_identity(rewrite(((1, 2), (3, 4))))
    assert heisenberg.is_identity(rewrite_word((1, 2, 3), 3))
    assert abelian.is_identity(rewrite((1, 2)))


def test_exact_codimension_and_is_identity_skip_the_tuple_sweep(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("exact mode evaluated basis tuples")

    monkeypatch.setattr(CodimEngine, "_tuple_columns", forbidden)
    monkeypatch.setattr(evaluation.Evaluator, "word_value", forbidden)
    engine = CodimEngine(catalog_algebra("sl2"))
    assert [engine.codimension(n) for n in range(1, 6)] == [1, 1, 2, 6, 14]
    assert not engine.is_identity(rewrite((1, 2)))
    assert engine.exhaustive_columns(4).rank == 6
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
        # every partition of 60 into at most 3 parts is a content, x_1
        # in the 1-dim slice when it has two or more parts
        assert err.value.required == 2871548


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
            assert table.codimension_sum == engine.exhaustive_columns(n).rank
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

    monkeypatch.setattr(symgroup, "act", forbidden)
    monkeypatch.setattr(symgroup, "symmetrizer", forbidden)
    monkeypatch.setattr(CodimEngine, "exhaustive_columns", forbidden)
    monkeypatch.setattr(CodimEngine, "sampled_columns", forbidden)
    table = CodimEngine(catalog_algebra("sl2")).cocharacter(5)
    assert table.codimension_sum == 14


def test_cocharacter_budget_counts_generic_evaluation_points():
    engine = CodimEngine(catalog_algebra("sl2"), tuple_budget=10)
    with pytest.raises(BudgetExceededError) as err:
        engine.cocharacter(5)
    assert err.value.required == 57
    # the count is the sum over the ranked contents mu of
    # prod C(d_i + mu_i - 1, mu_i), d_1 = 1 (the slice) when mu has two
    # or more parts and d_i = 3 otherwise: 21 + 3 + 6 + 9 + 18
    table = CodimEngine(catalog_algebra("sl2"), tuple_budget=57).cocharacter(5)
    assert table.codimension_sum == 14


def test_sliced_cocharacter_matches_unsliced_oracle(engine_for):
    # the Cartan slice and the skipped shapes against the kernel they
    # replaced, table by table and rank by rank: every catalog algebra
    # for n <= 6, two random base changes of each for n <= 5 (n <= 4 in
    # dim 6, where one dense table takes the oracle ~10 s), and sl2 over
    # Q(sqrt 2), whose slice needs no split form
    rng = random.Random(23)
    cases = [(engine_for(name), 6) for name in CATALOG_NAMES]
    for name in CATALOG_NAMES:
        algebra = catalog_algebra(name)
        cases += [
            (CodimEngine(change_basis(algebra, random_invertible(rng, algebra.dim))),
             5 if algebra.dim < 6 else 4)
            for _ in range(2)
        ]
    cases.append((CodimEngine(sl2_over_sqrt2()), 5))
    assert sum(engine.slice is not None for engine, _ in cases) == 19
    for engine, top in cases:
        ranks = {}
        for n in range(1, top + 1):
            table = engine.cocharacter(n)
            got = {r.shape.parts: r.multiplicity for r in table.rows}
            assert got == unsliced_cocharacter(engine, n, ranks), (engine.algebra.labels, n)
        for mu, h in ranks.items():
            assert engine.rank(mu) == h, (engine.algebra.labels, mu)


def test_span_up_to_scalar_matches_exact_duplicate_oracle(engine_for):
    # skipping columns equal up to a scalar against skipping only exact
    # duplicates, rank by rank on the slice gate: every content that each
    # catalog cocharacter ranks for n <= 6, two random base changes of
    # each for n <= 5 (n <= 4 in dim 6), and sl2 over Q(sqrt 2)
    rng = random.Random(41)
    cases = [(engine_for(name), 6) for name in CATALOG_NAMES]
    for name in CATALOG_NAMES:
        algebra = catalog_algebra(name)
        cases += [
            (CodimEngine(change_basis(algebra, random_invertible(rng, algebra.dim))),
             5 if algebra.dim < 6 else 4)
            for _ in range(2)
        ]
    cases.append((CodimEngine(sl2_over_sqrt2()), 5))
    contents = opposite = 0
    for engine, top in cases:
        for n in range(1, top + 1):
            for mu in engine._contents(n):
                values = engine._values(mu)
                columns = list(_transpose(values, list(values)))
                expected = exact_duplicate_span(columns, len(values)).rank
                assert _span(columns, len(values)).rank == expected, (
                    engine.algebra.labels, mu)
                distinct = set(columns)
                opposite += sum(tuple(-x for x in col) in distinct for col in distinct)
                contents += 1
    # the gate sees columns that are only equal up to a sign
    assert contents == 388 and opposite > 1000


def test_degree_wall_values(engine_for):
    # c_n and l_n past n = 6, where the columns equal up to a scalar
    # are most of the span's work
    walls = {("sl2_natural", 7): (314, 15), ("sl2_natural", 8): (918, 19),
             ("sl2_adjoint", 8): (232, 6)}
    for (name, n), expected in walls.items():
        table = engine_for(name).cocharacter(n)
        assert (table.codimension_sum, table.colength) == expected, (name, n)


def test_skipped_shapes_are_those_lie_n_lacks(engine_for):
    # Klyachko: for n <= 8 the skipped shapes are exactly those with no
    # standard tableau of major index 1 mod n (Kraskiewicz-Weyman), and
    # that count bounds every m_lambda, as P_n(L) is a quotient of Lie_n
    for n in range(1, 9):
        for shape in partitions(n):
            assert _lie_absent(shape.parts) == (lie_multiplicity(shape.parts) == 0), shape
    for name in CATALOG_NAMES:
        for n in range(1, 7):
            for row in engine_for(name).cocharacter(n).rows:
                assert row.multiplicity <= lie_multiplicity(row.shape.parts), (name, row.shape)


def test_slice_is_a_cartan_subalgebra_of_basis_vectors(engine_for):
    # its dimension is the rank of L, in any basis; each catalog slice is
    # spanned by basis vectors (h; h, z; h1, h2, the Engel subalgebra of
    # h1 + h2, as no basis vector of sl2_plus_sl2 is regular; h, H; e),
    # and a nilpotent L has none
    spans = {"abelian3": None, "heisenberg3": None, "sl2": (1,), "gl2": (1, 3),
             "sl2_plus_sl2": (1, 4), "sl2_natural": (1,), "sl2_adjoint": (1, 4),
             "solvable2": (0,)}
    rng = random.Random(4)
    for name, span in spans.items():
        engine = engine_for(name)
        if span is None:
            assert engine.slice is None
            continue
        assert engine.slice == [engine.brackets[j] for j in span], name
        algebra = catalog_algebra(name)
        moved = CodimEngine(change_basis(algebra, random_invertible(rng, algebra.dim)))
        assert len(moved.slice) == len(span), name


def test_slice_matches_the_integer_selection_oracle():
    # liealg.engel_subalgebra against the integer selection it replaced,
    # row for row: the catalog, three random base changes of each, sl2
    # over Q(sqrt 2), and the ad-nilpotent basis of sl2_plus_sl2, whose
    # first smallest Engel subalgebra is also the oracle's sparsest tie
    rng = random.Random(31)
    algebras = []
    for name in CATALOG_NAMES:
        algebra = catalog_algebra(name)
        algebras += [algebra] + [change_basis(algebra, random_invertible(rng, algebra.dim))
                                 for _ in range(3)]
    algebras += [sl2_over_sqrt2(), ad_nilpotent_sl2_plus_sl2()]
    assert len(algebras) == 34
    for algebra in algebras:
        engine = CodimEngine(algebra)
        assert engine.slice == integer_slice(engine), algebra.labels


def test_slice_without_a_regular_candidate_is_still_exact():
    # in a basis of ad-nilpotent elements of sl2_plus_sl2 (e, f and
    # h + e - f in each summand) no basis vector and no sum of two is
    # regular: the smallest Engel subalgebras are x + sl2 for a regular x
    # of one summand, of dimension 4 and not nilpotent, so the search
    # keeps one of them, which still contains a Cartan subalgebra
    rows = []
    for offset in (0, 3):
        for e, h, f in ((1, 0, 0), (0, 0, 1), (1, 1, -1)):
            row = [Fraction(0)] * 6
            row[offset:offset + 3] = map(Fraction, (e, h, f))
            rows.append(tuple(row))
    engine = CodimEngine(change_basis(catalog_algebra("sl2_plus_sl2"), tuple(rows)))
    assert len(engine.slice) == 4
    for n in range(1, 6):
        got = {r.shape.parts: r.multiplicity for r in engine.cocharacter(n).rows}
        assert got == unsliced_cocharacter(engine, n), n


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
    # every caller inserts integer columns (kernel values times D^(n-1))
    rng = random.Random(17)
    for _ in range(200):
        length, count = rng.randint(1, 6), rng.randint(0, 4)
        generators = [
            tuple(rng.randint(-5, 5) for _ in range(length)) for _ in range(count)
        ]
        columns = []
        for _ in range(rng.randint(1, 9)):
            kind = rng.random()
            if kind < 0.15 or not generators:
                col = (0,) * length  # zero column
            elif kind < 0.3 and columns:
                col = rng.choice(columns)  # duplicate column
            else:
                weights = [rng.randint(-5, 5) for _ in generators]
                col = tuple(
                    sum(w * g[i] for w, g in zip(weights, generators))
                    for i in range(length)
                )
            columns.append(col)
        space = _ColumnSpace()
        for col in columns:
            space.insert(col)
        assert space.rank == rank(tuple(columns))
        # the pivots are independent and span the inserted columns
        pivots = tuple(tuple(col) for _, col in space.pivots)
        assert rank(pivots) == space.rank
        assert rank(tuple(columns) + pivots) == space.rank


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


def test_capelli_exact_mode_keeps_tuple_budget(monkeypatch):
    # the budget bounds the signed-pass states of each check, and the scan
    # never builds the slice; t > dim L answers before any bound
    def forbidden(engine):
        raise AssertionError("the Cartan slice was built")

    monkeypatch.setattr(CodimEngine, "_select_slice", forbidden)
    engine = CodimEngine(catalog_algebra("sl2"), tuple_budget=10)
    assert engine.capelli_holds(4, 5)
    with pytest.raises(BudgetExceededError) as err:
        engine.capelli_holds(3, 5)
    assert err.value.required is None
    # a sample of at least (n-1)! checks is the full pass, bounded the same way
    with pytest.raises(BudgetExceededError) as err:
        CodimEngine(catalog_algebra("sl2_adjoint"), tuple_budget=1000).capelli_holds(
            3, 9, SampledMode(10**15))
    assert err.value.required is None


def test_sampled_check_is_bounded_by_budget_states():
    # a sampled check's signed pass grows with n; a degree-12 check of
    # sl2 walks more than 1000 states before its value is known
    with pytest.raises(BudgetExceededError) as err:
        CodimEngine(catalog_algebra("sl2"), tuple_budget=1000).capelli_holds(
            2, 12, SampledMode(3))
    assert err.value.required is None


def test_capelli_scan_counts_its_checks_against_the_budget():
    # abelian(2) has no hit: its 2^8 generic points fit a budget of 300,
    # but 7! = 5040 checks do not, and 6000 do
    abelian = catalog_algebra("abelian(2)")
    with pytest.raises(BudgetExceededError) as err:
        CodimEngine(abelian, tuple_budget=300).capelli_holds(1, 8)
    assert err.value.required == 5040
    assert CodimEngine(abelian, tuple_budget=6000).capelli_holds(1, 8)
    # a sample counts the same way: 400 of its 1000 orderings
    with pytest.raises(BudgetExceededError) as err:
        CodimEngine(abelian, tuple_budget=400).capelli_holds(1, 9, SampledMode(1000))
    assert err.value.required == 1000


def test_alternation_scans_share_one_policy():
    # capelli_holds and verify_upper run one scan: they raise on the same
    # cells, agree elsewhere, and full_pass is the coverage they report;
    # at n = 6 a sample of 100 is no full pass, and its checks can pass
    # a budget of 40
    names = [name for name in CATALOG_NAMES if catalog_algebra(name).dim <= 4]
    outcomes = set()
    for name in names + ["abelian(2)"]:
        algebra = catalog_algebra(name)
        for budget in (40, evaluation.DEFAULT_TUPLE_BUDGET):
            engine = CodimEngine(algebra, tuple_budget=budget)
            for t in range(1, 5):
                for n in range(t, 7):
                    for mode in (None, SampledMode(5, 1), SampledMode(100, 2)):
                        cell = (name, budget, t, n, mode)
                        try:
                            holds = engine.capelli_holds(t, n, mode)
                        except BudgetExceededError as err:
                            holds = ("raised", err.required)
                        try:
                            verdict = verify_upper(algebra, QPolySpec(t, 1, n),
                                                   mode, engine)
                        except BudgetExceededError as err:
                            assert holds == ("raised", err.required), cell
                            outcomes.add("states" if err.required is None
                                         else "checks")
                            continue
                        assert holds is verdict.passed, cell
                        assert full_pass(n, mode) is verdict.exhaustive, cell
                        assert verdict.passed or verdict.checks <= budget, cell
                        outcomes.add((verdict.passed, verdict.exhaustive))
    assert outcomes == {"states", "checks", (True, True), (True, False),
                        (False, True), (False, False)}


def test_capelli_sampled_refutes_only_false_checks(engine_for):
    gl2, sl2 = engine_for("gl2"), engine_for("sl2")
    for seed in range(3):
        assert gl2.capelli_holds(4, 5, SampledMode(count=20, seed=seed))
        assert not sl2.capelli_holds(3, 4, SampledMode(count=20, seed=seed))


def test_sampled_scan_matches_listed_sample(engine_for):
    # below (n-1)! checks the scan draws the oracle's orderings lazily and
    # checks each on the first family; at or above it is the full pass
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
    # 120 * 9! items: the sample draws orderings, it lists no families
    assert not sl2.capelli_holds(3, 10, SampledMode(count=10))
    assert sl2.capelli_holds(4, 12, SampledMode(count=10))


def test_sampled_scan_draws_orderings_lazily(engine_for):
    # 10^12 checks, below 15!: each ordering is drawn when it is checked,
    # so the first hit ends the scan with no list of draws
    assert not engine_for("sl2").capelli_holds(3, 16, SampledMode(10**12))


def test_find_nonzero_is_invariant_under_relabelling(engine_for):
    # relabelling the variables by tau carries the alternation of w on S
    # to that of tau(w) on tau(S), which is why a sample may check random
    # orderings on the first family in place of (basis word, family)
    # items; when tau keeps the order of the free variables, the first
    # hit is the relabelled one, with the same value
    rng = random.Random(15)
    natural = catalog_algebra("sl2_natural")
    engines = [engine_for(name) for name in CATALOG_NAMES]
    engines.append(CodimEngine(change_basis(
        natural, random_invertible(rng, natural.dim))))
    verdicts = hits = 0
    for engine in engines:
        checker = _AlternatedChecker(engine)
        for _ in range(100):
            n = rng.randint(1, 6)
            r = rng.randint(1, min(engine.p, n))
            sets = rng.choice(list(_set_assignments(n, r, rng.randint(1, n // r))))
            word = rng.choice(basis_Pn(n))
            tau = dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))
            free = [v for v in range(1, n + 1) if not any(v in s for s in sets)]
            if rng.random() < 0.5:
                tau.update(zip(free, sorted(tau[v] for v in free)))
            found = checker.find_nonzero(word, sets)
            moved = checker.find_nonzero(tuple(tau[v] for v in word),
                                         tuple(tuple(tau[v] for v in s) for s in sets))
            assert (found is None) == (moved is None), (word, sets, tau)
            verdicts += 1
            if found is not None and sorted(tau[v] for v in free) == [
                    tau[v] for v in free]:
                assign, value = found
                assert moved == ({tau[v]: c for v, c in assign.items()}, value)
                hits += 1
    assert verdicts == 900 and hits > 300


def _find_nonzero_gate(engine_for):
    """(engine, [(word, sets)]) for every catalog algebra to n = 5, two
    base changes each (scaled brackets, D > 1) and sl2 over Q(sqrt 2) to
    n = 4, on a random slice of every (n, r, k) cell with r <= dim L,
    with the sets' variables in the given order and then reversed."""
    rng = random.Random(8)
    cases = [(engine_for(name), 5) for name in CATALOG_NAMES]
    for name in CATALOG_NAMES:
        algebra = catalog_algebra(name)
        for _ in range(2):
            moved = change_basis(algebra, random_invertible(rng, algebra.dim))
            cases.append((CodimEngine(moved), 4))
    cases.append((CodimEngine(sl2_over_sqrt2()), 4))
    assert sum(engine.scale > 1 for engine, _ in cases) >= 10
    for engine, n_max in cases:
        calls = []
        for n in range(1, n_max + 1):
            words = basis_Pn(n)
            for r in range(1, min(engine.algebra.dim, n) + 1):
                for k in range(1, n // r + 1):
                    assignments = list(_set_assignments(n, r, k))
                    for sets in rng.sample(assignments, min(3, len(assignments))):
                        for order in (sets, tuple(s[::-1] for s in sets)):
                            calls += [(word, order) for word in
                                      rng.sample(words, min(3, len(words)))]
        yield engine, calls


def test_find_nonzero_matches_permutation_oracle(engine_for):
    # the signed pass returns the permutation sum's first hit, value
    # included, or None with it
    outcomes = []
    for engine, calls in _find_nonzero_gate(engine_for):
        checker, evaluator = _AlternatedChecker(engine), Evaluator(engine.algebra)
        for word, order in calls:
            found = checker.find_nonzero(word, order)
            assert found == permutation_find_nonzero(
                evaluator, word, order
            ) == digit_key_find_nonzero(engine, word, order)[0], (
                engine.algebra.labels, word, order)
            outcomes.append(found is not None)
    assert sum(outcomes) > 1000 and outcomes.count(False) > 200


def test_find_nonzero_refuses_where_the_digit_key_pass_did(engine_for):
    # free letters as sets of one create the states of the pass that keyed
    # them by a value digit, one for one: with the budget at that pass's
    # state count both answer, and one below both refuse (n >= 2), on the
    # gate's engines of dim <= 5 (the dim-6 ones cost ~4 s a pass)
    def refusal(find, *args):
        try:
            return find(*args)
        except BudgetExceededError:
            return "refused"

    def digit_key_hit(*args):
        return digit_key_find_nonzero(*args)[0]

    refusals = 0
    for engine, calls in _find_nonzero_gate(engine_for):
        if engine.p > 5:
            continue
        for word, order in calls:
            found, created = digit_key_find_nonzero(engine, word, order)
            capped = CodimEngine(engine.algebra, tuple_budget=created)
            assert _AlternatedChecker(capped).find_nonzero(word, order) == found
            capped.tuple_budget -= 1
            refused = refusal(_AlternatedChecker(capped).find_nonzero, word, order)
            assert refused == refusal(digit_key_hit, capped, word, order)
            assert (refused == "refused") == (len(word) > 1), (word, order)
            refusals += refused == "refused"
    assert refusals > 3500


def test_find_nonzero_charges_each_state_as_it_is_created():
    # abelian(300), t = 1, n = 2: one step would build 300^2 states of 300
    # entries (~200 MB) before a bound charged after the step; counted as
    # each is created, the check is refused after budget - 300 + 1 of them
    engine = CodimEngine(catalog_algebra("abelian(300)"), tuple_budget=1000)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError) as err:
            engine.capelli_holds(1, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.required is None
    assert peak < 8 * 2**20


def test_find_nonzero_matches_choice_pass_and_permutation_oracles(engine_for):
    # the one signed pass against the per-choice pass it replaced and the
    # permutation sum, on every word in both set orders, where several
    # choices of set values hit and the least one must be returned
    rng = random.Random(14)
    for name in ("sl2_natural", "sl2_adjoint"):
        engine = engine_for(name)
        checker, evaluator = _AlternatedChecker(engine), Evaluator(engine.algebra)
        outcomes, past_first_choice = [], 0
        for n in range(1, 6):
            words = basis_Pn(n)
            for k in (1, 2):
                for r in range(1, min(engine.p, n // k) + 1):
                    families = list(_set_assignments(n, r, k))
                    for sets in {families[0], rng.choice(families)}:
                        for order in (sets, tuple(s[::-1] for s in sets)):
                            for word in words:
                                found = checker.find_nonzero(word, order)
                                assert found == choice_pass_find_nonzero(
                                    engine, word, order
                                ) == permutation_find_nonzero(
                                    evaluator, word, order
                                ), (name, word, order)
                                outcomes.append(found is not None)
                                if found and any(
                                    sorted(found[0][v] for v in s) != list(range(r))
                                    for s in order
                                ):
                                    past_first_choice += 1
        assert sum(outcomes) > 500 and outcomes.count(False) > 80, name
        assert past_first_choice > 20, name


def test_one_family_scan_matches_all_families_oracle(engine_for):
    # S_n permutes the families of disjoint sets transitively, so the
    # first family decides the scan: same checks, verdict and first hit
    passes = 0
    for name in CATALOG_NAMES:
        engine = engine_for(name)
        checker = _AlternatedChecker(engine)
        for n in range(1, 7):
            for r in range(1, min(engine.p, n) + 1):
                for k in range(1, n // r + 1):
                    expected = all_families_scan(engine, n, r, k)
                    nwords = len(basis_Pn(n))
                    population = len(list(_set_assignments(n, r, k))) * nwords
                    for mode in (None, SampledMode(nwords, 2),
                                 SampledMode(population, 3),
                                 SampledMode(population + 5, 4)):
                        assert checker.scan(n, r, k, mode) == expected, (
                            name, n, r, k, mode
                        )
                    passes += expected[2] is None
    assert passes > 20


def test_engine_evaluates_no_cached_words(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the engine evaluated cached words")

    monkeypatch.setattr(evaluation.Evaluator, "word_value", forbidden)
    monkeypatch.setattr(evaluation.Evaluator, "__init__", forbidden)
    # sampled columns walk the kernel at basis tuples
    natural = catalog_algebra("sl2_natural")
    engine, sampled = CodimEngine(natural), SampledMode(count=50, seed=1)
    assert [engine.codimension(n, sampled) for n in range(1, 6)] == [1, 1, 2, 5, 7]
    report = growth_report(natural, 4)
    assert [(r.codimension, r.colength) for r in report.rows] == [
        (1, 1), (1, 1), (2, 1), (6, 2)
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
