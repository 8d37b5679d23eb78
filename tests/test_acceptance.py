"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Each criterion is checked exactly as stated; timings are printed and
asserted against the stated budgets with the full margin allowed.
"""

import random
import time
from math import factorial

from picodim import (
    QPolySpec,
    SampledMode,
    YoungTableau,
    analyze,
    catalog_algebra,
    change_basis,
    find_lower_witness,
    hook_dim,
    partitions,
    pi_exponent_candidate,
    symmetrizer,
    verify_upper,
)
from picodim.errors import HypothesisFailure
from picodim.evaluation import CodimEngine
from fractions import Fraction

from helpers import (
    bracketing_enumeration_d,
    count_standard_tableaux,
    multilinear_columns,
    random_invertible,
)


def report(n, passed, detail):
    line = f"CRITERION {n}: {'PASS' if passed else 'FAIL'} — {detail}"
    print(line)


def test_criterion_1_structure_pipeline():
    checks = {}
    worst = 0.0
    for name in ("sl2", "gl2", "sl2_natural", "heisenberg3", "solvable2"):
        start = time.perf_counter()
        if name == "solvable2":
            try:
                analyze(catalog_algebra(name))
                checks[name] = False
            except HypothesisFailure:
                checks[name] = True
        else:
            rep = analyze(catalog_algebra(name))
            dims = [c.dim for c in rep.components]
            if name == "sl2":
                checks[name] = rep.nilradical.is_zero() and dims == [3]
            elif name == "gl2":
                checks[name] = rep.nilradical.dim == 1 and dims == [3]
            elif name == "sl2_natural":
                checks[name] = (
                    rep.nilradical.dim == 2 and rep.nil_class == 2 and dims == [3]
                )
            elif name == "heisenberg3":
                checks[name] = rep.nilradical.dim == 3 and dims == []
        worst = max(worst, time.perf_counter() - start)
    ok = all(checks.values()) and worst < 1.0
    report(1, ok, f"{checks}, slowest {worst:.3f}s")
    assert all(checks.values())
    assert worst < 1.0


def test_criterion_2_exponent_candidate():
    start = time.perf_counter()
    expected = {
        "sl2": 3,
        "gl2": 3,
        "sl2_plus_sl2": 3,
        "sl2_natural": 3,
        "sl2_adjoint": 3,
        "heisenberg3": 0,
    }
    results = {}
    oracle_ok = True
    for name, want in expected.items():
        rep = pi_exponent_candidate(catalog_algebra(name))
        results[name] = rep.d
        oracle_d, _ = bracketing_enumeration_d(rep.structure, max_len=6)
        oracle_ok = oracle_ok and oracle_d == rep.d
    elapsed = time.perf_counter() - start
    ok = results == expected and oracle_ok and elapsed < 10
    report(2, ok, f"d={results}, bracketing oracle agree={oracle_ok}, {elapsed:.2f}s")
    assert results == expected
    assert oracle_ok
    assert elapsed < 10


def test_criterion_3_e4_cross_check(engine_for):
    start = time.perf_counter()
    failures = []
    names = (
        "abelian3",
        "heisenberg3",
        "sl2",
        "gl2",
        "sl2_plus_sl2",
        "sl2_natural",
        "sl2_adjoint",
        "solvable2",
    )
    for name in names:
        engine = engine_for(name)
        for n in range(1, 6):
            table = engine.cocharacter(n)
            # exact codimension is the cocharacter's own sum, and the
            # engine's multilinear (mu = 1^n) columns share its Cartan
            # slice, so compare both with the rank of the unsliced
            # multilinear columns over every basis tuple
            c = len(multilinear_columns(engine, n).kept)
            if c != table.codimension_sum or c != engine.exhaustive_columns(n).rank:
                failures.append((name, n, "codimension"))
            if table.colength != sum(r.multiplicity for r in table.rows):
                failures.append((name, n, "colength"))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 600
    report(3, ok, f"8 algebras x n<=5, failures={failures}, {elapsed:.1f}s")
    assert not failures
    assert elapsed < 600


def test_criterion_4_capelli(engine_for):
    start = time.perf_counter()
    results = {
        "heisenberg3 t=3 n=3": engine_for("heisenberg3").capelli_holds(3, 3),
        "heisenberg3 t=3 n=4": engine_for("heisenberg3").capelli_holds(3, 4),
        "sl2 t=4 n=4": engine_for("sl2").capelli_holds(4, 4),
        "sl2 t=4 n=5": engine_for("sl2").capelli_holds(4, 5),
        "sl2 t=3 n=3": engine_for("sl2").capelli_holds(3, 3),
        "sl2_natural t=5 n=5": engine_for("sl2_natural").capelli_holds(5, 5),
    }
    elapsed = time.perf_counter() - start
    expected = {
        "heisenberg3 t=3 n=3": True,
        "heisenberg3 t=3 n=4": True,
        "sl2 t=4 n=4": True,
        "sl2 t=4 n=5": True,
        "sl2 t=3 n=3": False,  # see note below
        "sl2_natural t=5 n=5": True,
    }
    ok = results == expected and elapsed < 300
    report(4, ok, f"{results}, {elapsed:.1f}s")
    # The stated rank-3 violation at n = 3 is unattainable: every full
    # alternation of a degree-3 multilinear monomial is a signed Jacobi
    # sum and vanishes identically in every Lie algebra, so the check
    # holds at n = 3; the first rank-3 violation for sl2 is at n = 4
    # (covered by a regression test in test_evaluation).  This assertion
    # is kept faithful to the stated criterion and fails honestly.
    assert results == expected
    assert elapsed < 300


def test_criterion_5_upper_bound_mechanism(engine_for):
    start = time.perf_counter()
    sl2 = engine_for("sl2")
    full4 = verify_upper(sl2.algebra, QPolySpec(4, 1, 4), engine=sl2)
    full5 = verify_upper(sl2.algebra, QPolySpec(4, 1, 5), engine=sl2)
    natural = engine_for("sl2_natural")
    sampled = verify_upper(
        natural.algebra,
        QPolySpec(4, 2, 8),
        mode=SampledMode(count=25, seed=0),
        engine=natural,
    )
    elapsed = time.perf_counter() - start
    ok = (
        full4.passed
        and full4.exhaustive
        and full5.passed
        and full5.exhaustive
        and sampled.passed
        and sampled.checks >= 20
        and elapsed < 900
    )
    report(
        5,
        ok,
        f"sl2 n=4:{full4.passed} n=5:{full5.passed}, "
        f"sl2_natural n=8 sampled {sampled.checks} checks:{sampled.passed}, "
        f"{elapsed:.1f}s",
    )
    assert full4.passed and full4.exhaustive
    assert full5.passed and full5.exhaustive
    assert sampled.passed and sampled.checks >= 20
    assert elapsed < 900


def test_criterion_6_lower_bound_witnesses(engine_for):
    start = time.perf_counter()
    sl2 = engine_for("sl2")
    w1 = find_lower_witness(sl2.algebra, r=3, k=1, n_max=5, engine=sl2)
    natural = engine_for("sl2_natural")
    w2 = find_lower_witness(natural.algebra, r=3, k=1, n_max=6, engine=natural)
    elapsed = time.perf_counter() - start
    ok = (
        w1 is not None
        and w2 is not None
        and not all(x == 0 for x in w1.value)
        and not all(x == 0 for x in w2.value)
        and elapsed < 600
    )
    detail = (
        f"sl2 degree {w1.spec.n if w1 else None}, "
        f"sl2_natural degree {w2.spec.n if w2 else None}, {elapsed:.1f}s"
    )
    report(6, ok, detail)
    assert w1 is not None and not all(x == 0 for x in w1.value)
    assert w2 is not None and not all(x == 0 for x in w2.value)
    assert elapsed < 600


def test_criterion_7_symmetric_group_suite():
    start = time.perf_counter()
    squares_ok = all(
        sum(hook_dim(s) ** 2 for s in partitions(n)) == factorial(n)
        for n in range(1, 11)
    )
    idempotent_ok = True
    for n in range(1, 6):
        for shape in partitions(n):
            e = symmetrizer(YoungTableau.row_reading(shape))
            alpha = Fraction(factorial(n), hook_dim(shape))
            if (e * e).terms != e.scale(alpha).terms:
                idempotent_ok = False
    tableau_ok = all(
        hook_dim(s) == count_standard_tableaux(s)
        for n in range(1, 7)
        for s in partitions(n)
    )
    elapsed = time.perf_counter() - start
    ok = squares_ok and idempotent_ok and tableau_ok and elapsed < 120
    report(
        7,
        ok,
        f"sum d^2=n! : {squares_ok}, essential idempotents: {idempotent_ok}, "
        f"tableau counts: {tableau_ok}, {elapsed:.1f}s",
    )
    assert squares_ok and idempotent_ok and tableau_ok
    assert elapsed < 120


def test_criterion_8_invariance_under_base_change():
    start = time.perf_counter()
    rng = random.Random(2026)
    names = (
        "abelian3",
        "heisenberg3",
        "sl2",
        "gl2",
        "sl2_plus_sl2",
        "sl2_natural",
        "sl2_adjoint",
        "solvable2",
    )
    failures = []
    for name in names:
        algebra = catalog_algebra(name)
        reference = CodimEngine(algebra)
        base_c = [reference.codimension(n) for n in range(1, 5)]
        try:
            base_d = pi_exponent_candidate(algebra).d
        except HypothesisFailure:
            base_d = "hypothesis-failure"
        for trial in range(5):
            moved = change_basis(algebra, random_invertible(rng, algebra.dim))
            engine = CodimEngine(moved)
            if [engine.codimension(n) for n in range(1, 5)] != base_c:
                failures.append((name, trial, "codimension"))
            try:
                moved_d = pi_exponent_candidate(moved).d
            except HypothesisFailure:
                moved_d = "hypothesis-failure"
            if moved_d != base_d:
                failures.append((name, trial, "exponent"))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 300
    report(8, ok, f"5 base changes x 8 algebras, failures={failures}, {elapsed:.1f}s")
    assert not failures
    assert elapsed < 300
