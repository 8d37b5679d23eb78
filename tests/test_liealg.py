import random
from fractions import Fraction

import pytest

from picodim import (
    CATALOG_NAMES,
    analyze,
    catalog_algebra,
    change_basis,
    from_json_dict,
    killing_form,
    radical,
    simple_decomposition,
    to_json_dict,
    validate,
)
from picodim.errors import (
    HypothesisFailure,
    JacobiError,
    MalformedInputError,
    NotSemisimpleError,
    NotSplitError,
)
from picodim.liealg import centroid, is_solvable, nilpotency_class
from picodim.linalg import Subspace, is_zero_vec, mat_mul, unit_vec, vec

from helpers import (
    direct_sum,
    random_invertible,
    randomized_simple_decomposition,
    sl2_over_sqrt2,
)


def unit(n, k, c=1):
    v = [Fraction(0)] * n
    v[k] = Fraction(c)
    return v


def test_validate_abelian():
    algebra = validate(("a1", "a2", "a3"), {})
    assert algebra.dim == 3
    assert algebra.table == {}


def test_validate_sl2():
    algebra = catalog_algebra("sl2")
    assert algebra.dim == 3
    e, h, f = (algebra.basis_vector(i) for i in range(3))
    assert algebra.bracket(e, f) == tuple(unit(3, 1))  # [e,f] = h
    assert algebra.bracket(h, e) == tuple(unit(3, 0, 2))  # [h,e] = 2e
    assert algebra.bracket(h, f) == tuple(unit(3, 2, -2))  # [h,f] = -2f


def test_validate_reports_jacobi_violation_triple():
    # sl2 with the sign of [h,f] flipped breaks the Jacobi identity
    table = {
        (0, 1): unit(3, 0, -2),  # [e,h] = -2e
        (0, 2): unit(3, 1),  # [e,f] = h
        (1, 2): unit(3, 2, 2),  # [h,f] = +2f (wrong sign)
    }
    with pytest.raises(JacobiError) as err:
        validate(("e", "h", "f"), table)
    assert err.value.triple == ("e", "h", "f")


def test_validate_rejects_bad_shapes():
    with pytest.raises(MalformedInputError):
        validate(("a", "b"), {(0, 1): [1]})
    with pytest.raises(MalformedInputError):
        validate(("a", "b"), {(1, 0): [0, 1]})


def test_bracket_antisymmetry_and_bilinearity():
    algebra = catalog_algebra("sl2_natural")
    rng = random.Random(1)
    for _ in range(10):
        x = vec(rng.choices(range(-3, 4), k=5))
        y = vec(rng.choices(range(-3, 4), k=5))
        assert is_zero_vec(algebra.bracket(x, x))
        assert algebra.bracket(x, y) == tuple(
            -c for c in algebra.bracket(y, x)
        )


def test_jacobi_holds_on_all_catalog_triples():
    for name in CATALOG_NAMES:
        algebra = catalog_algebra(name)
        basis = [algebra.basis_vector(i) for i in range(algebra.dim)]
        for a in basis:
            for b in basis:
                for c in basis:
                    total = algebra.bracket(algebra.bracket(a, b), c)
                    total = tuple(
                        x + y
                        for x, y in zip(
                            total, algebra.bracket(algebra.bracket(b, c), a)
                        )
                    )
                    total = tuple(
                        x + y
                        for x, y in zip(
                            total, algebra.bracket(algebra.bracket(c, a), b)
                        )
                    )
                    assert is_zero_vec(total)


def test_killing_form_abelian_is_zero():
    kappa = killing_form(catalog_algebra("abelian3"))
    assert all(x == 0 for row in kappa for x in row)


def test_killing_form_sl2_values():
    kappa = killing_form(catalog_algebra("sl2"))  # basis order (e, h, f)
    assert kappa[1][1] == 8
    assert kappa[0][2] == kappa[2][0] == 4
    assert kappa[0][0] == kappa[2][2] == 0
    assert kappa[0][1] == kappa[1][0] == kappa[1][2] == kappa[2][1] == 0


def test_killing_form_solvable2_rank_one():
    kappa = killing_form(catalog_algebra("solvable2"))
    assert kappa[0][0] == 1  # ad(e) acts as identity on span{f}
    assert sum(1 for row in kappa for x in row if x != 0) == 1


def test_killing_form_symmetric_and_invariant():
    for name in CATALOG_NAMES:
        algebra = catalog_algebra(name)
        kappa = killing_form(algebra)
        n = algebra.dim
        basis = [algebra.basis_vector(i) for i in range(n)]

        def k(x, y):
            return sum(
                kappa[i][j] * x[i] * y[j] for i in range(n) for j in range(n)
            )

        for i in range(n):
            for j in range(n):
                assert kappa[i][j] == kappa[j][i]
        for a in basis:
            for b in basis:
                for c in basis:
                    assert k(algebra.bracket(a, b), c) == k(a, algebra.bracket(b, c))


def test_radical_semisimple_is_zero():
    assert radical(catalog_algebra("sl2")).is_zero()
    assert radical(catalog_algebra("sl2_plus_sl2")).is_zero()


def test_radical_solvable2_is_whole_algebra():
    assert radical(catalog_algebra("solvable2")).dim == 2


def test_radical_of_natural_module_extension():
    # sl2 acting on Q^2: the module span{u, v} is the radical
    rad = radical(catalog_algebra("sl2_natural"))
    assert rad == Subspace.from_vectors(5, [unit_vec(5, 3), unit_vec(5, 4)])


def test_radical_is_an_ideal():
    for name in CATALOG_NAMES:
        algebra = catalog_algebra(name)
        rad = radical(algebra)
        for i in range(algebra.dim):
            for r in rad.basis:
                assert rad.contains(algebra.bracket(algebra.basis_vector(i), r))


def test_solvability_and_nilpotency_helpers():
    heis = catalog_algebra("heisenberg3")
    full = Subspace.full(3)
    assert is_solvable(heis, full)
    assert nilpotency_class(heis, full) == 3
    sl2 = catalog_algebra("sl2")
    assert not is_solvable(sl2, Subspace.full(3))
    assert nilpotency_class(sl2, Subspace.zero(3)) == 1
    abelian = catalog_algebra("abelian3")
    assert nilpotency_class(abelian, Subspace.full(3)) == 2
    solvable2 = catalog_algebra("solvable2")
    assert nilpotency_class(solvable2, Subspace.full(2)) is None


def test_analyze_sl2():
    report = analyze(catalog_algebra("sl2"))
    assert report.nilradical.is_zero()
    assert report.nil_class == 1
    assert [c.dim for c in report.components] == [3]


def test_analyze_heisenberg3():
    report = analyze(catalog_algebra("heisenberg3"))
    assert report.nilradical.dim == 3
    assert report.nil_class == 3
    assert report.quotient_dim == 0
    assert report.components == ()


def test_analyze_gl2():
    report = analyze(catalog_algebra("gl2"))
    assert report.nilradical.dim == 1  # the center
    assert report.nil_class == 2
    assert report.quotient_dim == 3
    assert [c.dim for c in report.components] == [3]


def test_analyze_sl2_natural():
    report = analyze(catalog_algebra("sl2_natural"))
    assert report.nilradical.dim == 2
    assert report.nil_class == 2
    assert [c.dim for c in report.components] == [3]


def test_analyze_sl2_adjoint():
    report = analyze(catalog_algebra("sl2_adjoint"))
    assert report.nilradical.dim == 3
    assert report.nil_class == 2
    assert [c.dim for c in report.components] == [3]


def test_analyze_solvable2_fails_hypotheses():
    with pytest.raises(HypothesisFailure):
        analyze(catalog_algebra("solvable2"))


def test_simple_decomposition_simple_algebra():
    parts = simple_decomposition(catalog_algebra("sl2"))
    assert len(parts) == 1 and parts[0].dim == 3


def test_simple_decomposition_direct_sum():
    parts = simple_decomposition(catalog_algebra("sl2_plus_sl2"))
    assert [p.dim for p in parts] == [3, 3]
    expected = [
        Subspace.from_vectors(6, [unit_vec(6, i) for i in range(3)]),
        Subspace.from_vectors(6, [unit_vec(6, i) for i in range(3, 6)]),
    ]
    assert sorted(p.basis for p in parts) == sorted(e.basis for e in expected)


def test_simple_decomposition_rejects_non_semisimple():
    with pytest.raises(NotSemisimpleError):
        simple_decomposition(catalog_algebra("abelian3"))
    with pytest.raises(NotSemisimpleError):
        simple_decomposition(catalog_algebra("gl2"))


def test_simple_decomposition_matches_randomized_oracle():
    semisimple = [
        analyze(catalog_algebra(name)).quotient
        for name in ("sl2", "gl2", "sl2_plus_sl2", "sl2_natural", "sl2_adjoint")
    ]
    pair = catalog_algebra("sl2_plus_sl2")
    semisimple.append(direct_sum(pair, catalog_algebra("sl2")))
    # unimodular: identity plus cross-ideal entries, upper times lower
    upper = [list(unit_vec(6, i)) for i in range(6)]
    lower = [list(unit_vec(6, i)) for i in range(6)]
    upper[0][3], upper[1][4], upper[2][5] = 1, 2, -1
    lower[3][0], lower[5][1] = 1, 1
    mixing = mat_mul(tuple(map(tuple, upper)), tuple(map(tuple, lower)))
    semisimple.append(change_basis(pair, mixing))
    for algebra in semisimple:
        parts = simple_decomposition(algebra)
        assert len(parts) == len(centroid(algebra))
        for seed in range(3):
            assert randomized_simple_decomposition(algebra, seed) == parts
    assert [p.dim for p in simple_decomposition(semisimple[-1])] == [3, 3]


def test_non_split_component_raises():
    algebra = sl2_over_sqrt2()
    assert len(centroid(algebra)) == 2  # Q(sqrt 2)
    with pytest.raises(NotSplitError):
        analyze(algebra)
    with pytest.raises(NotSplitError):
        randomized_simple_decomposition(algebra, 0)


def test_components_bracket_structure():
    # [G_i, G_j] = 0 for i != j and [G_i, G_i] = G_i, inside the quotient
    for name in ("sl2", "sl2_plus_sl2", "gl2", "sl2_natural", "sl2_adjoint"):
        report = analyze(catalog_algebra(name))
        q = report.quotient
        comps = [c.subspace for c in report.components]
        for i, a in enumerate(comps):
            for j, b in enumerate(comps):
                span = Subspace.from_vectors(
                    q.dim, [q.bracket(u, v) for u in a.basis for v in b.basis]
                )
                if i == j:
                    assert span == a
                else:
                    assert span.is_zero()


def test_adapted_bases_project_to_single_component():
    for name in ("sl2_plus_sl2", "sl2_adjoint", "sl2_natural"):
        report = analyze(catalog_algebra(name))
        for i, comp in enumerate(report.components):
            assert len(comp.lifted_basis) == comp.dim
            for v in comp.lifted_basis:
                g = report.project_to_quotient(v)
                for j in range(len(report.components)):
                    proj = report.component_project(g, j)
                    if j == i:
                        assert not is_zero_vec(proj)
                    else:
                        assert is_zero_vec(proj)


def test_component_dims_sum_to_quotient_dim():
    for name in ("sl2", "gl2", "sl2_plus_sl2", "sl2_natural", "sl2_adjoint"):
        report = analyze(catalog_algebra(name))
        assert sum(c.dim for c in report.components) == report.quotient_dim


def test_direct_sum_component_multisets_combine():
    pairs = [("sl2", "sl2"), ("sl2", "heisenberg3"), ("sl2_plus_sl2", "gl2")]
    for left, right in pairs:
        a, b = catalog_algebra(left), catalog_algebra(right)
        combined = analyze(direct_sum(a, b))
        dims = sorted(c.dim for c in combined.components)
        expected = sorted(
            [c.dim for c in analyze(a).components]
            + [c.dim for c in analyze(b).components]
        )
        assert dims == expected


def test_lift_is_a_section_of_the_quotient_map():
    for name in ("gl2", "sl2_natural", "sl2_adjoint"):
        report = analyze(catalog_algebra(name))
        for k in range(report.quotient_dim):
            g = unit_vec(report.quotient_dim, k)
            assert report.project_to_quotient(report.lift(g)) == g
        for v in report.nilradical_basis:
            assert is_zero_vec(report.project_to_quotient(v))


def test_json_round_trip():
    for name in CATALOG_NAMES:
        algebra = catalog_algebra(name)
        reloaded = from_json_dict(to_json_dict(algebra))
        assert reloaded.labels == algebra.labels
        assert reloaded.table == algebra.table


def test_json_schema_example():
    data = {"dim": 2, "basis": ["e", "f"], "brackets": {"1,2": [["1", 2]]}}
    algebra = from_json_dict(data)
    assert algebra.table == catalog_algebra("solvable2").table


def test_json_rejects_malformed_input():
    with pytest.raises(MalformedInputError):
        from_json_dict([])
    with pytest.raises(MalformedInputError):
        from_json_dict({"dim": "x"})
    with pytest.raises(MalformedInputError):
        from_json_dict({"dim": 2, "brackets": {"2,1": [["1", 1]]}})
    with pytest.raises(MalformedInputError):
        from_json_dict({"dim": 2, "brackets": {"1,2": [["1", 5]]}})
    with pytest.raises(MalformedInputError):
        from_json_dict({"dim": 2, "basis": ["only-one"]})
    # wrong JSON types, which used to raise other errors or be coerced:
    # a bool or non-integral dim, a dim below 1 (a zero algebra has no
    # basis tuple to sample), a non-object brackets, a non-list bracket
    # value and a basis index that is not an int
    bracket = {"1,2": [["1", 2]]}
    for data in (
        {"dim": True, "basis": ["e"]},
        {"dim": 1.5},
        {"dim": 2.0, "brackets": bracket},
        {"dim": -1},
        {"dim": 0},
        {"dim": 2, "brackets": [1]},
        {"dim": 2, "brackets": {"1,2": 5}},
        {"dim": 2, "brackets": {"1,2": [5]}},
        {"dim": 2, "brackets": {"1,2": [["1", "x"]]}},
        {"dim": 2, "brackets": {"1,2": [["1", 1.5]]}},
        {"dim": 2, "brackets": {"1,2": [["1", True]]}},
        {"dim": 2, "brackets": {"1,2": [[True, 2]]}},
    ):
        with pytest.raises(MalformedInputError):
            from_json_dict(data)


def test_catalog_names_and_parametric_abelian():
    assert len(CATALOG_NAMES) == 8
    for name in CATALOG_NAMES:
        assert catalog_algebra(name).dim >= 2
    assert catalog_algebra("abelian(5)").dim == 5
    with pytest.raises(MalformedInputError):
        catalog_algebra("abelian(0)")
    with pytest.raises(MalformedInputError):
        catalog_algebra("no-such-algebra")


def test_change_basis_preserves_structure():
    rng = random.Random(21)
    for name in ("sl2", "gl2", "heisenberg3"):
        algebra = catalog_algebra(name)
        p = random_invertible(rng, algebra.dim)
        moved = change_basis(algebra, p)
        # structure constants change, but the structure report does not
        if name == "heisenberg3":
            assert analyze(moved).nil_class == 3
        else:
            assert [c.dim for c in analyze(moved).components] == [3]
