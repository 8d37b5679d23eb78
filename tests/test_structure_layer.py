"""Differential gate for the sparse structure layer.

The bracket, ad, Jacobi check, Killing form and centroid read the sparse
structure constants, and elimination skips zeros.  Each is checked
exactly against the dense `Fraction` oracle it replaced (tests/helpers.py)
on the catalog and on random base changes, whose brackets are dense.
RREF is canonical, so whole structure reports and height-span tables
must come out identical, down to the type of every entry.
"""

import io
import json
import random
from fractions import Fraction

import pytest

from picodim import analyze, catalog_algebra, change_basis, validate
from picodim import cli, liealg, linalg
from picodim.errors import JacobiError, NotSplitError
from picodim.exponent import height_spans
from picodim.liealg import (
    CATALOG_NAMES,
    LieAlgebra,
    centroid,
    from_json_dict,
    killing_form,
)
from picodim.linalg import Subspace, kernel, mat_mul, mat_vec, rref

from helpers import (
    dense_ad,
    dense_bracket,
    dense_centroid,
    dense_centroid_equations,
    dense_jacobi_failure,
    dense_kernel,
    dense_killing_form,
    dense_rref,
    random_fraction,
    random_invertible,
    sl2_over_sqrt2,
)


def catalog_and_base_changes():
    """The catalog, and two random base changes of each (dense brackets)."""
    rng = random.Random(16)
    out = []
    for name in CATALOG_NAMES:
        algebra = catalog_algebra(name)
        out.append((name, algebra))
        for t in range(2):
            moved = change_basis(algebra, random_invertible(rng, algebra.dim))
            out.append((f"{name}#{t}", moved))
    return out


ALGEBRAS = catalog_and_base_changes()


def all_fractions(value) -> bool:
    """Every scalar in a nest of tuples and lists is a Fraction."""
    if isinstance(value, (tuple, list)):
        return all(all_fractions(x) for x in value)
    return type(value) is Fraction


def random_vector(rng, n):
    return tuple(random_fraction(rng) if rng.random() < 0.6 else Fraction(0)
                 for _ in range(n))


def test_base_changes_have_dense_brackets():
    sizes = [len(v) - v.count(0) for name, a in ALGEBRAS if "#" in name
             for v in a.table.values()]
    assert max(sizes) >= 4


@pytest.mark.parametrize("name,algebra", ALGEBRAS, ids=[n for n, _ in ALGEBRAS])
def test_sparse_constants_match_dense_oracles(name, algebra):
    n = algebra.dim
    rng = random.Random(n)
    basis = [algebra.basis_vector(i) for i in range(n)]
    vectors = basis + [random_vector(rng, n) for _ in range(6)]
    for x in vectors:
        assert algebra.ad(x) == dense_ad(algebra, x)
        for y in vectors:
            assert algebra.bracket(x, y) == dense_bracket(algebra, x, y)
    for i in range(n):
        for j in range(n):
            assert algebra.bracket_basis(i, j) == dense_bracket(algebra, basis[i], basis[j])
    assert killing_form(algebra) == dense_killing_form(algebra)
    assert centroid(algebra) == dense_centroid(algebra)
    assert dense_jacobi_failure(algebra) is None
    assert validate(algebra.labels, algebra.table).table == algebra.table


def test_centroid_equations_drop_only_zero_rows():
    # the sparse equations span the dense ones: same null space, no more rows
    for name in ("sl2_plus_sl2", "sl2_natural"):
        algebra = catalog_algebra(name)
        p = algebra.dim
        dense_rows = dense_centroid_equations(algebra)
        nonzero = [r for r in dense_rows if any(r)]
        assert len(nonzero) < len(dense_rows) == p ** 3
        assert kernel(tuple(dense_rows), p * p).basis == dense_kernel(nonzero, p * p)


def _dense_layer(monkeypatch):
    """Route the structure pipeline through the dense oracles."""
    monkeypatch.setattr(liealg.LieAlgebra, "bracket", dense_bracket)
    monkeypatch.setattr(liealg, "killing_form", dense_killing_form)
    monkeypatch.setattr(liealg, "centroid", dense_centroid)
    monkeypatch.setattr(linalg, "rref", dense_rref)

    def dense_reduce(self, v):
        w = list(v)
        for row in self.basis:
            lead = next(i for i, x in enumerate(row) if x != 0)
            if w[lead] != 0:
                f = w[lead]
                w = [x - f * y for x, y in zip(w, row)]
        return tuple(w)

    def dense_kernel_space(m, ncols):
        return Subspace(ncols, dense_kernel(m, ncols))

    monkeypatch.setattr(Subspace, "reduce", dense_reduce)
    monkeypatch.setattr(
        Subspace, "insert",
        lambda self, v: Subspace.from_vectors(self.ambient, self.basis + (v,)))
    monkeypatch.setattr(liealg, "kernel", dense_kernel_space)
    monkeypatch.setattr(liealg, "rank", lambda m: len(dense_rref(m)))


def _structure(algebra):
    """repr of every field of the report and of the height-span table
    (repr tells a Fraction from an int), or the error raised."""
    try:
        report = analyze(algebra)
    except Exception as exc:  # noqa: BLE001 - the error is the answer
        return (type(exc).__name__, str(exc))
    table = height_spans(report)
    return repr((
        report.nilradical, report.nil_class, report._rep_indices,
        report.quotient.labels, sorted(report.quotient.table.items()),
        [(c.subspace, c.lifted_basis) for c in report.components],
        sorted((sorted(k), v) for k, v in table.spans.items()),
        sorted((sorted(k), v) for k, v in table.generators.items()),
    ))


def test_reports_and_height_spans_match_dense_layer(monkeypatch):
    algebras = ALGEBRAS + [("sl2_over_sqrt2", sl2_over_sqrt2())]
    sparse_results = [_structure(a) for _, a in algebras]
    _dense_layer(monkeypatch)
    dense_results = [_structure(a) for _, a in algebras]
    for (name, _), got, want in zip(algebras, sparse_results, dense_results):
        assert got == want, name
    assert sparse_results[-1][0] == NotSplitError.__name__


def test_rref_kernel_and_products_match_dense_oracles():
    rng = random.Random(5)
    for _ in range(60):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        density = rng.choice((0.2, 0.5, 1.0))
        m = tuple(
            tuple(random_fraction(rng) if rng.random() < density else Fraction(0)
                  for _ in range(cols))
            for _ in range(rows)
        )
        assert rref(m) == dense_rref(m)
        assert kernel(m, cols).basis == dense_kernel(m, cols)
        width = rng.randint(1, 4)
        b = tuple(tuple(random_fraction(rng) for _ in range(width))
                  for _ in range(cols))
        assert mat_mul(m, b) == tuple(
            tuple(sum((x * y for x, y in zip(row, col)), Fraction(0))
                  for col in zip(*b))
            for row in m
        )
        v = tuple(r[0] for r in b)
        assert mat_vec(m, v) == tuple(
            sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in m)


def test_subspace_insert_is_the_span():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(1, 6)
        vectors = [random_vector(rng, n) for _ in range(rng.randint(1, 5))]
        space = Subspace.zero(n)
        for v in vectors:
            residual = space.reduce(v)
            grown = space.insert(residual)
            assert grown == Subspace.from_vectors(n, space.basis + (v,))
            assert (grown is space) == (not any(residual))
            space = grown
        assert space == Subspace.from_vectors(n, vectors)


def test_returned_vectors_hold_fractions():
    # the sparse paths add up entries that start as Python ints here; an
    # int that leaked out would compare equal, so check the types
    ints = ((0, 2, 0), (1, 0, 3), (0, 0, 0))
    assert all_fractions(rref(ints)) and all_fractions(kernel(ints, 3).basis)
    assert all_fractions(mat_mul(ints, ints)) and all_fractions(mat_vec(ints, (1, 0, 2)))
    assert all_fractions(rref(((1, 0), (0, 1))))
    for _, algebra in ALGEBRAS:
        n = algebra.dim
        x = tuple(range(n))
        assert all_fractions(algebra.bracket(x, x[::-1]))
        assert all_fractions(algebra.bracket((0,) * n, x))
        assert all_fractions(algebra.ad(x)) and all_fractions(algebra.ad((0,) * n))
        assert all_fractions(killing_form(algebra))
        assert all_fractions(centroid(algebra))
        try:
            report = analyze(algebra)
        except Exception:  # noqa: BLE001 - checked by the report tests
            continue
        assert all_fractions(report.nilradical.basis)
        assert all_fractions(list(report.quotient.table.values()))
        for comp in report.components:
            assert all_fractions(comp.subspace.basis)
            assert all_fractions(comp.lifted_basis)
    assert all_fractions(LieAlgebra(("a", "b"), {}).bracket((1, 2), (3, 4)))


BROKEN = {
    "dim": 4,
    "basis": ["e", "h", "f", "z"],
    "brackets": {
        "1,2": [["-2", 1]], "1,3": [["1", 2]], "2,3": [["-2", 3]],
        "1,4": [["1/2", 1], ["3", 4]], "2,4": [["1", 3]], "3,4": [["-2/3", 2]],
    },
}


def test_jacobi_failure_reports_first_triple_and_residual(tmp_path):
    # sl2 on (e, h, f) holds; the first failing triple is (e, h, z)
    with pytest.raises(JacobiError) as err:
        from_json_dict(BROKEN)
    residual = tuple(Fraction(x) for x in (0, -1, 3, -6))
    assert err.value.triple == ("e", "h", "z")
    assert err.value.value == residual and all_fractions(err.value.value)
    assert str(err.value) == (
        "Jacobi identity fails on basis triple ('e', 'h', 'z'): residual "
        "(Fraction(0, 1), Fraction(-1, 1), Fraction(3, 1), Fraction(-6, 1))"
    )
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(BROKEN))
    out = io.StringIO()
    code = cli.run(["analyze", str(path), "--no-cache"], out)
    payload = json.loads(out.getvalue())
    assert code == 2 and payload["error"] == "malformed-input"
    assert "('e', 'h', 'z')" in payload["message"]


def test_jacobi_failures_match_dense_oracle():
    rng = random.Random(3)
    hits = 0
    for name, algebra in ALGEBRAS:
        if not algebra.table:
            continue
        for _ in range(3):
            table = dict(algebra.table)
            key = rng.choice(sorted(table))
            value = list(table[key])
            value[rng.randrange(algebra.dim)] += random_fraction(rng) or 1
            table[key] = tuple(value)
            broken = LieAlgebra(algebra.labels, table)
            expected = dense_jacobi_failure(broken)
            if expected is None:
                validate(algebra.labels, table)
                continue
            hits += 1
            with pytest.raises(JacobiError) as err:
                validate(algebra.labels, table)
            assert (err.value.triple, err.value.value) == expected
            assert all_fractions(err.value.value)
    assert hits >= 20
