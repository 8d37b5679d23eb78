import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from picodim import Subspace, rank, span_add
from picodim.errors import MalformedInputError
from picodim.linalg import (
    invert,
    kernel,
    mat_mul,
    mat_vec,
    parse_fraction,
    rref,
    unit_vec,
    vec,
    zero_vec,
)

from helpers import coordinates


def test_rank_identity():
    m = (vec([1, 0]), vec([0, 1]))
    assert rank(m) == 2


def test_rank_zero_matrix():
    m = tuple(zero_vec(5) for _ in range(3))
    assert rank(m) == 0


def test_rank_dependent_rows():
    # [[1,2],[2,4]]: second row is twice the first
    m = (vec([1, 2]), vec([2, 4]))
    assert rank(m) == 1


def test_rank_rejects_ragged_matrix():
    with pytest.raises(MalformedInputError):
        rank((vec([1, 2]), vec([1])))


small_matrices = st.lists(
    st.lists(st.integers(-9, 9), min_size=1, max_size=6),
    min_size=1,
    max_size=6,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_rank_equals_rank_of_transpose(rows):
    m = tuple(vec(r) for r in rows)
    assert rank(m) == rank(tuple(zip(*m)))


def test_span_add_orthogonal_units():
    a = Subspace.from_vectors(3, [unit_vec(3, 0)])
    b = Subspace.from_vectors(3, [unit_vec(3, 1)])
    assert span_add(a, b).dim == 2


def test_span_add_idempotent():
    v = Subspace.from_vectors(3, [vec([1, 2, 3]), vec([0, 1, 1])])
    assert span_add(v, v) == v


def test_span_add_recovers_unit_vectors():
    a = Subspace.from_vectors(2, [vec([1, 1])])
    b = Subspace.from_vectors(2, [vec([1, -1])])
    assert span_add(a, b) == Subspace.full(2)
    # different spanning sets of one space give equal, equally hashed values
    c = Subspace.from_vectors(2, [vec([2, 0]), vec([3, 5]), vec([1, 1])])
    assert c == span_add(a, b) and hash(c) == hash(Subspace.full(2))
    assert a != b and a != Subspace.from_vectors(3, [vec([1, 1, 0])])


def test_span_add_ambient_mismatch():
    with pytest.raises(MalformedInputError):
        span_add(Subspace.zero(2), Subspace.zero(3))


def test_span_add_associative_commutative_on_random_triples():
    rng = random.Random(7)
    for _ in range(25):
        spaces = [
            Subspace.from_vectors(4, [vec(rng.choices(range(-4, 5), k=4))])
            for _ in range(3)
        ]
        a, b, c = spaces
        assert a.add(b) == b.add(a)
        assert a.add(b).add(c) == a.add(b.add(c))


def test_echelon_basis_is_canonical():
    rng = random.Random(11)
    for _ in range(25):
        generators = [vec(rng.choices(range(-5, 6), k=5)) for _ in range(3)]
        first = Subspace.from_vectors(5, generators)
        # random invertible recombination of the same generators
        combos = []
        for _ in range(4):
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in generators]
            combo = zero_vec(5)
            for c, g in zip(coeffs, generators):
                combo = tuple(x + c * y for x, y in zip(combo, g))
            combos.append(combo)
        second = Subspace.from_vectors(5, generators + combos)
        assert first.basis == second.basis


def test_contains_zero_vector():
    assert Subspace.zero(3).contains(zero_vec(3))
    assert Subspace.from_vectors(3, [unit_vec(3, 0)]).contains(zero_vec(3))


def test_contains_rejects_outside_vector():
    span_e1 = Subspace.from_vectors(2, [unit_vec(2, 0)])
    assert not span_e1.contains(unit_vec(2, 1))


def test_contains_combination():
    s = Subspace.from_vectors(2, [vec([1, 1]), vec([2, 0])])
    assert s.contains(vec([3, 1]))


def test_subspace_intersection_dimension_formula():
    rng = random.Random(3)
    for _ in range(20):
        a = Subspace.from_vectors(
            4, [vec(rng.choices(range(-3, 4), k=4)) for _ in range(2)]
        )
        b = Subspace.from_vectors(
            4, [vec(rng.choices(range(-3, 4), k=4)) for _ in range(2)]
        )
        assert a.dim + b.dim == a.add(b).dim + a.intersect(b).dim


def test_kernel_annihilates():
    m = (vec([1, 2, 3]), vec([0, 1, 1]))
    null = kernel(m, 3)
    assert null.dim == 1
    for b in null.basis:
        assert all(x == 0 for x in mat_vec(m, b))


def test_invert_round_trip():
    m = (vec([2, 1]), vec([1, 1]))
    identity = (vec([1, 0]), vec([0, 1]))
    assert mat_mul(m, invert(m)) == identity


def test_invert_singular_raises():
    with pytest.raises(MalformedInputError):
        invert((vec([1, 2]), vec([2, 4])))


def test_coordinates_in_echelon_basis():
    s = Subspace.from_vectors(3, [vec([1, 0, 1]), vec([0, 1, 2])])
    coords = coordinates(s, vec([2, 3, 8]))
    assert coords == (Fraction(2), Fraction(3))
    assert coordinates(s, vec([0, 0, 1])) is None


def test_rref_normalizes_pivots():
    reduced = rref((vec([2, 4]), vec([1, 3])))
    for row in reduced:
        lead = next(x for x in row if x != 0)
        assert lead == 1


def test_fraction_round_trip():
    for value in (Fraction(3), Fraction(-7, 2), Fraction(0), Fraction(1, 2)):
        assert parse_fraction(str(value)) == value
    with pytest.raises(MalformedInputError):
        parse_fraction("not-a-number")
