from fractions import Fraction
from math import factorial

import pytest

from picodim import (
    AltSpec,
    GroupAlgebraElement,
    Partition,
    YoungTableau,
    act,
    alternate,
    hook_dim,
    partitions,
    symmetrizer,
)
from picodim.errors import MalformedInputError
from picodim.freelie import MultilinearPolynomial, basis_Pn, rewrite
from picodim.symgroup import (
    column_antisymmetrizer,
    compose,
    identity_perm,
    perm_sign,
    row_symmetrizer,
)

from helpers import count_standard_tableaux


def test_partitions_of_three():
    assert [p.parts for p in partitions(3)] == [(3,), (2, 1), (1, 1, 1)]


def test_partitions_height_filter():
    assert [p.parts for p in partitions(4, max_height=2)] == [(4,), (3, 1), (2, 2)]


def test_height_filter_keeps_the_order_of_all_partitions():
    # the listing prunes parts too small for the slots left
    for n in range(1, 13):
        every = partitions(n)
        # partitions order, compare and hash as their parts tuples, and
        # the listing is descending in that order
        assert sorted(every) == sorted(every, key=lambda p: p.parts)
        assert sorted(every, reverse=True) == every
        assert all(a > b and a >= b and b < a and b <= a for a, b in zip(every, every[1:]))
        index = {p: i for i, p in enumerate(every)}
        assert [index[Partition(p.parts)] for p in every] == list(range(len(every)))
        for h in range(1, n + 1):
            assert partitions(n, h) == [p for p in every if p.height <= h], (n, h)


def test_partition_counts():
    assert len(partitions(8)) == 22
    assert len(partitions(1)) == 1


def test_partition_validation():
    with pytest.raises(MalformedInputError):
        Partition((1, 2))
    with pytest.raises(MalformedInputError):
        Partition((2, 0))
    with pytest.raises(MalformedInputError):
        partitions(0)


def test_partition_conjugate():
    assert Partition((3, 1)).conjugate().parts == (2, 1, 1)
    assert Partition((2, 2)).conjugate().parts == (2, 2)


def test_hook_dim_trivial_shapes():
    for n in range(1, 7):
        assert hook_dim(Partition((n,))) == 1
        assert hook_dim(Partition((1,) * n)) == 1
    assert hook_dim(Partition((2, 1))) == 2


def test_hook_dim_matches_standard_tableau_count():
    for n in range(1, 7):
        for shape in partitions(n):
            assert hook_dim(shape) == count_standard_tableaux(shape)


def test_hook_dim_conjugation_symmetry():
    for n in range(1, 8):
        for shape in partitions(n):
            assert hook_dim(shape) == hook_dim(shape.conjugate())


def test_squared_dimensions_sum_to_group_order():
    for n in range(1, 11):
        assert sum(hook_dim(s) ** 2 for s in partitions(n)) == factorial(n)


def test_symmetrizer_single_box():
    e = symmetrizer(YoungTableau.row_reading(Partition((1,))))
    assert e.terms == {(1,): Fraction(1)}


def test_symmetrizer_single_row():
    e = symmetrizer(YoungTableau.row_reading(Partition((2,))))
    assert e.terms == {(1, 2): Fraction(1), (2, 1): Fraction(1)}


def test_symmetrizer_single_column():
    e = symmetrizer(YoungTableau.row_reading(Partition((1, 1))))
    assert e.terms == {(1, 2): Fraction(1), (2, 1): Fraction(-1)}


def test_symmetrizer_is_row_times_column():
    t = YoungTableau.row_reading(Partition((2, 1)))
    assert symmetrizer(t).terms == (row_symmetrizer(t) * column_antisymmetrizer(t)).terms


def test_symmetrizer_essential_idempotent():
    # e*e = (n!/d) e for the row-reading tableau of every shape, n <= 5
    for n in range(1, 6):
        for shape in partitions(n):
            e = symmetrizer(YoungTableau.row_reading(shape))
            alpha = Fraction(factorial(n), hook_dim(shape))
            assert (e * e).terms == e.scale(alpha).terms


def test_tableau_validation():
    with pytest.raises(MalformedInputError):
        YoungTableau(Partition((2, 1)), ((1, 2), (2,)))
    with pytest.raises(MalformedInputError):
        YoungTableau(Partition((2, 1)), ((1, 2, 3),))


def test_perm_composition_convention():
    # (s*t)(i) = s(t(i))
    s = (2, 3, 1)
    t = (2, 1, 3)
    assert compose(s, t) == (3, 2, 1)
    assert compose(s, identity_perm(3)) == s
    assert perm_sign((2, 1, 3)) == -1
    assert perm_sign((2, 3, 1)) == 1


def test_act_identity_element():
    f = rewrite(((1, 2), 3))
    assert act(GroupAlgebraElement.identity(3), f).terms == f.terms


def test_act_degree_two_antisymmetrizer():
    f = rewrite((1, 2))
    g = GroupAlgebraElement(2, {(1, 2): Fraction(1), (2, 1): Fraction(-1)})
    assert act(g, f).terms == {(1, 2): Fraction(2)}
    # zero terms are dropped on construction
    h = GroupAlgebraElement(2, {(1, 2): Fraction(1), (2, 1): Fraction(0)})
    assert h.terms == {(1, 2): Fraction(1)}
    assert (g * g).terms == {(1, 2): Fraction(2), (2, 1): Fraction(-2)}
    assert g.scale(Fraction(0)).terms == {}


def test_act_degree_mismatch():
    with pytest.raises(MalformedInputError):
        act(GroupAlgebraElement.identity(2), rewrite(((1, 2), 3)))


def test_column_symmetrizer_matches_alternation():
    # e for the single-column shape is the full signed sum over S_n,
    # which must agree with the alternation operator
    for n in (2, 3, 4):
        e = symmetrizer(YoungTableau.row_reading(Partition((1,) * n)))
        for w in basis_Pn(n):
            f = MultilinearPolynomial(n, {w: Fraction(1)})
            assert act(e, f).terms == alternate(f, AltSpec.of(set(range(1, n + 1)))).terms
