import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from picodim import AltSpec, MultilinearPolynomial, alternate, basis_Pn, permute, rewrite
from picodim.errors import MalformedInputError
from picodim.evaluation import evaluate
from picodim.freelie import (
    dim_Pn,
    format_word,
    rewrite_word,
    tree_from_word,
)
from picodim.liealg import catalog_algebra
from picodim.linalg import is_zero_vec

from helpers import eval_tree, random_tree, set_permutation_alternate


def test_basis_sizes():
    for n in range(1, 9):
        words = basis_Pn(n)
        assert len(words) == factorial(n - 1) == dim_Pn(n)
        assert len(set(words)) == len(words)
        assert all(w[-1] == n for w in words)


def test_basis_small_degrees():
    assert basis_Pn(1) == [(1,)]
    assert basis_Pn(2) == [(1, 2)]
    assert basis_Pn(3) == [(1, 2, 3), (2, 1, 3)]


def test_basis_rejects_degree_zero():
    with pytest.raises(MalformedInputError):
        basis_Pn(0)


def test_basis_words_independent_by_evaluation():
    # the two degree-3 basis words evaluate to independent values somewhere
    algebra = catalog_algebra("sl2")
    f = rewrite_word((1, 2, 3), 3)
    g = rewrite_word((2, 1, 3), 3)
    e, h, fv = (algebra.basis_vector(i) for i in range(3))
    v1 = evaluate(f, (e, h, fv), algebra)
    v2 = evaluate(g, (e, h, fv), algebra)
    assert v1 != v2 and not is_zero_vec(v1)


def test_rewrite_canonical_word_unchanged():
    assert rewrite((1, 2)).terms == {(1, 2): Fraction(1)}


def test_rewrite_antisymmetry():
    assert rewrite((2, 1)).terms == {(1, 2): Fraction(-1)}


def test_rewrite_left_normed_pair():
    # (x1x2)x3 = x1(x2x3) - x2(x1x3) by the Jacobi identity
    assert rewrite(((1, 2), 3)).terms == {
        (1, 2, 3): Fraction(1),
        (2, 1, 3): Fraction(-1),
    }


def test_rewrite_rejects_non_multilinear():
    with pytest.raises(MalformedInputError):
        rewrite((1, (1, 2)))
    with pytest.raises(MalformedInputError):
        rewrite((1, (3, 4)))


def test_rewrite_idempotent():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 5)
        leaves = list(rng.sample(range(1, n + 1), n))
        f = rewrite(random_tree(rng, leaves))
        again = MultilinearPolynomial.zero(n)
        for word, coeff in f.terms.items():
            again = again + rewrite(tree_from_word(word)).scale(coeff)
        assert again.terms == f.terms


def test_rewrite_preserves_evaluation():
    rng = random.Random(9)
    names = ["sl2", "heisenberg3", "sl2_natural", "gl2"]
    for _ in range(30):
        algebra = catalog_algebra(rng.choice(names))
        n = rng.randint(2, 6)
        leaves = list(rng.sample(range(1, n + 1), n))
        tree = random_tree(rng, leaves)
        elems = [
            algebra.basis_vector(rng.randrange(algebra.dim)) for _ in range(n)
        ]
        direct = eval_tree(tree, elems, algebra)
        via_basis = evaluate(rewrite(tree), elems, algebra)
        assert direct == via_basis


def test_permute_identity():
    f = rewrite(((1, 2), 3))
    assert permute((1, 2, 3), f).terms == f.terms


def test_permute_transposition_antisymmetry():
    f = rewrite((1, 2))
    assert permute((2, 1), f).terms == {(1, 2): Fraction(-1)}
    # zero terms are dropped on construction, so f - f has none
    assert (f - f).terms == {} and (f - f).is_zero()
    assert MultilinearPolynomial(2, {(1, 2): Fraction(0)}).terms == {}
    assert MultilinearPolynomial(2).is_zero()


def test_permute_is_group_action():
    rng = random.Random(4)
    for n in (3, 4, 5):
        for _ in range(8):
            words = basis_Pn(n)
            f = MultilinearPolynomial(
                n,
                {
                    rng.choice(words): Fraction(rng.randint(-3, 3))
                    for _ in range(3)
                },
            )
            sigma = tuple(rng.sample(range(1, n + 1), n))
            tau = tuple(rng.sample(range(1, n + 1), n))
            composed = tuple(sigma[tau[i] - 1] for i in range(n))
            assert permute(composed, f).terms == permute(sigma, permute(tau, f)).terms


def test_permute_rejects_non_permutation():
    f = rewrite((1, 2))
    with pytest.raises(MalformedInputError):
        permute((1, 1), f)
    with pytest.raises(MalformedInputError):
        permute((1, 2, 3), f)


def test_alternate_empty_spec_is_identity_map():
    f = rewrite(((1, 2), 3))
    assert alternate(f, AltSpec.of()).terms == f.terms


def test_alternate_degree_two():
    f = rewrite((1, 2))
    assert alternate(f, AltSpec.of({1, 2})).terms == {(1, 2): Fraction(2)}


def test_alternate_projector_property():
    rng = random.Random(12)
    for _ in range(10):
        n = 4
        words = basis_Pn(n)
        f = MultilinearPolynomial(
            n,
            {rng.choice(words): Fraction(rng.randint(-3, 3)) for _ in range(3)},
        )
        spec = AltSpec.of({1, 2}, {3, 4})
        once = alternate(f, spec)
        twice = alternate(once, spec)
        scale = Fraction(factorial(2) * factorial(2))
        assert twice.terms == once.scale(scale).terms


def test_alternate_sign_flip_inside_set():
    rng = random.Random(13)
    for _ in range(10):
        n = 4
        f = MultilinearPolynomial(n, {rng.choice(basis_Pn(n)): Fraction(1)})
        spec = AltSpec.of({1, 2, 3})
        g = alternate(f, spec)
        swapped = permute({1: 2, 2: 1, 3: 3, 4: 4}, g)
        assert swapped.terms == g.scale(Fraction(-1)).terms


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_alternate_matches_set_permutation_oracle(data):
    # the block-stabilizer walk against the signed set-permutation walk it
    # replaced: a random polynomial of degree <= 5, alternated on the
    # leading blocks of a random ordering of x_1..x_n cut at random
    n = data.draw(st.integers(1, 5))
    terms = data.draw(st.dictionaries(st.sampled_from(basis_Pn(n)),
                                      st.integers(-3, 3), max_size=4))
    f = MultilinearPolynomial(n, {w: Fraction(c) for w, c in terms.items()})
    order = data.draw(st.permutations(range(1, n + 1)))
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=4)))
    blocks = [order[a:b] for a, b in zip([0] + cuts, cuts + [n])]
    spec = AltSpec.of(*blocks[:data.draw(st.integers(0, len(blocks)))])
    assert alternate(f, spec).terms == set_permutation_alternate(f, spec).terms


def test_alternate_rejects_overlapping_sets():
    f = rewrite(((1, 2), 3))
    with pytest.raises(MalformedInputError):
        alternate(f, AltSpec.of({1, 2}, {2, 3}))
    with pytest.raises(MalformedInputError):
        alternate(f, AltSpec.of({1, 5}))


def test_polynomial_formatting():
    assert format_word((1, 2, 3)) == "x1(x2(x3))"
    f = rewrite(((1, 2), 3))
    assert str(f) == "1*x1(x2(x3)) - 1*x2(x1(x3))"
    assert str(MultilinearPolynomial.zero(2)) == "0"
