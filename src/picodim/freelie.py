"""Multilinear component of the free Lie algebra.

Degree-n multilinear Lie elements are stored in the canonical basis of
right-normed words x_{s(1)}(x_{s(2)}(... (x_{s(n-1)} x_n))) over all
permutations s of {1,...,n-1}, so the space has dimension (n-1)!.

A word is a tuple of 1-based variable indices; (2, 1, 3) means
x2(x1x3).  A general monomial is a binary tree: either an int leaf or
a pair (left, right) meaning the bracket of the subtrees.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import MalformedInputError

Word = tuple[int, ...]
Tree = "int | tuple"


def tree_leaves(tree) -> list[int]:
    if isinstance(tree, int):
        return [tree]
    left, right = tree
    return tree_leaves(left) + tree_leaves(right)


def tree_from_word(word: Word):
    """Right-normed tree for a word: (a, (b, (c, d)))."""
    if len(word) == 1:
        return word[0]
    return (word[0], tree_from_word(word[1:]))


def format_word(word: Word) -> str:
    if len(word) == 1:
        return f"x{word[0]}"
    return f"x{word[0]}({format_word(word[1:])})"


def basis_Pn(n: int) -> list[Word]:
    """Canonical basis words of degree n, in lexicographic order of the prefix."""
    return list(iter_basis_Pn(n))


def iter_basis_Pn(n: int):
    """The words of `basis_Pn(n)`, one at a time."""
    if n < 1:
        raise MalformedInputError("degree must be >= 1")
    return (perm + (n,) for perm in itertools.permutations(range(1, n)))


class MultilinearPolynomial:
    """Sparse rational combination of canonical basis words of one degree."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: dict[Word, Fraction] | None = None):
        self.degree = degree
        self.terms = {w: c for w, c in (terms or {}).items() if c != 0}

    @classmethod
    def zero(cls, degree: int) -> "MultilinearPolynomial":
        return cls(degree, {})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "MultilinearPolynomial") -> "MultilinearPolynomial":
        if self.degree != other.degree:
            raise MalformedInputError("degree mismatch")
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, Fraction(0)) + c
        return MultilinearPolynomial(self.degree, terms)

    def __sub__(self, other: "MultilinearPolynomial") -> "MultilinearPolynomial":
        return self + other.scale(Fraction(-1))

    def scale(self, c: Fraction) -> "MultilinearPolynomial":
        return MultilinearPolynomial(
            self.degree, {w: c * x for w, x in self.terms.items()}
        )

    def coefficient_vector(self, basis: list[Word]) -> tuple[Fraction, ...]:
        return tuple(self.terms.get(w, Fraction(0)) for w in basis)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms):
            c = self.terms[w]
            parts.append(f"{'+' if c > 0 else '-'} {abs(c)}*{format_word(w)}")
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]


def _check_multilinear(leaves: list[int]) -> int:
    n = len(leaves)
    if sorted(leaves) != list(range(1, n + 1)):
        raise MalformedInputError(
            f"not multilinear in x1..x{n}: leaves {sorted(leaves)}"
        )
    return n


def _bracket_words(u: Word, v: Word) -> dict[Word, int]:
    """[u, v] as right-normed words via Jacobi: [[a,u'],v] = [a,[u',v]] - [u',[a,v]].

    Every output word ends with the last letter of v.
    """
    if len(u) == 1:
        return {u + v: 1}
    a, rest = u[0], u[1:]
    out: dict[Word, int] = {}
    for w, c in _bracket_words(rest, v).items():
        key = (a,) + w
        out[key] = out.get(key, 0) + c
    for w, c in _bracket_words(rest, (a,) + v).items():
        out[w] = out.get(w, 0) - c
    return {w: c for w, c in out.items() if c != 0}


@lru_cache(maxsize=None)
def _normalize_word(word: Word, n: int) -> tuple[tuple[Word, int], ...]:
    """Express a right-normed word as canonical words ending in x_n."""
    if word[-1] == n or len(word) == 1:
        return ((word, 1),)
    if word[0] == n:
        # [x_n, rest] = -[rest, x_n]; bracket output already ends in x_n
        return tuple((w, -c) for w, c in _bracket_words(word[1:], (n,)).items())
    out: dict[Word, int] = {}
    for w, c in _normalize_word(word[1:], n):
        key = (word[0],) + w
        out[key] = out.get(key, 0) + c
    return tuple(out.items())


def linear_combination(degree: int, scaled) -> MultilinearPolynomial:
    """Sum of c * g over the (c, g) pairs, accumulated in one dict."""
    terms: dict[Word, Fraction] = {}
    for c, g in scaled:
        for w, x in g.terms.items():
            terms[w] = terms.get(w, Fraction(0)) + c * x
    return MultilinearPolynomial(degree, terms)


def rewrite_word(word: Word, n: int) -> MultilinearPolynomial:
    terms = {w: Fraction(c) for w, c in _normalize_word(word, n)}
    return MultilinearPolynomial(n, terms)


def rewrite(tree) -> MultilinearPolynomial:
    """Canonical-basis form of a (multilinear) bracketed monomial."""
    leaves = tree_leaves(tree)
    n = _check_multilinear(leaves)

    def expand(t) -> dict[Word, Fraction]:
        if isinstance(t, int):
            return {(t,): Fraction(1)}
        left, right = t
        out: dict[Word, Fraction] = {}
        for wl, cl in expand(left).items():
            for wr, cr in expand(right).items():
                for w, c in _bracket_words(wl, wr).items():
                    out[w] = out.get(w, Fraction(0)) + cl * cr * c
        return out

    return linear_combination(
        n, ((c, rewrite_word(w, n)) for w, c in expand(tree).items())
    )


def permute(sigma: dict[int, int] | tuple[int, ...], f: MultilinearPolynomial) -> MultilinearPolynomial:
    """Substitution action: replace x_i by x_{sigma(i)} and re-canonicalize."""
    n = f.degree
    if not isinstance(sigma, dict):
        if len(sigma) != n:
            raise MalformedInputError("permutation size mismatch")
        sigma = {i + 1: sigma[i] for i in range(n)}
    if sorted(sigma) != list(range(1, n + 1)) or sorted(sigma.values()) != list(
        range(1, n + 1)
    ):
        raise MalformedInputError("not a permutation of 1..n")
    terms: dict[Word, Fraction] = {}
    for word, coeff in f.terms.items():
        moved = tuple(sigma[l] for l in word)
        for w, c in _normalize_word(moved, n):
            terms[w] = terms.get(w, Fraction(0)) + coeff * c
    return MultilinearPolynomial(n, terms)


class AltSpec:
    """Pairwise-disjoint variable index sets to alternate over."""

    __slots__ = ("sets",)

    def __init__(self, sets: tuple[frozenset[int], ...]):
        self.sets = sets

    @classmethod
    def of(cls, *sets) -> "AltSpec":
        return cls(tuple(frozenset(s) for s in sets))

    def validate(self, degree: int) -> None:
        seen: set[int] = set()
        for s in self.sets:
            if seen & s:
                raise MalformedInputError("alternating sets overlap")
            if any(i < 1 or i > degree for i in s):
                raise MalformedInputError("alternating index out of range")
            seen |= s


def stabilizer_perms(blocks: list[tuple[int, ...]], n: int):
    """All permutations fixing each block setwise, as full degree-n perms."""
    per_block = [list(itertools.permutations(b)) for b in blocks]
    for combo in itertools.product(*per_block):
        images = list(range(n + 1))  # index 0 unused
        for block, perm in zip(blocks, combo):
            for src, dst in zip(block, perm):
                images[src] = dst
        yield tuple(images[1:])


def perm_sign(p: tuple[int, ...]) -> int:
    """Sign of the permutation i -> p[i-1] of {1..len(p)}."""
    sign = 1
    seen = [False] * len(p)
    for i in range(len(p)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j] - 1
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def alternate(f: MultilinearPolynomial, spec: AltSpec) -> MultilinearPolynomial:
    """Signed sum of f over all permutations inside each alternating set."""
    spec.validate(f.degree)
    blocks = [tuple(sorted(s)) for s in spec.sets]
    return linear_combination(f.degree, (
        (perm_sign(sigma), permute(sigma, f))
        for sigma in stabilizer_perms(blocks, f.degree)
    ))


def dim_Pn(n: int) -> int:
    return factorial(n - 1)
