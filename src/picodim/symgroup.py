"""Partitions, Young tableaux, hook dimensions and Young symmetrizers.

Permutations of degree n are tuples p of length n with p[i-1] = image
of i.  Composition is (s*t)(i) = s(t(i)), matching the substitution
action on multilinear polynomials.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import MalformedInputError
from .freelie import MultilinearPolynomial, linear_combination, perm_sign, permute

Perm = tuple[int, ...]


def identity_perm(n: int) -> Perm:
    return tuple(range(1, n + 1))


def compose(s: Perm, t: Perm) -> Perm:
    return tuple(s[t[i] - 1] for i in range(len(t)))


@dataclass(frozen=True, order=True)
class Partition:
    parts: tuple[int, ...]

    def __post_init__(self):
        p = self.parts
        if not p or any(x <= 0 for x in p) or any(p[i] < p[i + 1] for i in range(len(p) - 1)):
            raise MalformedInputError(f"not a partition: {p}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def height(self) -> int:
        return len(self.parts)

    def conjugate(self) -> "Partition":
        parts = tuple(
            sum(1 for p in self.parts if p > i) for i in range(self.parts[0])
        )
        return Partition(parts)

    def cells(self):
        for r, width in enumerate(self.parts):
            for c in range(width):
                yield r, c

    def hook_length(self, r: int, c: int) -> int:
        arm = self.parts[r] - c - 1
        leg = sum(1 for rr in range(r + 1, len(self.parts)) if self.parts[rr] > c)
        return arm + leg + 1

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def partitions(n: int, max_height: int | None = None) -> list[Partition]:
    """All partitions of n in reverse-lexicographic order."""
    if n < 1:
        raise MalformedInputError("n must be >= 1")
    out: list[Partition] = []

    def descend(remaining: int, largest: int, prefix: list[int]):
        if remaining == 0:
            out.append(Partition(tuple(prefix)))
            return
        if max_height is not None and len(prefix) == max_height:
            return
        for part in range(min(largest, remaining), 0, -1):
            prefix.append(part)
            descend(remaining - part, part, prefix)
            prefix.pop()

    descend(n, n, [])
    return out


def hook_dim(shape: Partition) -> int:
    """Irreducible S_n character degree via the hook length formula."""
    product = 1
    for r, c in shape.cells():
        product *= shape.hook_length(r, c)
    return factorial(shape.n) // product


@dataclass(frozen=True)
class YoungTableau:
    shape: Partition
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        flat = [x for row in self.rows for x in row]
        if tuple(len(r) for r in self.rows) != self.shape.parts or sorted(
            flat
        ) != list(range(1, self.shape.n + 1)):
            raise MalformedInputError("filling is not a bijection onto 1..n")

    @classmethod
    def row_reading(cls, shape: Partition) -> "YoungTableau":
        """The standard filling 1,2,...  row by row; used for all m_lambda runs."""
        rows = []
        next_val = 1
        for width in shape.parts:
            rows.append(tuple(range(next_val, next_val + width)))
            next_val += width
        return cls(shape, tuple(rows))

    def columns(self) -> list[tuple[int, ...]]:
        cols = []
        for c in range(self.shape.parts[0]):
            cols.append(tuple(row[c] for row in self.rows if len(row) > c))
        return cols


@dataclass(frozen=True)
class GroupAlgebraElement:
    degree: int
    terms: dict[Perm, Fraction]

    def __post_init__(self):
        object.__setattr__(
            self, "terms", {p: c for p, c in self.terms.items() if c != 0}
        )

    @classmethod
    def identity(cls, n: int) -> "GroupAlgebraElement":
        return cls(n, {identity_perm(n): Fraction(1)})

    def __mul__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        if self.degree != other.degree:
            raise MalformedInputError("degree mismatch")
        out: dict[Perm, Fraction] = {}
        for p, a in self.terms.items():
            for q, b in other.terms.items():
                r = compose(p, q)
                out[r] = out.get(r, Fraction(0)) + a * b
        return GroupAlgebraElement(self.degree, out)

    def scale(self, c: Fraction) -> "GroupAlgebraElement":
        return GroupAlgebraElement(
            self.degree, {p: c * x for p, x in self.terms.items()}
        )


def _stabilizer_perms(groups: list[tuple[int, ...]], n: int):
    """All permutations fixing each block setwise, as full degree-n perms."""
    per_block = [list(itertools.permutations(g)) for g in groups]
    for combo in itertools.product(*per_block):
        images = list(range(n + 1))  # index 0 unused
        for block, perm in zip(groups, combo):
            for src, dst in zip(block, perm):
                images[src] = dst
        yield tuple(images[1:])


def row_symmetrizer(t: YoungTableau) -> GroupAlgebraElement:
    n = t.shape.n
    terms = {p: Fraction(1) for p in _stabilizer_perms(list(t.rows), n)}
    return GroupAlgebraElement(n, terms)


def column_antisymmetrizer(t: YoungTableau) -> GroupAlgebraElement:
    n = t.shape.n
    terms = {
        p: Fraction(perm_sign(p)) for p in _stabilizer_perms(t.columns(), n)
    }
    return GroupAlgebraElement(n, terms)


def symmetrizer(t: YoungTableau) -> GroupAlgebraElement:
    """Young symmetrizer: row sum times signed column sum, in that order."""
    return row_symmetrizer(t) * column_antisymmetrizer(t)


def act(g: GroupAlgebraElement, f: MultilinearPolynomial) -> MultilinearPolynomial:
    if g.degree != f.degree:
        raise MalformedInputError("degree mismatch")
    return linear_combination(
        f.degree, ((c, permute(p, f)) for p, c in g.terms.items())
    )
