"""Partitions, Young tableaux, hook dimensions and Young symmetrizers.

Permutations of degree n are tuples p of length n with p[i-1] = image
of i.  Composition is (s*t)(i) = s(t(i)), matching the substitution
action on multilinear polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import MalformedInputError
from .freelie import (
    MultilinearPolynomial,
    linear_combination,
    perm_sign,
    permute,
    stabilizer_perms,
)

Perm = tuple[int, ...]


def identity_perm(n: int) -> Perm:
    return tuple(range(1, n + 1))


def compose(s: Perm, t: Perm) -> Perm:
    return tuple(s[t[i] - 1] for i in range(len(t)))


class Partition:
    """A partition of n as its weakly decreasing parts; compared, ordered
    and hashed by the parts tuple."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        p = self.parts = parts
        if not p or any(x <= 0 for x in p) or any(p[i] < p[i + 1] for i in range(len(p) - 1)):
            raise MalformedInputError(f"not a partition: {p}")

    def __eq__(self, other):
        if other.__class__ is not Partition:
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    # > and >= fall back to the reflected < and <=
    def __lt__(self, other):
        if other.__class__ is not Partition:
            return NotImplemented
        return self.parts < other.parts

    def __le__(self, other):
        if other.__class__ is not Partition:
            return NotImplemented
        return self.parts <= other.parts

    def __repr__(self) -> str:
        return f"Partition(parts={self.parts!r})"

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
    return [Partition(parts) for parts in iter_partitions(n, max_height)]


def iter_partitions(n: int, max_height: int | None = None):
    """The parts of `partitions(n, max_height)`, one tuple at a time."""
    if n < 1:
        raise MalformedInputError("n must be >= 1")

    def descend(remaining: int, largest: int, prefix: list[int]):
        if remaining == 0:
            yield tuple(prefix)
            return
        slots = n if max_height is None else max_height - len(prefix)
        for part in range(min(largest, remaining), 0, -1):
            if remaining > part * slots:
                break  # the rest no longer fits in the slots left
            prefix.append(part)
            yield from descend(remaining - part, part, prefix)
            prefix.pop()

    return descend(n, n, [])


def hook_dim(shape: Partition) -> int:
    """Irreducible S_n character degree via the hook length formula."""
    product = 1
    for r, c in shape.cells():
        product *= shape.hook_length(r, c)
    return factorial(shape.n) // product


class YoungTableau:
    __slots__ = ("shape", "rows")

    def __init__(self, shape: Partition, rows: tuple[tuple[int, ...], ...]):
        flat = [x for row in rows for x in row]
        if tuple(len(r) for r in rows) != shape.parts or sorted(
            flat
        ) != list(range(1, shape.n + 1)):
            raise MalformedInputError("filling is not a bijection onto 1..n")
        self.shape = shape
        self.rows = rows

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


class GroupAlgebraElement:
    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: dict[Perm, Fraction]):
        self.degree = degree
        self.terms = {p: c for p, c in terms.items() if c != 0}

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


def row_symmetrizer(t: YoungTableau) -> GroupAlgebraElement:
    n = t.shape.n
    terms = {p: Fraction(1) for p in stabilizer_perms(list(t.rows), n)}
    return GroupAlgebraElement(n, terms)


def column_antisymmetrizer(t: YoungTableau) -> GroupAlgebraElement:
    n = t.shape.n
    terms = {
        p: Fraction(perm_sign(p)) for p in stabilizer_perms(t.columns(), n)
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
