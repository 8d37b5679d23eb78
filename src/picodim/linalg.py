"""Exact rational vectors, matrices and subspaces.

Scalars are `fractions.Fraction`.  Matrices are tuples of row tuples.
Subspaces are stored in reduced row echelon form, which is canonical:
two generating sets of the same subspace produce identical bases.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction

from .errors import MalformedInputError

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]


def vec(entries: Iterable) -> Vector:
    return tuple(Fraction(e) for e in entries)


def zero_vec(n: int) -> Vector:
    return (Fraction(0),) * n


def unit_vec(n: int, i: int) -> Vector:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def vec_scale(c: Fraction, a: Vector) -> Vector:
    return tuple(c * x for x in a)


def is_zero_vec(a: Vector) -> bool:
    return all(x == 0 for x in a)


def matrix(rows: Iterable[Iterable]) -> Matrix:
    m = tuple(vec(r) for r in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise MalformedInputError("inconsistent row lengths")
    return m


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def rref(rows: Sequence[Vector]) -> tuple[Vector, ...]:
    """Reduced row echelon form with pivots normalized to 1; zero rows dropped."""
    work = [list(r) for r in rows]
    if not work:
        return ()
    ncols = len(work[0])
    pivot_row = 0
    for col in range(ncols):
        piv = None
        for r in range(pivot_row, len(work)):
            if work[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        work[pivot_row], work[piv] = work[piv], work[pivot_row]
        inv = Fraction(1) / work[pivot_row][col]
        work[pivot_row] = [inv * x for x in work[pivot_row]]
        for r in range(len(work)):
            if r != pivot_row and work[r][col] != 0:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[pivot_row])]
        pivot_row += 1
        if pivot_row == len(work):
            break
    return tuple(tuple(r) for r in work[:pivot_row] if any(x != 0 for x in r))


def rank_exact(m: Matrix) -> int:
    return len(rref(m))


def rank(m: Matrix) -> int:
    if m and any(len(r) != len(m[0]) for r in m):
        raise MalformedInputError("inconsistent row lengths")
    return rank_exact(m)


class Subspace:
    """A subspace of Q^n held as a reduced-echelon basis (canonical), so
    two subspaces are equal iff their ambients and bases are."""

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: int, basis: Matrix):
        self.ambient = ambient
        self.basis = basis

    def __eq__(self, other):
        if other.__class__ is not Subspace:
            return NotImplemented
        return (self.ambient, self.basis) == (other.ambient, other.basis)

    def __hash__(self) -> int:
        return hash((self.ambient, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(ambient={self.ambient}, basis={self.basis!r})"

    @classmethod
    def from_vectors(cls, ambient: int, vectors: Iterable[Vector]) -> "Subspace":
        vecs = tuple(vectors)
        for v in vecs:
            if len(v) != ambient:
                raise MalformedInputError("vector length != ambient dimension")
        return cls(ambient, rref(vecs))

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, ())

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls.from_vectors(ambient, [unit_vec(ambient, i) for i in range(ambient)])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def reduce(self, v: Vector) -> Vector:
        """Residual of v after subtracting its projection onto the basis rows."""
        if len(v) != self.ambient:
            raise MalformedInputError("vector length != ambient dimension")
        w = list(v)
        for row in self.basis:
            lead = next(i for i, x in enumerate(row) if x != 0)
            if w[lead] != 0:
                f = w[lead]
                w = [x - f * y for x, y in zip(w, row)]
        return tuple(w)

    def contains(self, v: Vector) -> bool:
        return is_zero_vec(self.reduce(v))

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise MalformedInputError("ambient dimension mismatch")
        return Subspace.from_vectors(self.ambient, self.basis + other.basis)

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise MalformedInputError("ambient dimension mismatch")
        # Zassenhaus: row-reduce [A|A; B|0], read the lower-right block.
        n = self.ambient
        rows = [r + r for r in self.basis] + [
            r + zero_vec(n) for r in other.basis
        ]
        reduced = rref(tuple(rows))
        inter = [r[n:] for r in reduced if is_zero_vec(r[:n])]
        return Subspace.from_vectors(n, inter)

    def coordinates(self, v: Vector) -> Vector | None:
        """Coefficients of v in the echelon basis, or None if v is outside."""
        w = list(v)
        coeffs = []
        for row in self.basis:
            lead = next(i for i, x in enumerate(row) if x != 0)
            c = w[lead]
            coeffs.append(c)
            if c != 0:
                w = [x - c * y for x, y in zip(w, row)]
        if any(x != 0 for x in w):
            return None
        return tuple(coeffs)


def span_add(a: Subspace, b: Subspace) -> Subspace:
    return a.add(b)


def kernel(m: Matrix, ncols: int) -> Subspace:
    """Right null space {x : m @ x = 0} as a subspace of Q^ncols."""
    reduced = rref(m)
    pivots = []
    for row in reduced:
        pivots.append(next(i for i, x in enumerate(row) if x != 0))
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[f]
        basis.append(tuple(v))
    return Subspace.from_vectors(ncols, basis)


def invert(m: Matrix) -> Matrix:
    """Inverse of a square matrix; raises on singular input."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise MalformedInputError("matrix is not square")
    augmented = tuple(
        row + unit_vec(n, i) for i, row in enumerate(m)
    )
    reduced = rref(augmented)
    if len(reduced) != n or any(
        reduced[i][: n][i] != 1 or not is_zero_vec(reduced[i][:i]) for i in range(n)
    ):
        raise MalformedInputError("matrix is singular")
    return tuple(row[n:] for row in reduced)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def format_fraction(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_fraction(s) -> Fraction:
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if isinstance(s, str):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedInputError(f"bad rational literal {s!r}") from exc
    raise MalformedInputError(f"bad rational value {s!r}")
