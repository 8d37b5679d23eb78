"""Exact rational vectors, matrices and subspaces.

Scalars are `fractions.Fraction`.  Matrices are tuples of row tuples.
Subspaces are stored in reduced row echelon form, which is canonical:
two generating sets of the same subspace produce identical bases.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

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


def vec_sub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


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


def _rank_mod(m: Matrix, p: int) -> int | None:
    """Rank of m over GF(p), or None if p divides a denominator."""
    work = []
    for row in m:
        r = []
        for x in row:
            if x.denominator % p == 0:
                return None
            r.append(x.numerator * pow(x.denominator, -1, p) % p)
        work.append(r)
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(work)):
            if work[r][col]:
                piv = r
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][col], -1, p)
        work[rank] = [inv * x % p for x in work[rank]]
        for r in range(rank + 1, len(work)):
            if work[r][col]:
                f = work[r][col]
                work[r] = [(x - f * y) % p for x, y in zip(work[r], work[rank])]
        rank += 1
        if rank == len(work):
            break
    return rank


def _random_prime(rng: random.Random, bits: int = 31) -> int:
    while True:
        candidate = rng.randrange(1 << bits, 1 << (bits + 1)) | 1
        if _is_probable_prime(candidate):
            return candidate


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def rank_modular(m: Matrix, trials: int = 3, seed: int = 0, bits: int = 31) -> int:
    """Maximum rank observed over `trials` random primes above 2**bits.

    Always a lower bound on the true rank; equals it unless every chosen
    prime divides one fixed nonzero minor of the matrix.
    """
    if trials < 1:
        raise MalformedInputError("trials must be >= 1")
    rng = random.Random(seed)
    best = 0
    done = 0
    while done < trials:
        p = _random_prime(rng, bits)
        r = _rank_mod(m, p)
        if r is None:
            continue  # prime hit a denominator; draw another
        best = max(best, r)
        done += 1
    return best


def rank(m: Matrix) -> int:
    if m and any(len(r) != len(m[0]) for r in m):
        raise MalformedInputError("inconsistent row lengths")
    return rank_exact(m)


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^n held as a reduced-echelon basis (canonical)."""

    ambient: int
    basis: Matrix

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

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.basis)

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


def contains(s: Subspace, v: Vector) -> bool:
    return s.contains(v)


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
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedInputError(f"bad rational literal {s!r}") from exc
    raise MalformedInputError(f"bad rational value {s!r}")
