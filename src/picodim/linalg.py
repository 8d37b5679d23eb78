"""Exact rational vectors, matrices and subspaces.

Scalars are `fractions.Fraction`.  Matrices are tuples of row tuples.
Subspaces are stored in reduced row echelon form, which is canonical:
two generating sets of the same subspace produce identical bases.

Elimination skips zeros: it works on sparse rows, dicts from column to
nonzero entry, and inserts them one at a time into a fully reduced set
of pivot rows.  Each inserted row is reduced against the pivot rows,
its residual is scaled to a leading 1, and its pivot column is cleared
from the other rows; the pivot rows are then the reduced row echelon
form of the rows inserted so far, whatever their order.  `mat_mul` and
`mat_vec` multiply only nonzero entries.  Every vector and matrix these
functions return holds `Fraction` entries.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction

from .errors import MalformedInputError

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]
SparseRow = dict[int, Fraction]  # column -> nonzero entry

ZERO = Fraction(0)
ONE = Fraction(1)


def vec(entries: Iterable) -> Vector:
    return tuple(Fraction(e) for e in entries)


def zero_vec(n: int) -> Vector:
    return (ZERO,) * n


def unit_vec(n: int, i: int) -> Vector:
    out = [ZERO] * n
    out[i] = ONE
    return tuple(out)


def vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def vec_scale(c: Fraction, a: Vector) -> Vector:
    return tuple(c * x for x in a)


def is_zero_vec(a: Vector) -> bool:
    return not any(a)


def matrix(rows: Iterable[Iterable]) -> Matrix:
    m = tuple(vec(r) for r in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise MalformedInputError("inconsistent row lengths")
    return m


def sparse(v: Vector) -> SparseRow:
    return {j: x for j, x in enumerate(v) if x}


def _dense(row: SparseRow, n: int) -> Vector:
    out = [ZERO] * n
    for j, x in row.items():
        out[j] = x
    return tuple(out)


def _subtract(row: SparseRow, f: Fraction, other: SparseRow) -> None:
    """row -= f * other in place, dropping the entries that cancel."""
    for j, y in other.items():
        x = row.get(j)
        if x is None:
            row[j] = -f * y
        else:
            x -= f * y
            if x:
                row[j] = x
            else:
                del row[j]


def _insert(pivots: dict[int, SparseRow], row: SparseRow) -> bool:
    """Add `row` (consumed) to the fully reduced pivot rows, keyed by
    pivot column; False when it is in their span."""
    for c in [c for c in row if c in pivots]:
        # pivot rows vanish on the other pivot columns, so each
        # subtraction clears column c and leaves the others as they were
        _subtract(row, row[c], pivots[c])
    if not row:
        return False
    lead = min(row)
    inv = ONE / row[lead]
    row = {j: x * inv for j, x in row.items()}
    for other in pivots.values():
        f = other.get(lead)
        if f:
            _subtract(other, f, row)
    pivots[lead] = row
    return True


def _echelon(rows: Iterable[SparseRow]) -> dict[int, SparseRow]:
    """Reduced row echelon form of sparse rows (consumed), keyed by pivot
    column."""
    pivots: dict[int, SparseRow] = {}
    for row in rows:
        _insert(pivots, row)
    return pivots


def rref(rows: Sequence[Vector]) -> tuple[Vector, ...]:
    """Reduced row echelon form with pivots normalized to 1; zero rows dropped."""
    if not rows:
        return ()
    pivots = _echelon(sparse(r) for r in rows)
    ncols = len(rows[0])
    return tuple(_dense(pivots[c], ncols) for c in sorted(pivots))


def rank(m: Matrix) -> int:
    if m and any(len(r) != len(m[0]) for r in m):
        raise MalformedInputError("inconsistent row lengths")
    return len(rref(m))


class Subspace:
    """A subspace of Q^n held as a reduced-echelon basis (canonical), so
    two subspaces are equal iff their ambients and bases are.  The basis
    rows are also kept sparse, keyed by pivot column, once `reduce` or
    `insert` needs them."""

    __slots__ = ("ambient", "basis", "_pivots")

    def __init__(self, ambient: int, basis: Matrix):
        self.ambient = ambient
        self.basis = basis
        self._pivots: dict[int, SparseRow] | None = None

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

    def _pivot_rows(self) -> dict[int, SparseRow]:
        """The basis rows as sparse rows keyed by pivot column (shared:
        do not modify)."""
        if self._pivots is None:
            self._pivots = {}
            for row in self.basis:
                entries = sparse(row)
                self._pivots[min(entries)] = entries
        return self._pivots

    def reduce(self, v: Vector) -> Vector:
        """Residual of v after subtracting its projection onto the basis rows."""
        if len(v) != self.ambient:
            raise MalformedInputError("vector length != ambient dimension")
        w = list(v)
        for c, row in self._pivot_rows().items():
            f = w[c]
            if f:
                for j, y in row.items():
                    w[j] -= f * y
        return tuple(w)

    def contains(self, v: Vector) -> bool:
        return is_zero_vec(self.reduce(v))

    def insert(self, v: Vector) -> "Subspace":
        """The span of this subspace and v; pass a residual of `reduce`
        to reduce only once."""
        if len(v) != self.ambient:
            raise MalformedInputError("vector length != ambient dimension")
        pivots = {c: dict(row) for c, row in self._pivot_rows().items()}
        if not _insert(pivots, sparse(v)):
            return self
        out = Subspace(self.ambient,
                       tuple(_dense(pivots[c], self.ambient) for c in sorted(pivots)))
        out._pivots = pivots
        return out

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


def span_add(a: Subspace, b: Subspace) -> Subspace:
    return a.add(b)


def kernel(m: Matrix, ncols: int) -> Subspace:
    """Right null space {x : m @ x = 0} as a subspace of Q^ncols."""
    return sparse_kernel((sparse(r) for r in m), ncols)


def sparse_kernel(rows: Iterable[SparseRow], ncols: int) -> Subspace:
    """`kernel` of a matrix given by its sparse rows (consumed)."""
    pivots = _echelon(rows)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [ZERO] * ncols
        v[f] = ONE
        for c, row in pivots.items():
            x = row.get(f)
            if x:
                v[c] = -x
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
    ncols = len(b[0]) if b else 0
    b_rows = [tuple(sparse(row).items()) for row in b]
    out = []
    for row in a:
        acc = [ZERO] * ncols
        for k, x in enumerate(row):
            if x:
                for j, y in b_rows[k]:
                    acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def mat_vec(a: Matrix, v: Vector) -> Vector:
    entries = tuple(sparse(v).items())
    out = []
    for row in a:
        s = ZERO
        for j, y in entries:
            x = row[j]
            if x:
                s += x * y
        out.append(s)
    return tuple(out)


def parse_fraction(s) -> Fraction:
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if isinstance(s, str):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedInputError(f"bad rational literal {s!r}") from exc
    raise MalformedInputError(f"bad rational value {s!r}")
