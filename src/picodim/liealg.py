"""Finite-dimensional Lie algebras over Q from structure constants.

Structure theory: Killing form, solvable radical, nilpotency class,
semisimple quotient, decomposition into simple ideals as the joint
eigenspaces of the centroid, and adapted bases lifted back into the
algebra.  Every step is deterministic: a report depends on the
structure constants alone.

Everything is exact.  The quotient's simple components must be split
over Q; otherwise their dimensions could change under scalar extension
and we raise NotSplitError instead of reporting a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable

from .errors import (
    HypothesisFailure,
    InternalInvariantError,
    JacobiError,
    MalformedInputError,
    NotSemisimpleError,
    NotSplitError,
)
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    format_fraction,
    invert,
    is_zero_vec,
    kernel,
    mat_mul,
    mat_vec,
    parse_fraction,
    rank_exact,
    rref,
    unit_vec,
    vec,
    vec_add,
    vec_scale,
    zero_vec,
)


@dataclass(frozen=True)
class LieAlgebra:
    """Algebra given by [b_i, b_j] for i < j; antisymmetry is implicit."""

    labels: tuple[str, ...]
    table: dict[tuple[int, int], Vector]  # 0-based, i < j

    @property
    def dim(self) -> int:
        return len(self.labels)

    def basis_vector(self, i: int) -> Vector:
        return unit_vec(self.dim, i)

    def bracket_basis(self, i: int, j: int) -> Vector:
        if i == j:
            return zero_vec(self.dim)
        if i < j:
            return self.table.get((i, j), zero_vec(self.dim))
        return vec_scale(Fraction(-1), self.table.get((j, i), zero_vec(self.dim)))

    def bracket(self, x: Vector, y: Vector) -> Vector:
        if len(x) != self.dim or len(y) != self.dim:
            raise MalformedInputError("vector length != algebra dimension")
        out = list(zero_vec(self.dim))
        for (i, j), value in self.table.items():
            c = x[i] * y[j] - x[j] * y[i]
            if c != 0:
                for k, v in enumerate(value):
                    if v != 0:
                        out[k] += c * v
        return tuple(out)

    def ad(self, x: Vector) -> Matrix:
        """Matrix of bracket(x, .) with columns indexed by the basis."""
        cols = [self.bracket(x, self.basis_vector(j)) for j in range(self.dim)]
        return tuple(
            tuple(cols[j][k] for j in range(self.dim)) for k in range(self.dim)
        )

    def derived_subalgebra(self) -> Subspace:
        return Subspace.from_vectors(self.dim, list(self.table.values()))

    def __str__(self) -> str:
        return f"LieAlgebra(dim={self.dim}, basis={list(self.labels)})"


def validate(
    labels: Iterable[str], table: dict[tuple[int, int], Iterable]
) -> LieAlgebra:
    """Build an algebra, checking shapes and the Jacobi identity exhaustively."""
    labels = tuple(labels)
    n = len(labels)
    clean: dict[tuple[int, int], Vector] = {}
    for (i, j), value in table.items():
        if not (0 <= i < j < n):
            raise MalformedInputError(f"bad bracket index pair ({i}, {j})")
        v = vec(value)
        if len(v) != n:
            raise MalformedInputError(
                f"bracket ({i},{j}) has length {len(v)}, expected {n}"
            )
        if not is_zero_vec(v):
            clean[(i, j)] = v
    algebra = LieAlgebra(labels, clean)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                bi, bj, bk = (algebra.basis_vector(t) for t in (i, j, k))
                s = vec_add(
                    algebra.bracket(algebra.bracket(bi, bj), bk),
                    vec_add(
                        algebra.bracket(algebra.bracket(bj, bk), bi),
                        algebra.bracket(algebra.bracket(bk, bi), bj),
                    ),
                )
                if not is_zero_vec(s):
                    raise JacobiError((labels[i], labels[j], labels[k]), s)
    return algebra


def killing_form(algebra: LieAlgebra) -> Matrix:
    ads = [algebra.ad(algebra.basis_vector(i)) for i in range(algebra.dim)]
    n = algebra.dim

    def trace_product(a: Matrix, b: Matrix) -> Fraction:
        return sum(
            (a[r][k] * b[k][r] for r in range(n) for k in range(n)),
            Fraction(0),
        )

    return tuple(
        tuple(trace_product(ads[i], ads[j]) for j in range(n)) for i in range(n)
    )


def _bracket_spans(algebra: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    vecs = [algebra.bracket(u, v) for u in a.basis for v in b.basis]
    return Subspace.from_vectors(algebra.dim, vecs)


def is_solvable(algebra: LieAlgebra, s: Subspace) -> bool:
    current = s
    while not current.is_zero():
        nxt = _bracket_spans(algebra, current, current)
        if nxt.dim >= current.dim:
            return False
        current = nxt
    return True


def nilpotency_class(algebra: LieAlgebra, s: Subspace) -> int | None:
    """Least q with s^q = 0 under s^1 = s, s^{k+1} = [s, s^k]; None if not nilpotent."""
    current = s
    q = 1
    while not current.is_zero():
        nxt = _bracket_spans(algebra, s, current)
        if nxt.dim >= current.dim:
            return None
        current = nxt
        q += 1
    return q


def radical(algebra: LieAlgebra) -> Subspace:
    """Solvable radical via the char-0 criterion: kappa(x, [L, L]) = 0."""
    kappa = killing_form(algebra)
    derived = algebra.derived_subalgebra()
    rows = tuple(mat_vec(kappa, c) for c in derived.basis)
    result = kernel(rows, algebra.dim)
    if not is_solvable(algebra, result):
        raise InternalInvariantError("computed radical is not solvable")
    return result


@dataclass(frozen=True)
class SimpleComponent:
    """One simple ideal of the semisimple quotient, with its lift into L."""

    subspace: Subspace  # in quotient coordinates
    lifted_basis: tuple[Vector, ...]  # B_i: preimages in L

    @property
    def dim(self) -> int:
        return self.subspace.dim


@dataclass(frozen=True)
class StructureReport:
    algebra: LieAlgebra
    nilradical: Subspace
    nil_class: int
    quotient: LieAlgebra
    components: tuple[SimpleComponent, ...]
    nilradical_basis: tuple[Vector, ...]  # C: basis of N inside L
    _rep_indices: tuple[int, ...]
    _coords_inverse: Matrix  # inverse of [reps; N basis] stacked as rows

    @property
    def quotient_dim(self) -> int:
        return self.quotient.dim

    def project_to_quotient(self, v: Vector) -> Vector:
        """Coordinates of v + N in the quotient basis."""
        coeffs = mat_vec(self._coords_inverse, v)
        return coeffs[: self.quotient.dim]

    def lift(self, g: Vector) -> Vector:
        """Section of the quotient map: representative in L of a quotient vector."""
        return _lift(g, self._rep_indices, self.algebra.dim)

    def component_project(self, g: Vector, i: int) -> Vector:
        """Projection of a quotient vector onto component i along the others."""
        stacked = tuple(
            row for comp in self.components for row in comp.subspace.basis
        )
        coeffs = mat_vec(invert(tuple(zip(*stacked))), g)
        out = zero_vec(self.quotient.dim)
        offset = 0
        for idx, comp in enumerate(self.components):
            if idx == i:
                for c, row in zip(
                    coeffs[offset : offset + comp.dim], comp.subspace.basis
                ):
                    if c != 0:
                        out = vec_add(out, vec_scale(c, row))
            offset += comp.dim
        return out

    def __str__(self) -> str:
        dims = [c.dim for c in self.components]
        return (
            f"StructureReport(dim={self.algebra.dim}, N-dim={self.nilradical.dim}, "
            f"q={self.nil_class}, quotient-dim={self.quotient_dim}, components={dims})"
        )


def centroid(algebra: LieAlgebra) -> list[Matrix]:
    """Basis of {X : X ad(g) = ad(g) X for all g}, as p x p matrices."""
    p = algebra.dim
    if p == 0:
        return []
    ads = [algebra.ad(algebra.basis_vector(i)) for i in range(p)]
    # unknowns X[r][c] flattened row-major; equations (X A - A X)[r][c] = 0
    rows = []
    for a in ads:
        for r in range(p):
            for c in range(p):
                coeff = [Fraction(0)] * (p * p)
                for k in range(p):
                    coeff[r * p + k] += a[k][c]
                    coeff[k * p + c] -= a[r][k]
                rows.append(tuple(coeff))
    null = kernel(tuple(rows), p * p)
    return [
        tuple(tuple(b[r * p + c] for c in range(p)) for r in range(p))
        for b in null.basis
    ]


def _minimal_polynomial(x: Matrix, p: int) -> list[Fraction]:
    """Coefficients c_0..c_k (monic, c_k = 1) of the minimal polynomial of x."""
    flat_dim = p * p
    power = tuple(
        tuple(Fraction(1 if r == c else 0) for c in range(p)) for r in range(p)
    )
    powers: list[Vector] = []
    while True:
        flat = tuple(power[r][c] for r in range(p) for c in range(p))
        coords = _coords_in(powers, flat, flat_dim)
        if coords is not None:
            return [-c for c in coords] + [Fraction(1)]
        powers.append(flat)
        power = mat_mul(power, x)


def _coords_in(vectors: list[Vector], target: Vector, ambient: int):
    """Express target as a combination of the given vectors, or None."""
    if not vectors:
        return () if is_zero_vec(target) else None
    m = len(vectors)
    aug = tuple(
        tuple(vectors[i][j] for i in range(m)) + (target[j],)
        for j in range(ambient)
    )
    reduced = rref(aug)
    sol = [Fraction(0)] * m
    for row in reduced:
        lead = next(i for i, v in enumerate(row) if v != 0)
        if lead == m:
            return None  # inconsistent: target not in the span
        # rref normalizes pivots to 1 and clears the column, so read off directly
        sol[lead] = row[m]
    return tuple(sol)


def _rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
    """All rational roots (with multiplicity ignored) of the polynomial."""
    denom_lcm = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * denom_lcm) for c in coeffs]
    roots: list[Fraction] = []
    while ints and ints[0] == 0:
        if Fraction(0) not in roots:
            roots.append(Fraction(0))
        ints = ints[1:]
    if len(ints) <= 1:
        return roots

    def divisors(n: int) -> list[int]:
        n = abs(n)
        out = []
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.append(d)
                out.append(n // d)
            d += 1
        return sorted(set(out))

    for num in divisors(ints[0]):
        for den in divisors(ints[-1]):
            for sign in (1, -1):
                cand = Fraction(sign * num, den)
                if cand in roots:
                    continue
                value = Fraction(0)
                for c in reversed(ints):
                    value = value * cand + c
                if value == 0:
                    roots.append(cand)
    return roots


def simple_decomposition(algebra: LieAlgebra) -> list[Subspace]:
    """Pairwise Killing-orthogonal simple ideals of a semisimple algebra.

    The centroid acts on each simple ideal by a scalar, so the ideals are
    the joint eigenspaces of a centroid basis."""
    p = algebra.dim
    if p == 0:
        raise NotSemisimpleError("zero algebra has no simple decomposition")
    kappa = killing_form(algebra)
    if rank_exact(kappa) != p:
        raise NotSemisimpleError("Killing form is degenerate")
    cent = centroid(algebra)
    if len(cent) == 1:
        return [Subspace.full(p)]
    components = [Subspace.full(p)]
    for x in cent:
        minpoly = _minimal_polynomial(x, p)
        degree = len(minpoly) - 1
        roots = _rational_roots(minpoly)
        if len(roots) != degree:
            raise NotSplitError(
                "centroid minimal polynomial does not split over Q with "
                f"distinct roots (degree {degree}, rational roots {len(roots)})"
            )
        eigenspaces = []
        for r in roots:
            shifted = tuple(
                tuple(x[a][b] - (r if a == b else 0) for b in range(p))
                for a in range(p)
            )
            eigenspaces.append(kernel(shifted, p))
        parts = [comp.intersect(e) for comp in components for e in eigenspaces]
        components = [part for part in parts if not part.is_zero()]
    if len(components) != len(cent) or sum(c.dim for c in components) != p:
        raise InternalInvariantError(
            "joint centroid eigenspaces are not one ideal per centroid dimension"
        )
    components.sort(key=lambda s: (-s.dim, s.basis))
    return components


def analyze(algebra: LieAlgebra) -> StructureReport:
    """Full structure pipeline; raises HypothesisFailure when L is not
    nilpotent-by-semisimple."""
    n = algebra.dim
    rad = radical(algebra)
    q = nilpotency_class(algebra, rad)
    if q is None:
        raise HypothesisFailure(
            "solvable radical is not nilpotent: L is not an extension of a "
            "nilpotent ideal by a semisimple algebra"
        )
    # N = radical: any nilpotent ideal is solvable hence inside the radical,
    # and the radical itself is nilpotent, so it is the maximal nilpotent ideal.
    rep_indices = _complement_indices(rad, n)
    stacked = tuple(
        [unit_vec(n, i) for i in rep_indices] + list(rad.basis)
    )
    coords_inverse = invert(tuple(zip(*stacked)))  # solves stacked^T a = v
    p = len(rep_indices)

    def project(v: Vector) -> Vector:
        return mat_vec(coords_inverse, v)[:p]

    quotient_table: dict[tuple[int, int], Vector] = {}
    for a in range(p):
        for b in range(a + 1, p):
            value = algebra.bracket_basis(rep_indices[a], rep_indices[b])
            img = project(value)
            if not is_zero_vec(img):
                quotient_table[(a, b)] = img
    quotient = LieAlgebra(
        tuple(algebra.labels[i] for i in rep_indices), quotient_table
    )
    comp_spaces = []
    if p > 0:
        try:
            comp_spaces = simple_decomposition(quotient)
        except NotSemisimpleError as exc:
            raise InternalInvariantError(
                "quotient by the radical has degenerate Killing form"
            ) from exc
    components = []
    for space in comp_spaces:
        lifted = tuple(_lift(g, rep_indices, n) for g in space.basis)
        components.append(SimpleComponent(space, lifted))
    return StructureReport(
        algebra=algebra,
        nilradical=rad,
        nil_class=q,
        quotient=quotient,
        components=tuple(components),
        nilradical_basis=tuple(rad.basis),
        _rep_indices=tuple(rep_indices),
        _coords_inverse=coords_inverse,
    )


def _lift(g: Vector, rep_indices, n: int) -> Vector:
    out = [Fraction(0)] * n
    for coeff, idx in zip(g, rep_indices):
        out[idx] += coeff
    return tuple(out)


def _complement_indices(s: Subspace, n: int) -> list[int]:
    pivots = set()
    for row in s.basis:
        pivots.add(next(i for i, x in enumerate(row) if x != 0))
    return [i for i in range(n) if i not in pivots]


def change_basis(algebra: LieAlgebra, p_rows: Matrix) -> LieAlgebra:
    """Isomorphic copy with new basis vectors given by the rows of p_rows."""
    n = algebra.dim
    p_inv = invert(p_rows)
    table: dict[tuple[int, int], Vector] = {}
    for i in range(n):
        for j in range(i + 1, n):
            value = algebra.bracket(p_rows[i], p_rows[j])
            coords = mat_vec(tuple(zip(*p_inv)), value)  # value @ p_inv
            if not is_zero_vec(coords):
                table[(i, j)] = coords
    return LieAlgebra(tuple(f"c{i+1}" for i in range(n)), table)


# ---------------------------------------------------------------------------
# JSON schema and built-in catalog


def to_json_dict(algebra: LieAlgebra) -> dict:
    brackets = {}
    for (i, j), value in sorted(algebra.table.items()):
        entries = [
            [format_fraction(c), k + 1] for k, c in enumerate(value) if c != 0
        ]
        brackets[f"{i+1},{j+1}"] = entries
    return {
        "dim": algebra.dim,
        "basis": list(algebra.labels),
        "brackets": brackets,
    }


def _json_positive(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise MalformedInputError(f"{what} must be a positive integer, got {value!r}")
    return value


def from_json_dict(data: dict) -> LieAlgebra:
    if not isinstance(data, dict):
        raise MalformedInputError("algebra JSON must be an object")
    n = _json_positive(data.get("dim"), "'dim'")
    labels = data.get("basis") or [f"b{i+1}" for i in range(n)]
    if not isinstance(labels, list) or len(labels) != n:
        raise MalformedInputError(f"'basis' must be a list of {n} names")
    brackets = data.get("brackets", {})
    if not isinstance(brackets, dict):
        raise MalformedInputError("'brackets' must be an object")
    table: dict[tuple[int, int], list[Fraction]] = {}
    for key, entries in brackets.items():
        try:
            i_s, j_s = key.split(",")
            i, j = int(i_s) - 1, int(j_s) - 1
        except ValueError as exc:
            raise MalformedInputError(f"bad bracket key {key!r}") from exc
        if not (0 <= i < j < n):
            raise MalformedInputError(f"bracket key {key!r} out of range or i >= j")
        if not isinstance(entries, list):
            raise MalformedInputError(f"bracket {key!r} must be a list of entries")
        value = [Fraction(0)] * n
        for entry in entries:
            if not isinstance(entry, list) or len(entry) != 2:
                raise MalformedInputError(f"bad bracket entry {entry!r} at {key!r}")
            coeff = parse_fraction(entry[0])
            k = _json_positive(entry[1], f"basis index at {key!r}") - 1
            if not 0 <= k < n:
                raise MalformedInputError(f"basis index {entry[1]} out of range at {key!r}")
            value[k] += coeff
        table[(i, j)] = value
    return validate(labels, table)


def _sl2_table(offset: int, n: int, e: int, h: int, f: int) -> dict:
    def unit(k, c=1):
        v = [Fraction(0)] * n
        v[k] = Fraction(c)
        return v

    return {
        (offset + e, offset + h): unit(offset + e, -2),
        (offset + e, offset + f): unit(offset + h),
        (offset + h, offset + f): unit(offset + f, -2),
    }


def _catalog_builders() -> dict:
    def abelian(k: int) -> LieAlgebra:
        return validate(tuple(f"a{i+1}" for i in range(k)), {})

    def heisenberg3() -> LieAlgebra:
        return validate(("x", "y", "z"), {(0, 1): [0, 0, 1]})

    def sl2() -> LieAlgebra:
        return validate(("e", "h", "f"), _sl2_table(0, 3, 0, 1, 2))

    def gl2() -> LieAlgebra:
        table = {
            k: [Fraction(x) for x in v] + [Fraction(0)]
            for k, v in _sl2_table(0, 3, 0, 1, 2).items()
        }
        return validate(("e", "h", "f", "z"), table)

    def sl2_plus_sl2() -> LieAlgebra:
        table = {}
        table.update(_sl2_table(0, 6, 0, 1, 2))
        table.update(_sl2_table(3, 6, 0, 1, 2))
        return validate(("e1", "h1", "f1", "e2", "h2", "f2"), table)

    def sl2_natural() -> LieAlgebra:
        def unit(k, c=1):
            v = [Fraction(0)] * 5
            v[k] = Fraction(c)
            return v

        table = dict(_sl2_table(0, 5, 0, 1, 2))
        table.update(
            {
                (0, 4): unit(3),  # [e, v] = u
                (1, 3): unit(3),  # [h, u] = u
                (1, 4): unit(4, -1),  # [h, v] = -v
                (2, 3): unit(4),  # [f, u] = v
            }
        )
        return validate(("e", "h", "f", "u", "v"), table)

    def sl2_adjoint() -> LieAlgebra:
        # basis e,h,f,E,H,F; capitals form the adjoint module copy
        small = validate(("e", "h", "f"), _sl2_table(0, 3, 0, 1, 2))
        table = dict(_sl2_table(0, 6, 0, 1, 2))
        for i in range(3):
            for j in range(3):
                value = small.bracket_basis(i, j)
                if is_zero_vec(value):
                    continue
                padded = [Fraction(0)] * 3 + list(value)
                a, b = i, j + 3
                if a < b:
                    table[(a, b)] = padded
        return validate(("e", "h", "f", "E", "H", "F"), table)

    def solvable2() -> LieAlgebra:
        return validate(("e", "f"), {(0, 1): [0, 1]})

    return {
        "abelian3": lambda: abelian(3),
        "heisenberg3": heisenberg3,
        "sl2": sl2,
        "gl2": gl2,
        "sl2_plus_sl2": sl2_plus_sl2,
        "sl2_natural": sl2_natural,
        "sl2_adjoint": sl2_adjoint,
        "solvable2": solvable2,
        "_abelian": abelian,
    }


CATALOG_NAMES = (
    "abelian3",
    "heisenberg3",
    "sl2",
    "gl2",
    "sl2_plus_sl2",
    "sl2_natural",
    "sl2_adjoint",
    "solvable2",
)


def catalog_algebra(name: str) -> LieAlgebra:
    builders = _catalog_builders()
    if name in builders and not name.startswith("_"):
        return builders[name]()
    if name.startswith("abelian(") and name.endswith(")"):
        try:
            k = int(name[len("abelian(") : -1])
        except ValueError as exc:
            raise MalformedInputError(f"bad abelian size in {name!r}") from exc
        if k < 1:
            raise MalformedInputError("abelian(k) needs k >= 1")
        return builders["_abelian"](k)
    raise MalformedInputError(f"unknown catalog algebra {name!r}")
