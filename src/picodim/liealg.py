"""Finite-dimensional Lie algebras over Q from structure constants.

Structure theory: Killing form, solvable radical, nilpotency class,
semisimple quotient, decomposition into simple ideals as the joint
eigenspaces of the centroid, adapted bases lifted back into the
algebra, and an Engel subalgebra of least dimension, the Cartan slice
that the evaluation kernel ranks over (`engel_subalgebra`).  Every step
is deterministic: a report depends on the structure constants alone.

Every step reads one sparse table of structure constants,
`LieAlgebra.constants`, built once per algebra: a bracket sums over the
nonzero coordinates of its arguments, the Jacobi check and the Killing
form kappa_ij = sum c_ik^l c_jl^k multiply constants directly, and the
centroid writes only the nonzero coefficients of its equations.

Every algebra enters through `from_json_dict` and its Jacobi check in
`validate`: a file, and each built-in algebra, an entry of `CATALOG`
written in the same JSON schema.

Everything is exact.  The quotient's simple components must be split
over Q; otherwise their dimensions could change under scalar extension
and we raise NotSplitError instead of reporting a wrong answer.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from itertools import chain, combinations
from math import lcm

from .errors import (
    HypothesisFailure,
    InternalInvariantError,
    JacobiError,
    MalformedInputError,
    NotSemisimpleError,
    NotSplitError,
)
from .linalg import (
    ONE,
    ZERO,
    Matrix,
    Subspace,
    Vector,
    invert,
    is_zero_vec,
    kernel,
    mat_mul,
    mat_vec,
    parse_fraction,
    rank,
    sparse,
    sparse_kernel,
    unit_vec,
    vec,
)


class LieAlgebra:
    """Algebra given by [b_i, b_j] for i < j; antisymmetry is implicit.

    `constants[i][j]` lists the nonzero (k, c) with [b_i, b_j] having
    coefficient c on b_k, for every ordered pair (i, j): the one
    structure-constant table that brackets, ad, the Jacobi check, the
    Killing form, the centroid and the evaluation kernel read."""

    __slots__ = ("labels", "table", "constants")

    def __init__(self, labels: tuple[str, ...], table: dict[tuple[int, int], Vector]):
        self.labels = labels
        self.table = table  # 0-based, i < j
        n = len(labels)
        constants = [[()] * n for _ in range(n)]
        for (i, j), value in table.items():
            entries = tuple(sparse(value).items())
            constants[i][j] = entries
            constants[j][i] = tuple((k, -c) for k, c in entries)
        self.constants = constants

    @property
    def dim(self) -> int:
        return len(self.labels)

    def basis_vector(self, i: int) -> Vector:
        return unit_vec(self.dim, i)

    def bracket_basis(self, i: int, j: int) -> Vector:
        out = [ZERO] * self.dim
        for k, c in self.constants[i][j]:
            out[k] = c
        return tuple(out)

    def bracket(self, x: Vector, y: Vector) -> Vector:
        if len(x) != self.dim or len(y) != self.dim:
            raise MalformedInputError("vector length != algebra dimension")
        y_entries = tuple(sparse(y).items())
        out = [ZERO] * self.dim
        for i, a in enumerate(x):
            if a:
                row = self.constants[i]
                for j, b in y_entries:
                    entries = row[j]
                    if entries:
                        ab = a * b
                        for k, c in entries:
                            out[k] += ab * c
        return tuple(out)

    def ad(self, x: Vector) -> Matrix:
        """Matrix of bracket(x, .) with columns indexed by the basis."""
        n = self.dim
        rows = [[ZERO] * n for _ in range(n)]
        for i, a in enumerate(x):
            if a:
                for j, entries in enumerate(self.constants[i]):
                    for k, c in entries:
                        rows[k][j] += a * c
        return tuple(tuple(r) for r in rows)

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
    constants = algebra.constants
    # a triple whose three brackets vanish satisfies Jacobi, so only the
    # triples i < j < k through a nonzero bracket are checked, in order
    triples = {tuple(sorted((i, j, k))) for i, j in clean for k in range(n)
               if k != i and k != j}
    for i, j, k in sorted(triples):
        # [[b_i, b_j], b_k] + [[b_j, b_k], b_i] + [[b_k, b_i], b_j]
        s = [ZERO] * n
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for l, x in constants[a][b]:
                for m, y in constants[l][c]:
                    s[m] += x * y
        if any(s):
            raise JacobiError((labels[i], labels[j], labels[k]), tuple(s))
    return algebra


def killing_form(algebra: LieAlgebra) -> Matrix:
    """kappa_ij = tr(ad b_i ad b_j) = sum over k, l of c_ik^l c_jl^k."""
    n = algebra.dim
    constants = algebra.constants
    out = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            s = ZERO
            for k in range(n):
                for l, x in constants[i][k]:
                    for m, y in constants[j][l]:
                        if m == k:
                            s += x * y
            out[i][j] = out[j][i] = s
    return tuple(tuple(r) for r in out)


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


def _is_nilpotent(algebra: LieAlgebra) -> bool:
    """Whether the lower central series L, [L, L], [L, [L, L]], ... reaches
    0; it stops where a term is no smaller than the one before."""
    above, lower = algebra.dim, algebra.derived_subalgebra()
    while 0 < lower.dim < above:
        above, lower = lower.dim, Subspace.from_vectors(algebra.dim, [
            algebra.bracket(algebra.basis_vector(i), v)
            for i in range(algebra.dim) for v in lower.basis
        ])
    return lower.is_zero()


def engel_subalgebra(algebra: LieAlgebra) -> Subspace | None:
    """An Engel subalgebra L_0(ad x) = ker (ad x)^(2^k), 2^k >= dim L, of
    least dimension over the candidates x, the basis vectors and then the
    sums of two; None when each is all of L.  That is known before any
    candidate when L is nilpotent: by Engel's theorem every ad x is.

    The search stops at the first nilpotent one: a nilpotent Engel
    subalgebra is a Cartan subalgebra, and its dimension, the rank of L,
    is the least an Engel subalgebra has.  Failing that it returns the
    first of least dimension, which still contains a Cartan subalgebra
    (Barnes 1967)."""
    if _is_nilpotent(algebra):
        return None
    p = algebra.dim
    best = None
    for x in chain(combinations(range(p), 1), combinations(range(p), 2)):
        power = algebra.ad(tuple(ONE if j in x else ZERO for j in range(p)))
        for _ in range((p - 1).bit_length()):
            power = mat_mul(power, power)
        engel = kernel(power, p)
        if engel.dim < (p if best is None else best.dim):
            best = engel
            if nilpotency_class(algebra, engel) is not None:
                break
    return best


def radical(algebra: LieAlgebra) -> Subspace:
    """Solvable radical via the char-0 criterion: kappa(x, [L, L]) = 0."""
    kappa = killing_form(algebra)
    derived = algebra.derived_subalgebra()
    rows = tuple(mat_vec(kappa, c) for c in derived.basis)
    result = kernel(rows, algebra.dim)
    if not is_solvable(algebra, result):
        raise InternalInvariantError("computed radical is not solvable")
    return result


class SimpleComponent:
    """One simple ideal of the semisimple quotient, with its lift into L."""

    __slots__ = ("subspace", "lifted_basis")

    def __init__(self, subspace: Subspace, lifted_basis: tuple[Vector, ...]):
        self.subspace = subspace  # in quotient coordinates
        self.lifted_basis = lifted_basis  # B_i: preimages in L

    @property
    def dim(self) -> int:
        return self.subspace.dim


class StructureReport:
    __slots__ = ("algebra", "nilradical", "nil_class", "quotient", "components",
                 "_rep_indices")

    def __init__(
        self,
        algebra: LieAlgebra,
        nilradical: Subspace,
        nil_class: int,
        quotient: LieAlgebra,
        components: tuple[SimpleComponent, ...],
        _rep_indices: tuple[int, ...],
    ):
        self.algebra = algebra
        self.nilradical = nilradical
        self.nil_class = nil_class
        self.quotient = quotient
        self.components = components
        self._rep_indices = _rep_indices  # the coordinates off N's pivots

    @property
    def quotient_dim(self) -> int:
        return self.quotient.dim

    def project_to_quotient(self, v: Vector) -> Vector:
        """Coordinates of v + N in the quotient basis."""
        return _project(self.nilradical, self._rep_indices, v)

    def lift(self, g: Vector) -> Vector:
        """Section of the quotient map: representative in L of a quotient vector."""
        return _lift(g, self._rep_indices, self.algebra.dim)

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
    constants = algebra.constants
    # unknowns X[r][c] flattened row-major; for g = b_a, with A = ad(b_a)
    # and A[k][c] = c_ac^k, the equation (X A - A X)[r][c] = 0 has
    # +A[k][c] on X[r][k] and -A[r][k] on X[k][c]; only nonzero
    # coefficients are written, and equations with none are dropped
    rows = []
    for a in range(p):
        ad_rows = [[] for _ in range(p)]  # ad_rows[r]: the (k, A[r][k]) != 0
        for k, entries in enumerate(constants[a]):
            for r, v in entries:
                ad_rows[r].append((k, v))
        for r in range(p):
            for c in range(p):
                eq: dict[int, Fraction] = {}
                for k, v in constants[a][c]:
                    eq[r * p + k] = v
                for k, v in ad_rows[r]:
                    key = k * p + c
                    x = eq.get(key, ZERO) - v
                    if x:
                        eq[key] = x
                    else:
                        del eq[key]
                if eq:
                    rows.append(eq)
    null = sparse_kernel(rows, p * p)
    return [
        tuple(tuple(b[r * p + c] for c in range(p)) for r in range(p))
        for b in null.basis
    ]


def _minimal_polynomial(x: Matrix, p: int) -> list[Fraction]:
    """Coefficients c_0..c_k (monic, c_k = 1) of the minimal polynomial of x:
    the first linear dependency among I, x, x^2, ...  The powers before
    x^k are independent, so the dependency is unique up to scale and its
    x^k coefficient is nonzero."""
    power = tuple(
        tuple(Fraction(1 if r == c else 0) for c in range(p)) for r in range(p)
    )
    powers: list[Vector] = []
    while True:
        powers.append(tuple(power[r][c] for r in range(p) for c in range(p)))
        null = kernel(tuple(zip(*powers)), len(powers))
        if not null.is_zero():
            coeffs = null.basis[0]
            return [c / coeffs[-1] for c in coeffs]
        power = mat_mul(power, x)


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
    if rank(kappa) != p:
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
    p = len(rep_indices)
    quotient_table: dict[tuple[int, int], Vector] = {}
    for a in range(p):
        for b in range(a + 1, p):
            value = algebra.bracket_basis(rep_indices[a], rep_indices[b])
            img = _project(rad, rep_indices, value)
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
        _rep_indices=tuple(rep_indices),
    )


def _project(rad: Subspace, rep_indices, v: Vector) -> Vector:
    """Coordinates of v + N on the e_i, i in rep_indices: N's echelon
    basis clears its pivot coordinates from v, so the residual, v minus
    an element of N, lies in the span of the e_i off those pivots."""
    residual = rad.reduce(v)
    return tuple(residual[i] for i in rep_indices)


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
            [str(c), k + 1] for k, c in enumerate(value) if c != 0
        ]
        brackets[f"{i+1},{j+1}"] = entries
    return {
        "dim": algebra.dim,
        "basis": list(algebra.labels),
        "brackets": brackets,
    }


MAX_DIM = 1000  # `LieAlgebra` builds a dim x dim table before any check


def _json_positive(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise MalformedInputError(f"{what} must be a positive integer, got {value!r}")
    return value


def from_json_dict(data: dict) -> LieAlgebra:
    if not isinstance(data, dict):
        raise MalformedInputError("algebra JSON must be an object")
    n = _json_positive(data.get("dim"), "'dim'")
    if n > MAX_DIM:
        raise MalformedInputError(f"'dim' is {n}, above the cap of {MAX_DIM}")
    labels = data.get("basis") or [f"b{i+1}" for i in range(n)]
    if (not isinstance(labels, list) or len(labels) != n
            or len({b for b in labels if isinstance(b, str) and b}) < n):
        raise MalformedInputError(f"'basis' must list {n} distinct non-empty names")
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


# The built-in algebras, each in the file schema that `from_json_dict`
# reads and `to_json_dict` prints.  sl2 has basis (e, h, f) with
# [e, h] = -2e, [e, f] = h, [h, f] = -2f; in sl2_adjoint the capitals
# (E, H, F) span the adjoint module.
CATALOG = {
    "abelian3": {"dim": 3, "basis": ["a1", "a2", "a3"], "brackets": {}},
    "heisenberg3": {
        "dim": 3, "basis": ["x", "y", "z"], "brackets": {"1,2": [["1", 3]]},
    },
    "sl2": {
        "dim": 3,
        "basis": ["e", "h", "f"],
        "brackets": {"1,2": [["-2", 1]], "1,3": [["1", 2]], "2,3": [["-2", 3]]},
    },
    "gl2": {
        "dim": 4,
        "basis": ["e", "h", "f", "z"],
        "brackets": {"1,2": [["-2", 1]], "1,3": [["1", 2]], "2,3": [["-2", 3]]},
    },
    "sl2_plus_sl2": {
        "dim": 6,
        "basis": ["e1", "h1", "f1", "e2", "h2", "f2"],
        "brackets": {
            "1,2": [["-2", 1]], "1,3": [["1", 2]], "2,3": [["-2", 3]],
            "4,5": [["-2", 4]], "4,6": [["1", 5]], "5,6": [["-2", 6]],
        },
    },
    "sl2_natural": {
        "dim": 5,
        "basis": ["e", "h", "f", "u", "v"],
        "brackets": {
            "1,2": [["-2", 1]], "1,3": [["1", 2]], "1,5": [["1", 4]],
            "2,3": [["-2", 3]], "2,4": [["1", 4]], "2,5": [["-1", 5]],
            "3,4": [["1", 5]],
        },
    },
    "sl2_adjoint": {
        "dim": 6,
        "basis": ["e", "h", "f", "E", "H", "F"],
        "brackets": {
            "1,2": [["-2", 1]], "1,3": [["1", 2]], "1,5": [["-2", 4]],
            "1,6": [["1", 5]], "2,3": [["-2", 3]], "2,4": [["2", 4]],
            "2,6": [["-2", 6]], "3,4": [["-1", 5]], "3,5": [["2", 6]],
        },
    },
    "solvable2": {"dim": 2, "basis": ["e", "f"], "brackets": {"1,2": [["1", 2]]}},
}

CATALOG_NAMES = tuple(CATALOG)


def catalog_algebra(name: str) -> LieAlgebra:
    """A catalog entry, or `abelian(k)`, read by `from_json_dict`."""
    if name in CATALOG:
        return from_json_dict(CATALOG[name])
    if name.startswith("abelian(") and name.endswith(")"):
        try:
            k = int(name[len("abelian(") : -1])
        except ValueError as exc:
            raise MalformedInputError(f"bad abelian size in {name!r}") from exc
        if k < 1:
            raise MalformedInputError("abelian(k) needs k >= 1")
        if k > MAX_DIM:  # before its k basis names are built
            raise MalformedInputError(f"abelian(k) needs k <= {MAX_DIM}")
        return from_json_dict({"dim": k, "basis": [f"a{i+1}" for i in range(k)]})
    raise MalformedInputError(f"unknown catalog algebra {name!r}")
