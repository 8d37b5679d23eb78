"""Candidate PI-exponent d(L) and desk-scale bound verification.

d(L) is computed by a span fixpoint over subsets of simple quotient
components: D(empty) starts at the nilradical, D({i}) at the lifted
component basis, and brackets propagate values to unions of subsets.
The height of a subset is the sum of the dimensions of the distinct
components it contains, and d(L) is the maximal height with a nonzero
span.

The upper-bound mechanism checks that every multilinear polynomial
with nilpotency-class many disjoint alternating sets of size d+1 is an
identity; the lower bound searches for explicit non-identities with
alternating sets of size d.  Both run `evaluation._AlternatedChecker.scan`,
which enumerates (or samples) the set assignments and basis words.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import MalformedInputError
from .evaluation import CodimEngine, ExactMode, Mode, _AlternatedChecker
from .freelie import (
    AltSpec,
    MultilinearPolynomial,
    Word,
    alternate,
    format_word,
)
from .liealg import LieAlgebra, StructureReport, analyze
from .linalg import Subspace, Vector, format_fraction, is_zero_vec

# witness products are expression trees: leaf = ("elem", vector),
# node = ("br", left, right); leaves re-evaluate to the exact stored value


def product_leaf(v: Vector):
    return ("elem", v)


def product_node(left, right):
    return ("br", left, right)


def eval_product(algebra: LieAlgebra, expr) -> Vector:
    if expr[0] == "elem":
        return expr[1]
    _, left, right = expr
    return algebra.bracket(eval_product(algebra, left), eval_product(algebra, right))


def format_product(algebra: LieAlgebra, expr) -> str:
    if expr[0] == "elem":
        return vector_label(algebra, expr[1])
    _, left, right = expr
    return f"[{format_product(algebra, left)}, {format_product(algebra, right)}]"


def vector_label(algebra: LieAlgebra, v: Vector) -> str:
    parts = []
    for c, name in zip(v, algebra.labels):
        if c == 0:
            continue
        if c == 1:
            parts.append(f"+{name}")
        elif c == -1:
            parts.append(f"-{name}")
        else:
            parts.append(f"{'+' if c > 0 else '-'}{format_fraction(abs(c))}*{name}")
    if not parts:
        return "0"
    joined = "".join(parts)
    return joined[1:] if joined.startswith("+") else joined


@dataclass(frozen=True)
class HeightSpanTable:
    spans: dict[frozenset[int], Subspace]
    generators: dict[frozenset[int], tuple[tuple[Vector, object], ...]]
    component_dims: tuple[int, ...]

    def height(self, subset: frozenset[int]) -> int:
        return sum(self.component_dims[i] for i in subset)


def height_spans(report: StructureReport) -> HeightSpanTable:
    """Least fixpoint of the subset-span recursion.

    Completeness rests on two reductions: any bracketing splits into a
    bracket of two subproducts, which the pairwise update covers, and
    arbitrary elements with a single nonzero component projection
    decompose over the lifted component basis plus the nilradical, whose
    parts land in the same or a smaller subset.  Subsets combine by
    union (not necessarily disjoint): a component represented by several
    factors still counts its dimension once.
    """
    algebra = report.algebra
    gens: dict[frozenset[int], list] = {}
    spans: dict[frozenset[int], Subspace] = {}

    def add(subset, vector, expr) -> bool:
        span = spans.get(subset, Subspace.zero(algebra.dim))
        if is_zero_vec(vector) or span.contains(vector):
            return False
        spans[subset] = span.add(Subspace.from_vectors(algebra.dim, [vector]))
        gens.setdefault(subset, []).append((vector, expr))
        return True

    empty = frozenset()
    spans[empty] = Subspace(algebra.dim, report.nilradical.basis)
    gens[empty] = [(v, product_leaf(v)) for v in report.nilradical_basis]
    for i, comp in enumerate(report.components):
        for v in comp.lifted_basis:
            add(frozenset([i]), v, product_leaf(v))

    changed = True
    while changed:
        changed = False
        keys = list(gens.keys())
        for t1 in keys:
            for t2 in keys:
                union = t1 | t2
                for v1, e1 in list(gens.get(t1, ())):
                    for v2, e2 in list(gens.get(t2, ())):
                        w = algebra.bracket(v1, v2)
                        if add(union, w, product_node(e1, e2)):
                            changed = True
    dims = tuple(c.dim for c in report.components)
    return HeightSpanTable(spans, {k: tuple(v) for k, v in gens.items()}, dims)


@dataclass(frozen=True)
class ExponentReport:
    d: int
    maximizing_subset: tuple[int, ...]
    witness_expr: object | None
    witness_value: Vector | None
    structure: StructureReport
    table: HeightSpanTable

    def witness_str(self) -> str | None:
        if self.witness_expr is None:
            return None
        return format_product(self.structure.algebra, self.witness_expr)


def pi_exponent_candidate(algebra: LieAlgebra) -> ExponentReport:
    report = analyze(algebra)
    table = height_spans(report)
    best_subset = frozenset()
    best = 0
    for subset, span in table.spans.items():
        if span.is_zero() or not subset:
            continue
        h = table.height(subset)
        if h > best:
            best, best_subset = h, subset
    witness_expr = witness_value = None
    if best > 0:
        vector, expr = table.generators[best_subset][0]
        witness_expr, witness_value = expr, vector
    return ExponentReport(
        d=best,
        maximizing_subset=tuple(sorted(best_subset)),
        witness_expr=witness_expr,
        witness_value=witness_value,
        structure=report,
        table=table,
    )


@dataclass(frozen=True)
class QPolySpec:
    """k disjoint alternating sets of size r inside degree n."""

    r: int
    k: int
    n: int

    def __post_init__(self):
        if self.r < 1 or self.k < 1 or self.n < self.r * self.k:
            raise MalformedInputError("need r, k >= 1 and n >= r*k")

    @property
    def free_count(self) -> int:
        return self.n - self.r * self.k


@dataclass(frozen=True)
class UpperVerdict:
    passed: bool
    spec: QPolySpec
    checks: int
    exhaustive: bool  # all (monomial, set-assignment) pairs covered
    counterexample: tuple | None  # (word, sets, assignment labels)

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        scope = "full" if self.exhaustive else "sampled"
        return (
            f"verify_upper r={self.spec.r} k={self.spec.k} n={self.spec.n}: "
            f"{status} ({self.checks} checks, {scope})"
        )


def verify_upper(
    algebra: LieAlgebra,
    spec: QPolySpec,
    mode: Mode = ExactMode(),
    engine: CodimEngine | None = None,
    budget: int = 1_000_000,
) -> UpperVerdict:
    """Check that alternations on k disjoint (d+1)-sets are identities.

    The alternated images of canonical basis words over all set
    assignments span the degree-n part of the multialternating space, so
    a full pass proves the vanishing statement at this degree.  Each
    individual check is exhaustive over basis tuples.
    """
    engine = engine or CodimEngine(algebra)
    checks, exhaustive, hit = _AlternatedChecker(engine).scan(
        spec.n, spec.r, spec.k, mode, budget
    )
    if hit is None:
        return UpperVerdict(True, spec, checks, exhaustive, None)
    word, sets, assign, _ = hit
    labels = {f"x{v}": algebra.labels[idx] for v, idx in sorted(assign.items())}
    return UpperVerdict(False, spec, checks, exhaustive, (word, sets, labels))


@dataclass(frozen=True)
class LowerWitness:
    spec: QPolySpec
    word: Word
    sets: tuple[tuple[int, ...], ...]
    assignment: dict[int, int]  # variable -> basis index
    value: Vector

    def polynomial(self) -> MultilinearPolynomial:
        base = MultilinearPolynomial(len(self.word), {self.word: Fraction(1)})
        return alternate(base, AltSpec.of(*self.sets))

    def describe(self, algebra: LieAlgebra) -> str:
        sets_str = " ".join(
            "{" + ",".join(f"x{v}" for v in s) + "}" for s in self.sets
        )
        assign_str = ", ".join(
            f"x{v}={algebra.labels[idx]}" for v, idx in sorted(self.assignment.items())
        )
        return (
            f"Alt[{sets_str}] {format_word(self.word)} at ({assign_str}) "
            f"= {vector_label(algebra, self.value)}"
        )


def find_lower_witness(
    algebra: LieAlgebra,
    r: int,
    k: int,
    n_max: int,
    engine: CodimEngine | None = None,
    n_min: int | None = None,
) -> LowerWitness | None:
    """Search for a non-identity alternating on k disjoint r-sets.

    A single nonzero evaluation refutes identity, so a returned witness
    is sound; None only means the search budget was exhausted.
    """
    if r < 1:
        raise MalformedInputError("need r >= 1")
    engine = engine or CodimEngine(algebra)
    checker = _AlternatedChecker(engine)
    for n in range(n_min if n_min is not None else r * k, n_max + 1):
        spec = QPolySpec(r, k, n)
        _, _, hit = checker.scan(n, r, k, ExactMode())
        if hit is not None:
            return LowerWitness(spec, *hit)
    return None


@dataclass(frozen=True)
class GrowthRow:
    n: int
    codimension: int
    colength: int
    nth_root: float


@dataclass(frozen=True)
class GrowthReport:
    rows: tuple[GrowthRow, ...]
    d: int | None  # None when the structure hypotheses fail

    note = (
        "desk-scale table; n-th roots at small n do not certify the "
        "asymptotic exponent"
    )


def growth_report(
    algebra: LieAlgebra,
    n_max: int,
    mode: Mode = ExactMode(),
    engine: CodimEngine | None = None,
) -> GrowthReport:
    from .errors import HypothesisFailure

    engine = engine or CodimEngine(algebra)
    rows = []
    for n in range(1, n_max + 1):
        c = engine.codimension(n, mode)
        colength = engine.cocharacter(n, mode).colength if c else 0
        rows.append(GrowthRow(n, c, colength, float(c) ** (1.0 / n) if c else 0.0))
    try:
        d = pi_exponent_candidate(algebra).d
    except HypothesisFailure:
        d = None
    return GrowthReport(tuple(rows), d)
