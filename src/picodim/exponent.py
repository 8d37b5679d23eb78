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
which alternates on one family of disjoint sets (any family decides, as
S_n permutes them and fixes the identities): it checks every basis word,
or a sample of random orderings of the variables.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import HypothesisFailure, MalformedInputError, count_text
from .evaluation import CodimEngine, SampledMode, _AlternatedChecker
from .freelie import (
    AltSpec,
    MultilinearPolynomial,
    Word,
    alternate,
    format_word,
)
from .liealg import LieAlgebra, StructureReport, analyze
from .linalg import Subspace, Vector, is_zero_vec

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
            parts.append(f"{'+' if c > 0 else '-'}{abs(c)}*{name}")
    if not parts:
        return "0"
    joined = "".join(parts)
    return joined[1:] if joined.startswith("+") else joined


class HeightSpanTable:
    __slots__ = ("spans", "generators", "component_dims")

    def __init__(
        self,
        spans: dict[frozenset[int], Subspace],
        generators: dict[frozenset[int], tuple[tuple[Vector, object], ...]],
        component_dims: tuple[int, ...],
    ):
        self.spans = spans
        self.generators = generators
        self.component_dims = component_dims

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
        residual = span.reduce(vector)
        if is_zero_vec(residual):
            return False
        spans[subset] = span.insert(residual)
        gens.setdefault(subset, []).append((vector, expr))
        return True

    empty = frozenset()
    spans[empty] = Subspace(algebra.dim, report.nilradical.basis)
    gens[empty] = [(v, product_leaf(v)) for v in report.nilradical.basis]
    for i, comp in enumerate(report.components):
        for v in comp.lifted_basis:
            add(frozenset([i]), v, product_leaf(v))

    # semi-naive: a round skips the pairs of generators that both existed
    # when the previous round began, as that round bracketed them and
    # spans only grow, so `add` would return False for them
    seen: dict[frozenset[int], int] = {}  # generators before the last round
    changed = True
    while changed:
        changed = False
        start = {t: len(g) for t, g in gens.items()}
        keys = list(gens.keys())
        for t1 in keys:
            for t2 in keys:
                union = t1 | t2
                for i, (v1, e1) in enumerate(list(gens.get(t1, ()))):
                    old = seen.get(t2, 0) if i < seen.get(t1, 0) else 0
                    for v2, e2 in list(gens.get(t2, ()))[old:]:
                        w = algebra.bracket(v1, v2)
                        if add(union, w, product_node(e1, e2)):
                            changed = True
        seen = start
    dims = tuple(c.dim for c in report.components)
    return HeightSpanTable(spans, {k: tuple(v) for k, v in gens.items()}, dims)


class ExponentReport:
    __slots__ = ("d", "maximizing_subset", "witness_expr", "witness_value",
                 "structure", "table")

    def __init__(
        self,
        d: int,
        maximizing_subset: tuple[int, ...],
        witness_expr: object | None,
        witness_value: Vector | None,
        structure: StructureReport,
        table: HeightSpanTable,
    ):
        self.d = d
        self.maximizing_subset = maximizing_subset
        self.witness_expr = witness_expr
        self.witness_value = witness_value
        self.structure = structure
        self.table = table

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


class QPolySpec:
    """k disjoint alternating sets of size r inside degree n."""

    __slots__ = ("r", "k", "n")

    def __init__(self, r: int, k: int, n: int):
        if r < 1 or k < 1 or n < r * k:
            raise MalformedInputError("need r, k >= 1 and n >= r*k")
        self.r = r
        self.k = k
        self.n = n

    @property
    def free_count(self) -> int:
        return self.n - self.r * self.k


class UpperVerdict:
    __slots__ = ("passed", "spec", "checks", "exhaustive", "counterexample")

    def __init__(self, passed: bool, spec: QPolySpec, checks: int,
                 exhaustive: bool, counterexample: LowerWitness | None):
        self.passed = passed
        self.spec = spec
        self.checks = checks
        self.exhaustive = exhaustive  # all (monomial, set-assignment) pairs covered
        self.counterexample = counterexample  # the scan's first hit

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        scope = "full" if self.exhaustive else "sampled"
        return (
            f"verify_upper r={self.spec.r} k={self.spec.k} n={self.spec.n}: "
            f"{status} ({count_text(self.checks)} checks, {scope})"
        )


def verify_upper(
    algebra: LieAlgebra,
    spec: QPolySpec,
    mode: SampledMode | None = None,
    engine: CodimEngine | None = None,
) -> UpperVerdict:
    """Check that alternations on k disjoint (d+1)-sets are identities.

    The alternated images of canonical basis words over all set
    assignments span the degree-n part of the multialternating space, and
    S_n carries the words on one family of sets to those on any other,
    so a full pass over one family proves the vanishing statement at
    this degree.  Each individual check is exhaustive over basis
    tuples.  The scan's budget is the engine's: r > dim L passes before
    any check, a scan stops once it has run that many checks without a
    hit, and a check once it has walked that many signed-pass states.
    """
    engine = engine or CodimEngine(algebra)
    checks, exhaustive, hit = _AlternatedChecker(engine).scan(
        spec.n, spec.r, spec.k, mode
    )
    witness = None if hit is None else LowerWitness(spec, *hit)
    return UpperVerdict(witness is None, spec, checks, exhaustive, witness)


class LowerWitness:
    __slots__ = ("spec", "word", "sets", "assignment", "value")

    def __init__(self, spec: QPolySpec, word: Word,
                 sets: tuple[tuple[int, ...], ...], assignment: dict[int, int],
                 value: Vector):
        self.spec = spec
        self.word = word
        self.sets = sets
        self.assignment = assignment  # variable -> basis index
        self.value = value

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
) -> LowerWitness | None:
    """Search for a non-identity alternating on k disjoint r-sets.

    A single nonzero evaluation refutes identity, so a returned witness
    is sound; None only means no degree up to n_max has one, and for
    r > dim L that no degree has one.  An n_max below r*k is malformed.
    Each degree's scan is bounded by the engine's budget: it stops the
    search once it has run that many checks without a hit, or one check
    has walked that many states.
    """
    if r < 1:
        raise MalformedInputError("need r >= 1")
    if n_max < r * k:
        raise MalformedInputError(
            f"max n {n_max} is below r*k = {r * k}: no degree to search")
    engine = engine or CodimEngine(algebra)
    checker = _AlternatedChecker(engine)
    for n in range(r * k, n_max + 1):
        spec = QPolySpec(r, k, n)
        _, _, hit = checker.scan(n, r, k)
        if hit is not None:
            return LowerWitness(spec, *hit)
    return None


class GrowthRow:
    __slots__ = ("n", "codimension", "colength", "nth_root")

    def __init__(self, n: int, codimension: int, colength: int, nth_root: float):
        self.n = n
        self.codimension = codimension
        self.colength = colength
        self.nth_root = nth_root


class GrowthReport:
    __slots__ = ("rows", "d")

    note = (
        "desk-scale table; n-th roots at small n do not certify the "
        "asymptotic exponent"
    )

    def __init__(self, rows: tuple[GrowthRow, ...], d: int | None):
        self.rows = rows
        self.d = d  # None when the structure hypotheses fail


def growth_report(
    algebra: LieAlgebra,
    n_max: int,
    engine: CodimEngine | None = None,
) -> GrowthReport:
    """c_n, l_n and c_n^(1/n) for n = 1..n_max, each row read off one
    exact cocharacter table; the budget bounds the tables together,
    before the first.  An n_max below 1 is malformed."""
    if n_max < 1:
        raise MalformedInputError(f"max n {n_max} is below 1: no degree to tabulate")
    engine = engine or CodimEngine(algebra)
    engine.require_cocharacters(range(1, n_max + 1))
    rows = []
    for n in range(1, n_max + 1):
        table = engine.cocharacter(n)
        c = table.codimension_sum
        root = float(c) ** (1.0 / n) if c else 0.0
        rows.append(GrowthRow(n, c, table.colength, root))
    try:
        d = pi_exponent_candidate(algebra).d
    except HypothesisFailure:
        d = None
    return GrowthReport(tuple(rows), d)
