"""Shared oracles and generators for the test suite.

Everything here is deliberately independent of the library internals it
checks: direct tree evaluation, brute-force tableau counting, an
exhaustive bracketing enumeration for the exponent candidate, the
symbolic Capelli check that the alternated-identity scan replaced, the
listed sample that its index sampling replaced, the permutation sum that
its signed pass replaced, the random centroid
element that the joint-eigenspace split replaced, the multilinear
tuple sweep, Young symmetrizer loop and Fraction elimination that
multihomogeneous ranks replaced in exact codimensions and cocharacters,
and the `Evaluator` word-cache loop that the kernel replaced in sampled
columns.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from picodim import AltSpec, CodimEngine, LieAlgebra, validate
from picodim.errors import MalformedInputError
from picodim.evaluation import (
    Evaluator,
    SampledMode,
    _AlternatedChecker,
    _set_assignments,
)
from picodim.freelie import (
    MultilinearPolynomial,
    alternate,
    basis_Pn,
    signed_set_permutations,
)
from picodim.errors import NotSemisimpleError, NotSplitError
from picodim.liealg import (
    StructureReport,
    _minimal_polynomial,
    _rational_roots,
    centroid,
    killing_form,
)
from picodim.linalg import (
    Subspace,
    invert,
    is_zero_vec,
    mat_mul,
    rank_exact,
    vec_add,
    vec_scale,
    zero_vec,
)
from picodim.symgroup import (
    Partition,
    YoungTableau,
    act,
    partitions,
    symmetrizer,
)


def random_fraction(rng: random.Random, span: int = 5) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, 3))


def random_int_matrix(rng: random.Random, rows: int, cols: int, span: int = 9):
    return tuple(
        tuple(Fraction(rng.randint(-span, span)) for _ in range(cols))
        for _ in range(rows)
    )


def random_invertible(rng: random.Random, n: int):
    while True:
        m = random_int_matrix(rng, n, n, span=3)
        try:
            invert(m)
        except Exception:
            continue
        return m


def random_tree(rng: random.Random, leaves: list[int]):
    """Random full binary bracketing over the given leaves, in order."""
    if len(leaves) == 1:
        return leaves[0]
    cut = rng.randint(1, len(leaves) - 1)
    return (random_tree(rng, leaves[:cut]), random_tree(rng, leaves[cut:]))


def eval_tree(tree, elems, algebra: LieAlgebra):
    """Direct recursive evaluation of a bracketing tree (1-based leaves)."""
    if isinstance(tree, int):
        return elems[tree - 1]
    left, right = tree
    return algebra.bracket(
        eval_tree(left, elems, algebra), eval_tree(right, elems, algebra)
    )


def direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    n, m = a.dim, b.dim
    table = {}
    for (i, j), v in a.table.items():
        table[(i, j)] = tuple(v) + zero_vec(m)
    for (i, j), v in b.table.items():
        table[(i + n, j + n)] = zero_vec(n) + tuple(v)
    labels = tuple(f"a_{l}" for l in a.labels) + tuple(f"b_{l}" for l in b.labels)
    return validate(labels, table)


def sl2_over_sqrt2() -> LieAlgebra:
    """sl2 over Q(sqrt 2) as a 6-dim Q-algebra with basis e, h, f,
    sqrt2 e, sqrt2 h, sqrt2 f: simple over Q, but its centroid is Q(sqrt 2),
    so the simple component does not split over Q."""
    sl2 = validate(("e", "h", "f"), {(0, 1): (-2, 0, 0), (0, 2): (0, 1, 0),
                                     (1, 2): (0, 0, -2)})
    table = {}
    for i in range(6):
        for j in range(i + 1, 6):
            (si, a), (sj, b) = divmod(i, 3), divmod(j, 3)
            value = [Fraction(0)] * 6
            for k, c in enumerate(sl2.bracket_basis(a, b)):
                if si + sj == 2:  # sqrt2 * sqrt2 = 2
                    value[k] += 2 * c
                else:
                    value[3 * (si + sj) + k] += c
            table[(i, j)] = value
    return validate(("e", "h", "f", "re", "rh", "rf"), table)


def count_standard_tableaux(shape: Partition) -> int:
    """Brute force: fillings increasing along every row and column."""
    cells = list(shape.cells())
    n = shape.n
    count = 0
    for perm in itertools.permutations(range(1, n + 1)):
        grid = {}
        for cell, value in zip(cells, perm):
            grid[cell] = value
        ok = True
        for (r, c), value in grid.items():
            if c > 0 and grid[(r, c - 1)] > value:
                ok = False
                break
            if r > 0 and (r - 1, c) in grid and grid[(r - 1, c)] > value:
                ok = False
                break
        if ok:
            count += 1
    return count


def _normalize_vec(v):
    for x in v:
        if x != 0:
            inv = Fraction(1) / x
            return tuple(inv * y for y in v)
    return None


def bracketing_enumeration_d(report: StructureReport, max_len: int = 6):
    """Independent oracle for the exponent candidate.

    Enumerates every bracketing of every sequence (up to max_len) of
    adapted basis elements, tracking which simple components the factors
    come from.  Products proportional to an already-seen one are merged:
    further brackets scale identically, so nonzero-ness is preserved.
    Returns (best height, set of touched component subsets with a
    nonzero product).
    """
    algebra = report.algebra
    dims = [c.dim for c in report.components]

    atoms = []
    for i, comp in enumerate(report.components):
        for v in comp.lifted_basis:
            atoms.append((frozenset([i]), v))
    for v in report.nilradical_basis:
        atoms.append((frozenset(), v))

    levels = {1: set()}
    for touched, v in atoms:
        nv = _normalize_vec(v)
        if nv is not None:
            levels[1].add((touched, nv))
    for length in range(2, max_len + 1):
        current = set()
        for l1 in range(1, length):
            l2 = length - l1
            for t1, v1 in levels[l1]:
                for t2, v2 in levels.get(l2, ()):
                    w = algebra.bracket(v1, v2)
                    nw = _normalize_vec(w)
                    if nw is not None:
                        current.add((t1 | t2, nw))
        levels[length] = current

    subsets = set()
    for level in levels.values():
        for touched, _ in level:
            subsets.add(touched)
    best = 0
    for touched in subsets:
        best = max(best, sum(dims[i] for i in touched))
    return best, subsets


def symbolic_capelli_holds(engine: CodimEngine, t: int, n: int) -> bool:
    """Oracle for `CodimEngine.capelli_holds` in exact mode.

    Builds the alternation of every canonical basis word over every
    t-subset symbolically, rewrites it into the canonical basis and
    decides it against the exhaustive column space.
    """
    if not 1 <= t <= n:
        raise MalformedInputError("need 1 <= t <= n")
    words = basis_Pn(n)
    for subset in itertools.combinations(range(1, n + 1), t):
        spec = AltSpec.of(subset)
        for w in words:
            f = alternate(MultilinearPolynomial(n, {w: Fraction(1)}), spec)
            if not engine.is_identity(f):
                return False
    return True


def listed_sample_scan(engine: CodimEngine, n: int, r: int, k: int,
                       mode: SampledMode):
    """Oracle for sampled `_AlternatedChecker.scan`: lists every
    (word, sets) item, then samples `mode.count` of them from the list."""
    items = [(w, sets) for sets in _set_assignments(n, r, k) for w in basis_Pn(n)]
    exhaustive = mode.count >= len(items)
    if not exhaustive:
        items = random.Random(mode.seed).sample(items, mode.count)
    checker = _AlternatedChecker(engine)
    for checks, (word, sets) in enumerate(items, 1):
        found = checker.find_nonzero(word, sets)
        if found is not None:
            return checks, exhaustive, (word, sets) + found
    return len(items), exhaustive, None


def permutation_find_nonzero(evaluator: Evaluator, word, sets):
    """Oracle for `_AlternatedChecker.find_nonzero`: for each basis
    assignment, in the same order, sums the word's values, cached in
    `evaluator` (one per algebra, shared by the calls on it), over every
    signed permutation of the alternating sets."""
    p = evaluator.algebra.dim
    r = len(sets[0])
    n = len(word)
    in_set = set(itertools.chain.from_iterable(sets))
    free = [v for v in range(1, n + 1) if v not in in_set]
    perms = list(signed_set_permutations(AltSpec.of(*sets)))
    for set_vals in itertools.product(
        itertools.combinations(range(p), r), repeat=len(sets)
    ):
        assign = {}
        for s, vals in zip(sets, set_vals):
            assign.update(zip(s, vals))
        for free_vals in itertools.product(range(p), repeat=len(free)):
            assign.update(zip(free, free_vals))
            total = zero_vec(p)
            for mapping, sign in perms:
                seq = tuple(assign[mapping.get(l, l)] for l in word)
                value = evaluator.word_value(seq)
                if not is_zero_vec(value):
                    total = vec_add(total, vec_scale(Fraction(sign), value))
            if not is_zero_vec(total):
                return dict(assign), total
    return None


def randomized_simple_decomposition(algebra: LieAlgebra, seed: int):
    """Oracle for `liealg.simple_decomposition`: the ideals as the images
    of the spectral idempotents of one random centroid element, retried
    up to 8 times until its minimal polynomial has the centroid's degree."""
    p = algebra.dim
    if p == 0 or rank_exact(killing_form(algebra)) != p:
        raise NotSemisimpleError("not semisimple")
    cent = centroid(algebra)
    m = len(cent)
    if m == 1:
        return [Subspace.full(p)]
    identity = tuple(
        tuple(Fraction(1 if r == c else 0) for c in range(p)) for r in range(p)
    )
    rng = random.Random(seed)
    for _ in range(8):
        weights = [Fraction(rng.randint(-9, 9)) for _ in range(m)]
        x = tuple(
            tuple(sum(w * c[r][col] for w, c in zip(weights, cent)) for col in range(p))
            for r in range(p)
        )
        minpoly = _minimal_polynomial(x, p)
        if len(minpoly) - 1 != m:
            continue
        roots = _rational_roots(minpoly)
        if len(roots) != m:
            raise NotSplitError("centroid element does not split over Q")
        components = []
        for r_i in roots:
            proj = identity
            for r_j in roots:
                if r_j != r_i:
                    shifted = tuple(
                        tuple((x[a][b] - r_j * identity[a][b]) / (r_i - r_j)
                              for b in range(p))
                        for a in range(p)
                    )
                    proj = mat_mul(proj, shifted)
            columns = [tuple(proj[a][b] for a in range(p)) for b in range(p)]
            components.append(Subspace.from_vectors(p, columns))
        components.sort(key=lambda s: (-s.dim, s.basis))
        return components
    raise NotSplitError("no centroid element of full degree")


class _FractionColumns:
    """Incremental echelon over Fraction columns, with a pivot scaled to
    a leading 1; keeps one original column per pivot."""

    def __init__(self):
        self.pivots = []
        self.kept = []

    def insert(self, col) -> None:
        w = list(col)
        for lead, reduced in self.pivots:
            if w[lead] != 0:
                f = w[lead]
                w = [x - f * y for x, y in zip(w, reduced)]
        for lead, x in enumerate(w):
            if x != 0:
                inv = Fraction(1) / x
                self.pivots.append((lead, tuple(inv * y for y in w)))
                self.kept.append(col)
                return


def _tuple_columns(evaluator: Evaluator, words, tup):
    """The (coordinate) columns of `words` at the basis tuple `tup`."""
    values = [evaluator.word_value(tuple(tup[l - 1] for l in w)) for w in words]
    return [tuple(v[coord] for v in values) for coord in range(evaluator.algebra.dim)]


def _select_columns(engine: CodimEngine, n: int, tuples) -> _FractionColumns:
    """A maximal independent set of the distinct columns of P_n at
    `tuples`, rows in `basis_Pn(n)` order, stopping at full rank."""
    evaluator = Evaluator(engine.algebra)
    words = basis_Pn(n)
    space, seen = _FractionColumns(), set()
    for tup in tuples:
        for col in _tuple_columns(evaluator, words, tup):
            if col not in seen:
                seen.add(col)
                space.insert(col)
        if len(space.kept) == len(words):
            break
    return space


def multilinear_columns(engine: CodimEngine, n: int) -> _FractionColumns:
    """Oracle for the exact column space of degree n: a maximal
    independent set of the (basis tuple, coordinate) columns of P_n over
    every basis tuple, rows in `basis_Pn(n)` order, so its rank is c_n."""
    return _select_columns(
        engine, n, itertools.product(range(engine.algebra.dim), repeat=n)
    )


def evaluator_sampled_columns(engine: CodimEngine, n: int,
                              mode: SampledMode) -> _FractionColumns:
    """Oracle for sampled `CodimEngine.columns`: the Fraction columns of
    the same `mode.count` random basis tuples, through the `Evaluator`
    word cache; the engine's columns are these times D^(n-1)."""
    rng, p = random.Random(mode.seed), engine.algebra.dim
    tuples = (tuple(rng.randrange(p) for _ in range(n)) for _ in range(mode.count))
    return _select_columns(engine, n, tuples)


def symmetrizer_cocharacter(engine: CodimEngine, n: int) -> dict:
    """Oracle for exact `CodimEngine.cocharacter`: {shape parts: m_lambda}.

    Takes m_lambda as the rank of e_T * P_n paired with the columns of
    `multilinear_columns`, for the Young symmetrizer e_T of the
    row-reading tableau of each shape of height at most dim L."""
    words = basis_Pn(n)
    space = multilinear_columns(engine, n)
    rank = len(space.kept)
    out = {}
    for shape in partitions(n):
        if shape.height > engine.algebra.dim or rank == 0:
            out[shape.parts] = 0
            continue
        e = symmetrizer(YoungTableau.row_reading(shape))
        image = _FractionColumns()
        for w in words:
            g = act(e, MultilinearPolynomial(n, {w: Fraction(1)}))
            coeffs = g.coefficient_vector(words)
            image.insert(tuple(
                sum((c * x for c, x in zip(coeffs, col) if c != 0), Fraction(0))
                for col in space.kept
            ))
            if len(image.kept) == min(rank, len(words)):
                break
        out[shape.parts] = len(image.kept)
    return out
