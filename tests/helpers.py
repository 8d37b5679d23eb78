"""Shared oracles and generators for the test suite.

Everything here is deliberately independent of the library internals it
checks: direct tree evaluation, brute-force tableau counting, an
exhaustive bracketing enumeration for the exponent candidate, the
symbolic Capelli check that the alternated-identity scan replaced, and
the listed sample that its index sampling replaced.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from picodim import AltSpec, CodimEngine, LieAlgebra, validate
from picodim.errors import MalformedInputError
from picodim.evaluation import SampledMode, _AlternatedChecker, _set_assignments
from picodim.freelie import MultilinearPolynomial, alternate, basis_Pn
from picodim.liealg import StructureReport
from picodim.linalg import invert, zero_vec
from picodim.symgroup import Partition


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
