"""Shared oracles and generators for the test suite.

Everything here is deliberately independent of the library internals it
checks: direct tree evaluation, brute-force tableau counting, an
exhaustive bracketing enumeration for the exponent candidate, the
symbolic Capelli check that the alternated-identity scan replaced, the
family lister and a listed sample of drawn orderings for its sampled
scan, the all-families stream that its one-family exact scan replaced,
the permutation sum and the per-choice signed pass that its one signed
pass replaced, the digit-keyed free letters and step-end budget charge
that one-element sets and a charge per created state replaced, the
signed set-permutation walk that the block-stabilizer walk replaced in
`alternate`, the random centroid element that the joint-eigenspace
split replaced, the multilinear tuple sweep, Young symmetrizer loop and
Fraction elimination that multihomogeneous ranks replaced in exact
codimensions and cocharacters, the `Evaluator` word-cache loop that the
kernel replaced in sampled columns, the pairing with kept columns
that evaluation replaced in identity decisions, the unsliced
multihomogeneous ranks that the Cartan slice and the skipped Lie-absent
shapes replaced, the exact-duplicate column selection that skipping
columns equal up to a scalar replaced, the integer slice selection that
`liealg.engel_subalgebra` replaced, the full rounds that the semi-naive
`exponent.height_spans` fixpoint replaced, and the Kraskiewicz-Weyman
count of each shape in Lie_n.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd, lcm

from picodim import AltSpec, CodimEngine, LieAlgebra, catalog_algebra, change_basis, validate
from picodim.errors import MalformedInputError
from picodim.evaluation import (
    Evaluator,
    SampledMode,
    _AlternatedChecker,
    _ColumnSpace,
    _alternating_contents,
    _transpose,
)
from picodim.freelie import (
    MultilinearPolynomial,
    alternate,
    basis_Pn,
    linear_combination,
    perm_sign,
    permute,
)
from picodim.errors import BudgetExceededError, NotSemisimpleError, NotSplitError
from picodim.exponent import product_leaf, product_node
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
    mat_vec,
    rank,
    sparse_kernel,
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


def ad_nilpotent_sl2_plus_sl2() -> LieAlgebra:
    """sl2_plus_sl2 in a basis of ad-nilpotent elements, e, f and
    h + e - f in each summand: no basis vector and no sum of two is
    regular."""
    rows = []
    for offset in (0, 3):
        for e, h, f in ((1, 0, 0), (0, 0, 1), (1, 1, -1)):
            row = [Fraction(0)] * 6
            row[offset:offset + 3] = map(Fraction, (e, h, f))
            rows.append(tuple(row))
    return change_basis(catalog_algebra("sl2_plus_sl2"), tuple(rows))


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


def lie_multiplicity(parts) -> int:
    """Brute force (Kraskiewicz-Weyman 1987): the multiplicity of the
    shape in Lie_n is the number of its standard tableaux whose major
    index, the sum of the i with i + 1 in a lower row than i, is 1 mod n."""
    n = sum(parts)
    filled = [0] * len(parts)
    count = 0

    def place(i: int, last_row: int, major: int):
        nonlocal count
        if i > n:
            count += major % n == 1 % n
            return
        for row, length in enumerate(parts):
            if filled[row] < length and (row == 0 or filled[row - 1] > filled[row]):
                filled[row] += 1
                place(i + 1, row, major + (i - 1 if row > last_row > -1 else 0))
                filled[row] -= 1

    place(1, -1, 0)
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
    for v in report.nilradical.basis:
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


def _set_assignments(n: int, r: int, k: int):
    """All ways to pick k disjoint r-subsets of {1..n}, order-free."""

    def descend(available, chosen, min_first):
        if len(chosen) == k:
            yield tuple(chosen)
            return
        for combo in itertools.combinations(available, r):
            if combo[0] < min_first:
                continue  # fix increasing first elements to kill set-order dups
            rest = [v for v in available if v not in combo]
            yield from descend(rest, chosen + [combo], combo[0])

    yield from descend(list(range(1, n + 1)), [], 0)


def listed_sample_scan(engine: CodimEngine, n: int, r: int, k: int,
                       mode: SampledMode):
    """Oracle for sampled `_AlternatedChecker.scan`: below (n-1)! checks it
    lists the `mode.count` orderings of x_1..x_n drawn from the seed, then
    checks each on the first listed family; at or above, it is the
    all-families pass."""
    if mode.count >= len(basis_Pn(n)):
        return all_families_scan(engine, n, r, k)
    rng = random.Random(mode.seed)
    words = [tuple(rng.sample(range(1, n + 1), n)) for _ in range(mode.count)]
    first = next(_set_assignments(n, r, k))
    checker = _AlternatedChecker(engine)
    for checks, word in enumerate(words, 1):
        found = checker.find_nonzero(word, first)
        if found is not None:
            return checks, False, (word, first) + found
    return len(words), False, None


def all_families_scan(engine: CodimEngine, n: int, r: int, k: int):
    """Oracle for exhaustive `_AlternatedChecker.scan`: checks every basis
    word on every family of k disjoint r-sets, families outermost, where
    the scan checks the first family only."""
    checker, checks = _AlternatedChecker(engine), 0
    for sets in _set_assignments(n, r, k):
        for word in basis_Pn(n):
            checks += 1
            found = checker.find_nonzero(word, sets)
            if found is not None:
                return checks, True, (word, sets) + found
    return checks, True, None


def choice_pass_find_nonzero(engine: CodimEngine, word, sets):
    """Oracle for `_AlternatedChecker.find_nonzero`: one signed pass for
    each choice of set values, in `product(combinations(range(p), r))`
    order, with a key bit s*r + j when set s has used its j-th value;
    the first choice with a nonzero state gives the hit, at its least
    free values."""
    p, brackets = engine.p, engine.brackets
    r, n = len(sets[0]), len(word)
    slot = {v: (s, i) for s, vs in enumerate(sets) for i, v in enumerate(vs)}
    free = [v for v in range(1, n + 1) if v not in slot]
    walk = word[::-1]
    width, free_base = p.bit_length(), len(sets) * r
    order_sign, met, digit = 1, [[] for _ in sets], {}
    for v in walk:
        if v in slot:
            s, i = slot[v]
            order_sign *= (-1) ** sum(j > i for j in met[s])
            met[s].append(i)
        else:
            digit[v] = free_base + len(digit) * width
    full = (1 << width) - 1
    scale = Fraction(order_sign, engine.scale ** (n - 1))
    for set_vals in itertools.product(
        itertools.combinations(range(p), r), repeat=len(sets)
    ):
        steps = []
        for v in walk:
            if v not in slot:
                steps.append([(c << digit[v], 0, c) for c in range(p)])
                continue
            s, _ = slot[v]
            steps.append([
                (1 << (s * r + j), ((1 << r) - (2 << j)) << (s * r), c)
                for j, c in enumerate(set_vals[s])
            ])
        states = {bit: [int(l == c) for l in range(p)] for bit, _, c in steps[0]}
        for branches in steps[1:]:
            nxt = {}
            for key, value in states.items():
                for bit, above, c in branches:
                    if key & bit:
                        continue
                    acc = nxt.setdefault(key | bit, [0] * p)
                    sign = -1 if (key & above).bit_count() & 1 else 1
                    for kk, x in enumerate(value):
                        for l, y in brackets[c][kk]:
                            acc[l] += sign * x * y
            states = {key: acc for key, acc in nxt.items() if any(acc)}
        if states:
            free_vals, key = min(
                (tuple((key >> digit[v]) & full for v in free), key)
                for key in states
            )
            assign = {}
            for s, vals in zip(sets, set_vals):
                assign.update(zip(s, vals))
            assign.update(zip(free, free_vals))
            return assign, tuple(scale * x for x in states[key])
    return None


def digit_key_find_nonzero(engine: CodimEngine, word, sets):
    """Oracle for `_AlternatedChecker.find_nonzero`: the signed pass that
    keyed each free letter by a value digit above the sets' used-value
    bits, and charged a step's states to the budget only once the whole
    step was built.  Returns (hit or None, states created)."""
    p, brackets, n = engine.p, engine.brackets, len(word)
    slot = {v: (s, i) for s, vs in enumerate(sets) for i, v in enumerate(vs)}
    free = [v for v in range(1, n + 1) if v not in slot]
    width, free_base = p.bit_length(), len(sets) * p
    order_sign, met, digit, steps = 1, [[] for _ in sets], {}, []
    for v in reversed(word):
        if v in slot:
            s, i = slot[v]
            order_sign *= (-1) ** sum(j > i for j in met[s])
            met[s].append(i)
            low = s * p
            steps.append([(1 << (low + c), ((1 << p) - (2 << c)) << low, c)
                          for c in range(p)])
        else:
            digit[v] = free_base + len(digit) * width
            steps.append([(c << digit[v], 0, c) for c in range(p)])
    states = {bit: [int(l == c) for l in range(p)] for bit, _, c in steps[0]}
    created, budget = len(states), engine.tuple_budget
    for branches in steps[1:]:
        nxt = {}
        for key, value in states.items():
            for bit, above, c in branches:
                if key & bit:
                    continue
                acc = nxt.setdefault(key | bit, [0] * p)
                sign = -1 if (key & above).bit_count() & 1 else 1
                for k, x in enumerate(value):
                    for l, y in brackets[c][k]:
                        acc[l] += sign * x * y
        created += len(nxt)
        if created > budget:
            raise BudgetExceededError("signed-pass states exceed the budget")
        states = {key: acc for key, acc in nxt.items() if any(acc)}
        if not states:
            return None, created

    def values(key):
        return (tuple(tuple(c for c in range(p) if key >> (s * p + c) & 1)
                      for s in range(len(sets))),
                tuple((key >> digit[v]) & ((1 << width) - 1) for v in free))

    key = min(states, key=values)
    set_vals, free_vals = values(key)
    assign = {}
    for s, vals in zip(sets, set_vals):
        assign.update(zip(s, vals))
    assign.update(zip(free, free_vals))
    scale = Fraction(order_sign, engine.scale ** (n - 1))
    return (assign, tuple(scale * x for x in states[key])), created


def signed_set_permutations(spec: AltSpec):
    """All products of permutations of each set, as (mapping, sign) pairs:
    the walk that `freelie.stabilizer_perms` replaced in `alternate`."""
    per_set = []
    for s in spec.sets:
        elems = sorted(s)
        choices = []
        for perm in itertools.permutations(range(1, len(elems) + 1)):
            mapping = {v: elems[j - 1] for v, j in zip(elems, perm)}
            choices.append((mapping, perm_sign(perm)))
        per_set.append(choices)
    for combo in itertools.product(*per_set):
        mapping: dict[int, int] = {}
        sign = 1
        for m, s in combo:
            mapping.update(m)
            sign *= s
        yield mapping, sign


def set_permutation_alternate(f: MultilinearPolynomial, spec: AltSpec) -> MultilinearPolynomial:
    """Oracle for `freelie.alternate`: the signed sum of f over the
    mappings of `signed_set_permutations`."""
    spec.validate(f.degree)
    n = f.degree
    images = (
        (sign, permute({i: mapping.get(i, i) for i in range(1, n + 1)}, f))
        for mapping, sign in signed_set_permutations(spec)
    )
    return linear_combination(n, images)


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
    if p == 0 or rank(killing_form(algebra)) != p:
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
    """Oracle for `CodimEngine.sampled_columns`: the Fraction columns of
    the same `mode.count` random basis tuples, through the `Evaluator`
    word cache; the engine's columns are these times D^(n-1)."""
    rng, p = random.Random(mode.seed), engine.algebra.dim
    tuples = (tuple(rng.randrange(p) for _ in range(n)) for _ in range(mode.count))
    return _select_columns(engine, n, tuples)


def pairing_is_identity(f: MultilinearPolynomial, space: _FractionColumns) -> bool:
    """Oracle for `CodimEngine.is_identity`: f pairs to zero with every
    kept column of `multilinear_columns`."""
    coeffs = f.coefficient_vector(basis_Pn(f.degree))
    return all(
        sum((c * x for c, x in zip(coeffs, col) if c != 0), Fraction(0)) == 0
        for col in space.kept
    )


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


# ---------------------------------------------------------------------------
# Dense structure layer: the Fraction bracket, Jacobi check, Killing form,
# centroid equations and row reduction that the sparse constants replaced


def dense_rref(rows):
    """Reduced row echelon form by dense Gauss-Jordan elimination; zero
    rows dropped."""
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


def dense_kernel(m, ncols: int):
    """Echelon basis of the right null space of m, by `dense_rref`."""
    reduced = dense_rref(m)
    pivots = [next(i for i, x in enumerate(row) if x != 0) for row in reduced]
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[f]
        basis.append(tuple(v))
    return dense_rref(basis)


def dense_bracket(algebra: LieAlgebra, x, y):
    """[x, y] summed over every entry of the i < j table, zeros included."""
    out = [Fraction(0)] * algebra.dim
    for (i, j), value in algebra.table.items():
        c = x[i] * y[j] - x[j] * y[i]
        if c != 0:
            for k, v in enumerate(value):
                if v != 0:
                    out[k] += c * v
    return tuple(out)


def _basis(algebra: LieAlgebra, i: int):
    return tuple(Fraction(int(j == i)) for j in range(algebra.dim))


def dense_ad(algebra: LieAlgebra, x):
    n = algebra.dim
    cols = [dense_bracket(algebra, x, _basis(algebra, j)) for j in range(n)]
    return tuple(tuple(cols[j][k] for j in range(n)) for k in range(n))


def dense_jacobi_failure(algebra: LieAlgebra):
    """The first basis triple i < j < k whose Jacobi sum is nonzero, as
    (label triple, residual), or None."""
    n = algebra.dim
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                bi, bj, bk = (_basis(algebra, t) for t in (i, j, k))
                s = vec_add(
                    dense_bracket(algebra, dense_bracket(algebra, bi, bj), bk),
                    vec_add(
                        dense_bracket(algebra, dense_bracket(algebra, bj, bk), bi),
                        dense_bracket(algebra, dense_bracket(algebra, bk, bi), bj),
                    ),
                )
                if not is_zero_vec(s):
                    labels = algebra.labels
                    return (labels[i], labels[j], labels[k]), s
    return None


def dense_killing_form(algebra: LieAlgebra):
    n = algebra.dim
    ads = [dense_ad(algebra, _basis(algebra, i)) for i in range(n)]
    return tuple(
        tuple(
            sum((ads[i][r][k] * ads[j][k][r] for r in range(n) for k in range(n)),
                Fraction(0))
            for j in range(n)
        )
        for i in range(n)
    )


def dense_centroid_equations(algebra: LieAlgebra):
    """The p^3 dense rows (X ad(b_a) - ad(b_a) X)[r][c] over the
    unknowns X[r][c], flattened row-major, zero rows included."""
    p = algebra.dim
    rows = []
    for a in (dense_ad(algebra, _basis(algebra, i)) for i in range(p)):
        for r in range(p):
            for c in range(p):
                coeff = [Fraction(0)] * (p * p)
                for k in range(p):
                    coeff[r * p + k] += a[k][c]
                    coeff[k * p + c] -= a[r][k]
                rows.append(tuple(coeff))
    return rows


def dense_centroid(algebra: LieAlgebra):
    p = algebra.dim
    if p == 0:
        return []
    null = dense_kernel(dense_centroid_equations(algebra), p * p)
    return [
        tuple(tuple(b[r * p + c] for c in range(p)) for r in range(p))
        for b in null
    ]


def component_project(report: StructureReport, g, i: int):
    """Projection of a quotient vector onto component i along the others."""
    stacked = tuple(row for comp in report.components for row in comp.subspace.basis)
    coeffs = mat_vec(invert(tuple(zip(*stacked))), g)
    out = zero_vec(report.quotient.dim)
    offset = 0
    for idx, comp in enumerate(report.components):
        if idx == i:
            for c, row in zip(coeffs[offset: offset + comp.dim], comp.subspace.basis):
                if c != 0:
                    out = vec_add(out, vec_scale(c, row))
        offset += comp.dim
    return out


def coordinates(space: Subspace, v):
    """Coefficients of v in the echelon basis of `space`, or None if v is
    outside it."""
    w = list(v)
    coeffs = []
    for row in space.basis:
        lead = next(i for i, x in enumerate(row) if x != 0)
        c = w[lead]
        coeffs.append(c)
        if c != 0:
            w = [x - c * y for x, y in zip(w, row)]
    if any(x != 0 for x in w):
        return None
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# Unsliced kernel: every variable generic in L and every shape of height
# at most dim L ranked, which the Cartan slice and the skipped Lie-absent
# shapes replaced in exact ranks, codimensions and cocharacters


def unsliced_values(engine: CodimEngine, mu) -> dict:
    """Oracle for `CodimEngine._values` at the generic point: the nonzero
    values of the content-mu words ending in the last variable, with
    every variable generic in L."""
    p, m, n = engine.p, len(mu), sum(mu)
    base = n + 1
    shift = [[base ** (v * p + j) * p for j in range(p)] for v in range(m)]
    terms = [
        [[(shift[v][j] + l, c) for j in range(p) for l, c in engine.brackets[j][k]]
         for k in range(p)]
        for v in range(m)
    ]
    remaining = list(mu)
    remaining[-1] -= 1
    rows = {}

    def extend(value, word, left):
        if not left:
            rows[word] = value
            return
        for v in range(m):
            if not remaining[v]:
                continue
            out = {}
            for key, c in value.items():
                k = key % p
                for offset, s in terms[v][k]:
                    kk = key - k + offset
                    out[kk] = out.get(kk, 0) + c * s
            out = {kk: c for kk, c in out.items() if c}
            if out:
                remaining[v] -= 1
                extend(out, (v + 1,) + word, left - 1)
                remaining[v] += 1

    extend({shift[m - 1][j] + j: 1 for j in range(p)}, (m,), n - 1)
    return rows


def unsliced_rank(engine: CodimEngine, mu) -> int:
    """Oracle for `CodimEngine.rank`: h(mu) from `unsliced_values`."""
    values = unsliced_values(engine, mu)
    return exact_duplicate_span(_transpose(values, list(values)), len(values)).rank


# ---------------------------------------------------------------------------
# Column selection that skips only exact duplicates, which skipping columns
# equal up to a scalar replaced in `evaluation._span`


def exact_duplicate_span(columns, limit: int) -> _ColumnSpace:
    """Oracle for `evaluation._span`: each distinct column inserted once,
    until the rank reaches `limit`."""
    space = _ColumnSpace()
    seen: set = set()
    for col in columns:
        if col in seen:
            continue
        seen.add(col)
        space.insert(col)
        if space.rank == limit:
            break
    return space


def unsliced_cocharacter(engine: CodimEngine, n: int, ranks=None) -> dict:
    """Oracle for exact `CodimEngine.cocharacter`: {shape parts: m_lambda},
    the alternating sum of `unsliced_rank` over every shape of height at
    most dim L, with no budget; `ranks` caches {mu: h(mu)} across calls."""
    ranks = {} if ranks is None else ranks
    out = {}
    for shape in partitions(n):
        m = 0
        if shape.height <= engine.p:
            for sign, mu in _alternating_contents(shape.parts):
                if mu not in ranks:
                    ranks[mu] = unsliced_rank(engine, mu)
                m += sign * ranks[mu]
        out[shape.parts] = m
    return out


# ---------------------------------------------------------------------------
# Integer slice selection: ad x squared in sparse integer rows, ranks and
# the nilpotency test by fraction-free pivots, ties to the fewest bracket
# entries, which `liealg.engel_subalgebra` replaced in `CodimEngine.slice`


def _insert_pivot(pivots: list, col) -> bool:
    """Reduce the integer column `col` by the (lead, primitive column)
    `pivots` and append its residual as a pivot; False when it is in
    their span."""
    w = list(col)
    for lead, reduced in pivots:
        a = w[lead]
        if a:
            b = reduced[lead]
            g = gcd(a, b)
            a, b = a // g, b // g
            w = [b * x - a * y for x, y in zip(w, reduced)]
    for lead, x in enumerate(w):
        if x:
            g = gcd(*w)
            pivots.append((lead, [y // g for y in w]))
            return True
    return False


def _nilpotent(rows: list, basis: list) -> bool:
    """Whether the subalgebra with integer basis `basis` and slice rows
    `rows` ([s_a, e_k], as in `CodimEngine.slice`) is nilpotent: its
    lower central series, each term spanned by the brackets of the basis
    with the last, falls to 0 before two terms agree."""
    term = basis
    while term:
        pivots: list = []
        for out in rows:
            for t in term:
                v = [0] * len(t)
                for k, tk in enumerate(t):
                    if tk:
                        for l, c in out[k]:
                            v[l] += tk * c
                _insert_pivot(pivots, v)
        if len(pivots) == len(term):
            return False
        term = [col for _, col in pivots]
    return True


def _engel_rows(engine: CodimEngine, power: list[dict[int, int]]) -> tuple[list, list]:
    """(rows, basis): a primitive integer basis s_1..s_r of the kernel
    of the sparse rows `power`, and [s_a, e_k] = sum_j s_aj [e_j, e_k]
    as (l, coefficient) pairs, indexed [a][k]."""
    p, brackets = engine.p, engine.brackets
    basis = []
    for v in sparse_kernel([dict(row) for row in power], p).basis:
        den = lcm(*(c.denominator for c in v))
        w = [c.numerator * (den // c.denominator) for c in v]
        g = gcd(*w)
        basis.append([c // g for c in w])
    rows = []
    for s in basis:
        out = []
        for k in range(p):
            acc: dict[int, int] = {}
            for j, sj in enumerate(s):
                if sj:
                    for l, c in brackets[j][k]:
                        acc[l] = acc.get(l, 0) + sj * c
            out.append([(l, c) for l, c in acc.items() if c])
        rows.append(out)
    return rows, basis


def integer_slice(engine: CodimEngine) -> list | None:
    """Oracle for `CodimEngine.slice`: the slice rows of a smallest Engel
    subalgebra ker (ad x)^p over the candidates x, the basis vectors and
    then the sums of two; None when each is all of L.  The search stops
    at the first nilpotent one; failing that, ties go to the fewest
    bracket entries."""
    p, brackets = engine.p, engine.brackets
    smallest, ties = p, []  # the least dimension below p, and its powers
    for x in itertools.chain(itertools.combinations(range(p), 1),
                             itertools.combinations(range(p), 2)):
        # ad x as sparse rows, squared until its power reaches p
        power: list[dict[int, int]] = [{} for _ in range(p)]
        for j in x:
            for k, entries in enumerate(brackets[j]):
                for l, c in entries:
                    power[l][k] = power[l].get(k, 0) + c
        for _ in range((p - 1).bit_length()):
            square = []
            for row in power:
                acc: dict[int, int] = {}
                for k, a in row.items():
                    for j, b in power[k].items():
                        acc[j] = acc.get(j, 0) + a * b
                square.append({j: c for j, c in acc.items() if c})
            power = square
        pivots: list = []
        for row in power:
            _insert_pivot(pivots, [row.get(k, 0) for k in range(p)])
        r = p - len(pivots)
        if r < smallest:
            smallest, ties = r, [power]
            rows, basis = _engel_rows(engine, power)
            if _nilpotent(rows, basis):
                return rows
        elif r == smallest < p:
            ties.append(power)
    if not ties:
        return None
    return min((_engel_rows(engine, power)[0] for power in ties),
               key=lambda rows: sum(len(entries) for out in rows for entries in out))


# ---------------------------------------------------------------------------
# Full-round height spans: every pair of generators bracketed in every
# round, which the semi-naive fixpoint of `exponent.height_spans` replaced


def full_round_height_spans(report: StructureReport) -> tuple[dict, dict]:
    """Oracle for `exponent.height_spans`: (spans, generators) of the
    fixpoint that brackets every pair of generators in every round."""
    algebra = report.algebra
    gens: dict = {}
    spans: dict = {}

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
    changed = True
    while changed:
        changed = False
        keys = list(gens.keys())
        for t1 in keys:
            for t2 in keys:
                for v1, e1 in list(gens.get(t1, ())):
                    for v2, e2 in list(gens.get(t2, ())):
                        if add(t1 | t2, algebra.bracket(v1, v2), product_node(e1, e2)):
                            changed = True
    return spans, {k: tuple(v) for k, v in gens.items()}
