"""Evaluation of multilinear polynomials in a Lie algebra, identity
decision, codimensions c_n, cocharacter multiplicities m_lambda,
colengths l_n, and alternated-identity checks.

Every engine value comes from one integer kernel, the multihomogeneous
ranks h(mu) that `CodimEngine.rank` computes: S_n-cocharacters are
GL_m-characters of the relatively free algebra F_m(L) (Berele 1982,
Drensky 1984), so m_lambda is an alternating sum of the dimensions h(mu)
of its content-mu parts, each the rank of right-normed words evaluated
at generic elements, and c_n = sum m_lambda d_lambda.  Two exact
reductions cut that work.  At the generic point the variable of largest
multiplicity ranges over a Cartan slice in place of L: the Engel
subalgebra of least dimension r that `liealg.engel_subalgebra` finds,
once per engine, and `CodimEngine.slice` holds as integer rows.
And `cocharacter` ranks nothing for the shapes Lie_n lacks
(`_lie_absent`), so the content 1^n is ranked only for n <= 2.  `_span`
is the one elimination loop: it feeds the columns distinct up to a
scalar to `_ColumnSpace`, fraction-free over the integers, until the
rank is full.
Exact m_lambda work is budgeted in generic evaluation points, summed
over the contents mu that `cocharacter` ranks (`CodimEngine.cost`):
prod_i C(d_i + mu_i - 1, mu_i), with d_1 = r when mu has two or more
parts and L has a slice, and d_i = dim L otherwise.

A mode is None (exact, the default) or a `SampledMode`.  Exact values
are read at the generic point, and decisions evaluate there and never
eliminate: `CodimEngine.is_identity` evaluates f through the
kernel's content-1^n words, budgeted as dim(L)^n like
`exhaustive_columns`, and f is an identity iff that value is zero
(char 0).  A sampled c_n ranks the columns of `count` seeded random
basis tuples (`CodimEngine.sampled_columns`), each evaluated by the same
`_values` with the tuple as its point.  `_AlternatedChecker.scan`
alternates on the first family of sets only: it checks every basis
word there, or a sample of random orderings of the variables
(`full_pass` says which), and it never builds the slice.  Its bound is
the same in both modes: a rank above dim L answers before any check, a
scan runs at most the budget's count of checks without a hit, and each
check walks at most the budget's count of signed-pass states.
`CodimEngine.cocharacter` has no sampled mode, so m_lambda and l_n are
always exact.  For `capelli_holds`, `exponent.verify_upper` and
`exponent.find_lower_witness` the scan evaluates alternations on
strictly increasing basis assignments of each set, summing every set
permutation at every choice of set values in one signed pass over the
word with the kernel's integer brackets.  Exact verdicts are proofs;
sampled mode only refutes, so its c_n is a lower bound.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterable, Iterator
from fractions import Fraction
from functools import cache, cached_property
from math import comb, factorial, gcd, lcm

from .errors import BudgetExceededError, MalformedInputError, count_text
from .freelie import (
    MultilinearPolynomial,
    Word,
    basis_Pn,
    dim_Pn,
    iter_basis_Pn,
)
from .liealg import LieAlgebra, engel_subalgebra
from .linalg import Vector, is_zero_vec, vec_add, vec_scale, zero_vec
from .symgroup import Partition, hook_dim, iter_partitions, partitions

DEFAULT_TUPLE_BUDGET = 500_000


class SampledMode:
    __slots__ = ("count", "seed")

    def __init__(self, count: int, seed: int = 0):
        self.count = count
        self.seed = seed

    def __eq__(self, other):
        if other.__class__ is not SampledMode:
            return NotImplemented
        return (self.count, self.seed) == (other.count, other.seed)

    def __hash__(self) -> int:
        return hash((self.count, self.seed))

    def __repr__(self) -> str:
        return f"SampledMode(count={self.count}, seed={self.seed})"


class Evaluator:
    """Caches the Fraction values of right-normed words at basis tuples,
    keyed by the sequence of 0-based basis indices substituted into the
    word, so suffixes are shared across all words and all tuples.

    No engine path uses it, as the kernel evaluates over the integers.
    It stays as the Fraction reference evaluation of the test oracles,
    and `perfbench/tracer.py` patches its methods by name.
    """

    def __init__(self, algebra: LieAlgebra):
        self.algebra = algebra
        self._cache: dict[tuple[int, ...], Vector] = {}

    def word_value(self, seq: tuple[int, ...]) -> Vector:
        """Value of the right-normed word on the basis elements seq."""
        value = self._cache.get(seq)
        if value is None:
            if len(seq) == 1:
                value = self.algebra.basis_vector(seq[0])
            else:
                out = [Fraction(0)] * self.algebra.dim
                for j, c in enumerate(self.word_value(seq[1:])):
                    if c:
                        for k, x in enumerate(self.algebra.bracket_basis(seq[0], j)):
                            if x:
                                out[k] += c * x
                value = tuple(out)
            self._cache[seq] = value
        return value


def evaluate(
    f: MultilinearPolynomial, elements: Iterable[Vector], algebra: LieAlgebra
) -> Vector:
    """Value of f at arbitrary algebra elements (one per variable)."""
    elems = list(elements)
    if len(elems) != f.degree:
        raise MalformedInputError(
            f"need {f.degree} elements, got {len(elems)}"
        )
    out = zero_vec(algebra.dim)
    for word, coeff in f.terms.items():
        value = elems[word[-1] - 1]
        for letter in reversed(word[:-1]):
            value = algebra.bracket(elems[letter - 1], value)
        if not is_zero_vec(value):
            out = vec_add(out, vec_scale(coeff, value))
    return out


class _ColumnSpace:
    """Incremental echelon over integer column vectors; the pivots span
    the inserted columns, and the rank is their number.

    Elimination is fraction-free: a column is reduced with integer
    pivots (w <- b*w - a*r) and stored as a primitive pivot."""

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots = []  # (lead index, primitive int column)

    def insert(self, col) -> bool:
        """Reduce the integer column `col` by the pivots and append its
        residual as a pivot; False when it is in their span."""
        w = list(col)
        for lead, reduced in self.pivots:
            a = w[lead]
            if a:
                b = reduced[lead]
                g = gcd(a, b)
                a, b = a // g, b // g
                w = [b * x - a * y for x, y in zip(w, reduced)]
        for lead, x in enumerate(w):
            if x:
                g = gcd(*w)
                self.pivots.append((lead, [y // g for y in w]))
                return True
        return False

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _span(columns: Iterable, limit: int) -> _ColumnSpace:
    """The column space of the nonzero `columns`, each inserted once up
    to a scalar: a column is divided by the gcd of its entries, signed
    so that its first nonzero entry is positive, and skipped when an
    earlier one gave the same.  It stops once the rank reaches `limit`,
    the number of rows, so a lazy `columns` is not drawn further."""
    space = _ColumnSpace()
    seen: set = set()
    for col in columns:
        g = gcd(*col)
        if next(x for x in col if x) < 0:
            g = -g
        if g != 1:
            col = tuple(x // g for x in col)
        if col in seen:
            continue
        seen.add(col)
        space.insert(col)
        if space.rank == limit:
            break
    return space


def _transpose(values: dict[Word, dict[int, int]], words: list[Word]) -> Iterator:
    """The columns of `CodimEngine._values`, one tuple per key, with a
    row for each of `words`; each tuple is built when it is reached."""
    index = {w: i for i, w in enumerate(words)}
    columns: dict[int, list[int]] = {}
    for w, row in values.items():
        i = index[w]
        for key, c in row.items():
            col = columns.get(key)
            if col is None:
                col = columns[key] = [0] * len(words)
            col[i] = c
    return (tuple(col) for col in columns.values())


class CocharacterRow:
    __slots__ = ("shape", "multiplicity", "degree")

    def __init__(self, shape: Partition, multiplicity: int, degree: int):
        self.shape = shape
        self.multiplicity = multiplicity
        self.degree = degree  # d_lambda


class CocharacterTable:
    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: tuple[CocharacterRow, ...]):
        self.n = n
        self.rows = rows

    @property
    def colength(self) -> int:
        return sum(r.multiplicity for r in self.rows)

    @property
    def codimension_sum(self) -> int:
        return sum(r.multiplicity * r.degree for r in self.rows)


class CodimEngine:
    """Per-algebra engine over one integer kernel, and the keeper of its
    multihomogeneous ranks across calls.

    h(mu), the dimension of the content-mu part of the relatively free
    algebra F_m(L), is the rank of the content-mu right-normed words
    evaluated at generic elements x_i = sum_j xi_ij e_j.  The words whose
    innermost letter is a variable of smallest multiplicity span the
    content-mu part of the free Lie algebra (they are the image of the
    P_n basis), and a multihomogeneous polynomial is an identity iff it
    vanishes at generic elements (char 0).  The basis is scaled by the
    lcm D of the structure-constant denominators, which makes the
    constants integers and changes no identity, so values are sparse
    dicts of Python ints.  A value's key is code * p + coordinate, where
    the xi-monomial prod xi_vj^e is coded as sum e * base^(v*p + j) with
    base = n + 1, so multiplying by xi_vj is one addition.

    When mu has at least two parts, variable 1 (the largest multiplicity)
    is generic in a Cartan slice H instead of L, x_1 = sum_a xi_1a s_a
    over a basis of H (`slice`, from `liealg.engel_subalgebra`):
    f(g x) = g f(x) for automorphisms g, the conjugates of a Cartan
    subalgebra are dense, and the Engel subalgebra H contains one
    (Barnes 1967), so a multihomogeneous f is an identity iff it
    vanishes there.

    Ranks (c_n, m_lambda) eliminate columns in `_ColumnSpace`; identity
    decisions only evaluate, so they build no column space."""

    def __init__(self, algebra: LieAlgebra, tuple_budget: int = DEFAULT_TUPLE_BUDGET):
        self.algebra = algebra
        self.tuple_budget = tuple_budget
        self.p = algebra.dim
        scale = self.scale = lcm(
            *(c.denominator for v in algebra.table.values() for c in v)
        )
        # [e_j, e_k] of the scaled basis, as (l, integer coefficient) pairs,
        # from the algebra's structure constants
        self.brackets = [
            [[(l, int(c * scale)) for l, c in entries] for entries in row]
            for row in algebra.constants
        ]
        self._ranks: dict[tuple[int, ...], int] = {}

    # -- the Cartan slice -------------------------------------------------

    @cached_property
    def slice(self) -> list | None:
        """[s_a, e_k] for an integer basis s_1..s_r of the Cartan slice,
        indexed [a][k] like `brackets`; None when it is all of L.  Built
        the first time a rank needs it."""
        return self._select_slice()

    def _select_slice(self) -> list | None:
        """The slice rows of `liealg.engel_subalgebra`, for the primitive
        integer vectors s_a of its reduced echelon basis: [s_a, e_k] =
        sum_j s_aj [e_j, e_k] as (l, coefficient) pairs, indexed [a][k];
        None when it has none.  Scaling the basis by D scales ad x, so
        the kernel's coordinates are the same in either basis."""
        engel = engel_subalgebra(self.algebra)
        if engel is None:
            return None
        rows = []
        for v in engel.basis:
            den = lcm(*(c.denominator for c in v))
            w = [c.numerator * (den // c.denominator) for c in v]
            g = gcd(*w)
            s = [c // g for c in w]
            out = []
            for k in range(self.p):
                acc: dict[int, int] = {}
                for j, sj in enumerate(s):
                    if sj:
                        for l, c in self.brackets[j][k]:
                            acc[l] = acc.get(l, 0) + sj * c
                out.append([(l, c) for l, c in acc.items() if c])
            rows.append(out)
        return rows

    def _first_rows(self, mu: tuple[int, ...]) -> list:
        """[y, e_k] for the y that variable 1 of content mu ranges over:
        the slice's basis when mu has at least two parts and L has a
        slice, else L's."""
        if len(mu) > 1 and self.slice is not None:
            return self.slice
        return self.brackets

    # -- the kernel -------------------------------------------------------

    def cost(self, mu: tuple[int, ...]) -> int:
        """Generic evaluation points of content mu: the xi-monomials,
        prod_i C(d_i + mu_i - 1, mu_i), where d_1 = dim H for a sliced mu
        and d_i = p otherwise."""
        out = comb(len(self._first_rows(mu)) + mu[0] - 1, mu[0])
        for part in mu[1:]:
            out *= comb(self.p + part - 1, part)
        return out

    def rank(self, mu: tuple[int, ...]) -> int:
        """h(mu) for a partition mu (sorted, no zeros)."""
        h = self._ranks.get(mu)
        if h is None:
            h = self._ranks[mu] = self._space(mu).rank
        return h

    def _space(self, mu: tuple[int, ...]) -> _ColumnSpace:
        """Column space of the content-mu words at the generic point, a
        row for each nonzero word."""
        values = self._values(mu)
        nonzero = len(values)
        columns = _transpose(values, list(values))
        del values  # the columns hold every entry; free the row dicts
        return _span(columns, nonzero)

    def _values(self, mu: tuple[int, ...], point=None) -> dict[Word, dict[int, int]]:
        """Nonzero values of the distinct content-mu words ending in the
        last variable, keyed by word (1-based letters), built outward
        from that letter: a depth-first walk over suffixes, so each
        suffix is evaluated once and only the current path is held; a
        zero suffix prunes every word that ends in it.  At the generic
        point variable 1 ranges over `_first_rows`.  With a basis tuple
        `point`, variable v is e_{point[v]} instead of generic, so a
        value's key is its coordinate alone."""
        p, m, n = self.p, len(mu), sum(mu)
        if point is None:
            base = n + 1
            # [x_v, e_k] as (key offset, coefficient) pairs: multiplying by
            # xi_vj adds base^(v*p + j) * p
            terms = [
                [
                    [(base ** (v * p + j) * p + l, c)
                     for j, row in enumerate(rows) for l, c in row[k]]
                    for k in range(p)
                ]
                for v, rows in enumerate([self._first_rows(mu)] + [self.brackets] * (m - 1))
            ]
            start = {base ** ((m - 1) * p + j) * p + j: 1 for j in range(p)}
        else:
            terms = [self.brackets[j] for j in point]
            start = {point[-1]: 1}
        remaining = list(mu)
        remaining[-1] -= 1
        rows: dict[Word, dict[int, int]] = {}

        def extend(value: dict[int, int], word: Word, left: int):
            if not left:
                rows[word] = value
                return
            for v in range(m):
                if not remaining[v]:
                    continue
                out: dict[int, int] = {}
                bracket = terms[v]
                for key, c in value.items():
                    k = key % p
                    stem = key - k
                    for offset, s in bracket[k]:
                        kk = stem + offset
                        out[kk] = out.get(kk, 0) + c * s
                out = {kk: c for kk, c in out.items() if c}
                if out:
                    remaining[v] -= 1
                    extend(out, (v + 1,) + word, left - 1)
                    remaining[v] += 1

        extend(start, (m,), n - 1)
        return rows

    # -- column generation ------------------------------------------------

    def _tuple_columns(self, words: list[Word], tup: tuple[int, ...]):
        """The nonzero columns of `words` at the basis tuple `tup`, times D^(n-1)."""
        return _transpose(self._values((1,) * len(tup), tup), words)

    def _require_budget(self, required: int) -> None:
        """Raise unless `required` generic evaluation points fit the budget."""
        if required > self.tuple_budget:
            raise BudgetExceededError(
                f"exact evaluation needs {count_text(required)} generic "
                f"evaluation points, budget is {count_text(self.tuple_budget)}",
                required=required,
            )

    def exhaustive_columns(self, n: int) -> _ColumnSpace:
        """The content-1^n columns at the generic point, one for each
        xi-monomial and coordinate; their rank is c_n."""
        self._require_budget(self.p ** n)
        return self._space((1,) * n)

    def sampled_columns(self, n: int, mode: SampledMode) -> _ColumnSpace:
        """Columns of `mode.count` seeded random basis tuples, rows in
        `basis_Pn(n)` order; no tuple is drawn once the rank reaches (n-1)!."""
        rng, p, words = random.Random(mode.seed), self.p, basis_Pn(n)
        tuples = (tuple(rng.randrange(p) for _ in range(n)) for _ in range(mode.count))
        return _span((col for tup in tuples for col in self._tuple_columns(words, tup)),
                     len(words))

    # -- public operations ------------------------------------------------

    def codimension(self, n: int, mode: SampledMode | None = None) -> int:
        """c_n: exact (no mode) reads it off the cocharacter, sum m_lambda
        d_lambda; a sample takes the rank of sampled columns."""
        if mode is None:
            return self.cocharacter(n).codimension_sum
        return self.sampled_columns(n, mode).rank

    def pairing(self, f: MultilinearPolynomial,
                values: dict[Word, dict[int, int]]) -> dict[int, int]:
        """f's value, sum over words w of f_w * value_w, for word values
        from `_values`, as a sparse dict without zeros.
        f is scaled by the lcm of its denominators, which changes no
        zero, so the value is over the integers."""
        den = lcm(*(c.denominator for c in f.terms.values()))
        out: dict[int, int] = {}
        for w, c in f.terms.items():
            value = values.get(w)
            if value:
                c = c.numerator * (den // c.denominator)
                for key, x in value.items():
                    out[key] = out.get(key, 0) + c * x
        return {key: x for key, x in out.items() if x}

    def is_identity(self, f: MultilinearPolynomial) -> bool:
        """Whether f is an identity of L: its value at one generic point
        (x_1 in the slice) is zero, which is sound and complete.  It
        needs dim(L)^n points of budget at degree n."""
        if f.is_zero():
            return True
        self._require_budget(self.p ** f.degree)
        return not self.pairing(f, self._values((1,) * f.degree))

    def _contents(self, n: int) -> Iterator[tuple[int, ...]]:
        """The contents `cocharacter` ranks, each once: those of the shapes
        of height <= dim L that Lie_n has.  Shapes come in
        reverse-lexicographic order and each content dominates its shape,
        so every shape adds at least itself."""
        seen = set()
        for parts in iter_partitions(n, self.p):
            if not _lie_absent(parts):
                for _, mu in _alternating_contents(parts):
                    if mu not in seen:
                        seen.add(mu)
                        yield mu

    def require_cocharacters(self, degrees: Iterable[int]) -> None:
        """Raise unless the cocharacter tables of `degrees` fit the budget
        together: the points of every content that they rank, summed."""
        contents = (mu for n in degrees for mu in self._contents(n))
        # each content costs at least 1, so budget + 1 of them decide the check
        self._require_budget(sum(
            self.cost(mu) for mu in itertools.islice(contents, self.tuple_budget + 1)
        ))

    def cocharacter(self, n: int) -> CocharacterTable:
        """m_lambda for every partition of n, read off multihomogeneous
        ranks: m_lambda = sum over sigma in S_m of
        sgn(sigma) * h(lambda + delta - sigma(delta)), m = height(lambda).
        m_lambda = 0 with no rank when m > dim L or when Lie_n lacks
        lambda (`_lie_absent`).  There is no sampled mode: a rank over
        sampled columns bounds each h(mu) from below, but an alternating
        sum of such bounds bounds nothing."""
        self.require_cocharacters([n])
        rows = []
        for shape in partitions(n):
            m = 0
            # taller shapes alternate a basis slot twice
            if shape.height <= self.p and not _lie_absent(shape.parts):
                m = sum(sign * self.rank(mu)
                        for sign, mu in _alternating_contents(shape.parts))
            rows.append(CocharacterRow(shape, m, hook_dim(shape)))
        return CocharacterTable(n, tuple(rows))

    def capelli_holds(self, t: int, n: int, mode: SampledMode | None = None) -> bool:
        """True iff every polynomial of P_n alternating on some t variables
        is an identity.  Alternations of canonical basis words over every
        t-subset span all such polynomials, so a full pass (`full_pass`)
        is complete; from a smaller sample True means "not refuted"."""
        if not 1 <= t <= n:
            raise MalformedInputError("need 1 <= t <= n")
        _, _, hit = _AlternatedChecker(self).scan(n, t, 1, mode)
        return hit is None


def _alternating_contents(parts: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
    """(sgn sigma, mu) with mu = lambda + delta - sigma(delta) sorted and
    without zeros, over the sigma in S_m that leave no part negative.

    sigma is built one image at a time, so a negative part prunes every
    completion; taking the pos-th smallest unused image adds pos
    inversions."""
    m = len(parts)
    out = []

    def place(i: int, unused: list[int], sign: int, mu: list[int]):
        if i == m:
            out.append((sign, tuple(sorted((x for x in mu if x), reverse=True))))
            return
        for pos, s in enumerate(unused):
            part = parts[i] + s - i  # delta_i - delta_s = s - i
            if part >= 0:
                place(i + 1, unused[:pos] + unused[pos + 1:],
                      -sign if pos % 2 else sign, mu + [part])

    place(0, list(range(m)), 1, [])
    return out


def _lie_absent(parts: tuple[int, ...]) -> bool:
    """Whether Lie_n lacks the shape: (n) with n >= 2, (1^n) with n >= 3,
    (2,2) and (2,2,2) (Klyachko 1974).  P_n(L) is a quotient of Lie_n,
    so m_lambda = 0 there."""
    n = sum(parts)
    return ((len(parts) == 1 and n >= 2) or (parts[0] == 1 and n >= 3)
            or parts in ((2, 2), (2, 2, 2)))


def full_pass(n: int, mode: SampledMode | None = None) -> bool:
    """Whether an alternation scan at degree n covers every basis word:
    exact (no mode), or a sample of at least (n-1)! orderings."""
    return mode is None or mode.count >= dim_Pn(n)


def _assignment_count(n: int, r: int, k: int) -> int:
    """The number of families of k disjoint r-subsets of {1..n}, unordered."""
    return factorial(n) // (factorial(r) ** k * factorial(k) * factorial(n - r * k))


class _AlternatedChecker:
    """Identity decision for alternations of single words, and their scan.

    Multilinearity reduces identity checking to basis tuples, and the
    alternation vanishes whenever a set repeats a value and only changes
    sign when set values are permuted, so scanning strictly increasing
    basis assignments per set is equivalent to the full tuple sweep.
    The sums over the set permutations at every assignment are taken by
    one signed pass over the word (`find_nonzero`), in the integer
    brackets of the scaled basis that the engine holds, so no word value
    is cached.
    """

    def __init__(self, engine: CodimEngine):
        self.engine = engine

    def find_nonzero(self, word: Word, sets: tuple[tuple[int, ...], ...]):
        """A basis assignment where the alternated word is nonzero, or None.

        Each free variable counts as a set of one, after the given sets in
        variable order.  The assignment maps each set's variables, in the
        order given, to a strictly increasing tuple of basis indices; the
        first nonzero one, ordered by the sorted values of each set, is
        returned with the alternated word's value there.  One signed pass
        walks the word from its innermost letter outward: a state is the
        values each set has used, and carries the integer value (scaled
        basis) of the suffix summed over every way to reach it.  Placing
        value c of a set contributes (-1)^(used values of that set above
        c), so a finished state carries the sum over the set permutations
        at its values, up to the sign of the order in which the word
        meets each set's variables.  It raises as soon as it has created
        more states than the engine's budget, counted from the innermost
        letter's p on."""
        engine = self.engine
        p, brackets, n = engine.p, engine.brackets, len(word)
        in_sets = {v for vs in sets for v in vs}
        sets += tuple((v,) for v in range(1, n + 1) if v not in in_sets)
        slot = {v: (s, i) for s, vs in enumerate(sets) for i, v in enumerate(vs)}
        # a key holds bit low[s] + c when set s has used value c, the sets'
        # p-bit fields in the order the walk meets them, so keys stay short
        walk = [slot[v] for v in reversed(word)]
        order_sign, met, low = 1, [[] for _ in sets], {}
        for s, i in walk:
            order_sign *= (-1) ** sum(j > i for j in met[s])
            met[s].append(i)
            low.setdefault(s, len(low) * p)
        states = {1 << c: [int(l == c) for l in range(p)] for c in range(p)}
        created, budget = len(states), engine.tuple_budget
        for s, _ in walk[1:]:
            # (key bit, mask of the set's larger values, c)
            branches = [(1 << (low[s] + c), ((1 << p) - (2 << c)) << low[s], c)
                        for c in range(p)]
            nxt: dict[int, list[int]] = {}
            for key, value in states.items():
                for bit, above, c in branches:
                    if key & bit:
                        continue
                    row = brackets[c]
                    acc = nxt.get(key | bit)
                    if acc is None:
                        created += 1
                        if created > budget:
                            raise BudgetExceededError(
                                "an alternation check walks more signed-pass "
                                f"states than budget {count_text(budget)}")
                        acc = nxt[key | bit] = [0] * p
                    negate = (key & above).bit_count() & 1
                    for k, x in enumerate(value):
                        if x:
                            if negate:
                                x = -x
                            for l, y in row[k]:
                                acc[l] += x * y
            states = {key: acc for key, acc in nxt.items() if any(acc)}
            if not states:
                return None

        # the sorted values of each set, read off its field of the key
        used = cache(lambda field: tuple(c for c in range(p) if field >> c & 1))
        fields, full = [low[s] for s in range(len(sets))], (1 << p) - 1

        def values(key):
            return tuple(used(key >> f & full) for f in fields)

        key = min(states, key=values)
        assign = {v: c for vs, vals in zip(sets, values(key)) for v, c in zip(vs, vals)}
        scale = Fraction(order_sign, engine.scale ** (n - 1))
        return assign, tuple(scale * x for x in states[key])

    def scan(self, n: int, r: int, k: int, mode: SampledMode | None = None):
        """(checks, exhaustive, hit) over alternations of degree-n words on
        the first family F0 = ((1..r), (r+1..2r), ...) of k disjoint
        r-sets; hit is the first nonzero (word, sets, assignment, value)
        or None.  A full pass (`full_pass`) takes every basis word and
        reports the population of (basis word, family) items: S_n
        permutes the families transitively and fixes the identities of
        P_n, so F0 has a hit iff any family has, and the first hit of the
        families-outermost order lies in it.  A smaller sample checks
        `mode.count` random orderings of x_1..x_n, drawn one at a time,
        the same check as a random item: a relabelling tau with
        tau(F) = F0 carries w on F to tau(w) on F0, and the signed pass
        sees only which set each letter is in.  An r above dim L answers
        first, with no check.  Otherwise the scan counts its checks
        against the engine's budget: once it has run that many without a
        hit, it raises with the checks it would run, (n-1)! or
        `mode.count`; and `find_nonzero` raises, with no required count,
        once one check walks more states than the budget."""
        nwords = dim_Pn(n)
        exhaustive = full_pass(n, mode)
        runs = nwords if exhaustive else mode.count
        total = _assignment_count(n, r, k) * nwords if exhaustive else runs
        if r > self.engine.p:
            # r slots alternated over dim L basis values repeat one
            return total, exhaustive, None
        first = tuple(tuple(range(s * r + 1, s * r + r + 1)) for s in range(k))
        if exhaustive:
            words = iter_basis_Pn(n)
        else:
            rng = random.Random(mode.seed)
            words = (tuple(rng.sample(range(1, n + 1), n)) for _ in range(runs))
        budget = self.engine.tuple_budget
        for checks, word in enumerate(words, 1):
            if checks > budget:
                raise BudgetExceededError(
                    f"{count_text(runs)} alternation checks exceed budget "
                    f"{count_text(budget)}",
                    required=runs,
                )
            found = self.find_nonzero(word, first)
            if found is not None:
                return checks, exhaustive, (word, first) + found
        return total, exhaustive, None
