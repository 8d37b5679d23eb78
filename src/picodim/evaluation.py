"""Evaluation of multilinear polynomials in a Lie algebra, identity
decision, codimensions c_n, cocharacter multiplicities m_lambda,
colengths l_n, and alternated-identity checks.

The workhorse is the evaluation matrix: rows are canonical basis words
of P_n, columns are (basis tuple, coordinate) pairs.  Exhausting all
dim(L)^n basis tuples is sound and complete by multilinearity, so the
row space dimension is exactly c_n(L).  Columns are deduplicated and a
maximal independent set is kept; a polynomial is an identity iff its
coefficient vector pairs to zero with every kept column.

Only two methods choose between exact and sampled mode:
`CodimEngine.columns` (all basis tuples, or `count` random ones; both
stop early only at full rank (n-1)!), which `is_identity` pairs against
in either mode, and `_AlternatedChecker.scan` (every alternation, or a
random sample of them).  Alternations of basis words are never built
symbolically: the scan evaluates them on strictly increasing basis
assignments of each alternating set, for `capelli_holds`,
`exponent.verify_upper` and `exponent.find_lower_witness`.  Exact verdicts are proofs; sampled mode
only refutes, so its c_n and m_lambda are lower bounds.
"""

from __future__ import annotations

import itertools
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Iterable

from .errors import BudgetExceededError, MalformedInputError
from .freelie import (
    AltSpec,
    MultilinearPolynomial,
    Word,
    basis_Pn,
    dim_Pn,
    iter_basis_Pn,
    nth_basis_word,
    signed_set_permutations,
)
from .liealg import LieAlgebra
from .linalg import Vector, is_zero_vec, vec_add, vec_scale, zero_vec
from .symgroup import Partition, YoungTableau, act, hook_dim, partitions, symmetrizer

DEFAULT_TUPLE_BUDGET = 500_000


@dataclass(frozen=True)
class ExactMode:
    pass


@dataclass(frozen=True)
class SampledMode:
    count: int
    seed: int = 0


Mode = "ExactMode | SampledMode"


class Evaluator:
    """Caches values of right-normed words at basis tuples.

    A word evaluation is keyed by the sequence of 0-based basis indices
    substituted into the word, so suffixes are shared across all words
    and all tuples.
    """

    def __init__(self, algebra: LieAlgebra):
        self.algebra = algebra
        self._cache: dict[tuple[int, ...], Vector] = {}
        self._basis = [algebra.basis_vector(i) for i in range(algebra.dim)]
        self._ad = {}

    def _bracket_left_basis(self, i: int, v: Vector) -> Vector:
        out = None
        for j, c in enumerate(v):
            if c == 0:
                continue
            row = self._ad.get((i, j))
            if row is None:
                row = self.algebra.bracket_basis(i, j)
                self._ad[(i, j)] = row
            if is_zero_vec(row):
                continue
            term = vec_scale(c, row)
            out = term if out is None else vec_add(out, term)
        return out if out is not None else zero_vec(self.algebra.dim)

    def word_value(self, seq: tuple[int, ...]) -> Vector:
        """Value of the right-normed word on the basis elements seq."""
        cached = self._cache.get(seq)
        if cached is not None:
            return cached
        if len(seq) == 1:
            value = self._basis[seq[0]]
        else:
            value = self._bracket_left_basis(seq[0], self.word_value(seq[1:]))
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


@dataclass
class _ColumnSpace:
    """Incremental echelon over column vectors; keeps one original column
    per pivot so the kept set spans the full column space."""

    pivots: list = field(default_factory=list)  # (lead index, reduced column)
    kept: list = field(default_factory=list)  # original independent columns

    def insert(self, col: tuple[Fraction, ...]) -> bool:
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
                return True
        return False

    @property
    def rank(self) -> int:
        return len(self.kept)


@dataclass(frozen=True)
class CocharacterRow:
    shape: Partition
    multiplicity: int
    degree: int  # d_lambda


@dataclass(frozen=True)
class CocharacterTable:
    n: int
    rows: tuple[CocharacterRow, ...]

    @property
    def colength(self) -> int:
        return sum(r.multiplicity for r in self.rows)

    @property
    def codimension_sum(self) -> int:
        return sum(r.multiplicity * r.degree for r in self.rows)


class CodimEngine:
    """Per-algebra engine; reuses word-value caches and column selections
    across calls at the same degree."""

    def __init__(self, algebra: LieAlgebra, tuple_budget: int = DEFAULT_TUPLE_BUDGET):
        self.algebra = algebra
        self.tuple_budget = tuple_budget
        self.evaluator = Evaluator(algebra)
        self._columns: dict[tuple[int, Mode], _ColumnSpace] = {}

    # -- column generation ------------------------------------------------

    def _tuple_columns(self, words: list[Word], tup: tuple[int, ...]):
        p = self.algebra.dim
        values = [
            self.evaluator.word_value(tuple(tup[l - 1] for l in w)) for w in words
        ]
        for coord in range(p):
            yield tuple(v[coord] for v in values)

    def _require_budget(self, n: int):
        total = self.algebra.dim**n
        if total > self.tuple_budget:
            raise BudgetExceededError(
                f"exhaustive evaluation needs {total} basis tuples, "
                f"budget is {self.tuple_budget}",
                required=total,
            )
        return total

    def columns(self, n: int, mode: Mode = ExactMode()) -> _ColumnSpace:
        """Maximal independent column set of degree n, cached per (n, mode).

        Exact mode spans the whole column space; sampled mode spans part
        of it, so its rank is a lower bound on c_n."""
        space = self._columns.get((n, mode))
        if space is None:
            if isinstance(mode, ExactMode):
                space = self.exhaustive_columns(n)
            elif isinstance(mode, SampledMode):
                space = self.sampled_columns(n, mode)
            else:
                raise MalformedInputError(f"unknown mode {mode!r}")
            self._columns[(n, mode)] = space
        return space

    def exhaustive_columns(self, n: int) -> _ColumnSpace:
        """Columns of every basis tuple, until the rank reaches (n-1)!."""
        self._require_budget(n)
        tuples = itertools.product(range(self.algebra.dim), repeat=n)
        return self._select(n, tuples)

    def sampled_columns(self, n: int, mode: SampledMode) -> _ColumnSpace:
        """Columns of `mode.count` random basis tuples, until the rank
        reaches (n-1)!."""
        rng = random.Random(mode.seed)
        p = self.algebra.dim
        tuples = (
            tuple(rng.randrange(p) for _ in range(n)) for _ in range(mode.count)
        )
        return self._select(n, tuples)

    def _select(self, n: int, tuples: Iterable[tuple[int, ...]]) -> _ColumnSpace:
        words = basis_Pn(n)
        space = _ColumnSpace()
        seen: set = set()
        for tup in tuples:
            for col in self._tuple_columns(words, tup):
                if col in seen:
                    continue
                seen.add(col)
                space.insert(col)
            if space.rank == len(words):
                break
        return space

    # -- public operations ------------------------------------------------

    def codimension(self, n: int, mode: Mode = ExactMode()) -> int:
        return self.columns(n, mode).rank

    def pairing(self, coeffs: tuple[Fraction, ...], space: _ColumnSpace):
        return tuple(
            sum((c * x for c, x in zip(coeffs, col) if c != 0), Fraction(0))
            for col in space.kept
        )

    def is_identity(self, f: MultilinearPolynomial, mode: Mode = ExactMode()) -> bool:
        """Exhaustive mode is sound and complete; sampled mode can only
        refute, so True means "not refuted"."""
        if f.is_zero():
            return True
        coeffs = f.coefficient_vector(basis_Pn(f.degree))
        space = self.columns(f.degree, mode)
        return all(x == 0 for x in self.pairing(coeffs, space))

    def cocharacter(self, n: int, mode: Mode = ExactMode()) -> CocharacterTable:
        space = self.columns(n, mode)
        words = basis_Pn(n)
        rows = []
        height_cap = self.algebra.dim  # alternating > dim L basis slots repeats
        for shape in partitions(n):
            d = hook_dim(shape)
            if shape.height > height_cap or space.rank == 0:
                rows.append(CocharacterRow(shape, 0, d))
                continue
            tableau = YoungTableau.row_reading(shape)
            e = symmetrizer(tableau)
            image = _ColumnSpace()
            for w in words:
                g = act(e, MultilinearPolynomial(n, {w: Fraction(1)}))
                paired = self.pairing(g.coefficient_vector(words), space)
                image.insert(paired)
                if image.rank == min(space.rank, len(words)):
                    break
            rows.append(CocharacterRow(shape, image.rank, d))
        return CocharacterTable(n, tuple(rows))

    def capelli_holds(self, t: int, n: int, mode: Mode = ExactMode()) -> bool:
        """True iff every polynomial of P_n alternating on some t variables
        is an identity.  Alternations of canonical basis words over every
        t-subset span all such polynomials, so exact mode is complete;
        in sampled mode True means "not refuted"."""
        if not 1 <= t <= n:
            raise MalformedInputError("need 1 <= t <= n")
        if isinstance(mode, ExactMode):
            self._require_budget(n)
        _, _, hit = _AlternatedChecker(self).scan(n, t, 1, mode)
        return hit is None


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


def _assignment_count(n: int, r: int, k: int) -> int:
    """Length of `_set_assignments(n, r, k)`."""
    return factorial(n) // (factorial(r) ** k * factorial(k) * factorial(n - r * k))


class _AlternatedChecker:
    """Identity decision for alternations of a single basis word.

    Multilinearity reduces identity checking to basis tuples, and the
    alternation vanishes whenever a set repeats a value and only changes
    sign when set values are permuted, so scanning strictly increasing
    basis assignments per set is equivalent to the full tuple sweep.
    """

    def __init__(self, engine: CodimEngine):
        self.engine = engine
        self.algebra = engine.algebra

    def find_nonzero(self, word: Word, sets: tuple[tuple[int, ...], ...]):
        """A basis assignment where the alternated word is nonzero, or None."""
        p = self.algebra.dim
        r = len(sets[0])
        n = len(word)
        in_set = set(itertools.chain.from_iterable(sets))
        free = [v for v in range(1, n + 1) if v not in in_set]
        spec = AltSpec.of(*sets)
        perms = list(signed_set_permutations(spec))
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
                    seq = tuple(
                        assign[mapping.get(l, l)] for l in word
                    )
                    value = self.engine.evaluator.word_value(seq)
                    if not is_zero_vec(value):
                        total = vec_add(total, vec_scale(Fraction(sign), value))
                if not is_zero_vec(total):
                    return dict(assign), total
        return None

    def scan(self, n: int, r: int, k: int, mode: Mode,
             budget: int | None = None):
        """(checks, exhaustive, hit) over the alternations of every basis
        word of P_n on every way to pick k disjoint alternating r-sets;
        hit is the first nonzero (word, sets, assignment, value) or None.
        Exact mode streams the items; sampled mode checks `mode.count` of
        them drawn at random."""
        nwords = dim_Pn(n)
        population = _assignment_count(n, r, k) * nwords
        total, exhaustive = population, True
        if isinstance(mode, SampledMode):
            if mode.count < population:
                total, exhaustive = mode.count, False
        elif not isinstance(mode, ExactMode):
            raise MalformedInputError(
                "alternation checks support exact or sampled mode"
            )
        if budget is not None and total > budget:
            raise BudgetExceededError(
                f"{total} alternation checks exceed budget {budget}",
                required=total,
            )
        if r > self.algebra.dim:
            # r slots alternated over dim L basis values repeat one
            return total, exhaustive, None
        if exhaustive:
            items = (
                (w, sets)
                for sets in _set_assignments(n, r, k)
                for w in iter_basis_Pn(n)
            )
        else:
            if population > sys.maxsize:
                raise BudgetExceededError(
                    f"{population} alternation checks are too many to "
                    f"sample from (at most {sys.maxsize})",
                    required=population,
                )
            # positions in the exact order above, drawn as if from its list
            positions = random.Random(mode.seed).sample(range(population), total)
            wanted = {i // nwords for i in positions}
            assignments = {
                j: sets for j, sets in enumerate(_set_assignments(n, r, k))
                if j in wanted
            }
            items = (
                (nth_basis_word(n, i % nwords), assignments[i // nwords])
                for i in positions
            )
        checks = 0
        for word, sets in items:
            checks += 1
            found = self.find_nonzero(word, sets)
            if found is not None:
                return checks, exhaustive, (word, sets) + found
        return checks, exhaustive, None
