"""Evaluation of multilinear polynomials in a Lie algebra, identity
decision, codimensions c_n, cocharacter multiplicities m_lambda,
colengths l_n, and alternated-identity checks.

Every engine value comes from one integer kernel, multihomogeneous
ranks (`_ContentRanks`): S_n-cocharacters are GL_m-characters of the
relatively free algebra F_m(L) (Berele 1982, Drensky 1984), so m_lambda
is an alternating sum of the dimensions h(mu) of its content-mu parts,
each the rank of right-normed words evaluated at generic elements, and
c_n = sum m_lambda d_lambda.  The content-1^n matrix is the multilinear
one (rows: the basis words of P_n; columns: basis tuple and coordinate),
so a polynomial is an identity iff it pairs to zero with every kept
column; sampled mode walks the same kernel at random basis tuples.
Ranks come from `_ColumnSpace`, fraction-free over the integers.  Exact
work is budgeted in generic evaluation points, sum over the contents mu
of prod_i C(dim L + mu_i - 1, mu_i), which is dim(L)^n at mu = 1^n.

Three methods choose between exact and sampled mode: `CodimEngine.columns`
(the content-1^n columns, or those of `count` random basis tuples until
the rank reaches (n-1)!), which `is_identity` pairs against,
`CodimEngine.cocharacter` (multihomogeneous ranks, or Young symmetrizer
images paired with sampled columns) and `_AlternatedChecker.scan` (every
alternation, or a sample).  For `capelli_holds`, `exponent.verify_upper`
and `exponent.find_lower_witness` the scan evaluates alternations on
strictly increasing basis assignments of each set, summing every set
permutation in one signed pass over the word with the kernel's integer
brackets.  Exact verdicts are proofs; sampled mode only refutes, so its
c_n and m_lambda are lower bounds.
"""

from __future__ import annotations

import itertools
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, gcd, lcm
from typing import Iterable, Iterator

from .errors import BudgetExceededError, MalformedInputError, count_text
from .freelie import (
    MultilinearPolynomial,
    Word,
    basis_Pn,
    dim_Pn,
    iter_basis_Pn,
    nth_basis_word,
)
from .liealg import LieAlgebra
from .linalg import Vector, is_zero_vec, vec_add, vec_scale, zero_vec
from .symgroup import (
    Partition,
    YoungTableau,
    act,
    hook_dim,
    iter_partitions,
    partitions,
    symmetrizer,
)

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


@dataclass
class _ColumnSpace:
    """Incremental echelon over column vectors; keeps one original column
    per pivot so the kept set spans the full column space.

    Elimination is fraction-free: a column is scaled to integers by the
    lcm of its denominators, reduced with integer pivots
    (w <- b*w - a*r) and stored as a primitive pivot."""

    pivots: list = field(default_factory=list)  # (lead index, primitive int column)
    kept: list = field(default_factory=list)  # original independent columns

    def insert(self, col) -> bool:
        scale = lcm(*(x.denominator for x in col))
        w = [x.numerator * (scale // x.denominator) for x in col]
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
                self.kept.append(col)
                return True
        return False

    @property
    def rank(self) -> int:
        return len(self.kept)


class _ContentRanks:
    """h(mu): the dimension of the content-mu part of the relatively free
    algebra F_m(L), as the rank of the content-mu right-normed words
    evaluated at generic elements x_i = sum_j xi_ij e_j.

    The words whose innermost letter is a variable of smallest
    multiplicity span the content-mu part of the free Lie algebra (they
    are the image of the P_n basis), and a multihomogeneous polynomial is
    an identity iff it vanishes at generic elements (char 0).  The basis
    is scaled by the lcm D of the structure-constant denominators, which
    makes the constants integers and changes no identity, so values are
    sparse dicts of Python ints.  A value's key is code * p + coordinate,
    where the xi-monomial prod xi_vj^e is coded as sum e * base^(v*p + j)
    with base = n + 1, so multiplying by xi_vj is one addition.
    """

    def __init__(self, algebra: LieAlgebra):
        p = self.p = algebra.dim
        scale = self.scale = lcm(
            *(c.denominator for v in algebra.table.values() for c in v)
        )
        # [e_j, e_k] of the scaled basis, as (l, integer coefficient) pairs
        self.brackets = [
            [
                [(l, int(c * scale))
                 for l, c in enumerate(algebra.bracket_basis(j, k)) if c]
                for k in range(p)
            ]
            for j in range(p)
        ]
        self._ranks: dict[tuple[int, ...], int] = {}

    def cost(self, mu: tuple[int, ...]) -> int:
        """Generic evaluation points of content mu: the xi-monomials,
        prod_i C(p + mu_i - 1, mu_i); p^n at mu = 1^n."""
        out = 1
        for part in mu:
            out *= comb(self.p + part - 1, part)
        return out

    def rank(self, mu: tuple[int, ...]) -> int:
        """h(mu) for a partition mu (sorted, no zeros)."""
        h = self._ranks.get(mu)
        if h is None:
            h = self._ranks[mu] = self.space(mu).rank
        return h

    def space(self, mu: tuple[int, ...], words: list[Word] | None = None) -> _ColumnSpace:
        """Column space of the content-mu words, with a row for each of
        `words` (default: the nonzero words); it stops once the rank
        reaches the number of nonzero words."""
        values = self._values(mu)
        if words is None:
            words = list(values)
        nonzero = len(values)
        columns = _transpose(values, words)
        del values  # the columns hold every entry; free the row dicts
        space = _ColumnSpace()
        seen: set = set()
        for col in columns:
            if col in seen:
                continue
            seen.add(col)
            space.insert(col)
            if space.rank == nonzero:
                break
        return space

    def _values(self, mu: tuple[int, ...], point=None) -> dict[Word, dict[int, int]]:
        """Nonzero values of the distinct content-mu words ending in the
        last variable, keyed by word (1-based letters), built outward
        from that letter: a depth-first walk over suffixes, so each
        suffix is evaluated once and only the current path is held; a
        zero suffix prunes every word that ends in it.  With a basis
        tuple `point`, variable v is e_{point[v]} instead of generic, so
        a value's key is its coordinate alone."""
        p, m, n = self.p, len(mu), sum(mu)
        base = n + 1
        picks = [range(p)] * m if point is None else [(j,) for j in point]
        # shift[v][j]: key offset of multiplying by xi_vj (none at a point)
        shift = [[base ** (v * p + j) * p if point is None else 0 for j in range(p)]
                 for v in range(m)]
        # [x_v, e_k] as (key offset, coefficient) pairs
        terms = [
            [
                [(shift[v][j] + l, c) for j in picks[v] for l, c in self.brackets[j][k]]
                for k in range(p)
            ]
            for v in range(m)
        ]
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

        extend({shift[m - 1][j] + j: 1 for j in picks[m - 1]}, (m,), n - 1)
        return rows


def _transpose(values: dict[Word, dict[int, int]], words: list[Word]) -> Iterator:
    """The columns of `_ContentRanks._values`, one tuple per key, with a
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
    """Per-algebra engine; keeps its multihomogeneous ranks and column
    selections across calls at the same degree."""

    def __init__(self, algebra: LieAlgebra, tuple_budget: int = DEFAULT_TUPLE_BUDGET):
        self.algebra = algebra
        self.tuple_budget = tuple_budget
        self._content_ranks = _ContentRanks(algebra)
        self._columns: dict[tuple[int, Mode], _ColumnSpace] = {}

    # -- column generation ------------------------------------------------

    def _tuple_columns(self, words: list[Word], tup: tuple[int, ...]):
        """The nonzero columns of `words` at the basis tuple `tup`, times D^(n-1)."""
        values = self._content_ranks._values((1,) * len(tup), tup)
        return _transpose(values, words)

    def _require_budget(self, contents: Iterable[tuple[int, ...]]) -> None:
        """Raise unless the generic evaluation points of the contents,
        sum of cost(mu), fit the budget; at mu = 1^n they are the dim(L)^n
        basis tuples."""
        required = sum(self._content_ranks.cost(mu) for mu in contents)
        if required > self.tuple_budget:
            raise BudgetExceededError(
                f"exact evaluation needs {count_text(required)} generic "
                f"evaluation points, budget is {count_text(self.tuple_budget)}",
                required=required,
            )

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
        """The content-1^n columns, one for each (basis tuple, coordinate),
        with rows in `basis_Pn(n)` order."""
        mu = (1,) * n
        self._require_budget([mu])
        return self._content_ranks.space(mu, basis_Pn(n))

    def sampled_columns(self, n: int, mode: SampledMode) -> _ColumnSpace:
        """Columns of `mode.count` random basis tuples, until the rank
        reaches (n-1)!."""
        rng = random.Random(mode.seed)
        p = self.algebra.dim
        words = basis_Pn(n)
        space = _ColumnSpace()
        seen: set = set()
        for _ in range(mode.count):
            tup = tuple(rng.randrange(p) for _ in range(n))
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
        """c_n: exact mode reads it off the cocharacter, sum m_lambda
        d_lambda; sampled mode takes the rank of sampled columns."""
        if isinstance(mode, ExactMode):
            return self.cocharacter(n).codimension_sum
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
        """m_lambda for every partition of n.  Exact mode reads them off
        multihomogeneous ranks: m_lambda = sum over sigma in S_m of
        sgn(sigma) * h(lambda + delta - sigma(delta)), m = height(lambda),
        and m_lambda = 0 when m > dim L.  Sampled mode pairs Young
        symmetrizer images with sampled columns; a rank over sampled
        columns bounds each h(mu) from below, but an alternating sum of
        such bounds bounds nothing, so the sampled path stays separate."""
        if isinstance(mode, SampledMode):
            return self._sampled_cocharacter(n, mode)
        if not isinstance(mode, ExactMode):
            raise MalformedInputError(f"unknown mode {mode!r}")
        kernel = self._content_ranks
        # the contents of the shapes of height <= dim L (lambda itself
        # among them) are the partitions of n into at most dim L parts;
        # each costs at least 1, so budget + 1 of them decide the check
        self._require_budget(
            itertools.islice(iter_partitions(n, kernel.p), self.tuple_budget + 1)
        )
        rows = []
        for shape in partitions(n):
            m = 0
            if shape.height <= kernel.p:  # else alternating repeats a basis slot
                m = sum(sign * kernel.rank(mu)
                        for sign, mu in _alternating_contents(shape.parts))
            rows.append(CocharacterRow(shape, m, hook_dim(shape)))
        return CocharacterTable(n, tuple(rows))

    def _sampled_cocharacter(self, n: int, mode: SampledMode) -> CocharacterTable:
        space = self.columns(n, mode)
        words = basis_Pn(n)
        rows = []
        for shape in partitions(n):
            d = hook_dim(shape)
            # alternating more than dim L basis slots repeats one
            if shape.height > self.algebra.dim or space.rank == 0:
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
            self._require_budget([(1,) * n])
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
    The sum over the set permutations at one assignment is taken by a
    signed pass over the word (`find_nonzero`), in the integer brackets
    of the scaled basis that `_ContentRanks` holds, so no word value is
    cached.
    """

    def __init__(self, engine: CodimEngine):
        self.engine = engine
        self.algebra = engine.algebra

    def find_nonzero(self, word: Word, sets: tuple[tuple[int, ...], ...]):
        """A basis assignment where the alternated word is nonzero, or None.

        The assignment maps each set's variables, in the order given, to
        a strictly increasing tuple of basis indices, and each free
        variable to any basis index; the first nonzero one is returned in
        the order of set values by `product(combinations(range(p), r))`,
        then free values by `product(range(p))`, with the alternated
        word's value there.  For each choice of set values one signed
        pass walks the word from its innermost letter outward: a state
        is the mask of the values each set has used plus the free values
        met, and carries the integer value (scaled basis) of the suffix
        summed over every way to reach it.  Placing value c of a set
        contributes (-1)^(used values of that set above c), so a finished
        state carries the sum over the set permutations, up to the sign
        of the order in which the word meets each set's variables."""
        kernel = self.engine._content_ranks
        p, brackets = kernel.p, kernel.brackets
        r, n = len(sets[0]), len(word)
        slot = {v: (s, i) for s, vs in enumerate(sets) for i, v in enumerate(vs)}
        free = [v for v in range(1, n + 1) if v not in slot]
        walk = word[::-1]  # innermost letter first
        # a key holds bit s*r + i when set s has used its i-th value, and
        # the t-th free value met in the digit of width `width` above them
        width, free_base = p.bit_length(), len(sets) * r
        # the letters' order signs, and each free variable's digit
        order_sign, met, digit = 1, [[] for _ in sets], {}
        for v in walk:
            if v in slot:
                s, i = slot[v]
                order_sign *= (-1) ** sum(j > i for j in met[s])
                met[s].append(i)
            else:
                digit[v] = free_base + len(digit) * width
        free_steps = {
            v: [(c << digit[v], 0, c) for c in range(p)] for v in free
        }
        full = (1 << width) - 1
        scale = Fraction(order_sign, kernel.scale ** (n - 1))
        for set_vals in itertools.product(
            itertools.combinations(range(p), r), repeat=len(sets)
        ):
            # per letter: (key bit, mask bits of the set's larger values, c)
            steps = []
            for v in walk:
                if v not in slot:
                    steps.append(free_steps[v])
                    continue
                s, _ = slot[v]
                steps.append([
                    (1 << (s * r + j), ((1 << r) - (2 << j)) << (s * r), c)
                    for j, c in enumerate(set_vals[s])
                ])
            states = {}
            for bit, _, c in steps[0]:
                states[bit] = [int(l == c) for l in range(p)]
            for branches in steps[1:]:
                nxt: dict[int, list[int]] = {}
                for key, value in states.items():
                    for bit, above, c in branches:
                        if key & bit:
                            continue
                        row = brackets[c]
                        acc = nxt.get(key | bit)
                        if acc is None:
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
                    break
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
                f"{count_text(total)} alternation checks exceed budget "
                f"{count_text(budget)}",
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
                    f"{count_text(population)} alternation checks are too "
                    f"many to sample from (at most {sys.maxsize})",
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
