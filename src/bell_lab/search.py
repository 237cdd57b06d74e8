"""Strategy-space search: exhaustive, random sampling, and hill climbing.

Random sampling and hill climbing are one walk (`_walk`); random sampling
is the walk without moves, so every step restarts from a fresh draw.  Both
score every candidate exactly, so large campaigns double as adversarial
tests of the bound: a correlation outside [-1, 1] or a score above 2 would
be an engine bug, and either raises.

Walk scores come from `_IntegerState`, not from the certification routes.
Every weight is drawn as an integer numerator over d =
DEFAULT_MAX_DENOMINATOR, and each setting's per-source local mean
m(l) = sum_k p(k) R(l, k), R its response table, is kept as an integer over
d.  A context's correlation is then E = sum_{l1, l2} S(l1, l2) m_A(l1) m_B(l2)
over d^3, S the source pmf.
With T the sum of the four correlations, the eight CHSH pattern sums are
exactly +/-(T - 2 E_k), so s_max is max_k |T - 2 E_k|, compared as an
integer; paired as (k, h | o1, o2), that is max(|E_k + E_h| + |E_o1 - E_o2|,
|E_k - E_h| + |E_o1 + E_o2|).  Draws are made straight into integer states,
the only states whose sums are derived from scratch.  A hill-climb
candidate is a move (a table flip or a 1/d mass step).  A scan scores and
checks every neighbour it reaches, a flip or local mass step from the two
correlations that read its factor and the state's other two, checked with
the state, and hands the walk only an improving one.  An accepted move
keeps its scan's four sums and updates only the other kept sums it
changes, and in either mode one model is built, for the walk's winner.
Candidates are never validated: draws and moves yield valid models by
construction, and the tests compare each move's model and score with a
neighbour built as a model and scored through the dedicated route, and
each updated state with one built from scratch.
The CLI certifies the winner through `certify_lhv_bound`, which
validates it, and refuses a winner whose certified s_max differs from
the search's score.  A walk refuses, before its first draw, a shape of
more than `chsh.DEFAULT_CELL_LIMIT` cells (the product of its six
cardinalities) with `SizeExceededError`, as `certify_model` refuses such
a model.

Exhaustive search answers its question without a sweep.  The correlations
of a contextual LHV model are a mixture of those of the 16 deterministic
strategies, one fixed outcome per setting (Fine, PRL 48, 291, 1982).
These are the vertices of the local polytope, and |S| is convex in the
correlations, so its maximum over every table assignment of any shape is
the maximum over the 16 vertices.  The mode scores the 16 vertices and the
first and last assignment of the requested shape through `_s_max`, the
validated dedicated route; each assignment must reach the vertex maximum.
``evaluated`` counts the 2^bits assignments this argument covers, one bit
per table entry, and a shape with more than 2^24 of them is refused with
`SearchLimitError`.
"""

from __future__ import annotations

import enum
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .chsh import DEFAULT_CELL_LIMIT, BoundViolationError, SizeExceededError, _bounded_report
from .exact import correlation_set
from .models import (
    DEFAULT_ALICE_LABELS,
    DEFAULT_BOB_LABELS,
    ContextualModel,
    JointPmf,
    LocalSetting,
    format_rational,
)

RNG_ALGORITHM = "python-random-mt19937"

_ASSIGNMENT_LIMIT = 2**24
DEFAULT_MAX_DENOMINATOR = 64
# Every walk state's correlation numerators are over d^3.
_D3 = DEFAULT_MAX_DENOMINATOR**3


class SearchLimitError(RuntimeError):
    """Exhaustive enumeration would exceed the assignment limit."""

    def __init__(self, bits: int, limit: int):
        self.bits = bits
        self.limit = limit
        # 2^bits assignments; past 2^64 shown as 2^k, as str() refuses 4300+
        # digits and 2^k is never built.
        shown = f"2^{bits}" if bits > 64 else 1 << bits
        super().__init__(f"{shown} table assignments exceed the limit of {limit}")


class SearchMode(enum.Enum):
    EXHAUSTIVE = "exhaustive"
    RANDOM = "random"
    HILL_CLIMB = "hill-climb"


@dataclass(frozen=True)
class SearchSpec:
    """Cardinalities order: source Alice, source Bob, then the four locals
    (Alice's two settings in declared order, then Bob's)."""

    cardinalities: tuple[int, int, int, int, int, int]
    mode: SearchMode
    seed: int = 0
    budget: int = 1

    def __post_init__(self):
        # A mode given by its value string runs that mode; an unknown one
        # raises ValueError.
        object.__setattr__(self, "mode", SearchMode(self.mode))
        if len(self.cardinalities) != 6 or any(c < 1 for c in self.cardinalities):
            raise ValueError(f"cardinalities must be six counts >= 1, got {self.cardinalities}")
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        # random.Random seeds with abs(seed), so -3 would silently run seed 3.
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class SearchResult:
    best_model: ContextualModel
    best_s_max: Fraction
    evaluated: int
    improvements: tuple[tuple[int, Fraction], ...]
    rng_algorithm: str | None


def _table_shapes(cardinalities) -> tuple[tuple[int, int], ...]:
    """(rows, cols) of each setting's table, Alice's two then Bob's two."""
    s1, s2, la0, la1, lb0, lb1 = cardinalities
    return (s1, la0), (s1, la1), (s2, lb0), (s2, lb1)


def _strategy(cardinalities, outcomes) -> ContextualModel:
    """Uniform pmfs, and every entry of setting k's table is ``outcomes[k]``
    (Alice's two settings, then Bob's)."""
    s1, s2 = cardinalities[0], cardinalities[1]
    source = JointPmf(tuple(tuple(Fraction(1, s1 * s2) for _ in range(s2)) for _ in range(s1)))
    locals_ = [
        LocalSetting((Fraction(1, cols),) * cols, ((outcome,) * cols,) * rows)
        for (rows, cols), outcome in zip(_table_shapes(cardinalities), outcomes)
    ]
    return ContextualModel(source=source, alice=dict(zip(DEFAULT_ALICE_LABELS, locals_[:2])),
                           bob=dict(zip(DEFAULT_BOB_LABELS, locals_[2:])))


def _s_max(model: ContextualModel) -> Fraction:
    """s_max of `model` through the validated dedicated route.  A score
    above 2 raises `BoundViolationError`, as `certify_lhv_bound` does."""
    return _bounded_report(correlation_set(model)).s_max


def _enumerate_deterministic(spec: SearchSpec) -> SearchResult:
    """Exact maximum of |S| over every table assignment, by the vertex argument.

    An assignment's correlations are a mixture of those of the 16
    deterministic strategies, the models of shape ``(1, 1, 1, 1, 1, 1)``
    with one fixed outcome per setting.  The CHSH sums are linear in the
    correlations, so no assignment exceeds the strategies' maximum.  In
    enumeration order, with bit k of an index setting flat table entry k to
    -1, index 0 is the all +1 assignment and index ``total - 1`` the all -1
    one.  Both must reach that maximum, so index 0 is the only strict
    improvement, and all -1, the smallest canonical serialization, wins.
    All 18 models are scored by `_s_max`.  Raises `BoundViolationError` if
    an assignment misses the maximum or any score exceeds 2, and
    `SearchLimitError` past 2^24 assignments.  ``evaluated`` is the number
    of assignments covered.
    """
    # 2^bits > limit exactly when bits >= limit.bit_length(); checked on the
    # bit count, so a huge shape never builds 2^bits.
    bits = sum(rows * cols for rows, cols in _table_shapes(spec.cardinalities))
    if bits >= _ASSIGNMENT_LIMIT.bit_length():
        raise SearchLimitError(bits, _ASSIGNMENT_LIMIT)
    total = 1 << bits

    vertex_max = max(
        _s_max(_strategy((1,) * 6, outcomes))
        for outcomes in itertools.product((1, -1), repeat=4)
    )
    first = _s_max(_strategy(spec.cardinalities, (1,) * 4))
    best_model = _strategy(spec.cardinalities, (-1,) * 4)
    for index, s in ((0, first), (total - 1, _s_max(best_model))):
        if s != vertex_max:
            raise BoundViolationError(
                f"assignment {index} scored s_max = {s}, but the deterministic "
                f"strategies reach {vertex_max}"
            )
    return SearchResult(
        best_model=best_model,
        best_s_max=vertex_max,
        evaluated=total,
        improvements=((0, first),),
        rng_algorithm=None,
    )


def _random_pmf(size: int, rng: random.Random) -> tuple[int, ...]:
    """Uniformly cut [0, D] at size-1 integer points, D =
    DEFAULT_MAX_DENOMINATOR; the widths are the weights' numerators over D.

    Zero weights are possible and legal (zero-width support points).
    """
    d = DEFAULT_MAX_DENOMINATOR
    cuts = sorted(rng.randint(0, d) for _ in range(size - 1))
    bounds = [0, *cuts, d]
    return tuple(hi - lo for lo, hi in zip(bounds, bounds[1:]))


def random_model(spec: SearchSpec, rng: random.Random) -> ContextualModel:
    """Draw a valid model: cut-point pmfs over DEFAULT_MAX_DENOMINATOR, coin
    tables.  Draw order is part of the reproducibility contract; see
    `_IntegerState.draw`."""
    return _IntegerState.draw(spec, rng).model()


# A move is data, (kind, factor, i, j): a flip negates entry (i, j) of
# factor f's table; a mass move shifts one unit of weight (1/d) from index i
# to index j of factor f's pmf, a source move the same in the flattened source.
_FLIP, _MASS, _SOURCE = range(3)


def _shifted(weights, i: int, j: int) -> tuple[int, ...]:
    out = list(weights)
    out[i] -= 1
    out[j] += 1
    return tuple(out)


def _replaced(items: tuple, index: int, item) -> tuple:
    return (*items[:index], item, *items[index + 1:])


# For factor f, the contexts (k, h) that read it, then the other two (o1, o2):
# context 2a + b reads Alice's factor a and Bob's factor 2 + b.
_PAIRS = ((0, 1, 2, 3), (2, 3, 0, 1), (0, 2, 1, 3), (1, 3, 0, 2))


def _paired(e, k: int, h: int, p: int, q: int) -> tuple[int, ...]:
    """`e` with e_k = (p + q) / 2 and e_h = (p - q) / 2."""
    x = list(e)
    x[k], x[h] = (p + q) // 2, (p - q) // 2
    return tuple(x)


def _s_num(e, d3: int) -> int:
    """max |CHSH sum| over the eight patterns, as a numerator over `d3`.

    `e` holds the four correlation numerators over `d3`.  With
    T = e0 + e1 + e2 + e3 the eight pattern sums are exactly +/-(T - 2 e_k),
    so four integers cover them.  A correlation outside [-1, 1] raises
    ValueError and a score above 2 raises `BoundViolationError`.
    """
    for n in e:
        if not -d3 <= n <= d3:
            raise ValueError(f"correlation {format_rational(Fraction(n, d3))} outside [-1, 1]")
    t = e[0] + e[1] + e[2] + e[3]
    s = max(abs(t - 2 * e[0]), abs(t - 2 * e[1]), abs(t - 2 * e[2]), abs(t - 2 * e[3]))
    if s > 2 * d3:
        raise BoundViolationError(
            f"search candidate scored s_max = {format_rational(Fraction(s, d3))} > 2"
        )
    return s


class _IntegerState:
    """One model as integers, so its neighbours are scored without building them.

    Every weight is a numerator over d = DEFAULT_MAX_DENOMINATOR.  Factors
    0..3 are Alice's settings then Bob's, labelled DEFAULT_ALICE_LABELS and
    DEFAULT_BOB_LABELS.  The state keeps three kinds of derived sums:
    ``means[f][l]`` = sum_k p_f(k) R_f(l, k), setting f's mean outcome at
    source share l, over d; the read vectors ``by_row[b][l1]`` =
    sum_l2 S(l1, l2) m_{2+b}(l2) and ``by_col[a][l2]`` =
    sum_l1 S(l1, l2) m_a(l1), over d^2; and ``e[2a + b]`` =
    sum_l1 m_a(l1) by_row[b][l1], the correlation numerator over d^3 of
    context (a, b), which reads factors a and 2 + b.  A move changes ``e``
    by a few products of these sums, from which `improving` scores it.  The
    constructor derives them from scratch and runs only for a draw; `apply`
    takes ``e`` from the scan, updates only the other sums its move
    changes and shares every other tuple.
    """

    __slots__ = ("cols", "source", "pmfs", "tables", "means", "by_row", "by_col", "e")

    def __init__(self, cols, source, pmfs, tables):
        mul = int.__mul__
        means = tuple([
            tuple([sum(map(mul, pmf, row)) for row in table]) for pmf, table in zip(pmfs, tables)
        ])
        grid = [source[r:r + cols] for r in range(0, len(source), cols)]
        columns = list(zip(*grid))
        by_row = tuple([tuple([sum(map(mul, row, m)) for row in grid]) for m in means[2:]])
        by_col = tuple([tuple([sum(map(mul, column, m)) for column in columns]) for m in means[:2]])
        e = tuple([sum(map(mul, m, w)) for m in means[:2] for w in by_row])
        self.cols, self.source, self.pmfs, self.tables = cols, source, pmfs, tables
        self.means, self.by_row, self.by_col, self.e = means, by_row, by_col, e

    @classmethod
    def draw(cls, spec: SearchSpec, rng: random.Random) -> _IntegerState:
        """A random state of `spec`'s shape.

        Draw order is part of the reproducibility contract: source weights
        first, then per Alice setting its pmf then its table entries
        row-major, then Bob the same way.
        """
        source = _random_pmf(spec.cardinalities[0] * spec.cardinalities[1], rng)
        bit, pmfs, tables = rng.getrandbits, [], []
        for rows, cols in _table_shapes(spec.cardinalities):
            pmfs.append(_random_pmf(cols, rng))
            tables.append(
                tuple([tuple([1 - 2 * bit(1) for _ in range(cols)]) for _ in range(rows)])
            )
        return cls(spec.cardinalities[1], source, tuple(pmfs), tuple(tables))

    def model(self) -> ContextualModel:
        d = DEFAULT_MAX_DENOMINATOR
        source = JointPmf(tuple(
            tuple(Fraction(n, d) for n in self.source[r:r + self.cols])
            for r in range(0, len(self.source), self.cols)
        ))
        locals_ = [
            LocalSetting(tuple(Fraction(n, d) for n in pmf), table)
            for pmf, table in zip(self.pmfs, self.tables)
        ]
        return ContextualModel(source=source, alice=dict(zip(DEFAULT_ALICE_LABELS, locals_[:2])),
                               bob=dict(zip(DEFAULT_BOB_LABELS, locals_[2:])))

    def score(self) -> int:
        """s_max numerator over d^3 of this model."""
        return _s_num(self.e, _D3)

    def improving(self, floor: int, limit: int):
        """(position, move, sums, score) of each of the first `limit`
        neighbours that scores above `floor`, then (the number scored, None,
        None, None).

        Scan order: table flips (Alice's settings in declared order then
        Bob's, row-major), then 1/d mass moves (source flat, then each local
        pmf, ordered index pairs (i, j), i != j, where weight i is not zero).
        ``position`` is the 1-based index in it, ``sums`` the four correlation
        numerators over d^3, which `apply` keeps, and ``score`` the s_max
        numerator.  Every neighbour reached is scored and checked, yielded or
        not, and one that fails goes to `_s_num`, which raises.  A flip or mass
        step of factor f changes the sums (k, h) of `_PAIRS[f]`; with
        p = x_k + x_h and q = x_k - x_h, both are in range exactly when
        |p| + |q| <= 2 d^3.  A source step is scored as (0, 1 | 2, 3).
        """
        e, pmfs, tables = self.e, self.pmfs, self.tables
        bound = 2 * _D3
        cap = min(floor, bound)  # a score up to cap passes and does not improve
        base, reads = 0, []
        for f, (pmf, table) in enumerate(zip(pmfs, tables)):
            k, h, o1, o2 = _PAIRS[f]
            u, v = self.by_row if f < 2 else self.by_col
            a, b, p0, q0 = abs(e[o1] - e[o2]), abs(e[o1] + e[o2]), e[k] + e[h], e[k] - e[h]
            reads.append((k, h, a, b, p0, q0, u, v))
            n = len(pmf)
            for i, row in enumerate(table):
                # m_f(i) changes by -2 p_f(j) R_f(i, j), so p by that times
                # u[i] + v[i] and q by that times u[i] - v[i].
                du, dv = -2 * (u[i] + v[i]), -2 * (u[i] - v[i])
                for j in range(n if base + n <= limit else limit - base):
                    dm = pmf[j] * row[j]
                    p, q = p0 + dm * du, q0 + dm * dv
                    ap, aq = abs(p), abs(q)
                    if ap + a > cap or aq + b > cap or ap + aq > bound:
                        s, sums = max(ap + a, aq + b), _paired(e, k, h, p, q)
                        if s > bound or ap + aq > bound:
                            s = _s_num(sums, _D3)
                        if s > floor:
                            yield base + j + 1, (_FLIP, f, i, j), sums, s
                base += n
        # A source step i -> j trades context (a, b)'s term m_a(i1) m_{2+b}(i2)
        # for m_a(j1) m_{2+b}(j2).  tp and tq hold the sum and the difference
        # of contexts (0, 1)'s terms, tr and tt those of (2, 3)'s.
        m0, m1, n0, n1 = self.means
        ns, nd = [x + y for x, y in zip(n0, n1)], [x - y for x, y in zip(n0, n1)]
        tp, tq = [x * y for x in m0 for y in ns], [x * y for x in m0 for y in nd]
        tr, tt = [x * y for x in m1 for y in ns], [x * y for x in m1 for y in nd]
        e0, e1, e2, e3 = e
        n = len(self.source)
        for i, w in enumerate(self.source):
            if w:
                p0, q0, r0, t0 = e0 + e1 - tp[i], e0 - e1 - tq[i], e2 + e3 - tr[i], e2 - e3 - tt[i]
                # Near the limit, only the row's first `stop` targets j != i.
                stop = limit - base
                for j in range(n if stop >= n - 1 else stop + (stop > i)):
                    if j == i:
                        continue
                    p, q, r, t = p0 + tp[j], q0 + tq[j], r0 + tr[j], t0 + tt[j]
                    ap, aq, ar, at = abs(p), abs(q), abs(r), abs(t)
                    if ap + at > cap or aq + ar > cap or ap + aq > bound or ar + at > bound:
                        s, sums = max(ap + at, aq + ar), ((p + q) // 2, (p - q) // 2,
                                                          (r + t) // 2, (r - t) // 2)
                        if s > bound or ap + aq > bound or ar + at > bound:
                            s = _s_num(sums, _D3)
                        if s > floor:
                            yield base + j + (j < i), (_SOURCE, None, i, j), sums, s
                base += n - 1
        for f, (pmf, table, (k, h, a, b, p0, q0, u, v)) in enumerate(zip(pmfs, tables, reads)):
            # A step i -> j changes m_f(l) by R_f(l, j) - R_f(l, i), so p by
            # cp[j] - cp[i], cp[c] the table's column c dotted with u + v, and
            # q likewise with u - v.
            n = len(pmf)
            cp, cq = [0] * n, [0] * n
            for row, x, y in zip(table, u, v):
                for c in range(n):
                    cp[c] += row[c] * (x + y)
                    cq[c] += row[c] * (x - y)
            for i, w in enumerate(pmf):
                if w:
                    pi, qi = p0 - cp[i], q0 - cq[i]
                    stop = limit - base
                    for j in range(n if stop >= n - 1 else stop + (stop > i)):
                        if j == i:
                            continue
                        p, q = pi + cp[j], qi + cq[j]
                        ap, aq = abs(p), abs(q)
                        if ap + a > cap or aq + b > cap or ap + aq > bound:
                            s, sums = max(ap + a, aq + b), _paired(e, k, h, p, q)
                            if s > bound or ap + aq > bound:
                                s = _s_num(sums, _D3)
                            if s > floor:
                                yield base + j + (j < i), (_MASS, f, i, j), sums, s
                    base += n - 1
        yield min(base, limit), None, None, None

    def apply(self, move, sums) -> _IntegerState:
        """The neighbour by `move`, with ``e`` = `sums` as `improving`
        yields them: one weight unit shifted or one entry flipped.

        Only the other sums the move changes are updated, each by its few
        products; every other tuple is shared with this state.
        """
        kind, f, i, j = move
        cols, source, pmfs, tables = self.cols, self.source, self.pmfs, self.tables
        means, by_row, by_col = self.means, self.by_row, self.by_col
        if kind == _SOURCE:
            # S(i1, i2) loses one unit and S(j1, j2) gains it.
            (i1, i2), (j1, j2) = divmod(i, cols), divmod(j, cols)
            source = _shifted(source, i, j)
            rows, columns = [list(w) for w in by_row], [list(w) for w in by_col]
            for w, m in zip(rows, means[2:]):
                w[i1] -= m[i2]
                w[j1] += m[j2]
            for w, m in zip(columns, means[:2]):
                w[i2] -= m[i1]
                w[j2] += m[j1]
            by_row, by_col = tuple(map(tuple, rows)), tuple(map(tuple, columns))
        else:
            if kind == _FLIP:
                r = tables[f][i][j]
                changes = ((i, -2 * pmfs[f][j] * r),)
                row = _replaced(tables[f][i], j, -r)
                tables = _replaced(tables, f, _replaced(tables[f], i, row))
            else:
                changes = [
                    (l, row[j] - row[i]) for l, row in enumerate(tables[f]) if row[j] != row[i]
                ]
                pmfs = _replaced(pmfs, f, _shifted(pmfs[f], i, j))
            m = list(means[f])
            fed = by_col[f] if f < 2 else by_row[f - 2]
            for l, dm in changes:
                m[l] += dm
                # Alice's m_f(l) feeds by_col through source row l, Bob's feeds
                # by_row through source column l.
                line = source[l * cols:(l + 1) * cols] if f < 2 else source[l::cols]
                fed = [x + s * dm for x, s in zip(fed, line)]
            means = _replaced(means, f, tuple(m))
            if f < 2:
                by_col = _replaced(by_col, f, tuple(fed))
            else:
                by_row = _replaced(by_row, f - 2, tuple(fed))
        new = _IntegerState.__new__(_IntegerState)
        new.cols, new.source, new.pmfs, new.tables = cols, source, pmfs, tables
        new.means, new.by_row, new.by_col, new.e = means, by_row, by_col, sums
        return new


def _walk(spec: SearchSpec) -> SearchResult:
    """Random sampling and hill climbing: one first-improvement walk with
    random restarts, within budget.

    The walk starts from a drawn state.  Hill climbing scans its moves
    (one table entry flipped, or one 1/DEFAULT_MAX_DENOMINATOR mass step)
    and takes the first strict increase, which updates the state's kept
    sums in place of a rebuild; random sampling opens no scan.  When no
    move improves, the walk restarts from a fresh draw.  The budget counts
    score evaluations, starts and restarts included: a scan, limited to
    the budget left, adds the position of the move it yields or the number
    it scored, so the walk ends after exactly `spec.budget` of them.  The
    first achiever of the best score is kept.

    A shape of more than `DEFAULT_CELL_LIMIT` cells raises
    `SizeExceededError` before the first draw.  Scores stay numerators
    over d^3 until the result is built.  A new best keeps its state, which
    no later step mutates, and one model is built, for the winner.  Moves
    keep each pmf's sum and non-negativity and flips keep outcomes in
    {-1, +1}, so nothing is validated.
    """
    cells = math.prod(spec.cardinalities)
    if cells > DEFAULT_CELL_LIMIT:
        raise SizeExceededError(cells, DEFAULT_CELL_LIMIT)
    rng, budget = random.Random(spec.seed), spec.budget
    hill = spec.mode is SearchMode.HILL_CLIMB
    state = _IntegerState.draw(spec, rng)
    current = best = state.score()
    best_state, improvements, evaluated = state, [(1, best)], 1
    while evaluated < budget:
        move = None
        if hill:
            position, move, sums, score = next(state.improving(current, budget - evaluated))
            evaluated += position
        if move is not None:
            state, current = state.apply(move, sums), score
        elif evaluated < budget:
            state = _IntegerState.draw(spec, rng)
            current = state.score()
            evaluated += 1
        if current > best:
            best, best_state = current, state
            improvements.append((evaluated, best))
    return SearchResult(best_state.model(), Fraction(best, _D3), spec.budget,
                        tuple((k, Fraction(s, _D3)) for k, s in improvements), RNG_ALGORITHM)


def run_search(spec: SearchSpec) -> SearchResult:
    """The one entry point: the vertex argument for exhaustive mode, else
    the walk, which random sampling takes without moves."""
    if spec.mode is SearchMode.EXHAUSTIVE:
        return _enumerate_deterministic(spec)
    return _walk(spec)
