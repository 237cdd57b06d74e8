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
integer.  Draws are made straight into integer states.  A hill-climb
candidate is a move (a table flip or a 1/d mass step) scored from the few
products it changes; it is applied to the state only when accepted, and
in either mode a model is built only for a new best.  Candidates are
never validated: draws and moves yield valid models by construction,
and the tests compare each move's model and score with a neighbour built
as a model and scored through the dedicated route.  The CLI certifies
the winner through `certify_lhv_bound`, which validates it, and refuses
a winner whose certified s_max differs from the search's score.

Exhaustive search answers its question without a sweep.  The correlations
of a contextual LHV model are a mixture of those of the 16 deterministic
strategies, one fixed outcome per setting (Fine, PRL 48, 291, 1982).
These are the vertices of the local polytope, and |S| is convex in the
correlations, so its maximum over every table assignment of any shape is
the maximum over the 16 vertices.  The mode scores the 16 vertices and the
first and last assignment of the requested shape through `_s_max`, the
validated dedicated route; each assignment must reach the vertex maximum.
``evaluated`` counts the assignments this argument covers, so the
assignment limit still bounds the shapes the mode accepts.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from fractions import Fraction

from .chsh import BoundViolationError, chsh_from_correlations
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

DEFAULT_ASSIGNMENT_LIMIT = 2**24
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
    assignment_limit: int = DEFAULT_ASSIGNMENT_LIMIT

    def __post_init__(self):
        if len(self.cardinalities) != 6 or any(c < 1 for c in self.cardinalities):
            raise ValueError(f"cardinalities must be six counts >= 1, got {self.cardinalities}")
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        if self.assignment_limit < 1:
            raise ValueError(f"limit must be >= 1, got {self.assignment_limit}")
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


def _table_shapes(cardinalities) -> tuple[tuple[str, str, int, int], ...]:
    s1, s2, la0, la1, lb0, lb1 = cardinalities
    return (
        ("alice", DEFAULT_ALICE_LABELS[0], s1, la0),
        ("alice", DEFAULT_ALICE_LABELS[1], s1, la1),
        ("bob", DEFAULT_BOB_LABELS[0], s2, lb0),
        ("bob", DEFAULT_BOB_LABELS[1], s2, lb1),
    )


def _table_bits(cardinalities) -> int:
    """Table entries of a shape: one bit each in an assignment index."""
    return sum(rows * cols for _, _, rows, cols in _table_shapes(cardinalities))


def decode_assignment(cardinalities, assignment: int) -> ContextualModel:
    """Model for one enumeration index: uniform pmfs, tables from the bits.

    Bit k (ascending) drives flat entry k, in table order Alice first
    setting, Alice second, Bob first, Bob second, each row-major; a set
    bit means -1.
    """
    s1, s2 = cardinalities[0], cardinalities[1]
    source = JointPmf(tuple(tuple(Fraction(1, s1 * s2) for _ in range(s2)) for _ in range(s1)))
    sides: dict[str, dict[str, LocalSetting]] = {"alice": {}, "bob": {}}
    offset = 0
    for side, label, rows, cols in _table_shapes(cardinalities):
        values = tuple(
            tuple(
                -1 if assignment >> (offset + r * cols + c) & 1 else 1
                for c in range(cols)
            )
            for r in range(rows)
        )
        offset += rows * cols
        sides[side][label] = LocalSetting((Fraction(1, cols),) * cols, values)
    return ContextualModel(source=source, alice=sides["alice"], bob=sides["bob"])


def _s_max(model: ContextualModel) -> Fraction:
    """s_max of `model` through the validated dedicated route.  A score
    above 2 raises `BoundViolationError`, as `certify_lhv_bound` does."""
    report = chsh_from_correlations(correlation_set(model))
    if not report.bound_satisfied:
        raise BoundViolationError(
            f"valid model reached s_max = {format_rational(report.s_max)} > 2"
        )
    return report.s_max


def _enumerate_deterministic(spec: SearchSpec) -> SearchResult:
    """Exact maximum of |S| over every table assignment, by the vertex argument.

    An assignment's correlations are a mixture of those of the 16
    deterministic strategies, which ``decode_assignment`` gives at shape
    ``(1, 1, 1, 1, 1, 1)`` for indices 0..15.  The CHSH sums are linear in
    the correlations, so no assignment exceeds the strategies' maximum.
    Index 0 (all +1) and index ``total - 1`` (all -1) must reach that
    maximum, so index 0 is the only strict improvement in index order, and
    all -1, the smallest canonical serialization, wins.  All 18 models are
    scored by `_s_max`.  Raises `BoundViolationError` if an assignment
    misses the maximum or any score exceeds 2.  ``evaluated`` is the number
    of assignments covered.
    """
    # 2^bits > limit exactly when bits >= limit.bit_length(); checked on the
    # bit count, so a huge shape never builds 2^bits.
    bits = _table_bits(spec.cardinalities)
    if bits >= spec.assignment_limit.bit_length():
        raise SearchLimitError(bits, spec.assignment_limit)
    total = 1 << bits

    vertex_max = max(_s_max(decode_assignment((1, 1, 1, 1, 1, 1), m)) for m in range(16))
    first = _s_max(decode_assignment(spec.cardinalities, 0))
    best_model = decode_assignment(spec.cardinalities, total - 1)
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
    DEFAULT_BOB_LABELS.  Only the constructor derives ``means[f][l]`` =
    sum_k p_f(k) R_f(l, k), setting f's mean outcome at source share l,
    over d.  Context (a, b) reads factors a and 2 + b; its correlation
    numerator over d^3 is ``e[2a + b]`` =
    sum_{l1, l2} S(l1, l2) m_a(l1) m_{2+b}(l2).
    ``reads[f]`` pairs each context reading factor f with the vector that a
    change of m_f multiplies, so a move changes ``e`` by a few products.
    """

    __slots__ = ("cols", "source", "pmfs", "tables", "means", "e", "reads")

    def __init__(self, cols, source, pmfs, tables):
        self.cols, self.source, self.pmfs, self.tables = cols, source, pmfs, tables
        self.means = means = tuple(
            tuple(sum(p * t for p, t in zip(pmf, row)) for row in table)
            for pmf, table in zip(pmfs, tables)
        )
        grid = [source[r:r + cols] for r in range(0, len(source), cols)]
        # by_row[b][l1] = sum_l2 S(l1, l2) m_{2+b}(l2); by_col[a][l2] likewise.
        by_row = [
            tuple(sum(s * m for s, m in zip(row, means[f])) for row in grid) for f in (2, 3)
        ]
        by_col = [
            tuple(sum(row[c] * m for row, m in zip(grid, means[f])) for c in range(cols))
            for f in (0, 1)
        ]
        self.reads = (
            ((0, by_row[0]), (1, by_row[1])),
            ((2, by_row[0]), (3, by_row[1])),
            ((0, by_col[0]), (2, by_col[1])),
            ((1, by_col[0]), (3, by_col[1])),
        )
        self.e = tuple(
            sum(m * w for m, w in zip(means[a], by_row[b])) for a in (0, 1) for b in (0, 1)
        )

    @classmethod
    def draw(cls, spec: SearchSpec, rng: random.Random) -> _IntegerState:
        """A random state of `spec`'s shape.

        Draw order is part of the reproducibility contract: source weights
        first, then per Alice setting its pmf then its table entries
        row-major, then Bob the same way.
        """
        source = _random_pmf(spec.cardinalities[0] * spec.cardinalities[1], rng)
        pmfs, tables = [], []
        for _, _, rows, cols in _table_shapes(spec.cardinalities):
            pmfs.append(_random_pmf(cols, rng))
            tables.append(tuple(
                tuple(1 - 2 * rng.getrandbits(1) for _ in range(cols)) for _ in range(rows)
            ))
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

    def moves(self):
        """Every neighbour's move in the fixed scan order: single table flips
        (Alice's settings in declared order then Bob's, row-major), then
        1/d mass moves (source flat, then each local pmf, ordered index
        pairs (i, j), i != j, where weight i is not zero)."""
        for f, table in enumerate(self.tables):
            for r, row in enumerate(table):
                for c in range(len(row)):
                    yield (_FLIP, f, r, c)
        pmfs = ((_SOURCE, None, self.source), *((_MASS, f, p) for f, p in enumerate(self.pmfs)))
        for kind, f, weights in pmfs:
            for i, w in enumerate(weights):
                if w:
                    for j in range(len(weights)):
                        if j != i:
                            yield (kind, f, i, j)

    def score(self, move=None) -> int:
        """s_max numerator over d^3 of this model, or of its neighbour by `move`."""
        if move is None:
            return _s_num(self.e, _D3)
        kind, f, i, j = move
        e = list(self.e)
        if kind == _SOURCE:
            (i1, i2), (j1, j2), m = divmod(i, self.cols), divmod(j, self.cols), self.means
            for a in (0, 1):
                for b in (0, 1):
                    e[2 * a + b] += m[a][j1] * m[2 + b][j2] - m[a][i1] * m[2 + b][i2]
        elif kind == _FLIP:
            # m_f(i) changes by -2 p_f(j) R_f(i, j).
            delta = -2 * self.pmfs[f][j] * self.tables[f][i][j]
            for k, weights in self.reads[f]:
                e[k] += delta * weights[i]
        else:
            changes = [row[j] - row[i] for row in self.tables[f]]
            for k, weights in self.reads[f]:
                e[k] += sum(dm * w for dm, w in zip(changes, weights))
        return _s_num(e, _D3)

    def apply(self, move) -> _IntegerState:
        """The neighbour by `move`: one weight unit shifted or one entry flipped."""
        kind, f, i, j = move
        source, pmfs, tables = self.source, list(self.pmfs), list(self.tables)
        if kind == _SOURCE:
            source = _shifted(source, i, j)
        elif kind == _MASS:
            pmfs[f] = _shifted(pmfs[f], i, j)
        else:
            rows = [list(row) for row in tables[f]]
            rows[i][j] = -rows[i][j]
            tables[f] = tuple(map(tuple, rows))
        return _IntegerState(self.cols, source, tuple(pmfs), tuple(tables))


def _walk(spec: SearchSpec) -> SearchResult:
    """Random sampling and hill climbing: one first-improvement walk with
    random restarts, within budget.

    The walk starts from a drawn state.  Hill climbing scans its moves
    (one table entry flipped, or one 1/DEFAULT_MAX_DENOMINATOR mass step
    between two pmf weights) and takes the first strict increase; random
    sampling has no moves.  When no move improves, the walk restarts from
    a fresh draw.  The budget counts score evaluations, starts and
    restarts included, and each pass of the loop is one evaluation, so the
    walk ends after exactly `spec.budget` of them; the first achiever of
    the best score is kept.

    Scores compare as integers over d^3 and stay numerators until the
    result is built; a model is built only for a new best.  Moves keep each
    pmf's sum and non-negativity and flips keep outcomes in {-1, +1}, so
    nothing is validated.
    """
    rng = random.Random(spec.seed)
    moves = _IntegerState.moves if spec.mode is SearchMode.HILL_CLIMB else lambda state: iter(())
    state = _IntegerState.draw(spec, rng)
    current = best = state.score()
    best_model, improvements, scan = state.model(), [(1, best)], moves(state)
    for evaluated in range(2, spec.budget + 1):
        move = next(scan, None)
        if move is None:
            state = _IntegerState.draw(spec, rng)
            current = state.score()
        else:
            score = state.score(move)
            if score <= current:
                continue
            state, current = state.apply(move), score
        scan = moves(state)
        if current > best:
            best, best_model = current, state.model()
            improvements.append((evaluated, best))
    return SearchResult(best_model, Fraction(best, _D3), spec.budget,
                        tuple((k, Fraction(s, _D3)) for k, s in improvements), RNG_ALGORITHM)


def run_search(spec: SearchSpec) -> SearchResult:
    """The one entry point: the vertex argument for exhaustive mode, else
    the walk, which random sampling takes without moves."""
    if spec.mode is SearchMode.EXHAUSTIVE:
        return _enumerate_deterministic(spec)
    return _walk(spec)
