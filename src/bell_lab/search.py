"""Strategy-space search: exhaustive, random sampling, and hill climbing.

Random sampling and hill climbing score each candidate with the exact
dedicated-route correlations and the eight-pattern report, so large
campaigns double as adversarial tests of the bound: any model scoring
above 2 would be an engine bug, surfaced loudly.  Candidates are never
validated: `random_model` and the hill-climb moves (`_neighbors`) build
valid models by construction, and the tests check every model they yield.
The CLI certifies the winner through `certify_lhv_bound`, which validates
it.

Exhaustive search answers its question without a sweep.  The correlations
of a contextual LHV model are a mixture of those of the 16 deterministic
strategies, one fixed outcome per setting (Fine, PRL 48, 291, 1982).
These are the vertices of the local polytope, and |S| is convex in the
correlations, so its maximum over every table assignment of any shape is
the maximum over the 16 vertices.  The mode certifies each vertex through
`certify_lhv_bound` and scores the first and last assignment of the
requested shape through the dedicated route; each must reach the vertex
maximum.  ``evaluated`` counts the assignments this argument covers, so
the assignment limit still bounds the shapes the mode accepts.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, replace
from fractions import Fraction

from .chsh import BoundViolationError, certify_lhv_bound, chsh_from_correlations
from .exact import _unchecked_correlation_set
from .models import (
    DEFAULT_ALICE_LABELS,
    DEFAULT_BOB_LABELS,
    ContextualModel,
    JointPmf,
    LocalSetting,
    Pmf,
    ResponseTable,
)

RNG_ALGORITHM = "python-random-mt19937"

DEFAULT_ASSIGNMENT_LIMIT = 2**24
DEFAULT_MAX_DENOMINATOR = 64


class SearchLimitError(RuntimeError):
    """Exhaustive enumeration would exceed the assignment limit."""

    def __init__(self, count: int, limit: int):
        self.count = count
        self.limit = limit
        # A power of two; past 2^64 shown as 2^k, as str() refuses 4300+ digits.
        shown = f"2^{count.bit_length() - 1}" if count > 1 << 64 else count
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


def assignment_count(cardinalities) -> int:
    bits = sum(rows * cols for _, _, rows, cols in _table_shapes(cardinalities))
    return 1 << bits


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
        sides[side][label] = LocalSetting(
            pmf=Pmf(tuple(Fraction(1, cols) for _ in range(cols))),
            table=ResponseTable(side=side, setting=label, values=values),
        )
    return ContextualModel(source=source, alice=sides["alice"], bob=sides["bob"])


def enumerate_deterministic(spec: SearchSpec) -> SearchResult:
    """Exact maximum of |S| over every table assignment, by the vertex argument.

    An assignment's correlations are a mixture of those of the 16
    deterministic strategies, which ``decode_assignment`` gives at shape
    ``(1, 1, 1, 1, 1, 1)`` for indices 0..15.  The CHSH sums are linear in
    the correlations, so no assignment exceeds the strategies' maximum; each
    strategy is certified through `certify_lhv_bound`.  Index 0 (all +1)
    and index ``total - 1`` (all -1) are scored through the dedicated route
    and must reach that maximum, so index 0 is the only strict improvement
    in index order, and all -1, the smallest canonical serialization, wins.
    Raises `BoundViolationError` otherwise.  ``evaluated`` is the number of
    assignments covered.
    """
    if spec.mode is not SearchMode.EXHAUSTIVE:
        raise ValueError(f"mode {spec.mode.value} is not exhaustive")
    total = assignment_count(spec.cardinalities)
    if total > spec.assignment_limit:
        raise SearchLimitError(total, spec.assignment_limit)

    vertex_max = max(
        certify_lhv_bound(decode_assignment((1, 1, 1, 1, 1, 1), m)).report.s_max
        for m in range(16)
    )
    first = _score(decode_assignment(spec.cardinalities, 0))
    best_model = decode_assignment(spec.cardinalities, total - 1)
    for index, s in ((0, first), (total - 1, _score(best_model))):
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


def _random_pmf(size: int, denominator: int, rng: random.Random) -> tuple[Fraction, ...]:
    """Uniformly cut [0, D] at size-1 integer points; widths are the weights.

    Zero weights are possible and legal (zero-width support points).
    """
    cuts = sorted(rng.randint(0, denominator) for _ in range(size - 1))
    bounds = [0, *cuts, denominator]
    return tuple(Fraction(hi - lo, denominator) for lo, hi in zip(bounds, bounds[1:]))


def random_model(spec: SearchSpec, rng: random.Random) -> ContextualModel:
    """Draw a valid model: cut-point pmfs with bounded denominators, coin tables.

    Draw order is part of the reproducibility contract: source weights
    first, then per Alice setting its pmf then its table entries
    row-major, then Bob the same way.
    """
    s1, s2 = spec.cardinalities[0], spec.cardinalities[1]
    flat = _random_pmf(s1 * s2, DEFAULT_MAX_DENOMINATOR, rng)
    source = JointPmf(tuple(flat[r * s2:(r + 1) * s2] for r in range(s1)))
    sides: dict[str, dict[str, LocalSetting]] = {"alice": {}, "bob": {}}
    for side, label, rows, cols in _table_shapes(spec.cardinalities):
        weights = _random_pmf(cols, DEFAULT_MAX_DENOMINATOR, rng)
        values = tuple(
            tuple(1 - 2 * rng.getrandbits(1) for _ in range(cols)) for _ in range(rows)
        )
        sides[side][label] = LocalSetting(
            pmf=Pmf(weights),
            table=ResponseTable(side=side, setting=label, values=values),
        )
    return ContextualModel(source=source, alice=sides["alice"], bob=sides["bob"])


def _score(model: ContextualModel) -> Fraction:
    """s_max of a model that is valid by construction; not revalidated."""
    return chsh_from_correlations(_unchecked_correlation_set(model)).s_max


def _with_local(model: ContextualModel, side: str, label: str, local: LocalSetting):
    settings = dict(model.alice if side == "alice" else model.bob)
    settings[label] = local
    return replace(model, **{side: settings})


def _with_table_entry(model: ContextualModel, side: str, label: str, r: int, c: int):
    local = model.local(side, label)
    values = [list(row) for row in local.table.values]
    values[r][c] = -values[r][c]
    table = ResponseTable(side=side, setting=label, values=tuple(map(tuple, values)))
    return _with_local(model, side, label, LocalSetting(pmf=local.pmf, table=table))


def _mass_moves(weights, step: Fraction):
    """Weights with `step` moved from i to j, over ordered pairs i != j
    where weight i holds at least `step`."""
    for i in range(len(weights)):
        if weights[i] < step:
            continue
        for j in range(len(weights)):
            if i != j:
                out = list(weights)
                out[i] -= step
                out[j] += step
                yield tuple(out)


def _pmf_neighbors(model: ContextualModel, step: Fraction):
    rows, cols = model.source.rows, model.source.cols
    for moved in _mass_moves(model.source.flattened(), step):
        source = tuple(moved[r * cols:(r + 1) * cols] for r in range(rows))
        yield replace(model, source=JointPmf(source))
    for side in ("alice", "bob"):
        settings = model.alice if side == "alice" else model.bob
        for label, local in settings.items():
            for moved in _mass_moves(local.pmf.weights, step):
                moved_local = LocalSetting(pmf=Pmf(moved), table=local.table)
                yield _with_local(model, side, label, moved_local)


def _neighbors(model: ContextualModel, step: Fraction):
    """Fixed scan order: single table flips (Alice's settings in declared
    order then Bob's, row-major), then single-step pmf mass moves
    (source flat, then each local pmf, ordered index pairs)."""
    for side in ("alice", "bob"):
        settings = model.alice if side == "alice" else model.bob
        for label, local in settings.items():
            for r in range(local.table.rows):
                for c in range(local.table.cols):
                    yield _with_table_entry(model, side, label, r, c)
    yield from _pmf_neighbors(model, step)


def hill_climb(spec: SearchSpec) -> SearchResult:
    """First-improvement local search with random restarts within budget.

    Moves: one table entry flipped, or one 1/DEFAULT_MAX_DENOMINATOR mass step
    between two pmf weights.  Only strict score increases are accepted;
    at a local maximum the walk restarts from a fresh random model.  The
    budget counts score evaluations, including starts and restarts.

    The seeded start, every neighbour and every restart are valid by
    construction (moves keep each pmf's sum and non-negativity, flips keep
    outcomes in {-1, +1}), so candidates are scored without validation.
    """
    if spec.mode is not SearchMode.HILL_CLIMB:
        raise ValueError(f"mode {spec.mode.value} is not hill-climb")
    rng = random.Random(spec.seed)
    step = Fraction(1, DEFAULT_MAX_DENOMINATOR)
    current = random_model(spec, rng)
    current_score = _score(current)
    evaluated = 1
    best_model, best_score = current, current_score
    improvements = [(1, current_score)]

    while evaluated < spec.budget:
        advanced = False
        for candidate in _neighbors(current, step):
            score = _score(candidate)
            evaluated += 1
            if score > current_score:
                current, current_score = candidate, score
                if score > best_score:
                    best_model, best_score = candidate, score
                    improvements.append((evaluated, score))
                advanced = True
                break
            if evaluated >= spec.budget:
                break
        if not advanced and evaluated < spec.budget:
            current = random_model(spec, rng)
            current_score = _score(current)
            evaluated += 1
            if current_score > best_score:
                best_model, best_score = current, current_score
                improvements.append((evaluated, current_score))
    return SearchResult(
        best_model=best_model,
        best_s_max=best_score,
        evaluated=evaluated,
        improvements=tuple(improvements),
        rng_algorithm=RNG_ALGORITHM,
    )


def random_sampling(spec: SearchSpec) -> SearchResult:
    """Independent draws from the model generator; best score wins, first
    achiever kept on ties."""
    if spec.mode is not SearchMode.RANDOM:
        raise ValueError(f"mode {spec.mode.value} is not random")
    rng = random.Random(spec.seed)
    best_model = None
    best_score = None
    improvements = []
    for k in range(1, spec.budget + 1):
        model = random_model(spec, rng)
        score = _score(model)
        if best_score is None or score > best_score:
            best_model, best_score = model, score
            improvements.append((k, score))
    return SearchResult(
        best_model=best_model,
        best_s_max=best_score,
        evaluated=spec.budget,
        improvements=tuple(improvements),
        rng_algorithm=RNG_ALGORITHM,
    )


def run_search(spec: SearchSpec) -> SearchResult:
    if spec.mode is SearchMode.EXHAUSTIVE:
        return enumerate_deterministic(spec)
    if spec.mode is SearchMode.RANDOM:
        return random_sampling(spec)
    return hill_climb(spec)
