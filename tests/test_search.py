import itertools
import json
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import bell_lab.models as models_module
import bell_lab.search as search_module
import oracles
from bell_lab import cli
from bell_lab.chsh import (
    DEFAULT_CELL_LIMIT,
    BoundViolationError,
    SizeExceededError,
    chsh_from_correlations,
)
from bell_lab.exact import correlation_set
from bell_lab.models import model_from_dict, validate_model
from bell_lab.search import (
    DEFAULT_MAX_DENOMINATOR,
    RNG_ALGORITHM,
    SearchLimitError,
    SearchMode,
    SearchSpec,
    random_model,
    run_search,
)
from oracles import decode_assignment
from tests_support import counting

TINY = (1, 1, 1, 1, 1, 1)
SMALL = (2, 2, 1, 1, 1, 1)


def exact_s_max(model):
    return chsh_from_correlations(correlation_set(model)).s_max


class TestSpec:
    def test_rejects_bad_cardinalities(self):
        with pytest.raises(ValueError):
            SearchSpec(cardinalities=(0, 1, 1, 1, 1, 1), mode=SearchMode.RANDOM)
        with pytest.raises(ValueError):
            SearchSpec(cardinalities=(1, 1, 1), mode=SearchMode.RANDOM)

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            SearchSpec(cardinalities=TINY, mode=SearchMode.RANDOM, budget=0)

    @pytest.mark.parametrize("mode", list(SearchMode))
    def test_mode_value_runs_that_mode(self, mode):
        by_value = SearchSpec((2,) * 6, mode.value, seed=0, budget=200)
        assert by_value.mode is mode
        assert run_search(by_value) == run_search(SearchSpec((2,) * 6, mode, seed=0, budget=200))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            SearchSpec(cardinalities=TINY, mode="annealing")


class TestDecode:
    def test_counts(self):
        # An exhaustive search covers one assignment per bit pattern.
        for cards, count in ((TINY, 16), (SMALL, 256), ((2, 2, 2, 2, 2, 2), 2**16)):
            assert oracles.assignment_count(cards) == count
            spec = SearchSpec(cardinalities=cards, mode=SearchMode.EXHAUSTIVE)
            assert run_search(spec).evaluated == count

    def test_zero_is_all_plus_one(self):
        model = decode_assignment(TINY, 0)
        assert validate_model(model) == []
        for side in (model.alice, model.bob):
            for local in side.values():
                assert all(v == 1 for row in local.table for v in row)

    def test_bits_map_to_flat_entries(self):
        model = decode_assignment(TINY, 0b0101)
        entries = [
            model.alice["x"].table[0][0],
            model.alice["x'"].table[0][0],
            model.bob["y"].table[0][0],
            model.bob["y'"].table[0][0],
        ]
        assert entries == [-1, 1, -1, 1]

    def test_uniform_pmfs(self):
        model = decode_assignment((2, 2, 2, 2, 2, 2), 12345)
        assert validate_model(model) == []
        flat = model.source.flattened()
        assert all(w == Fraction(1, 4) for w in flat)



class TestEnumeration:
    def test_tiny_full_sweep(self):
        result = run_search(
            SearchSpec(cardinalities=TINY, mode=SearchMode.EXHAUSTIVE)
        )
        assert result.evaluated == 16
        assert result.best_s_max == 2
        assert result.rng_algorithm is None
        assert exact_s_max(result.best_model) == 2

    def test_small_full_sweep(self):
        result = run_search(
            SearchSpec(cardinalities=SMALL, mode=SearchMode.EXHAUSTIVE)
        )
        assert result.evaluated == 256
        assert result.best_s_max == 2

    def test_limit_guard(self):
        spec = SearchSpec(cardinalities=(5, 5, 2, 1, 1, 1), mode=SearchMode.EXHAUSTIVE)
        with pytest.raises(SearchLimitError) as err:
            run_search(spec)
        assert (err.value.bits, err.value.limit) == (25, 2**24)  # 2^25 > 2^24

    def test_default_limit_sweep_completes(self):
        # The largest shape the fixed guard accepts: exactly 2^24 assignments.
        spec = SearchSpec(cardinalities=(3, 3, 2, 2, 2, 2), mode=SearchMode.EXHAUSTIVE)
        assert oracles.assignment_count(spec.cardinalities) == 2**24
        result = run_search(spec)
        assert result.best_s_max == 2
        assert result.evaluated == 2**24

    def test_improvements_strictly_increase(self):
        result = run_search(
            SearchSpec(cardinalities=SMALL, mode=SearchMode.EXHAUSTIVE)
        )
        scores = [s for _, s in result.improvements]
        assert scores == sorted(set(scores))


def strategy(model):
    """The four outcomes (x, x', y, y') of a model with one entry per table."""
    assert shape(model) == TINY
    return tuple(
        local.table[0][0] for side in (model.alice, model.bob) for local in side.values()
    )


PR_BOX = (Fraction(1), Fraction(1), Fraction(1), Fraction(-1))


def inflate_vertex(monkeypatch, indices):
    """Make the search's correlation calls numbered in `indices` return the
    PR-box correlations, whose s_max is 4."""
    real = search_module.correlation_set
    calls = []

    def inflated(model):
        correlations = real(model)
        calls.append(model)
        return PR_BOX if len(calls) - 1 in indices else correlations

    monkeypatch.setattr(search_module, "correlation_set", inflated)


class TestVertexCertification:
    @pytest.mark.parametrize("cards", [(2, 2, 2, 2, 2, 2), (3, 3, 2, 2, 2, 2)])
    def test_certifies_each_strategy_and_scores_two_assignments(self, monkeypatch, cards):
        scored = counting(monkeypatch, search_module, "_s_max")
        result = run_search(
            SearchSpec(cardinalities=cards, mode=SearchMode.EXHAUSTIVE)
        )
        assert len(scored) == 18
        assert {strategy(model) for (model,) in scored[:16]} == set(
            itertools.product((1, -1), repeat=4)
        )
        total = oracles.assignment_count(cards)
        assert scored[16:] == [
            (decode_assignment(cards, 0),), (decode_assignment(cards, total - 1),)
        ]
        assert result.best_s_max == 2
        assert result.evaluated == total

    @pytest.mark.parametrize("index", [0, 15])
    def test_vertex_above_two_raises(self, monkeypatch, index):
        inflate_vertex(monkeypatch, {index})
        with pytest.raises(BoundViolationError):
            run_search(
                SearchSpec(cardinalities=SMALL, mode=SearchMode.EXHAUSTIVE)
            )

    def test_every_score_above_two_raises_from_s_max(self, monkeypatch):
        # All 18 scores equal, so only `_s_max`'s own bound check can raise.
        inflate_vertex(monkeypatch, range(18))
        with pytest.raises(BoundViolationError, match=r"^valid model reached s_max = 4 > 2$"):
            run_search(
                SearchSpec(cardinalities=SMALL, mode=SearchMode.EXHAUSTIVE)
            )

    def test_vertex_above_two_exits_one(self, monkeypatch, capsys):
        inflate_vertex(monkeypatch, {5})
        assert cli.main(["search", "--cardinalities", "2,2,2,2,2,1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1


def assert_matches_oracle(cards):
    result = run_search(
        SearchSpec(cardinalities=cards, mode=SearchMode.EXHAUSTIVE)
    )
    best_model, best_s_max, improvements, evaluated = oracles.exhaustive_oracle(cards)
    assert result.best_model == best_model
    assert result.best_s_max == best_s_max
    assert result.improvements == improvements
    assert result.evaluated == evaluated


class TestExhaustiveOracle:
    @pytest.mark.parametrize(
        "cards",
        [
            TINY,
            SMALL,
            (1, 2, 1, 1, 1, 1),
            (1, 1, 2, 1, 3, 1),
            (2, 1, 2, 1, 1, 2),
            (1, 1, 3, 2, 1, 4),
            (3, 1, 2, 1, 1, 3),
            (2, 2, 2, 2, 2, 1),
        ],
    )
    def test_matches_full_scan(self, cards):
        assert_matches_oracle(cards)

    @settings(max_examples=20, deadline=None)
    @given(
        st.tuples(*(st.integers(1, 3) for _ in range(6))).filter(
            lambda cards: oracles.assignment_count(cards) <= 2**10
        )
    )
    def test_matches_full_scan_on_small_shapes(self, cards):
        assert_matches_oracle(cards)


class TestRandomModel:
    def test_same_seed_same_model(self):
        spec = SearchSpec(cardinalities=(2, 3, 1, 4, 2, 2), mode=SearchMode.RANDOM)
        first = random_model(spec, random.Random(99))
        second = random_model(spec, random.Random(99))
        assert first == second

    def test_different_seed_differs(self):
        spec = SearchSpec(cardinalities=(2, 3, 1, 4, 2, 2), mode=SearchMode.RANDOM)
        assert random_model(spec, random.Random(1)) != random_model(
            spec, random.Random(2)
        )

    def test_always_valid_with_bounded_denominators(self):
        rng = random.Random(5)
        spec = SearchSpec(cardinalities=(3, 2, 4, 1, 2, 3), mode=SearchMode.RANDOM)
        for _ in range(50):
            model = random_model(spec, rng)
            assert validate_model(model) == []
            weights = list(model.source.flattened())
            for side in (model.alice, model.bob):
                for local in side.values():
                    weights.extend(local.weights)
            assert all(w.denominator <= DEFAULT_MAX_DENOMINATOR for w in weights)


class TestStreamPins:
    """The `random.Random` draws behind every search, as literals.  Python
    promises only that `random()` repeats across versions, so a change to
    `randint` or `getrandbits` fails here rather than shifting search bytes."""

    def test_randint_draws(self):
        rng = random.Random(0)
        assert [rng.randint(0, 64) for _ in range(8)] == [
            49, 53, 5, 33, 62, 51, 38, 61
        ]

    def test_getrandbits_draws(self):
        rng = random.Random(0)
        assert [rng.getrandbits(1) for _ in range(16)] == [
            1, 0, 1, 1, 0, 0, 0, 1, 1, 0, 0, 1, 1, 1, 0, 1
        ]

    def test_drawn_state(self):
        spec = SearchSpec(cardinalities=(2, 2, 2, 2, 2, 2), mode=SearchMode.RANDOM)
        state = search_module._IntegerState.draw(spec, random.Random(0))
        assert DEFAULT_MAX_DENOMINATOR == 64
        assert (state.cols, state.source, state.pmfs) == (
            2, (5, 44, 4, 11), ((33, 31), (38, 26), (27, 37), (12, 52))
        )
        assert state.tables == (
            ((-1, -1), (1, 1)),
            ((-1, 1), (1, -1)),
            ((-1, 1), (1, 1)),
            ((-1, -1), (1, -1)),
        )
        assert state.e == (-135808, 88576, -25464, 16608)


class TestHillClimb:
    def test_budget_one_returns_start_evaluation(self):
        spec = SearchSpec(cardinalities=SMALL, mode=SearchMode.HILL_CLIMB, seed=7)
        start = random_model(spec, random.Random(7))
        result = run_search(spec)
        assert result.evaluated == 1
        assert result.best_model == start
        assert result.best_s_max == exact_s_max(start)
        assert result.improvements == ((1, result.best_s_max),)
        assert result.rng_algorithm == RNG_ALGORITHM

    def test_converges_from_singleton(self):
        # The seeded start at the singleton shape is one deterministic strategy.
        spec = SearchSpec(
            cardinalities=(1, 1, 1, 1, 1, 1),
            mode=SearchMode.HILL_CLIMB,
            seed=7,
            budget=200,
        )
        result = run_search(spec)
        assert result.best_s_max == 2
        assert result.evaluated == 200

    def test_deterministic(self):
        spec = SearchSpec(
            cardinalities=(2, 2, 2, 2, 2, 2),
            mode=SearchMode.HILL_CLIMB,
            seed=21,
            budget=400,
        )
        first = run_search(spec)
        second = run_search(spec)
        assert first == second

    def test_respects_budget_and_bound(self):
        spec = SearchSpec(
            cardinalities=(2, 2, 2, 2, 2, 2),
            mode=SearchMode.HILL_CLIMB,
            seed=3,
            budget=150,
        )
        result = run_search(spec)
        assert result.evaluated == 150
        assert result.best_s_max <= 2


NEIGHBOUR_SHAPES = ((1, 1, 1, 1, 1, 1), (2, 2, 2, 2, 2, 2), (3, 2, 3, 2, 2, 3))
STEP = Fraction(1, DEFAULT_MAX_DENOMINATOR)
D3 = DEFAULT_MAX_DENOMINATOR**3


def pmfs(model):
    """Every pmf's weights: the flattened source, then each local pmf."""
    out = [model.source.flattened()]
    for settings_ in (model.alice, model.bob):
        out.extend(local.weights for local in settings_.values())
    return out


def shape(model):
    return (model.source.rows, model.source.cols, *(len(w) for w in pmfs(model)[1:]))


def expected_neighbour_count(model):
    flips = 0
    for settings_ in (model.alice, model.bob):
        flips += sum(len(row) for local in settings_.values() for row in local.table)
    moves = sum((len(w) - 1) * sum(x >= STEP for x in w) for w in pmfs(model))
    return flips + moves


def scanned(state):
    """Every neighbour's (position, move, sums, score), in scan order: a
    floor below every score makes each one an improvement."""
    *candidates, (count, move, _, _) = state.improving(-1, 1 << 62)
    assert move is None
    assert [position for position, *_ in candidates] == list(range(1, count + 1))
    return candidates


def materialised(state):
    """Every neighbour of `state` as a model, in move order."""
    return [state.apply(move, sums).model() for _, move, sums, _ in scanned(state)]


class TestMovesStayValid:
    """Candidates are scored without revalidation, so every move must yield
    a valid model of the same shape."""

    @pytest.mark.parametrize("cards", NEIGHBOUR_SHAPES)
    def test_every_neighbour_is_valid(self, cards):
        rng = random.Random(sum(cards))
        spec = SearchSpec(cardinalities=cards, mode=SearchMode.HILL_CLIMB)
        zero_models = 0
        for _ in range(200):
            state = search_module._IntegerState.draw(spec, rng)
            model = state.model()
            assert validate_model(model) == []
            neighbours = materialised(state)
            assert len(neighbours) == expected_neighbour_count(model)
            for neighbour in neighbours:
                assert validate_model(neighbour) == []
                assert shape(neighbour) == shape(model)
                assert neighbour != model
                zero_models += any(0 in w for w in pmfs(neighbour))
        if cards != (1, 1, 1, 1, 1, 1):
            assert zero_models > 0

    def test_moves_from_zero_weights(self):
        d = DEFAULT_MAX_DENOMINATOR
        table = ((1, -1), (-1, 1))
        state = search_module._IntegerState(
            2, (0, d // 2, d // 2, 0), ((d, 0), (d, 0), (d // 4, 3 * d // 4), (0, d)),
            (table,) * 4,
        )
        model = state.model()
        assert validate_model(model) == []
        neighbours = materialised(state)
        assert neighbours == list(oracles.neighbors_oracle(model, STEP))
        for neighbour in neighbours:
            assert validate_model(neighbour) == []


ORACLE_SHAPES = (
    (1, 1, 1, 1, 1, 1),
    (2, 2, 2, 2, 2, 2),
    (3, 2, 3, 2, 2, 3),
    (4, 4, 3, 3, 2, 2),
    (2, 3, 1, 4, 2, 1),
)
ORACLE_SEEDS = (0, 7, 12345)


def recorded_scores(monkeypatch):
    """Record, in order, each draw's score as ("draw", state, score) and
    each scan the walk opens as ("scan", state, floor, limit, item), item
    the one (position, move, sums, score) the walk reads from it."""
    calls = []
    state_class = search_module._IntegerState
    score, improving = state_class.score, state_class.improving

    def recording_score(self):
        s = score(self)
        calls.append(("draw", self, s))
        return s

    def recording_improving(self, floor, limit):
        for item in improving(self, floor, limit):
            calls.append(("scan", self, floor, limit, item))
            yield item

    monkeypatch.setattr(state_class, "score", recording_score)
    monkeypatch.setattr(state_class, "improving", recording_improving)
    return calls


def counted(calls):
    """The walk's evaluation count after each recorded call: one per draw,
    and a scan's position, where it stopped."""
    return list(itertools.accumulate(1 if kind == "draw" else rest[-1][0] for kind, *rest in calls))


class TestScoresMatchOracle:
    """The integer move scorer against the slow path it replaced: every
    neighbour built as a model and scored through the dedicated route."""

    @pytest.mark.parametrize("cards", ORACLE_SHAPES)
    def test_moves_match_oracle_neighbours(self, cards):
        rng = random.Random(sum(cards))
        spec = SearchSpec(cardinalities=cards, mode=SearchMode.HILL_CLIMB)
        for _ in range(10):
            state = search_module._IntegerState.draw(spec, rng)
            assert Fraction(state.score(), D3) == oracles.score_oracle(state.model())
            neighbours = list(oracles.neighbors_oracle(state.model(), STEP))
            assert materialised(state) == neighbours
            assert [Fraction(score, D3) for *_, score in scanned(state)] == [
                oracles.score_oracle(n) for n in neighbours
            ]

    @pytest.mark.parametrize("cards", ORACLE_SHAPES)
    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_every_hill_climb_candidate(self, monkeypatch, cards, seed):
        spec = SearchSpec(cardinalities=cards, mode=SearchMode.HILL_CLIMB, seed=seed, budget=120)
        calls = recorded_scores(monkeypatch)
        result = run_search(spec)
        monkeypatch.undo()
        for kind, state, *rest in calls:
            model = state.model()
            if kind == "draw":
                assert Fraction(rest[0], D3) == oracles.score_oracle(model)
                continue
            floor, limit, (position, move, sums, score) = rest
            neighbours = list(oracles.neighbors_oracle(model, STEP))
            # A scan stops at its first improvement, else after its last
            # neighbour or the budget left, whichever comes first.
            if move is None:
                assert position == min(len(neighbours), limit)
                passed = position
            else:
                assert position <= limit
                passed = position - 1
            for neighbour in neighbours[:passed]:
                assert oracles.score_oracle(neighbour) <= Fraction(floor, D3)
            if move is not None:
                neighbour = neighbours[position - 1]
                assert Fraction(score, D3) == oracles.score_oracle(neighbour) > Fraction(floor, D3)
                moved = state.apply(move, sums)
                assert moved.model() == neighbour
                assert kept_sums(moved) == kept_sums(fresh(moved))
        assert counted(calls)[-1] == result.evaluated
        assert result == oracles.hill_climb_oracle(spec)

    @pytest.mark.parametrize("cards", ORACLE_SHAPES)
    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_every_random_candidate(self, monkeypatch, cards, seed):
        spec = SearchSpec(cardinalities=cards, mode=SearchMode.RANDOM, seed=seed, budget=40)
        calls = recorded_scores(monkeypatch)
        result = run_search(spec)
        rng = random.Random(seed)
        assert len(calls) == 40
        for kind, state, score in calls:
            model = random_model(spec, rng)
            assert kind == "draw"
            assert state.model() == model
            assert Fraction(score, D3) == oracles.score_oracle(model)
        assert result == oracles.random_sampling_oracle(spec)

    @pytest.mark.parametrize("cards", ORACLE_SHAPES)
    def test_budget_ending_at_a_scan_stop(self, monkeypatch, cards):
        # Budgets one short of, at and one past where each of the first
        # scans stopped, among them the first that ran out of neighbours.
        spec = SearchSpec(cardinalities=cards, mode=SearchMode.HILL_CLIMB, seed=5, budget=400)
        calls = recorded_scores(monkeypatch)
        run_search(spec)
        monkeypatch.undo()
        scans = [(stop, rest[-1]) for (kind, *rest), stop in zip(calls, counted(calls))
                 if kind == "scan"]
        exhausted = next(stop for stop, item in scans if item[1] is None)
        for stop in sorted({*(stop for stop, _ in scans[:4]), exhausted}):
            for budget in (stop - 1, stop, stop + 1):
                spec = SearchSpec(cardinalities=cards, mode=SearchMode.HILL_CLIMB, seed=5,
                                  budget=budget)
                calls = recorded_scores(monkeypatch)
                result = run_search(spec)
                monkeypatch.undo()
                assert counted(calls)[-1] == budget
                assert result == oracles.hill_climb_oracle(spec)

    @pytest.mark.parametrize("cards", ORACLE_SHAPES)
    @pytest.mark.parametrize("budget", [1, 2, 50, 400])
    def test_results_match_oracle_search(self, cards, budget):
        for seed in (1, 99):
            for mode, oracle in (
                (SearchMode.HILL_CLIMB, oracles.hill_climb_oracle),
                (SearchMode.RANDOM, oracles.random_sampling_oracle),
            ):
                spec = SearchSpec(cardinalities=cards, mode=mode, seed=seed, budget=budget)
                assert run_search(spec) == oracle(spec)

    def test_one_model_built_for_the_winner(self, monkeypatch):
        built = counting(monkeypatch, search_module._IntegerState, "model")
        drawn = counting(monkeypatch, search_module, "random_model")
        for mode in (SearchMode.HILL_CLIMB, SearchMode.RANDOM):
            spec = SearchSpec(cardinalities=(2, 2, 2, 2, 2, 2), mode=mode, seed=3, budget=2000)
            built.clear()
            result = run_search(spec)
            # Several records, one build: the best state's, when the walk
            # ends; the start and restarts are drawn as states.
            assert len(result.improvements) > 1
            assert len(built) == 1
            assert oracles.score_oracle(result.best_model) == result.best_s_max
        assert drawn == []

    def test_constructor_runs_once_per_draw(self, monkeypatch):
        built = counting(monkeypatch, search_module._IntegerState, "__init__")
        drawn = counting(monkeypatch, search_module._IntegerState, "draw")
        applied = counting(monkeypatch, search_module._IntegerState, "apply")
        for mode in (SearchMode.HILL_CLIMB, SearchMode.RANDOM):
            spec = SearchSpec(cardinalities=(2, 2, 2, 2, 2, 2), mode=mode, seed=3, budget=2000)
            for calls in (built, drawn, applied):
                calls.clear()
            run_search(spec)
            # The start and each restart are drawn and built from scratch; an
            # accepted move updates the kept sums and builds nothing.
            assert len(built) == len(drawn)
            if mode is SearchMode.HILL_CLIMB:
                assert 1 < len(drawn) < len(applied)
            else:
                assert (len(drawn), len(applied)) == (2000, 0)


def fresh(state):
    return search_module._IntegerState(state.cols, state.source, state.pmfs, state.tables)


def kept_sums(state):
    return state.means, state.by_row, state.by_col, state.e


class TestIncrementalApply:
    """`apply` updates the kept sums of the state it leaves; the constructor,
    the slow path it replaced, derives them from scratch."""

    @pytest.mark.parametrize("cards", ORACLE_SHAPES)
    def test_chains_match_a_fresh_constructor(self, cards):
        rng = random.Random(sum(cards))
        spec = SearchSpec(cardinalities=cards, mode=SearchMode.HILL_CLIMB)
        kinds = set()
        for _ in range(2):
            state = search_module._IntegerState.draw(spec, rng)
            for _ in range(250):
                _, move, sums, _ = rng.choice(scanned(state))
                kinds.add((move[0], move[1]))
                state = state.apply(move, sums)
                assert kept_sums(state) == kept_sums(fresh(state))
        # Flips of all four tables and the source's mass moves at least;
        # a one-entry pmf has no mass move.
        assert {(search_module._FLIP, f) for f in range(4)} <= kinds
        assert (search_module._SOURCE, None) in kinds or cards[0] * cards[1] == 1
        for f, size in enumerate(cards[2:]):
            assert ((search_module._MASS, f) in kinds) == (size > 1)

    def test_unchanged_sums_are_shared(self):
        spec = SearchSpec(cardinalities=(2, 2, 2, 2, 2, 2), mode=SearchMode.HILL_CLIMB)
        state = search_module._IntegerState.draw(spec, random.Random(4))
        move = (search_module._FLIP, 0, 1, 0)  # Alice's first setting
        sums = next(x for _, m, x, _ in scanned(state) if m == move)
        flipped = state.apply(move, sums)
        assert flipped.means[1:] == state.means[1:]
        assert all(a is b for a, b in zip(flipped.means[1:], state.means[1:]))
        assert flipped.by_row is state.by_row and flipped.by_col[1] is state.by_col[1]
        assert flipped.source is state.source and flipped.pmfs is state.pmfs


class TestScanChecks:
    """Every neighbour the scan reaches passes the checks of `_s_num`, with
    its messages, whether or not it improves on the floor."""

    D = DEFAULT_MAX_DENOMINATOR
    RANGE = r"^correlation -2 outside \[-1, 1\]$"
    BOUND = r"^search candidate scored s_max = 4 > 2$"

    def out_of_range(self):
        # Alice's first setting carries weight 2, so flipping its one entry
        # gives E_xy = -2 with every CHSH sum at most 2 in magnitude.
        d = self.D
        half = (d // 2, d // 2)
        return search_module._IntegerState(
            1, (d,), ((2 * d,), half, (d,), half), (((1,),), ((1, -1),), ((1,),), ((1, -1),))
        )

    @staticmethod
    def source_out_of_range():
        # All sums 0 and all eight flips of weight 0.  The source steps from
        # cell 0 to cells 1 and 2, at positions 9 and 10, add m_x n_y = 0 and
        # 2^10 (-2^9) = -2 d^3 to E_xy.
        return hand_built(
            3, (1, 0, 0), ((0,),) * 4, (((1,),),) * 2 + (((1,), (1,), (1,)),) * 2,
            ((2**10,), (0,), (0, 0, -(2**9)), (0, 0, 0)), ((0,), (0,)), ((0,) * 3,) * 2, (0,) * 4,
        )

    @staticmethod
    def mass_out_of_range():
        return mass_step_state(D3 // 2)

    def pr_box(self):
        # A signed source mixes the deterministic strategies into the PR box;
        # the first move, flipping Alice's first entry back, reaches it.
        d = self.D
        return search_module._IntegerState(
            2, (d // 2, d // 2, d // 2, -d // 2), ((d,),) * 4,
            (((-1,), (1,)), ((1,), (-1,)), ((1,), (1,)), ((1,), (-1,))),
        )

    def test_correlation_outside_range_raises(self):
        with pytest.raises(ValueError, match=self.RANGE):
            next(self.out_of_range().improving(-1, 1 << 62))

    def test_score_above_two_raises(self):
        with pytest.raises(BoundViolationError, match=self.BOUND):
            next(self.pr_box().improving(-1, 1 << 62))

    # The bad neighbours score 2 and 4: floors at and above the score make
    # them no improvement.
    @pytest.mark.parametrize("floor", [2 * D3, 2 * D3 + 1, 8 * D3])
    @pytest.mark.parametrize("kind", ["flip", "source", "mass"])
    def test_range_checked_without_an_improvement(self, kind, floor):
        state = {"flip": self.out_of_range, "source": self.source_out_of_range,
                 "mass": self.mass_out_of_range}[kind]()
        for at in (floor, -1):
            with pytest.raises(ValueError, match=self.RANGE):
                list(state.improving(at, 1 << 62))

    @pytest.mark.parametrize("floor", [4 * D3, 4 * D3 + 1, 8 * D3])
    def test_bound_checked_without_an_improvement(self, floor):
        with pytest.raises(BoundViolationError, match=self.BOUND):
            next(self.pr_box().improving(floor, 1 << 62))

    @pytest.mark.parametrize("kind, bad", [("flip", 1), ("source", 10), ("mass", 12)])
    def test_nothing_scored_past_the_limit(self, kind, bad):
        state = {"flip": self.out_of_range, "source": self.source_out_of_range,
                 "mass": self.mass_out_of_range}[kind]()
        assert list(state.improving(8 * D3, bad - 1)) == [(bad - 1, None, None, None)]
        with pytest.raises(ValueError, match=self.RANGE):
            list(state.improving(8 * D3, bad))


def mass_step_state(half):
    """All sums 0, and Alice's x reads by_row[0] = (half, half) through two
    rows of (1, 1, -1) with pmf (1, 0, 0).  Its two flips of weight 1 move
    E_xy to -2 half; of its mass steps, at positions 11 and 12 after ten
    flips, 0 -> 1 changes nothing and 0 -> 2 moves E_xy to -4 half."""
    return hand_built(
        1, (0, 0), ((1, 0, 0), (0,), (0,), (0,)),
        (((1, 1, -1), (1, 1, -1)), ((1,), (1,)), ((1,),), ((1,),)),
        ((0, 0), (0, 0), (0,), (0,)), ((half, half), (0, 0)), ((0,), (0,)), (0,) * 4,
    )


def list_or_error(scan):
    """Every item of `scan`, or the exception it raised."""
    try:
        return list(scan)
    except (ValueError, BoundViolationError) as err:
        return err


def hand_built(cols, source, pmfs, tables, means, by_row, by_col, e):
    """A state whose kept sums are given, not derived from its weights."""
    state = search_module._IntegerState.__new__(search_module._IntegerState)
    state.cols, state.source, state.pmfs, state.tables = cols, source, pmfs, tables
    state.means, state.by_row, state.by_col, state.e = means, by_row, by_col, e
    return state


SUM = st.integers(-D3, D3)
# Even targets up to one step of 2 past either end of [-d^3, d^3].
CHANGED = st.integers(-D3 // 2 - 1, D3 // 2 + 1).map(lambda n: 2 * n)


class TestTwoPairScore:
    """The scan's two-pair score and range check against `_s_num` and the
    eight Fraction sums of `oracles.chsh_fraction_oracle`.

    The states are built by hand with drawn sums.  Every pmf weight but the
    one under test is 0, so each earlier neighbour keeps the state's own
    sums, which are in range and score at most 2.  The scan's last
    neighbour must then score as `_s_num` does, or raise as it does, and
    reach `_s_num` only if it fails a check.
    """

    @staticmethod
    def check(state, position, move, x):
        """Scan `state` up to `position` at a floor below every score and at
        one above: the neighbour there has sums `x`."""
        for floor in (-1, 8 * D3):
            with pytest.MonkeyPatch.context() as patch:
                failed = counting(patch, search_module, "_s_num")
                scan = list_or_error(state.improving(floor, position))
            try:
                report = oracles.chsh_fraction_oracle(tuple(Fraction(n, D3) for n in x))
            except ValueError as err:
                assert (type(scan), str(scan), len(failed)) == (ValueError, str(err), 1)
                continue
            if report.s_max > 2:
                assert type(scan) is BoundViolationError and len(failed) == 1
                assert str(scan).startswith("search candidate scored s_max = ")
                continue
            assert failed == []
            *before, end = scan
            assert end == (position, None, None, None)
            if floor > 0:
                assert before == []
                continue
            assert before[-1] == (position, move, tuple(x), search_module._s_num(x, D3))
            assert Fraction(before[-1][3], D3) == report.s_max

    @pytest.mark.parametrize("f", range(4))
    @settings(max_examples=150, deadline=None)
    @given(x_k=CHANGED, x_h=CHANGED, e_o1=SUM, e_o2=SUM)
    @example(x_k=D3, x_h=-D3, e_o1=0, e_o2=0)
    @example(x_k=-D3, x_h=D3, e_o1=D3, e_o2=-D3)
    @example(x_k=D3 + 2, x_h=0, e_o1=0, e_o2=0)
    def test_flip_of_each_factor(self, f, x_k, x_h, e_o1, e_o2):
        # Factor f's flip, at position f + 1, moves x_k and x_h from 0 by
        # 2 u and 2 v; every other flip has weight 0.  Context 2a + b reads
        # Alice's factor a and Bob's factor 2 + b.
        k, h = [c for c in range(4) if (c // 2 if f < 2 else 2 + c % 2) == f]
        o1, o2 = [c for c in range(4) if c not in (k, h)]
        e, x = [0] * 4, [0] * 4
        e[o1] = x[o1] = e_o1
        e[o2] = x[o2] = e_o2
        x[k], x[h] = x_k, x_h
        reads, still = ((x_k // 2,), (x_h // 2,)), ((0,), (0,))
        state = hand_built(
            1, (1,), tuple((1,) if g == f else (0,) for g in range(4)), (((-1,),),) * 4,
            ((0,),) * 4, reads if f < 2 else still, still if f < 2 else reads, tuple(e),
        )
        self.check(state, f + 1, (search_module._FLIP, f, 0, 0), x)

    @pytest.mark.parametrize("half", [D3 // 4, D3 // 4 + 1, D3 // 2])
    def test_mass_step_at_the_edge(self, half):
        self.check(mass_step_state(half), 12, (search_module._MASS, 0, 0, 2), (-4 * half, 0, 0, 0))

    @settings(max_examples=300, deadline=None)
    @given(e=st.lists(SUM, min_size=4, max_size=4),
           m=st.lists(st.integers(-600, 600), min_size=4, max_size=4))
    def test_source_step(self, e, m):
        # A 1 x 2 source moves its weight from cell 0, where every term is
        # 0, to cell 1, which adds (a c, a g, b c, b g); the six flips
        # before it have weight 0.
        t = e[0] + e[1] + e[2] + e[3]
        assume(max(abs(t - 2 * n) for n in e) <= 2 * D3)
        a, b, c, g = m
        x = [e[0] + a * c, e[1] + a * g, e[2] + b * c, e[3] + b * g]
        state = hand_built(
            2, (1, 0), ((0,),) * 4, (((1,),),) * 2 + (((1,), (1,)),) * 2,
            ((a,), (b,), (0, c), (0, g)), ((0,), (0,)), ((0, 0), (0, 0)), tuple(e),
        )
        self.check(state, 7, (search_module._SOURCE, None, 0, 1), x)


class TestFourSumScore:
    """max_k |T - 2 E_k| against the eight Fraction pattern sums."""

    D3 = 4**3

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-D3, D3), min_size=4, max_size=4))
    def test_matches_eight_sums(self, e):
        report = oracles.chsh_fraction_oracle(
            tuple(Fraction(n, self.D3) for n in e)
        )
        if report.s_max > 2:
            with pytest.raises(BoundViolationError):
                search_module._s_num(e, self.D3)
        else:
            assert Fraction(search_module._s_num(e, self.D3), self.D3) == report.s_max

    def test_just_above_two_raises(self):
        d3 = self.D3
        # T - 2 e_3 = 2 d3 + 1.
        with pytest.raises(BoundViolationError, match="129/64 > 2"):
            search_module._s_num((d3, d3, 1, 0), d3)
        assert search_module._s_num((d3, d3, 0, 0), d3) == 2 * d3

    @pytest.mark.parametrize("k", range(4))
    def test_correlation_outside_range(self, k):
        e = [0, 0, 0, 0]
        e[k] = self.D3 + 1
        with pytest.raises(ValueError, match="correlation 65/64 outside"):
            search_module._s_num(e, self.D3)


class TestValidationCount:
    def test_hill_climb_validates_nothing(self, monkeypatch):
        calls = counting(monkeypatch, models_module, "validate_model")
        spec = SearchSpec(
            cardinalities=(2, 2, 2, 2, 2, 2), mode=SearchMode.HILL_CLIMB, seed=3, budget=300
        )
        result = run_search(spec)
        assert result.evaluated == 300
        assert calls == []

    def test_cli_hill_climb_validates_only_the_winner(self, monkeypatch, capsys):
        calls = counting(monkeypatch, models_module, "validate_model")
        argv = ["search", "--mode", "hill-climb", "--budget", "300",
                "--cardinalities", "2,2,2,2,2,2", "--seed", "0"]
        assert cli.main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert calls == [(model_from_dict(doc["best_model"]),)]


class TestRandomSampling:
    def test_deterministic_and_bounded(self):
        spec = SearchSpec(
            cardinalities=(2, 2, 2, 2, 2, 2),
            mode=SearchMode.RANDOM,
            seed=13,
            budget=120,
        )
        first = run_search(spec)
        second = run_search(spec)
        assert first == second
        assert first.evaluated == 120
        assert first.best_s_max <= 2
        assert exact_s_max(first.best_model) == first.best_s_max

    def test_improvement_trace_monotone(self):
        spec = SearchSpec(
            cardinalities=(2, 2, 2, 2, 2, 2),
            mode=SearchMode.RANDOM,
            seed=13,
            budget=120,
        )
        scores = [s for _, s in run_search(spec).improvements]
        assert scores == sorted(set(scores))


class TestRunSearch:
    def test_dispatch(self):
        for mode, cards, budget in (
            (SearchMode.EXHAUSTIVE, TINY, 1),
            (SearchMode.RANDOM, SMALL, 20),
            (SearchMode.HILL_CLIMB, SMALL, 20),
        ):
            result = run_search(
                SearchSpec(cardinalities=cards, mode=mode, seed=4, budget=budget)
            )
            assert result.best_s_max <= 2


WALK_MODES = pytest.mark.parametrize("mode", [SearchMode.RANDOM, SearchMode.HILL_CLIMB])


class TestWalkCellGuard:
    """The walk modes refuse a shape of more than `DEFAULT_CELL_LIMIT` cells,
    the product of the six cardinalities, before the first draw."""

    @WALK_MODES
    @pytest.mark.parametrize("cards", [
        (11, 909091, 1, 1, 1, 1),  # 10^7 + 1 cells, one past the limit
        (3163, 3163, 1, 1, 1, 1),
        (99999999, 1, 1, 1, 1, 1),
        (10**6,) * 6,
    ])
    def test_refused_before_any_draw(self, monkeypatch, mode, cards):
        draws = counting(monkeypatch, search_module._IntegerState, "draw")
        with pytest.raises(SizeExceededError) as err:
            run_search(SearchSpec(cardinalities=cards, mode=mode, budget=5))
        assert (err.value.size, err.value.limit) == (math.prod(cards), DEFAULT_CELL_LIMIT)
        assert draws == []

    @WALK_MODES
    def test_at_the_limit(self, monkeypatch, mode):
        # Exactly 10^7 cells from small factors: accepted, and drawn once.
        cards = (10, 10, 10, 10, 10, 100)
        draws = counting(monkeypatch, search_module._IntegerState, "draw")
        result = run_search(SearchSpec(cardinalities=cards, mode=mode, budget=1))
        assert len(draws) == 1
        assert validate_model(result.best_model) == []
        assert result.best_s_max == exact_s_max(result.best_model)
