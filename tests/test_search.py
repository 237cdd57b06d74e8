import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
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


def materialised(state):
    """Every neighbour of `state` as a model, in move order."""
    return [state.apply(move, sums).model() for move, sums, _ in state.scored_moves()]


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
    """Record every (state, move, score) the search scores: a draw's own
    score with move None, then each neighbour's as the walk consumes it."""
    calls = []
    state_class = search_module._IntegerState
    score, scored_moves = state_class.score, state_class.scored_moves

    def recording_score(self):
        s = score(self)
        calls.append((self, None, s))
        return s

    def recording_moves(self):
        for move, sums, s in scored_moves(self):
            calls.append((self, move, s))
            yield move, sums, s

    monkeypatch.setattr(state_class, "score", recording_score)
    monkeypatch.setattr(state_class, "scored_moves", recording_moves)
    return calls


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
            assert [Fraction(score, D3) for _, _, score in state.scored_moves()] == [
                oracles.score_oracle(n) for n in neighbours
            ]

    @pytest.mark.parametrize("cards", ORACLE_SHAPES)
    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_every_hill_climb_candidate(self, monkeypatch, cards, seed):
        spec = SearchSpec(cardinalities=cards, mode=SearchMode.HILL_CLIMB, seed=seed, budget=120)
        calls = recorded_scores(monkeypatch)
        result = run_search(spec)
        monkeypatch.undo()  # the scans below must not record
        assert len(calls) == result.evaluated
        scanned = {}
        for state, move, score in calls:
            model = state.model()
            if move is None:
                assert Fraction(score, D3) == oracles.score_oracle(model)
                continue
            if id(state) not in scanned:
                scanned[id(state)] = (
                    [(m, sums) for m, sums, _ in state.scored_moves()],
                    list(oracles.neighbors_oracle(model, STEP)),
                )
            moves, neighbours = scanned[id(state)]
            assert len(moves) == len(neighbours)
            index = [m for m, _ in moves].index(move)
            neighbour = neighbours[index]
            assert state.apply(*moves[index]).model() == neighbour
            assert Fraction(score, D3) == oracles.score_oracle(neighbour)
        assert result == oracles.hill_climb_oracle(spec)

    @pytest.mark.parametrize("cards", ORACLE_SHAPES)
    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_every_random_candidate(self, monkeypatch, cards, seed):
        spec = SearchSpec(cardinalities=cards, mode=SearchMode.RANDOM, seed=seed, budget=40)
        calls = recorded_scores(monkeypatch)
        result = run_search(spec)
        rng = random.Random(seed)
        assert len(calls) == 40
        for state, move, score in calls:
            model = random_model(spec, rng)
            assert move is None
            assert state.model() == model
            assert Fraction(score, D3) == oracles.score_oracle(model)
        assert result == oracles.random_sampling_oracle(spec)

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
                move, sums, _ = rng.choice(list(state.scored_moves()))
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
        sums = next(x for m, x, _ in state.scored_moves() if m == move)
        flipped = state.apply(move, sums)
        assert flipped.means[1:] == state.means[1:]
        assert all(a is b for a, b in zip(flipped.means[1:], state.means[1:]))
        assert flipped.by_row is state.by_row and flipped.by_col[1] is state.by_col[1]
        assert flipped.source is state.source and flipped.pmfs is state.pmfs


class TestScanChecks:
    """Every neighbour's score passes the checks of `_s_num`, with its messages."""

    D = DEFAULT_MAX_DENOMINATOR

    def test_correlation_outside_range_raises(self):
        # Alice's first setting carries weight 2, so flipping its one entry
        # gives E_xy = -2 with every CHSH sum at most 2 in magnitude.
        d = self.D
        half = (d // 2, d // 2)
        state = search_module._IntegerState(
            1, (d,), ((2 * d,), half, (d,), half), (((1,),), ((1, -1),), ((1,),), ((1, -1),))
        )
        with pytest.raises(ValueError, match=r"^correlation -2 outside \[-1, 1\]$"):
            next(state.scored_moves())

    def test_score_above_two_raises(self):
        # A signed source mixes the deterministic strategies into the PR box;
        # the first move, flipping Alice's first entry back, reaches it.
        d = self.D
        state = search_module._IntegerState(
            2, (d // 2, d // 2, d // 2, -d // 2), ((d,),) * 4,
            (((-1,), (1,)), ((1,), (-1,)), ((1,), (1,)), ((1,), (-1,))),
        )
        with pytest.raises(BoundViolationError, match=r"^search candidate scored s_max = 4 > 2$"):
            next(state.scored_moves())


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
