import itertools
import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bell_lab.models as models_module
import bell_lab.search as search_module
import oracles
from bell_lab import cli
from bell_lab.chsh import BoundViolationError, chsh_from_correlations
from bell_lab.exact import correlation_set
from bell_lab.models import JointPmf, model_from_dict, validate_model
from bell_lab.search import (
    DEFAULT_MAX_DENOMINATOR,
    RNG_ALGORITHM,
    SearchLimitError,
    SearchMode,
    SearchSpec,
    assignment_count,
    decode_assignment,
    enumerate_deterministic,
    hill_climb,
    random_model,
    random_sampling,
    run_search,
)
from tests_support import alter_local, counting

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

    def test_mode_mismatch_rejected(self):
        spec = SearchSpec(cardinalities=TINY, mode=SearchMode.RANDOM)
        with pytest.raises(ValueError):
            enumerate_deterministic(spec)
        with pytest.raises(ValueError):
            hill_climb(spec)


class TestDecode:
    def test_counts(self):
        assert assignment_count(TINY) == 16
        assert assignment_count(SMALL) == 256
        assert assignment_count((2, 2, 2, 2, 2, 2)) == 2**16

    def test_zero_is_all_plus_one(self):
        model = decode_assignment(TINY, 0)
        assert validate_model(model) == []
        for side in (model.alice, model.bob):
            for local in side.values():
                assert all(v == 1 for row in local.table.values for v in row)

    def test_bits_map_to_flat_entries(self):
        model = decode_assignment(TINY, 0b0101)
        entries = [
            model.alice["x"].table.values[0][0],
            model.alice["x'"].table.values[0][0],
            model.bob["y"].table.values[0][0],
            model.bob["y'"].table.values[0][0],
        ]
        assert entries == [-1, 1, -1, 1]

    def test_uniform_pmfs(self):
        model = decode_assignment((2, 2, 2, 2, 2, 2), 12345)
        assert validate_model(model) == []
        flat = model.source.flattened()
        assert all(w == Fraction(1, 4) for w in flat)



class TestEnumeration:
    def test_tiny_full_sweep(self):
        result = enumerate_deterministic(
            SearchSpec(cardinalities=TINY, mode=SearchMode.EXHAUSTIVE)
        )
        assert result.evaluated == 16
        assert result.best_s_max == 2
        assert result.rng_algorithm is None
        assert exact_s_max(result.best_model) == 2

    def test_small_full_sweep(self):
        result = enumerate_deterministic(
            SearchSpec(cardinalities=SMALL, mode=SearchMode.EXHAUSTIVE)
        )
        assert result.evaluated == 256
        assert result.best_s_max == 2

    def test_limit_guard(self):
        spec = SearchSpec(
            cardinalities=SMALL, mode=SearchMode.EXHAUSTIVE, assignment_limit=100
        )
        with pytest.raises(SearchLimitError) as err:
            enumerate_deterministic(spec)
        assert err.value.count == 256

    def test_default_limit_sweep_completes(self):
        spec = SearchSpec(cardinalities=(3, 3, 2, 2, 2, 2), mode=SearchMode.EXHAUSTIVE)
        assert assignment_count(spec.cardinalities) == spec.assignment_limit == 2**24
        result = enumerate_deterministic(spec)
        assert result.best_s_max == 2
        assert result.evaluated == 2**24

    def test_improvements_strictly_increase(self):
        result = enumerate_deterministic(
            SearchSpec(cardinalities=SMALL, mode=SearchMode.EXHAUSTIVE)
        )
        scores = [s for _, s in result.improvements]
        assert scores == sorted(set(scores))


def strategy(model):
    """The four outcomes (x, x', y, y') of a model with one entry per table."""
    assert shape(model) == TINY
    return tuple(
        local.table.values[0][0] for side in (model.alice, model.bob) for local in side.values()
    )


def inflate_vertex(monkeypatch, index):
    """Make the search's `index`-th strategy certificate report s_max 5/2."""
    real = search_module.certify_lhv_bound
    calls = []

    def inflated(model):
        certificate = real(model)
        calls.append(model)
        if len(calls) - 1 != index:
            return certificate
        report = replace(certificate.report, s_max=Fraction(5, 2), bound_satisfied=False)
        return replace(certificate, report=report)

    monkeypatch.setattr(search_module, "certify_lhv_bound", inflated)


class TestVertexCertification:
    @pytest.mark.parametrize("cards", [(2, 2, 2, 2, 2, 2), (3, 3, 2, 2, 2, 2)])
    def test_certifies_each_strategy_and_scores_two_assignments(self, monkeypatch, cards):
        certified = counting(monkeypatch, search_module, "certify_lhv_bound")
        scored = counting(monkeypatch, search_module, "_score")
        result = enumerate_deterministic(
            SearchSpec(cardinalities=cards, mode=SearchMode.EXHAUSTIVE)
        )
        assert len(certified) == 16
        assert {strategy(model) for (model,) in certified} == set(
            itertools.product((1, -1), repeat=4)
        )
        total = assignment_count(cards)
        assert scored == [(decode_assignment(cards, 0),), (decode_assignment(cards, total - 1),)]
        assert result.best_s_max == 2
        assert result.evaluated == total

    @pytest.mark.parametrize("index", [0, 15])
    def test_vertex_above_two_raises(self, monkeypatch, index):
        inflate_vertex(monkeypatch, index)
        with pytest.raises(BoundViolationError):
            enumerate_deterministic(
                SearchSpec(cardinalities=SMALL, mode=SearchMode.EXHAUSTIVE)
            )

    def test_vertex_above_two_exits_one(self, monkeypatch, capsys):
        inflate_vertex(monkeypatch, 5)
        assert cli.main(["search", "--cardinalities", "2,2,2,2,2,1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1


def assert_matches_oracle(cards):
    result = enumerate_deterministic(
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
            lambda cards: assignment_count(cards) <= 2**10
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
                    weights.extend(local.pmf.weights)
            assert all(w.denominator <= DEFAULT_MAX_DENOMINATOR for w in weights)


class TestHillClimb:
    def test_budget_one_returns_start_evaluation(self, singleton):
        spec = SearchSpec(cardinalities=TINY, mode=SearchMode.HILL_CLIMB, seed=7)
        result = hill_climb(spec, start=singleton)
        assert result.evaluated == 1
        assert result.best_model == singleton
        assert result.best_s_max == 2
        assert result.rng_algorithm == RNG_ALGORITHM

    def test_converges_from_singleton(self, singleton):
        spec = SearchSpec(
            cardinalities=(1, 1, 1, 1, 1, 1),
            mode=SearchMode.HILL_CLIMB,
            seed=7,
            budget=200,
        )
        result = hill_climb(spec, start=singleton)
        assert result.best_s_max == 2

    def test_deterministic(self):
        spec = SearchSpec(
            cardinalities=(2, 2, 2, 2, 2, 2),
            mode=SearchMode.HILL_CLIMB,
            seed=21,
            budget=400,
        )
        first = hill_climb(spec)
        second = hill_climb(spec)
        assert first == second

    def test_respects_budget_and_bound(self):
        spec = SearchSpec(
            cardinalities=(2, 2, 2, 2, 2, 2),
            mode=SearchMode.HILL_CLIMB,
            seed=3,
            budget=150,
        )
        result = hill_climb(spec)
        assert result.evaluated == 150
        assert result.best_s_max <= 2


NEIGHBOUR_SHAPES = ((1, 1, 1, 1, 1, 1), (2, 2, 2, 2, 2, 2), (3, 2, 3, 2, 2, 3))
NEIGHBOUR_STEPS = (Fraction(1, 64), Fraction(1, 8), Fraction(1, 2))


def pmfs(model):
    """Every pmf's weights: the flattened source, then each local pmf."""
    out = [model.source.flattened()]
    for settings_ in (model.alice, model.bob):
        out.extend(local.pmf.weights for local in settings_.values())
    return out


def shape(model):
    return (model.source.rows, model.source.cols, *(len(w) for w in pmfs(model)[1:]))


def expected_neighbour_count(model, step):
    flips = 0
    for settings_ in (model.alice, model.bob):
        flips += sum(local.table.rows * local.table.cols for local in settings_.values())
    moves = sum((len(w) - 1) * sum(x >= step for x in w) for w in pmfs(model))
    return flips + moves


class TestMovesStayValid:
    """Candidates are scored without revalidation, so every move must yield
    a valid model of the same shape."""

    @pytest.mark.parametrize("cards", NEIGHBOUR_SHAPES)
    def test_every_neighbour_is_valid(self, cards):
        rng = random.Random(sum(cards))
        spec = SearchSpec(cardinalities=cards, mode=SearchMode.HILL_CLIMB)
        zero_models = 0
        for _ in range(200):
            model = random_model(spec, rng)
            assert validate_model(model) == []
            for step in NEIGHBOUR_STEPS:
                neighbours = list(search_module._neighbors(model, step))
                assert len(neighbours) == expected_neighbour_count(model, step)
                for neighbour in neighbours:
                    assert validate_model(neighbour) == []
                    assert shape(neighbour) == shape(model)
                    assert neighbour != model
                    zero_models += any(0 in w for w in pmfs(neighbour))
        if cards != (1, 1, 1, 1, 1, 1):
            assert zero_models > 0

    def test_moves_from_zero_weights(self):
        zero, half = Fraction(0), Fraction(1, 2)
        spec = SearchSpec(cardinalities=(2, 2, 2, 2, 2, 2), mode=SearchMode.HILL_CLIMB)
        model = random_model(spec, random.Random(0))
        source = ((zero, half), (half, zero))
        model = replace(model, source=JointPmf(source))
        for label in model.alice_labels:
            model = alter_local(model, "alice", label, pmf=(Fraction(1), zero))
        assert validate_model(model) == []
        for step in NEIGHBOUR_STEPS:
            for neighbour in search_module._neighbors(model, step):
                assert validate_model(neighbour) == []


class TestValidationCount:
    def test_hill_climb_validates_only_its_start(self, monkeypatch):
        calls = counting(monkeypatch, models_module, "validate_model")
        spec = SearchSpec(
            cardinalities=(2, 2, 2, 2, 2, 2), mode=SearchMode.HILL_CLIMB, seed=3, budget=300
        )
        result = hill_climb(spec)
        assert result.evaluated == 300
        assert len(calls) == 1

    def test_cli_hill_climb_validates_start_and_winner(self, monkeypatch, capsys):
        calls = counting(monkeypatch, models_module, "validate_model")
        argv = ["search", "--mode", "hill-climb", "--budget", "300",
                "--cardinalities", "2,2,2,2,2,2", "--seed", "0"]
        assert cli.main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(calls) == 2
        assert calls[-1] == (model_from_dict(doc["best_model"]),)


class TestRandomSampling:
    def test_deterministic_and_bounded(self):
        spec = SearchSpec(
            cardinalities=(2, 2, 2, 2, 2, 2),
            mode=SearchMode.RANDOM,
            seed=13,
            budget=120,
        )
        first = random_sampling(spec)
        second = random_sampling(spec)
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
        scores = [s for _, s in random_sampling(spec).improvements]
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
