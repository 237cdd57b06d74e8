"""Integer-numerator exact kernels against the per-cell loops they replaced.

Every kernel that sums integer numerators over a common denominator is
compared, for exact rational equality, with its old loop in `oracles.py`
on the presets, the small campaign, fixed odd shapes, models with zero
weights and with denominators above 2^64, and a hypothesis property.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bell_lab.exact import expectation_in_context
from bell_lab.models import (
    ContextualModel,
    JointPmf,
    LocalSetting,
    Pmf,
    ResponseTable,
    _scaled_factors,
)
from bell_lab.presets import PRESETS
from bell_lab.reduction import _reduced_expectation, reduce_model
from bell_lab.search import SearchMode, SearchSpec, random_model
from bell_lab.simulate import outcome_distribution
from bell_lab.unified import build_unified, expectation_unified_expanded

BIG = 2**64 + 13

SHAPES = ((1, 1, 1, 1, 1, 1), (3, 1, 5, 2, 1, 4), (4, 4, 3, 3, 2, 2))


def assert_kernels_match_oracles(model: ContextualModel) -> None:
    u = build_unified(model)
    reduced = reduce_model(model)
    for ctx in model.contexts():
        assert expectation_in_context(model, ctx) == oracles.dedicated_fraction_oracle(model, ctx)
        assert expectation_unified_expanded(u, ctx) == oracles.expanded_scaled_oracle(u, ctx)
        assert _reduced_expectation(reduced, ctx) == oracles.reduced_fraction_oracle(reduced, ctx)
    for side, labels, remote_labels in (
        ("alice", model.alice_labels, model.bob_labels),
        ("bob", model.bob_labels, model.alice_labels),
    ):
        for setting in labels:
            for remote in remote_labels:
                assert outcome_distribution(
                    model, side, setting, remote
                ) == oracles.outcome_distribution_fraction_oracle(model, side, setting, remote)


def build_model(source_rows, alice_pmfs, bob_pmfs, rng: random.Random) -> ContextualModel:
    """A model from explicit weights, with coin-flip response tables."""

    def side(name, labels, pmfs, rows):
        return {
            label: LocalSetting(
                pmf=Pmf(tuple(pmf)),
                table=ResponseTable(
                    side=name,
                    setting=label,
                    values=tuple(
                        tuple(rng.choice((1, -1)) for _ in pmf) for _ in range(rows)
                    ),
                ),
            )
            for label, pmf in zip(labels, pmfs)
        }

    return ContextualModel(
        source=JointPmf(tuple(tuple(row) for row in source_rows)),
        alice=side("alice", ("x", "x'"), alice_pmfs, len(source_rows)),
        bob=side("bob", ("y", "y'"), bob_pmfs, len(source_rows[0])),
    )


def normalised(counts):
    """Weights proportional to `counts`, summing to exactly 1."""
    total = sum(counts)
    return [Fraction(c, total) for c in counts]


class TestScaledFactors:
    @pytest.mark.parametrize(
        "weights",
        [
            [],
            [Fraction(0)],
            [Fraction(0), Fraction(1), Fraction(0)],
            [Fraction(1, 7), Fraction(2, 11), Fraction(3, 13)],
            [Fraction(1, BIG), Fraction(BIG - 1, BIG)],
            [Fraction(1, 3), Fraction(5, 2**70 + 1), Fraction(-2, 9)],
        ],
    )
    def test_round_trip(self, weights):
        nums, d = _scaled_factors(weights)
        assert all(isinstance(n, int) for n in nums)
        assert [Fraction(n, d) for n in nums] == weights

    @pytest.mark.parametrize(
        "weights, expected",
        [
            ([], ([], 1)),
            ([Fraction(1, 7), Fraction(1, 11), Fraction(1, 13)], ([143, 91, 77], 1001)),
            ([Fraction(1, 4), Fraction(1, 6), Fraction(0)], ([3, 2, 0], 12)),
        ],
    )
    def test_least_common_denominator(self, weights, expected):
        assert _scaled_factors(weights) == expected

    @given(
        st.lists(
            st.fractions(max_denominator=2**80).filter(lambda f: abs(f) < 2**70),
            max_size=8,
        )
    )
    def test_round_trip_property(self, weights):
        nums, d = _scaled_factors(weights)
        assert d >= 1 and all(d % w.denominator == 0 for w in weights)
        assert [Fraction(n, d) for n in nums] == weights


class TestKernelOracles:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets(self, name):
        assert_kernels_match_oracles(PRESETS[name]())

    def test_small_campaign(self, small_campaign):
        for model in small_campaign:
            assert_kernels_match_oracles(model)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shapes(self, shape, seed):
        spec = SearchSpec(cardinalities=shape, mode=SearchMode.RANDOM)
        assert_kernels_match_oracles(random_model(spec, random.Random(seed)))

    def test_zero_source_and_local_weights(self):
        rng = random.Random(5)
        zero = Fraction(0)
        model = build_model(
            [[zero, Fraction(1, 3), zero], [Fraction(1, 6), zero, Fraction(1, 2)]],
            [[zero, Fraction(3, 4), Fraction(1, 4)], [Fraction(1), zero]],
            [[Fraction(2, 5), zero, Fraction(3, 5)], [zero, zero, Fraction(1)]],
            rng,
        )
        assert_kernels_match_oracles(model)

    def test_denominators_above_2_64(self):
        flat = normalised([3, 1, 0, BIG, 1, 5])
        coprime = [Fraction(1, 7), Fraction(2, 11), Fraction(3, 13)]
        model = build_model(
            [flat[:3], flat[3:]],
            [normalised([1, BIG]), normalised([7, 0, 2**65 + 1])],
            [normalised([2**66 + 3, 1, 1, 9]), coprime + [1 - sum(coprime)]],
            random.Random(11),
        )
        big = [w.denominator > 2**64 for w in model.source.flattened()]
        for settings_ in (model.alice, model.bob):
            big += [w.denominator > 2**64 for local in settings_.values() for w in local.pmf.weights]
        assert sum(big) >= 10
        assert_kernels_match_oracles(model)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_property(self, data):
        weight = st.integers(0, 2**70)

        def pmf(size):
            counts = data.draw(
                st.lists(weight, min_size=size, max_size=size).filter(lambda c: sum(c) > 0)
            )
            return normalised(counts)

        s1, s2 = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        flat = pmf(s1 * s2)
        source = [flat[r * s2:(r + 1) * s2] for r in range(s1)]
        locals_ = [pmf(data.draw(st.integers(1, 3))) for _ in range(4)]
        seed = data.draw(st.integers(0, 2**32))
        assert_kernels_match_oracles(build_model(source, locals_[:2], locals_[2:], random.Random(seed)))
