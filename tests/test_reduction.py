import random
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from tests_support import PRESETS
from bell_lab.chsh import certify_model
from bell_lab.reduction import (
    _overlay,
    _readout,
    inverse_transform_partition,
    reduce_model,
)

F = Fraction


def overlay_coupling(p_a, p_b) -> dict:
    """Joint law of two weight tuples driven by one shared uniform: the overlay of
    their inverse-transform partitions, each refined interval's pair
    weighted by its width."""
    m = _overlay(inverse_transform_partition(p_a), inverse_transform_partition(p_b))
    return dict(zip(m.labels, m.widths()))


@st.composite
def pmfs(draw, max_size=5, denominator=24):
    size = draw(st.integers(1, max_size))
    cuts = sorted(
        draw(st.lists(st.integers(0, denominator), min_size=size - 1, max_size=size - 1))
    )
    bounds = [0, *cuts, denominator]
    return tuple(F(hi - lo, denominator) for lo, hi in zip(bounds, bounds[1:]))


@st.composite
def pmf_pairs(draw):
    """Two pmfs over different denominators, zero weights allowed; the
    second denominator is often a multiple of the first, so breakpoints
    coincide."""
    d1 = draw(st.integers(1, 30))
    d2 = draw(st.one_of(st.integers(1, 30), st.integers(1, 6).map(lambda k: k * d1)))
    return draw(pmfs(max_size=6, denominator=d1)), draw(pmfs(max_size=6, denominator=d2))


class TestBuildersMatchOracles:
    """The partitions built by their definitions equal the loop and the
    two-pointer merge they replaced."""

    @given(pmf_pairs())
    def test_inverse_transform_equals_loop(self, pair):
        for pmf in pair:
            built = inverse_transform_partition(pmf)
            loop = oracles.inverse_transform_loop_oracle(pmf)
            assert (built.breakpoints, built.labels) == (loop.breakpoints, loop.labels)

    @given(pmf_pairs())
    def test_overlay_equals_merge(self, pair):
        first, second = (inverse_transform_partition(pmf) for pmf in pair)
        built = _overlay(first, second)
        merged = oracles.overlay_merge_oracle(
            *(oracles.inverse_transform_loop_oracle(pmf) for pmf in pair)
        )
        assert (built.breakpoints, built.labels) == (merged.breakpoints, merged.labels)

    def test_shared_breakpoints_and_zeros(self):
        first = inverse_transform_partition((F(1, 2), F(0), F(1, 4), F(1, 4)))
        second = inverse_transform_partition((F(0), F(1, 4), F(1, 4), F(1, 2)))
        built = _overlay(first, second)
        assert built.breakpoints == (0, F(1, 4), F(1, 2), F(3, 4), 1)
        assert built.labels == ((0, 1), (0, 2), (2, 3), (3, 3))

    def test_weights_not_summing_to_one(self):
        for weights, total in (((F(1, 2), F(1, 4)), "3/4"), ((F(0), F(0)), "0")):
            with pytest.raises(ValueError, match=f"weights sum to {total}, expected 1"):
                inverse_transform_partition(weights)


def assert_readout_reads_own_interval(model):
    """Each `_readout` entry is table[l][k], with k the label of the
    setting's own inverse-transform interval that holds the refined
    interval's right endpoint."""
    reduced = reduce_model(model)
    for uniform_map, settings in ((reduced.alice_map, model.alice), (reduced.bob_map, model.bob)):
        readout = _readout(uniform_map, settings)
        assert len(readout) == len(settings)
        for local, per_source in zip(settings.values(), readout):
            own = oracles.inverse_transform_loop_oracle(local.weights)
            ks = [oracles.locate(own, hi) for hi in uniform_map.breakpoints[1:]]
            assert per_source == [[row[k] for k in ks] for row in local.table]


class TestReadout:
    def test_presets(self):
        for load in PRESETS.values():
            assert_readout_reads_own_interval(load())

    def test_campaign(self, small_campaign):
        for model in small_campaign:
            assert_readout_reads_own_interval(model)

    def test_noisy_alice(self, noisy):
        # Alice's refined intervals carry (0, 0), (0, 1), (1, 1); x reads
        # slot 0 and x' slot 1 of each pair.
        x, x_prime = _readout(reduce_model(noisy).alice_map, noisy.alice)
        assert x == [[1, 1, -1], [-1, -1, 1]]
        assert x_prime == [[1, 1, 1], [1, 1, 1]]


class TestInverseTransform:
    def test_single_point(self):
        partition = inverse_transform_partition((F(1),))
        assert partition.breakpoints == (0, 1)
        assert partition.labels == (0,)

    def test_three_quarters(self):
        partition = inverse_transform_partition((F(3, 4), F(1, 4)))
        assert partition.breakpoints == (0, F(3, 4), 1)
        assert partition.labels == (0, 1)

    def test_thirds(self):
        partition = inverse_transform_partition((F(1, 3), F(1, 6), F(1, 2)))
        assert partition.breakpoints == (0, F(1, 3), F(1, 2), 1)

    def test_zero_weight_dropped(self):
        partition = inverse_transform_partition((F(1, 2), F(0), F(1, 2)))
        assert partition.breakpoints == (0, F(1, 2), 1)
        assert partition.labels == (0, 2)

    @given(pmfs())
    def test_widths_equal_nonzero_weights(self, pmf):
        partition = inverse_transform_partition(pmf)
        widths = {
            label: hi - lo
            for label, lo, hi in zip(
                partition.labels, partition.breakpoints, partition.breakpoints[1:]
            )
        }
        for index, weight in enumerate(pmf):
            assert widths.get(index, F(0)) == weight

    def test_breakpoints_strictly_increasing(self):
        partition = inverse_transform_partition((F(1, 4), F(0), F(3, 4)))
        assert all(a < b for a, b in zip(partition.breakpoints, partition.breakpoints[1:]))


class TestCoupling:
    def test_trivial(self):
        assert overlay_coupling((F(1),), (F(1),)) == {(0, 0): F(1)}

    def test_identical_partitions_are_diagonal(self):
        half = (F(1, 2), F(1, 2))
        assert overlay_coupling(half, half) == {(0, 0): F(1, 2), (1, 1): F(1, 2)}

    def test_frozen_example(self):
        joint = overlay_coupling((F(3, 4), F(1, 4)), (F(1, 2), F(1, 2)))
        assert joint == {(0, 0): F(1, 2), (0, 1): F(1, 4), (1, 1): F(1, 4)}

    @given(pmfs(), pmfs())
    def test_matches_atom_oracle(self, p, q):
        assert overlay_coupling(p, q) == oracles.couple_by_atoms(p, q)

    @given(pmfs(), pmfs())
    def test_marginals_recovered(self, p, q):
        joint = overlay_coupling(p, q)
        for index, weight in enumerate(p):
            assert sum(
                (w for (i, _), w in joint.items() if i == index), F(0)
            ) == weight
        for index, weight in enumerate(q):
            assert sum(
                (w for (_, j), w in joint.items() if j == index), F(0)
            ) == weight


class TestReduceModel:
    def test_singleton_trivial_maps(self, singleton):
        reduced = reduce_model(singleton)
        assert reduced.alice_map.breakpoints == (0, 1)
        assert reduced.alice_map.labels == ((0, 0),)
        assert reduced.bob_map.labels == ((0, 0),)

    def test_noisy_alice_refinement(self, noisy):
        reduced = reduce_model(noisy)
        assert reduced.alice_map.breakpoints == (0, F(1, 2), F(3, 4), 1)
        assert reduced.alice_map.labels == ((0, 0), (0, 1), (1, 1))

    def test_shared_pmfs_give_diagonal_pairs(self, noisy):
        # Bob's two settings use the same local pmf, so both slots agree.
        reduced = reduce_model(noisy)
        assert all(i == j for i, j in reduced.bob_map.labels)

    def test_map_marginals_match_pmfs(self, small_campaign):
        for model in small_campaign[:40]:
            reduced = reduce_model(model)
            for side, settings, umap in (
                ("alice", model.alice, reduced.alice_map),
                ("bob", model.bob, reduced.bob_map),
            ):
                widths = umap.widths()
                for slot, label in enumerate(settings):
                    weights = settings[label].weights
                    for index, weight in enumerate(weights):
                        mass = sum(
                            (
                                w
                                for w, pair in zip(widths, umap.labels)
                                if pair[slot] == index
                            ),
                            F(0),
                        )
                        assert mass == weight

    def test_base_shared_not_copied(self, noisy):
        # The reduced form holds the two uniform maps only; the source and
        # the tables are read from the model itself, never copied.
        assert [f.name for f in fields(reduce_model(noisy))] == ["alice_map", "bob_map"]


class TestVerifyReduction:
    def test_presets_equal(self, singleton, singleton_flip, perfect, noisy, random7):
        for model in (singleton, singleton_flip, perfect, noisy, random7):
            result = certify_model(model)
            assert result.reduction_equal
            assert result.dedicated == result.reduced

    def test_campaign_equal(self, small_campaign):
        for model in small_campaign:
            assert certify_model(model).reduction_equal

    def test_reduced_quadrature_matches_oracle(self, small_campaign):
        for model in small_campaign[:30]:
            reduced = certify_model(model).reduced
            a0, a1 = model.alice_labels
            b0, b1 = model.bob_labels
            expected = tuple(
                oracles.reduced_context_mean(model, a, b)
                for a, b in ((a0, b0), (a0, b1), (a1, b0), (a1, b1))
            )
            assert reduced == expected


class TestExport:
    def test_random_parts_carry_no_setting_labels(self, noisy):
        # Setting dependence lives only in the deterministic maps: the
        # side maps key their label pairs positionally.
        reduced = reduce_model(noisy)
        for umap in (reduced.alice_map, reduced.bob_map):
            assert all(
                isinstance(i, int) and isinstance(j, int) for i, j in umap.labels
            )
