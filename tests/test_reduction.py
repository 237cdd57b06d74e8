import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from bell_lab.models import ModelFormatError, Pmf, model_from_dict
from bell_lab.chsh import certify_model
from bell_lab.reduction import (
    IntervalPartition,
    _overlay,
    inverse_transform_partition,
    reduce_model,
)

F = Fraction


def overlay_coupling(p_a: Pmf, p_b: Pmf) -> dict:
    """Joint law of two pmfs driven by one shared uniform: the overlay of
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
    return Pmf(tuple(F(hi - lo, denominator) for lo, hi in zip(bounds, bounds[1:])))


class TestInverseTransform:
    def test_single_point(self):
        partition = inverse_transform_partition(Pmf((F(1),)))
        assert partition.breakpoints == (0, 1)
        assert partition.labels == (0,)

    def test_three_quarters(self):
        partition = inverse_transform_partition(Pmf((F(3, 4), F(1, 4))))
        assert partition.breakpoints == (0, F(3, 4), 1)
        assert partition.labels == (0, 1)

    def test_thirds(self):
        partition = inverse_transform_partition(Pmf((F(1, 3), F(1, 6), F(1, 2))))
        assert partition.breakpoints == (0, F(1, 3), F(1, 2), 1)

    def test_zero_weight_dropped(self):
        partition = inverse_transform_partition(Pmf((F(1, 2), F(0), F(1, 2))))
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
        for index, weight in enumerate(pmf.weights):
            assert widths.get(index, F(0)) == weight

    def test_breakpoints_strictly_increasing(self):
        partition = inverse_transform_partition(Pmf((F(1, 4), F(0), F(3, 4))))
        assert all(a < b for a, b in zip(partition.breakpoints, partition.breakpoints[1:]))


class TestLocate:
    partition = IntervalPartition(breakpoints=(F(0), F(1, 2), F(1)), labels=(0, 1))

    def test_interior(self):
        assert self.partition.locate(F(1, 4)) == 0
        assert self.partition.locate(F(3, 4)) == 1

    def test_boundary_goes_to_lower_interval(self):
        assert self.partition.locate(F(0)) == 0
        assert self.partition.locate(F(1, 2)) == 0

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            self.partition.locate(F(1))
        with pytest.raises(ValueError):
            self.partition.locate(F(-1, 2))


class TestCoupling:
    def test_trivial(self):
        assert overlay_coupling(Pmf((F(1),)), Pmf((F(1),))) == {(0, 0): F(1)}

    def test_identical_partitions_are_diagonal(self):
        half = Pmf((F(1, 2), F(1, 2)))
        assert overlay_coupling(half, half) == {(0, 0): F(1, 2), (1, 1): F(1, 2)}

    def test_frozen_example(self):
        joint = overlay_coupling(Pmf((F(3, 4), F(1, 4))), Pmf((F(1, 2), F(1, 2))))
        assert joint == {(0, 0): F(1, 2), (0, 1): F(1, 4), (1, 1): F(1, 4)}

    @given(pmfs(), pmfs())
    def test_matches_atom_oracle(self, p, q):
        assert overlay_coupling(p, q) == oracles.couple_by_atoms(p.weights, q.weights)

    @given(pmfs(), pmfs())
    def test_marginals_recovered(self, p, q):
        joint = overlay_coupling(p, q)
        for index, weight in enumerate(p.weights):
            assert sum(
                (w for (i, _), w in joint.items() if i == index), F(0)
            ) == weight
        for index, weight in enumerate(q.weights):
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
                    weights = settings[label].pmf.weights
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
        assert reduce_model(noisy).base is noisy


class TestVerifyReduction:
    def test_presets_equal(self, singleton, singleton_flip, perfect, noisy, random7):
        for model in (singleton, singleton_flip, perfect, noisy, random7):
            report = certify_model(model).reduction
            assert report.equal
            assert report.original == report.reduced

    def test_campaign_equal(self, small_campaign):
        for model in small_campaign:
            assert certify_model(model).reduction.equal

    def test_reduced_quadrature_matches_oracle(self, small_campaign):
        for model in small_campaign[:30]:
            report = certify_model(model).reduction
            a0, a1 = model.alice_labels
            b0, b1 = model.bob_labels
            expected = tuple(
                oracles.reduced_context_mean(model, a, b)
                for a, b in ((a0, b0), (a0, b1), (a1, b0), (a1, b1))
            )
            assert report.reduced == expected


class TestExport:
    def test_random_parts_carry_no_setting_labels(self, noisy):
        # Setting dependence lives only in the deterministic maps: the
        # side maps key their label pairs positionally and the shared source
        # is the untouched label-free joint pmf.
        reduced = reduce_model(noisy)
        for umap in (reduced.alice_map, reduced.bob_map):
            assert all(
                isinstance(i, int) and isinstance(j, int) for i, j in umap.labels
            )
        assert reduced.base.source is noisy.source
