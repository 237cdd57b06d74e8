from fractions import Fraction

import oracles
from bell_lab.exact import correlation_set
from tests_support import alter_pmf

HALF = Fraction(1, 2)


class TestFrozenValues:
    def test_singleton_all_ones(self, singleton):
        assert correlation_set(singleton) == (1, 1, 1, 1)

    def test_flip_changes_primed_contexts(self, singleton_flip):
        assert correlation_set(singleton_flip) == (1, 1, -1, -1)

    def test_perfect_correlations(self, perfect):
        assert correlation_set(perfect) == (1, -1, 0, 0)

    def test_noisy_first_context(self, noisy):
        assert correlation_set(noisy) == (HALF, -HALF, 0, 0)


class TestOracleEquivalence:
    def test_presets_match_oracle(self, singleton, singleton_flip, perfect, noisy, random7):
        for model in (singleton, singleton_flip, perfect, noisy, random7):
            assert correlation_set(model) == oracles.correlation_quadruple(model)

    def test_campaign_matches_oracle(self, small_campaign):
        for model in small_campaign[:60]:
            assert correlation_set(model) == oracles.correlation_quadruple(model)


class TestProperties:
    def test_bounds(self, small_campaign):
        for model in small_campaign:
            for value in correlation_set(model):
                assert -1 <= value <= 1

    def test_constant_table_ignores_local_pmf(self, noisy):
        # Alice's second setting answers +1 regardless of the local value,
        # so reshaping that pmf must not move any correlation.
        reshaped = alter_pmf(noisy, "alice", "x'", (Fraction(1, 8), Fraction(7, 8)))
        assert correlation_set(reshaped) == correlation_set(noisy)

    def test_zero_weight_point_permutation(self, perfect):
        # A support point carrying no mass can sit anywhere in the order,
        # with its table column alongside, without touching expectations.
        padded = alter_pmf(
            perfect, "bob", "y", (HALF, Fraction(0), HALF),
            table=((1, -1, 1), (-1, 1, -1)),
        )
        permuted = alter_pmf(
            perfect, "bob", "y", (HALF, HALF, Fraction(0)),
            table=((1, 1, -1), (-1, -1, 1)),
        )
        assert correlation_set(padded) == correlation_set(permuted)
