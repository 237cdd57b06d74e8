from fractions import Fraction

import pytest

import oracles
from bell_lab.exact import expectation_in_context
from bell_lab.models import Context
from bell_lab.unified import (
    SizeExceededError,
    build_unified,
    counterfactuals,
    expectation_unified,
    expectation_unified_expanded,
    verify_equivalence,
)
from tests_support import alter_local, alter_pmf

HALF = Fraction(1, 2)


class TestConstruction:
    def test_sizes(self, singleton, perfect, noisy):
        assert build_unified(singleton).size == 1
        assert build_unified(perfect).size == 4
        assert build_unified(noisy).size == 64

    def test_total_mass_one(self, small_campaign):
        # With every table at +1 each context's product is 1 on every
        # cell, so the expanded sum is the total cell mass.
        for model in small_campaign[:20]:
            for side, settings in (("alice", model.alice), ("bob", model.bob)):
                for label, local in settings.items():
                    ones = ((1,) * local.table.cols,) * local.table.rows
                    model = alter_local(model, side, label, table=ones)
            u = build_unified(model)
            for ctx in model.contexts():
                assert expectation_unified_expanded(u, ctx) == 1


class TestSizeGuard:
    def test_expanded_expectation_guarded(self, noisy):
        u = build_unified(noisy, cell_limit=10)
        with pytest.raises(SizeExceededError) as err:
            expectation_unified_expanded(u, Context("x", "y"))
        assert err.value.size == 64 and err.value.limit == 10

    def test_factored_route_unaffected(self, noisy):
        u = build_unified(noisy, cell_limit=10)
        assert expectation_unified(u, Context("x", "y")) == HALF

    def test_verify_equivalence_propagates_guard(self, noisy):
        with pytest.raises(SizeExceededError):
            verify_equivalence(noisy, cell_limit=10)


class TestExpectations:
    def test_noisy_first_context(self, noisy):
        u = build_unified(noisy)
        assert expectation_unified(u, Context("x", "y")) == HALF
        assert expectation_unified_expanded(u, Context("x", "y")) == HALF

    def test_perfect_all_contexts(self, perfect):
        u = build_unified(perfect)
        values = tuple(expectation_unified(u, ctx) for ctx in perfect.contexts())
        assert values == (1, -1, 0, 0)

    def test_both_routes_match_dedicated(self, small_campaign):
        for model in small_campaign[:60]:
            u = build_unified(model)
            for ctx in model.contexts():
                dedicated = expectation_in_context(model, ctx)
                assert expectation_unified(u, ctx) == dedicated
                assert expectation_unified_expanded(u, ctx) == dedicated

    def test_remote_pmf_is_invisible(self, noisy):
        # The first context never reads Bob's second local space.
        reshaped = alter_pmf(noisy, "bob", "y'", (Fraction(1, 4), Fraction(3, 4)))
        u_before = build_unified(noisy)
        u_after = build_unified(reshaped)
        ctx = Context("x", "y")
        assert expectation_unified(u_before, ctx) == expectation_unified(u_after, ctx)


class TestCounterfactuals:
    def test_singleton(self, singleton):
        assert counterfactuals(build_unified(singleton)).as_tuple() == (1, 1, 1)

    def test_flip(self, singleton_flip):
        cf = counterfactuals(build_unified(singleton_flip))
        assert cf.alice_pair == -1

    def test_perfect(self, perfect):
        cf = counterfactuals(build_unified(perfect))
        assert cf.as_tuple() == (0, -1, 0)

    def test_matches_full_product_oracle(self, small_campaign):
        for model in small_campaign[:40]:
            a0, a1 = model.alice_labels
            b0, b1 = model.bob_labels
            cf = counterfactuals(build_unified(model))
            assert cf.alice_pair == oracles.product_mean(
                model, [("alice", a0), ("alice", a1)]
            )
            assert cf.bob_pair == oracles.product_mean(
                model, [("bob", b0), ("bob", b1)]
            )
            assert cf.full_product == oracles.product_mean(
                model,
                [("alice", a0), ("alice", a1), ("bob", b0), ("bob", b1)],
            )

    def test_bounds(self, small_campaign):
        for model in small_campaign[:40]:
            for value in counterfactuals(build_unified(model)).as_tuple():
                assert -1 <= value <= 1

    def test_no_guard_in_factor_aware_route(self, noisy):
        # Counterfactuals never expand the product, so a tight cell limit
        # does not stop them.
        cf = counterfactuals(build_unified(noisy, cell_limit=1))
        assert cf.as_tuple() == (0, -1, 0)


class TestEquivalence:
    def test_presets_equal(self, singleton, singleton_flip, perfect, noisy, random7):
        for model in (singleton, singleton_flip, perfect, noisy, random7):
            report = verify_equivalence(model)
            assert report.equal
            assert report.dedicated == report.factored == report.expanded

    def test_campaign_equal(self, small_campaign):
        for model in small_campaign:
            assert verify_equivalence(model).equal
