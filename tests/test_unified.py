from dataclasses import astuple
from fractions import Fraction

import pytest

import oracles
from bell_lab import chsh, expanded
from bell_lab.chsh import SizeExceededError, _cell_count, certify_model
from bell_lab.exact import correlation_set
from bell_lab.models import InvalidModelError
from bell_lab.expanded import _expanded_route
from bell_lab.unified import _factored_route, counterfactuals
from tests_support import alter_local, alter_pmf, counting

HALF = Fraction(1, 2)


class TestConstruction:
    def test_sizes(self, singleton, perfect, noisy):
        assert _cell_count(singleton) == 1
        assert _cell_count(perfect) == 4
        assert _cell_count(noisy) == 64

    def test_total_mass_one(self, small_campaign):
        # With every table at +1 each context's product is 1 on every
        # cell, so the expanded sum is the total cell mass.
        for model in small_campaign[:20]:
            for side, settings in (("alice", model.alice), ("bob", model.bob)):
                for label, local in settings.items():
                    ones = [[1] * len(row) for row in local.table]
                    model = alter_local(model, side, label, table=ones)
            assert _expanded_route(model) == (1,) * 4


class TestSizeGuard:
    def test_expanded_expectation_guarded(self, monkeypatch, noisy):
        # `certify_model` owns the guard: one cell over the limit refuses
        # the model before any route runs, and a limit of exactly the
        # cell count lets all four run.
        calls = [
            counting(monkeypatch, module, name)
            for module, name in (
                (chsh, "_dedicated_route"),
                (chsh, "_factored_route"),
                (chsh, "_reduced_route"),
                (expanded, "_expanded_route"),
            )
        ]
        with pytest.raises(SizeExceededError) as err:
            certify_model(noisy, cell_limit=63)
        assert err.value.size == 64 and err.value.limit == 63
        assert calls == [[]] * 4
        assert certify_model(noisy, cell_limit=64).all_passed
        assert [len(c) for c in calls] == [1] * 4

    def test_factored_route_unaffected(self, noisy):
        # The factored route takes no cell limit: it never expands.
        assert _factored_route(noisy)[0] == HALF

    def test_verify_equivalence_propagates_guard(self, noisy):
        # The certificate refuses rather than skip the expanded route.
        with pytest.raises(SizeExceededError) as err:
            certify_model(noisy, cell_limit=10)
        assert err.value.size == 64 and err.value.limit == 10


class TestExpectations:
    def test_noisy_first_context(self, noisy):
        assert _factored_route(noisy)[0] == HALF
        assert _expanded_route(noisy)[0] == HALF

    def test_perfect_all_contexts(self, perfect):
        assert _factored_route(perfect) == (1, -1, 0, 0)

    def test_both_routes_match_dedicated(self, small_campaign):
        for model in small_campaign[:60]:
            dedicated = correlation_set(model)
            assert _factored_route(model) == dedicated
            assert _expanded_route(model) == dedicated

    def test_remote_pmf_is_invisible(self, noisy):
        # The first context never reads Bob's second local space.
        reshaped = alter_pmf(noisy, "bob", "y'", (Fraction(1, 4), Fraction(3, 4)))
        assert _factored_route(noisy)[0] == _factored_route(reshaped)[0]


class TestCounterfactuals:
    def test_singleton(self, singleton):
        assert astuple(counterfactuals(singleton)) == (1, 1, 1)

    def test_flip(self, singleton_flip):
        cf = counterfactuals(singleton_flip)
        assert cf.alice_pair == -1

    def test_perfect(self, perfect):
        cf = counterfactuals(perfect)
        assert astuple(cf) == (0, -1, 0)

    def test_matches_full_product_oracle(self, small_campaign):
        for model in small_campaign[:40]:
            a0, a1 = model.alice_labels
            b0, b1 = model.bob_labels
            cf = counterfactuals(model)
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
            for value in astuple(counterfactuals(model)):
                assert -1 <= value <= 1

    def test_no_guard_in_factor_aware_route(self, noisy):
        # Counterfactuals never expand the product: they take no cell limit
        # and still run where a certificate refuses one cell.
        with pytest.raises(SizeExceededError):
            certify_model(noisy, cell_limit=1)
        assert astuple(counterfactuals(noisy)) == (0, -1, 0)

    def test_invalid_model_rejected(self, noisy):
        broken = alter_local(noisy, "alice", "x", table=((1, 1),))
        with pytest.raises(InvalidModelError):
            counterfactuals(broken)


class TestEquivalence:
    def test_presets_equal(self, singleton, singleton_flip, perfect, noisy, random7):
        for model in (singleton, singleton_flip, perfect, noisy, random7):
            result = certify_model(model)
            assert result.routes_equal
            assert result.dedicated == result.factored == result.expanded

    def test_campaign_equal(self, small_campaign):
        for model in small_campaign:
            assert certify_model(model).routes_equal
