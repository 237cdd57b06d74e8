import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
import bell_lab.exact as exact_module
import bell_lab.models as models_module
from bell_lab.chsh import (
    CHSH_PATTERNS,
    BoundViolationError,
    Certification,
    SizeExceededError,
    certify_lhv_bound,
    certify_model,
    chsh_from_correlations,
)
from bell_lab.exact import correlation_set
from bell_lab.models import InvalidModelError, model_hash
from bell_lab.reduction import _reduced_route
from bell_lab.expanded import _expanded_route
from bell_lab.unified import _factored_route
from tests_support import (
    PRESETS,
    alter_local,
    counting,
    local_splits,
    relation_models,
    source_splits,
    split_local,
    split_source,
)


def flip_all_alice_tables(model):
    out = model
    for label in model.alice_labels:
        values = tuple(
            tuple(-v for v in row) for row in model.alice[label].table
        )
        out = alter_local(out, "alice", label, table=values)
    return out


rational_in_unit = st.fractions(min_value=-1, max_value=1).map(
    lambda f: Fraction(f).limit_denominator(997)
)


class TestPatterns:
    def test_exactly_eight_odd_negation_patterns(self):
        assert len(CHSH_PATTERNS) == 8
        assert len(set(CHSH_PATTERNS)) == 8
        for pattern in CHSH_PATTERNS:
            assert set(pattern) <= {-1, 1}
            assert pattern.count(-1) % 2 == 1

    def test_one_negated_plus_negations(self):
        single = [p for p in CHSH_PATTERNS if p.count(-1) == 1]
        triple = [p for p in CHSH_PATTERNS if p.count(-1) == 3]
        assert len(single) == len(triple) == 4
        negated = {tuple(-s for s in p) for p in single}
        assert negated == set(triple)


class TestReport:
    def test_all_ones(self):
        report = chsh_from_correlations((Fraction(1),) * 4)
        assert report.s_max == 2
        assert report.bound_satisfied
        assert sorted(report.sums) == [-2, -2, -2, -2, 2, 2, 2, 2]

    def test_perfect_pair(self):
        report = chsh_from_correlations(
            (Fraction(1), Fraction(-1), Fraction(0), Fraction(0))
        )
        assert Fraction(2) in report.sums
        assert report.s_max == 2
        assert report.bound_satisfied

    def test_non_lhv_input_flagged(self):
        seven = Fraction(7, 10)
        report = chsh_from_correlations((seven, -seven, seven, seven))
        assert report.s_max == Fraction(14, 5)
        assert not report.bound_satisfied

    @pytest.mark.parametrize("bad", [Fraction(3, 2), Fraction(-2)])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match="outside"):
            chsh_from_correlations((bad, Fraction(0), Fraction(0), Fraction(0)))

    @pytest.mark.parametrize("count", [0, 3, 5])
    def test_other_than_four_values_rejected(self, count):
        with pytest.raises(ValueError, match=f"^expected 4 correlations, got {count}$"):
            chsh_from_correlations((Fraction(1),) * count)

    @given(rational_in_unit, rational_in_unit, rational_in_unit, rational_in_unit)
    def test_sums_match_oracle(self, c1, c2, c3, c4):
        report = chsh_from_correlations((c1, c2, c3, c4))
        assert sorted(report.sums) == oracles.chsh_sums((c1, c2, c3, c4))
        assert report.s_max == oracles.s_max((c1, c2, c3, c4))


def assert_report_matches_oracle(c: tuple) -> None:
    report = chsh_from_correlations(c)
    expected = oracles.chsh_fraction_oracle(c)
    assert report.sums == expected.sums
    assert report.s_max == expected.s_max
    assert report.bound_satisfied == expected.bound_satisfied


above_2_64 = st.integers(2**64 + 1, 2**80).flatmap(
    lambda d: st.integers(-d, d).map(lambda n: Fraction(n, d))
)


class TestIntegerSumsMatchOracle:
    """The integer-numerator report against the Fraction-generator one it replaced."""

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets(self, name):
        assert_report_matches_oracle(correlation_set(PRESETS[name]()))

    def test_small_campaign(self, small_campaign):
        for model in small_campaign:
            assert_report_matches_oracle(correlation_set(model))

    @given(above_2_64, above_2_64, above_2_64, above_2_64)
    def test_denominators_above_2_64(self, c1, c2, c3, c4):
        assert_report_matches_oracle((c1, c2, c3, c4))

    @pytest.mark.parametrize("signs", list(itertools.product((1, -1), repeat=4)))
    def test_exact_unit_values(self, signs):
        assert_report_matches_oracle(tuple(Fraction(s) for s in signs))
        assert_report_matches_oracle(
            (Fraction(signs[0]), Fraction(0), Fraction(signs[2], 3), Fraction(signs[3]))
        )

    @pytest.mark.parametrize(
        "bad", [1 + Fraction(1, 2**70), -1 - Fraction(1, 3**50), Fraction(3, 2), Fraction(-2)]
    )
    @pytest.mark.parametrize("position", range(4))
    def test_just_outside_the_range(self, bad, position):
        values = [Fraction(1), Fraction(-1, 2**70), Fraction(-1), Fraction(2, 3**50)]
        values[position] = bad
        c = tuple(values)
        with pytest.raises(ValueError) as expected:
            oracles.chsh_fraction_oracle(c)
        with pytest.raises(ValueError) as raised:
            chsh_from_correlations(c)
        assert str(raised.value) == str(expected.value)
        assert "outside [-1, 1]" in str(raised.value)

    def test_first_bad_value_is_reported(self):
        c = (Fraction(0), Fraction(5, 4), Fraction(-7, 3), Fraction(0))
        with pytest.raises(ValueError) as raised:
            chsh_from_correlations(c)
        assert str(raised.value) == "correlation 5/4 outside [-1, 1]"


class TestCertificate:
    def test_singleton(self, singleton):
        cert = certify_lhv_bound(singleton)
        assert cert.report.s_max == 2
        assert cert.report.bound_satisfied
        assert cert.model_sha256 == model_hash(singleton)

    def test_perfect(self, perfect):
        cert = certify_lhv_bound(perfect)
        assert cert.report.s_max == 2
        assert cert.correlations == (1, -1, 0, 0)

    def test_to_dict_serializable(self, noisy):
        doc = certify_lhv_bound(noisy).to_dict()
        text = json.dumps(doc, sort_keys=True)
        assert json.dumps(certify_lhv_bound(noisy).to_dict(), sort_keys=True) == text
        assert doc["s_max"] == "1"
        assert doc["bound_satisfied"] is True

    def test_campaign_always_satisfied(self, small_campaign):
        for model in small_campaign:
            assert certify_lhv_bound(model).report.bound_satisfied

    def test_violation_raises_loudly(self, noisy, monkeypatch):
        import bell_lab.chsh as chsh_module

        fake = (Fraction(1), Fraction(-1), Fraction(1), Fraction(1))
        monkeypatch.setattr(chsh_module, "correlation_set", lambda model: fake)
        with pytest.raises(BoundViolationError, match="s_max"):
            certify_lhv_bound(noisy)


class TestSymmetries:
    def test_alice_sign_flip_preserves_s_max(self, small_campaign):
        for model in small_campaign[:25]:
            flipped = flip_all_alice_tables(model)
            before = chsh_from_correlations(correlation_set(model)).s_max
            after = chsh_from_correlations(correlation_set(flipped)).s_max
            assert before == after

    def test_alice_setting_swap_preserves_s_max(self, small_campaign):
        from dataclasses import replace

        for model in small_campaign[:25]:
            a0, a1 = model.alice_labels
            swapped = replace(
                model, alice={a0: model.alice[a1], a1: model.alice[a0]}
            )
            before = chsh_from_correlations(correlation_set(model))
            after = chsh_from_correlations(correlation_set(swapped))
            assert before.s_max == after.s_max
            assert sorted(before.sums) == sorted(after.sums)


NEGATION_MODELS = relation_models()


class TestNegatedSetting:
    """Negating one setting's table negates, in every route, the two
    contexts that read that setting, and leaves the other two."""

    ROUTES = ("dedicated", "factored", "expanded", "reduced")

    @pytest.mark.parametrize("name", sorted(NEGATION_MODELS))
    def test_contexts_of_that_setting_change_sign(self, name):
        model = NEGATION_MODELS[name]
        base = certify_model(model)
        moved = 0
        for side, labels in (("alice", model.alice_labels), ("bob", model.bob_labels)):
            settings = model.alice if side == "alice" else model.bob
            for label in labels:
                table = tuple(tuple(-v for v in row) for row in settings[label].table)
                negated = certify_model(alter_local(model, side, label, table=table))
                assert negated.contexts == base.contexts
                reads = [ctx[0 if side == "alice" else 1] == label for ctx in base.contexts]
                assert sum(reads) == 2
                for route in self.ROUTES:
                    for read, got, was in zip(reads, getattr(negated, route), getattr(base, route)):
                        assert got == (-was if read else was), (side, label, route)
                moved += sum(read and was != 0 for read, was in zip(reads, base.dedicated))
        # The relation is not vacuous: some context that flips is nonzero.
        assert moved > 0


def without_hashes(doc: dict) -> dict:
    """`doc` with every ``model_sha256`` key, at any depth, left out."""
    return {
        key: without_hashes(value) if isinstance(value, dict) else value
        for key, value in doc.items()
        if key != "model_sha256"
    }


def assert_only_the_hash_changes(base: Certification, split, where) -> None:
    """`split`'s certification has `base`'s values on every route, and its
    document differs from `base`'s only in the model's hash."""
    result = certify_model(split)
    for route in TestNegatedSetting.ROUTES:
        assert getattr(result, route) == getattr(base, route), (*where, route)
    got, doc = result.to_dict(), base.to_dict()
    assert got["model_sha256"] == model_hash(split) != doc["model_sha256"]
    assert without_hashes(got) == without_hashes(doc)


class TestSplitLocalValue:
    """Splitting one setting's local value k into two halves of its weight,
    with its table column duplicated, changes no route's values, and the
    certify document only in the model's hash."""

    @pytest.mark.parametrize("name", sorted(NEGATION_MODELS))
    def test_routes_and_document_unchanged(self, name):
        model = NEGATION_MODELS[name]
        base = certify_model(model)
        for side, label, k in local_splits(model):
            assert_only_the_hash_changes(base, split_local(model, side, label, k), (side, label, k))


class TestSplitSourceIndex:
    """Splitting source row i into two rows of half its weights, with row i
    of both of Alice's tables duplicated, changes no route's values, and the
    certify document only in the model's hash; so does splitting source
    column j with row j of Bob's tables duplicated.  The sampler's ledger
    does change: its row-major source partition reorders."""

    @pytest.mark.parametrize("name", sorted(NEGATION_MODELS))
    def test_routes_and_document_unchanged(self, name):
        model = NEGATION_MODELS[name]
        base = certify_model(model)
        for side, index in source_splits(model):
            split = split_source(model, side, index)
            assert (split.source.rows, split.source.cols) == (
                model.source.rows + (side == "alice"), model.source.cols + (side == "bob")
            )
            assert_only_the_hash_changes(base, split, (side, index))


class TestCertifyModel:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_matches_the_separate_checks(self, name):
        model = PRESETS[name]()
        expected = Certification(
            contexts=model.contexts(),
            factored=_factored_route(model),
            expanded=_expanded_route(model),
            reduced=_reduced_route(model),
            certificate=certify_lhv_bound(model),
        )
        assert certify_model(model) == expected
        assert certify_model(model).all_passed

    def test_campaign_matches_the_separate_checks(self, small_campaign):
        # Every route's values against the naive oracles, not the engine.
        for model in small_campaign[:30]:
            result = certify_model(model)
            contexts = model.contexts()
            quadruple = oracles.correlation_quadruple(model)
            assert result.contexts == contexts
            assert result.dedicated == quadruple
            assert result.factored == quadruple
            assert result.expanded == tuple(
                oracles.expanded_scaled_oracle(model, ctx) for ctx in contexts
            )
            assert result.reduced == tuple(
                oracles.reduced_context_mean(model, *ctx) for ctx in contexts
            )
            assert result.certificate == certify_lhv_bound(model)

    def test_one_dedicated_pass(self, monkeypatch, random7):
        # Every dedicated-route context sum, public or not, runs this loop.
        dedicated = counting(monkeypatch, exact_module, "_context_expectation")
        validations = counting(monkeypatch, models_module, "validate_model")
        certify_model(random7)
        assert len(dedicated) == 4
        assert len(validations) == 1

    def test_invalid_model_rejected_before_any_route(self, monkeypatch, noisy):
        dedicated = counting(monkeypatch, exact_module, "_context_expectation")
        broken = alter_local(noisy, "alice", "x", table=((1, 1),))
        with pytest.raises(InvalidModelError):
            certify_model(broken)
        assert dedicated == []

    def test_size_guard_propagates(self, noisy):
        with pytest.raises(SizeExceededError):
            certify_model(noisy, cell_limit=10)

    def test_to_dict_fields(self, noisy):
        doc = certify_model(noisy).to_dict()
        assert sorted(doc) == ["all_passed", "chsh", "equivalence", "model_sha256", "reduction"]
        assert doc["model_sha256"] == model_hash(noisy) == doc["chsh"]["model_sha256"]
        assert doc["all_passed"] is True
