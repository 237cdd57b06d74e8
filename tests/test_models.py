import json
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import bell_lab.models as models_module
from bell_lab.models import (
    ContextualModel,
    InvalidModelError,
    JointPmf,
    LocalSetting,
    ModelFormatError,
    canonical_json,
    decimal_str,
    format_rational,
    load_model,
    model_from_dict,
    model_hash,
    model_to_dict,
    parse_rational,
    require_valid,
    save_model,
    validate_model,
)
from tests_support import alter_local


class TestRational:
    def test_parse_integer_and_fraction(self):
        assert parse_rational("3") == Fraction(3)
        assert parse_rational("-3") == Fraction(-3)
        assert parse_rational("5/12") == Fraction(5, 12)
        assert parse_rational("0") == 0

    @pytest.mark.parametrize(
        "bad", ["", "1.5", "1/0", "+1", " 1", "1/-2", "a/b", "1/", "/2", None, 3]
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ModelFormatError):
            parse_rational(bad)

    @pytest.mark.parametrize("text", ["1" * 4301, "-" + "1" * 4301, "3/" + "7" * 4301])
    def test_past_the_digit_limit(self, text):
        # One line, with the message `Fraction(text)` itself raises.
        with pytest.raises(ValueError) as direct:
            Fraction(text)
        with pytest.raises(ModelFormatError) as exc:
            parse_rational(text)
        assert str(exc.value) == f"rational string of {len(text)} characters: {direct.value}"
        assert "\n" not in str(exc.value)

    @given(st.integers(-10**12, 10**12), st.integers(1, 10**9))
    def test_round_trip(self, num, den):
        value = Fraction(num, den)
        assert parse_rational(format_rational(value)) == value

    def test_format_canonical(self):
        assert format_rational(Fraction(4, 2)) == "2"
        assert format_rational(Fraction(-3, 6)) == "-1/2"

    def test_decimal_rendering(self):
        assert decimal_str(Fraction(1, 3)) == "0.333333333333"
        assert decimal_str(Fraction(2)) == "2"
        assert decimal_str(Fraction(14, 5)) == "2.8"


class TestValidation:
    def test_singleton_valid(self, singleton):
        assert validate_model(singleton) == []

    def test_all_presets_valid(self, singleton_flip, perfect, noisy, random7):
        for model in (singleton_flip, perfect, noisy, random7):
            assert validate_model(model) == []

    def test_pmf_sum_violation_names_the_pmf(self, singleton):
        broken = alter_local(singleton, "alice", "x", pmf=(Fraction(1, 2),))
        problems = validate_model(broken)
        assert len(problems) == 1
        assert "alice" in problems[0] and "'x'" in problems[0] and "pmf" in problems[0]

    def test_outcome_violation_names_the_cell(self, singleton):
        broken = alter_local(singleton, "bob", "y'", table=((0,),))
        problems = validate_model(broken)
        assert len(problems) == 1
        assert "table[0][0]" in problems[0] and "y'" in problems[0]

    def test_mislabelled_table_named(self, singleton):
        # A setting carries no label of its own: a broken table is reported
        # under the dict key it sits under, whichever setting it came from.
        alice = dict(singleton.alice)
        alice["x"] = LocalSetting(alice["x"].weights, ((2,),))
        assert validate_model(replace(singleton, alice=alice)) == [
            "alice['x'].table[0][0]: outcome 2 not in {-1,+1}"
        ]
        bob = {"y'": singleton.bob["y"], "y": LocalSetting((Fraction(1),), ((1, -1),))}
        assert validate_model(replace(singleton, bob=bob)) == [
            "bob['y'].table: row 0 has 2 entries, expected local support 1"
        ]

    def test_negative_weight_flagged(self, perfect):
        source = JointPmf(
            ((Fraction(3, 2), Fraction(0)), (Fraction(0), Fraction(-1, 2)))
        )
        problems = validate_model(replace(perfect, source=source))
        assert any("source[1][1]" in p and "negative" in p for p in problems)

    def test_table_shape_mismatch_flagged(self, perfect):
        broken = alter_local(perfect, "alice", "x", table=((1,),))
        problems = validate_model(broken)
        assert any("rows" in p for p in problems)

    def test_wrong_setting_count_flagged(self, singleton):
        alice = dict(singleton.alice)
        del alice["x'"]
        problems = validate_model(replace(singleton, alice=alice))
        assert any("expected exactly 2 settings" in p for p in problems)

    def test_totality_on_garbage(self):
        model = ContextualModel(
            source=JointPmf(((Fraction(1),),)),
            alice={
                "x": LocalSetting((Fraction(2),), ((5,),)),
                "x'": LocalSetting((), ()),
            },
            bob={
                "y": LocalSetting((Fraction(1),), ((1,),)),
                "y'": LocalSetting((Fraction(1),), ((1,),)),
            },
        )
        problems = validate_model(model)
        assert len(problems) >= 3

    def test_require_valid_raises_with_violations(self, singleton):
        broken = alter_local(singleton, "alice", "x", pmf=(Fraction(1, 2),))
        with pytest.raises(InvalidModelError) as err:
            require_valid(broken)
        assert len(err.value.violations) == 1

    def test_campaign_models_all_valid(self, small_campaign):
        for model in small_campaign:
            assert validate_model(model) == []


class TestEntryTypes:
    @pytest.mark.parametrize("value", [1.9, -1.5, True, "1"])
    def test_non_integer_entry_named(self, value, noisy):
        half = (Fraction(1, 2),) * 2
        with pytest.raises(TypeError, match=re.escape(f"integer outcome required, got {value!r}")):
            LocalSetting(half, ((1, -1), (value, 1)))
        # The loader adds the locator: the side and the dict key.
        doc = model_to_dict(noisy)
        doc["alice"]["x"]["table"][1][0] = value
        expected = f"alice['x'].table: integer outcome required, got {value!r}"
        with pytest.raises(ModelFormatError, match=re.escape(expected)):
            model_from_dict(doc)

    @pytest.mark.parametrize("value", [0.5, True, "1/2"])
    def test_pmf_weights_must_be_exact(self, value):
        expected = f"pmf weight: exact rational required, got {value!r}"
        with pytest.raises(TypeError, match=re.escape(expected)):
            LocalSetting((Fraction(1, 2), value), ((1, -1),))

    def test_numpy_integers_become_ints(self):
        values = np.array([[1, -1], [-1, 1]], dtype=np.int8)
        local = LocalSetting((Fraction(1, 2),) * 2, values)
        assert local.table == ((1, -1), (-1, 1))
        assert {type(v) for row in local.table for v in row} == {int}


class TestContexts:
    def test_canonical_order(self, noisy):
        assert noisy.contexts() == (("x", "y"), ("x", "y'"), ("x'", "y"), ("x'", "y'"))

    def test_two_settings_per_side_required(self, noisy):
        three = replace(noisy, alice={**noisy.alice, "x''": noisy.alice["x"]})
        with pytest.raises(InvalidModelError, match="3 alice / 2 bob"):
            three.contexts()


class TestDocuments:
    def test_round_trip(self, small_campaign):
        for model in small_campaign[:40]:
            assert model_from_dict(model_to_dict(model)) == model

    def test_unknown_top_level_field_rejected(self, noisy):
        doc = model_to_dict(noisy)
        doc["comment"] = "hello"
        with pytest.raises(ModelFormatError, match="unknown field"):
            model_from_dict(doc)

    def test_unknown_setting_field_rejected(self, noisy):
        doc = model_to_dict(noisy)
        doc["alice"]["x"]["extra"] = 1
        with pytest.raises(ModelFormatError, match="unknown field"):
            model_from_dict(doc)

    def test_missing_field_rejected(self, noisy):
        doc = model_to_dict(noisy)
        del doc["source"]
        with pytest.raises(ModelFormatError, match="missing field"):
            model_from_dict(doc)

    def test_float_weight_rejected(self, noisy):
        doc = model_to_dict(noisy)
        doc["alice"]["x"]["pmf"][0] = 0.75
        with pytest.raises(ModelFormatError):
            model_from_dict(doc)

    def test_bool_table_entry_rejected(self, noisy):
        doc = model_to_dict(noisy)
        doc["alice"]["x"]["table"][0][0] = True
        with pytest.raises(ModelFormatError, match="integer"):
            model_from_dict(doc)

    def test_label_order_preserved(self, noisy):
        doc = model_to_dict(noisy)
        parsed = model_from_dict(doc)
        assert parsed.alice_labels == ("x", "x'")
        assert parsed.bob_labels == ("y", "y'")

    def test_save_load(self, tmp_path, noisy):
        path = tmp_path / "model.json"
        save_model(noisy, path)
        assert load_model(path) == noisy

    def test_save_writes_the_indented_document(self, tmp_path, noisy):
        path = tmp_path / "model.json"
        save_model(noisy, path)
        expected = json.dumps(model_to_dict(noisy), indent=2) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")

    def test_failed_save_leaves_the_old_file(self, tmp_path, monkeypatch, noisy, perfect):
        path = tmp_path / "model.json"
        save_model(noisy, path)
        before = path.read_bytes()

        def failing_dump(doc, fh, **kwargs):
            fh.write('{"alice": {')
            raise OSError("disk full")

        monkeypatch.setattr(models_module.json, "dump", failing_dump)
        with pytest.raises(OSError, match="disk full"):
            save_model(perfect, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_load_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ModelFormatError, match="invalid JSON"):
            load_model(path)


# Weight strings from a small pool, so a document repeats some of them;
# "2/4" and "1/2" name one value in two spellings.
WEIGHT_TEXT = st.one_of(
    st.sampled_from(["1/2", "2/4", "0", "1", "-1/3", "4/12"]),
    st.builds(lambda n, d: f"{n}/{d}", st.integers(-9, 9), st.integers(1, 9)),
    st.integers(-9, 9).map(str),
)


@st.composite
def weight_documents(draw):
    """A model document of drawn shape whose weights are drawn strings; the
    tables are all +1, so the document always parses."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    texts = st.lists(WEIGHT_TEXT, min_size=1, max_size=4)

    def side(labels, table_rows):
        return {
            label: {"pmf": pmf, "table": [[1] * len(pmf)] * table_rows}
            for label, pmf in zip(labels, (draw(texts), draw(texts)))
        }

    return {
        "alice": side(("x", "x'"), rows),
        "bob": side(("y", "y'"), cols),
        "source": [draw(st.lists(WEIGHT_TEXT, min_size=cols, max_size=cols)) for _ in range(rows)],
    }


class TestParseOnce:
    """`model_from_dict` parses each distinct weight string once per
    document; the result and every error are as if each were parsed alone."""

    @given(weight_documents())
    def test_same_fractions_as_parse_rational(self, doc):
        model = model_from_dict(doc)
        assert model.source.weights == tuple(
            tuple(parse_rational(text) for text in row) for row in doc["source"]
        )
        for side in ("alice", "bob"):
            for label, entry in doc[side].items():
                local = getattr(model, side)[label]
                assert local.weights == tuple(parse_rational(text) for text in entry["pmf"])

    def test_two_spellings_of_one_value(self):
        doc = {
            "alice": {x: {"pmf": ["2/4", "1/2"], "table": [[1, 1]]} for x in ("x", "x'")},
            "bob": {y: {"pmf": ["1/2", "2/4"], "table": [[1, 1]]} for y in ("y", "y'")},
            "source": [["1/2"]],
        }
        model = model_from_dict(doc)
        half = Fraction(1, 2)
        assert model.source.weights == ((half,),)
        assert all(local.weights == (half, half)
                   for local in (*model.alice.values(), *model.bob.values()))

    @pytest.mark.parametrize("bad", [["1/2"], [], {"a": "1/2"}, {}, 1, 0.5, True, False, None],
                             ids=repr)
    @pytest.mark.parametrize("position", ["source", "pmf"])
    def test_same_error_for_non_strings(self, noisy, bad, position):
        # The position follows a weight already parsed, so the memo holds
        # strings when the bad value reaches it; lists and objects are
        # unhashable and must not be looked up.
        with pytest.raises(ModelFormatError) as direct:
            parse_rational(bad)
        doc = model_to_dict(noisy)
        if position == "source":
            doc["source"][1][1] = bad
        else:
            doc["bob"]["y'"]["pmf"][1] = bad
        with pytest.raises(ModelFormatError) as parsed:
            model_from_dict(doc)
        assert str(parsed.value) == str(direct.value)


class TestHashing:
    def test_canonical_json_is_compact_and_ordered(self, perfect):
        text = canonical_json(perfect)
        assert ": " not in text and ", " not in text
        doc = json.loads(text)
        assert list(doc) == ["alice", "bob", "source"]

    def test_hash_shape_and_stability(self, noisy):
        h = model_hash(noisy)
        assert len(h) == 64 and set(h) <= set("0123456789abcdef")
        assert model_hash(noisy) == h

    def test_hash_sensitive_to_content(self, noisy):
        changed = alter_local(
            noisy, "alice", "x'", table=((1, 1), (1, -1))
        )
        assert model_hash(changed) != model_hash(noisy)
