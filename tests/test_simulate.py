import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import oracles
import bell_lab.models as models_module
from bell_lab import simulate
from bell_lab.exact import correlation_set, outcome_distribution, verify_no_signalling
from bell_lab.models import (
    InvalidModelError,
    JointPmf,
    atomic_writer,
    model_from_dict,
    model_to_dict,
)
from bell_lab.reduction import reduce_model
from bell_lab.simulate import (
    CHUNK,
    U_SCALE,
    TrialLedger,
    _thresholds,
    empirical_chsh,
    no_signalling_report,
    quantum_reference,
    simulate_trials,
)
from tests_support import PRESETS, counting

F = Fraction
OPTIMAL_ANGLES = (0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)
CHUNK_SIZES = (1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7)


def quoted_label_model():
    """The noisy preset with labels a CSV writer must quote."""
    doc = model_to_dict(PRESETS["noisy_readout"]())
    doc["alice"] = dict(zip(('a,"q', "x'"), doc["alice"].values()))
    doc["bob"] = dict(zip(("y", '"b"'), doc["bob"].values()))
    return model_from_dict(doc)


ORACLE_MODELS = {**PRESETS, "quoted_labels": quoted_label_model}


def ledger_arrays(ledger):
    """(alice setting, bob setting, a, b) as int8 arrays, decoded from the
    cell codes alice*8 + bob*4 + (a > 0)*2 + (b > 0)."""
    codes = ledger.codes.astype(np.int8)
    return codes // 8, codes // 4 % 2, codes // 2 % 2 * 2 - 1, codes % 2 * 2 - 1


def assert_same_ledger(ledger, expected, tmp_path):
    """Decoded arrays equal the oracle's, element and dtype; CSV bytes equal
    the per-row writer's."""
    assert ledger.codes.dtype == np.uint8
    for got, want in zip(ledger_arrays(ledger), expected):
        assert got.dtype == want.dtype == np.int8
        assert np.array_equal(got, want)
    fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
    ledger.to_csv(fast)
    oracles.ledger_csv_oracle(ledger, slow)
    assert fast.read_bytes() == slow.read_bytes()


class TestThresholds:
    def test_exact_halving(self):
        k = _thresholds((F(0), F(1, 2), F(1)))
        assert k.tolist() == [U_SCALE // 2, U_SCALE]

    def test_floor_of_irreducible(self):
        k = _thresholds((F(0), F(1, 3), F(1)))
        assert k.tolist() == [(1 << 53) // 3, U_SCALE]


class TestSimulateTrials:
    def test_singleton_constant(self, singleton):
        ledger = simulate_trials(singleton, 10, seed=42)
        _, _, a, b = ledger_arrays(ledger)
        assert ledger.n == 10
        assert set(a.tolist()) == {1}
        assert set(b.tolist()) == {1}

    def test_counts_consistent_with_records(self, noisy):
        ledger = simulate_trials(noisy, 500, seed=9)
        counts = ledger.context_counts()
        assert sum(sum(c.values()) for c in counts.values()) == 500
        first = counts[("x", "y")]
        a_set, b_set, a, b = ledger_arrays(ledger)
        mask = (a_set == 0) & (b_set == 0)
        assert sum(first.values()) == int(mask.sum())
        assert first[(1, 1)] == int(((a == 1) & (b == 1) & mask).sum())

    def test_counts_match_whole_array_bincount(self, noisy):
        ledger = simulate_trials(noisy, 3 * CHUNK + 7, seed=4)
        bins = np.bincount(ledger.codes, minlength=16)
        counts = ledger.context_counts()
        for ctx, (alice_label, bob_label) in enumerate(
            (a, b) for a in noisy.alice_labels for b in noisy.bob_labels
        ):
            cell = counts[(alice_label, bob_label)]
            assert [cell[(-1, -1)], cell[(-1, 1)], cell[(1, -1)], cell[(1, 1)]] == [
                int(bins[ctx * 4 + k]) for k in range(4)
            ]
        assert sum(sum(c.values()) for c in counts.values()) == 3 * CHUNK + 7

    def test_reproducible(self, noisy):
        first = simulate_trials(noisy, 1000, seed=5)
        second = simulate_trials(noisy, 1000, seed=5)
        for got, want in zip(ledger_arrays(first), ledger_arrays(second)):
            assert np.array_equal(got, want)
        other = simulate_trials(noisy, 1000, seed=6)
        assert not np.array_equal(ledger_arrays(first)[2], ledger_arrays(other)[2])

    def test_draw_order_contract(self, noisy):
        # Five 53-bit columns per trial: Alice setting, Bob setting,
        # source pair, U1, U2.  Recompute trial 0 by hand from the stream.
        seed = 77
        ledger = simulate_trials(noisy, 1, seed=seed)
        draws = np.random.default_rng(seed).integers(0, U_SCALE, size=(1, 5), dtype=np.int64)
        a_set = int(draws[0, 0] > U_SCALE // 2)
        b_set = int(draws[0, 1] > U_SCALE // 2)
        got_a_set, got_b_set, got_a, _ = ledger_arrays(ledger)
        assert got_a_set[0] == a_set
        assert got_b_set[0] == b_set

        reduced = reduce_model(noisy)
        u1 = F(int(draws[0, 3]), U_SCALE)
        pair = reduced.alice_map.locate(u1)
        source_k = _thresholds(
            (F(0), F(1, 2), F(1, 2), F(1, 2), F(1))
        )
        src = int(np.searchsorted(source_k, draws[0, 2], side="left"))
        l1 = src // 2
        label = noisy.alice_labels[a_set]
        expected_a = noisy.alice[label].table.values[l1][pair[a_set]]
        assert got_a[0] == expected_a

    def test_perfect_pair_deterministic_given_source(self, perfect):
        ledger = simulate_trials(perfect, 10**5, seed=1)
        emp = empirical_chsh(ledger)
        by_ctx = dict(zip(emp.contexts, emp.correlations))
        assert by_ctx[("x", "y")] == 1.0
        assert by_ctx[("x", "y'")] == -1.0

    def test_noisy_within_binomial_bound(self, noisy):
        ledger = simulate_trials(noisy, 10**6, seed=1)
        emp = empirical_chsh(ledger)
        exact = dict(
            zip(emp.contexts, correlation_set(noisy).as_tuple())
        )
        for ctx, n_ctx, e_hat in zip(
            emp.contexts, emp.n_per_context, emp.correlations
        ):
            assert abs(e_hat - float(exact[ctx])) <= 3 / math.sqrt(n_ctx)

    def test_needs_at_least_one_trial(self, singleton):
        with pytest.raises(ValueError):
            simulate_trials(singleton, 0, seed=1)


class TestSettingTie:
    @pytest.fixture
    def tied_draws(self, monkeypatch):
        """Both setting columns draw exactly 2^52 in row 0 and 2^52 + 1 in
        row 1; every other column keeps its seeded draw."""
        generator = np.random.Generator

        class TiedGenerator:
            def __init__(self, bit_generator):
                self._rng = generator(bit_generator)

            def integers(self, *args, **kwargs):
                draws = self._rng.integers(*args, **kwargs)
                draws[:2, :2] = [[U_SCALE // 2], [U_SCALE // 2 + 1]]
                return draws

        monkeypatch.setattr(np.random, "Generator", TiedGenerator)

    def test_simulate_sends_tie_to_first_setting(self, tied_draws, noisy):
        a_set, b_set, _, _ = ledger_arrays(simulate_trials(noisy, 2, seed=0))
        assert a_set.tolist() == b_set.tolist() == [0, 1]

    def test_quantum_sends_tie_to_second_setting(self, tied_draws):
        a_set, b_set, _, _ = ledger_arrays(quantum_reference(OPTIMAL_ANGLES, 2, seed=0))
        assert a_set.tolist() == b_set.tolist() == [1, 1]


class TestZeroSourceDraw:
    """A source draw of exactly 0 selects the first pair of positive weight."""

    @pytest.fixture
    def zero_draws(self, monkeypatch):
        """Every generator, the oracle's included, draws 0 in every column."""
        generator = np.random.Generator

        class ZeroGenerator:
            def __init__(self, bit_generator):
                self._rng = generator(bit_generator)

            def integers(self, *args, **kwargs):
                return np.zeros_like(self._rng.integers(*args, **kwargs))

        monkeypatch.setattr(np.random, "Generator", ZeroGenerator)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: ZeroGenerator(np.random.PCG64(seed)))

    def test_zero_weight_first_pair_never_drawn(self, zero_draws, noisy):
        # Source pair (0, 0) has weight 0; the first real pair is (0, 1),
        # where Alice's x reads +1 and Bob's y reads -1: code 2, not 3.
        half = F(1, 2)
        model = replace(noisy, source=JointPmf(((F(0), half), (half, F(0)))))
        ledger = simulate_trials(model, 4, seed=0)
        assert ledger.codes.tolist() == [2, 2, 2, 2]
        expected = oracles.unchunked_trials_oracle(model, 4, seed=0)
        for got, want in zip(ledger_arrays(ledger), expected):
            assert np.array_equal(got, want)


class TestValidation:
    def test_simulate_trials_validates_once(self, monkeypatch, noisy):
        calls = counting(monkeypatch, models_module, "validate_model")
        simulate_trials(noisy, 10, seed=0)
        assert len(calls) == 1

    def test_invalid_model_rejected(self, noisy):
        broken = replace(noisy, source=JointPmf(((F(1, 2), F(0)), (F(0), F(1, 4)))))
        with pytest.raises(InvalidModelError, match="source"):
            simulate_trials(broken, 10, seed=0)


class TestEmpiricalChsh:
    def test_singleton_exact(self, singleton):
        emp = empirical_chsh(simulate_trials(singleton, 400, seed=0))
        assert emp.correlations == (1.0, 1.0, 1.0, 1.0)
        assert emp.standard_errors == (0.0, 0.0, 0.0, 0.0)
        assert emp.s_max == 2.0
        assert emp.sum_standard_error == 0.0

    def test_empty_context_rejected(self, singleton):
        ledger = simulate_trials(singleton, 1, seed=0)
        with pytest.raises(ValueError, match="no trials"):
            empirical_chsh(ledger)

    def test_matches_counts(self, noisy):
        ledger = simulate_trials(noisy, 5000, seed=4)
        emp = empirical_chsh(ledger)
        counts = ledger.context_counts()
        for ctx, e_hat, n_ctx in zip(emp.contexts, emp.correlations, emp.n_per_context):
            cell = counts[ctx]
            agree = cell[(1, 1)] + cell[(-1, -1)]
            disagree = cell[(1, -1)] + cell[(-1, 1)]
            assert n_ctx == agree + disagree
            assert e_hat == (agree - disagree) / n_ctx


class TestQuantumReference:
    def test_equal_angles_anticorrelate(self):
        ledger = quantum_reference((0.0, 0.0, 0.0, 0.0), 10000, seed=8)
        emp = empirical_chsh(ledger)
        assert emp.correlations == (-1.0, -1.0, -1.0, -1.0)
        assert emp.s_max == 2.0

    def test_optimal_angles_violate(self):
        emp = empirical_chsh(quantum_reference(OPTIMAL_ANGLES, 10**5, seed=3))
        assert abs(emp.s_max - 2 * math.sqrt(2)) < 0.05
        assert (emp.s_max - 2) / emp.sum_standard_error > 5

    def test_reproducible(self):
        first = quantum_reference(OPTIMAL_ANGLES, 2000, seed=12)
        second = quantum_reference(OPTIMAL_ANGLES, 2000, seed=12)
        for got, want in zip(ledger_arrays(first), ledger_arrays(second)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("slot", range(4))
    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_non_finite_angle_named(self, slot, bad):
        angles = list(OPTIMAL_ANGLES)
        angles[slot] = bad
        label = ("a0", "a1", "b0", "b1")[slot]
        with pytest.raises(ValueError, match=f"angle {label} must be finite"):
            quantum_reference(tuple(angles), 10, seed=0)

    def test_single_trial_cannot_fill_contexts(self):
        ledger = quantum_reference(OPTIMAL_ANGLES, 1, seed=1)
        assert ledger.n == 1
        with pytest.raises(ValueError, match="no trials"):
            empirical_chsh(ledger)


class TestNoSignallingEmpirical:
    def test_singleton_all_zero(self, singleton):
        report = no_signalling_report(simulate_trials(singleton, 400, seed=0))
        assert len(report.rows) == 8
        for row in report.rows:
            assert row.difference == 0.0
            assert row.z == 0.0
            assert 0.0 <= row.frequencies[0] <= 1.0
        assert report.max_abs_z == 0.0

    def test_model_runs_stay_small(self, noisy):
        report = no_signalling_report(simulate_trials(noisy, 10**5, seed=6))
        assert report.max_abs_z < 4.0

    def test_adversarial_ledger_flagged(self):
        # Hand-built records where Alice's outcome tracks Bob's setting.
        n = 2000
        rng = np.random.default_rng(0)
        b_set = rng.integers(0, 2, size=n).astype(np.int8)
        a_set = rng.integers(0, 2, size=n).astype(np.int8)
        a = np.where(b_set == 0, 1, -1).astype(np.int8)
        b = np.ones(n, dtype=np.int8)
        codes = (a_set * 8 + b_set * 4 + (a > 0) * 2 + (b > 0)).astype(np.uint8)
        ledger = TrialLedger(seed=0, alice_labels=("x", "x'"), bob_labels=("y", "y'"), codes=codes)
        for got, want in zip(ledger_arrays(ledger), (a_set, b_set, a, b)):
            assert np.array_equal(got, want)
        report = no_signalling_report(ledger)
        alice_rows = [r for r in report.rows if r.side == "alice"]
        assert max(abs(r.z) for r in alice_rows) > 10


class TestNoSignallingExact:
    def test_outcome_distribution_matches_oracle(self, small_campaign):
        for model in small_campaign[:25]:
            for side, labels, remotes in (
                ("alice", model.alice_labels, model.bob_labels),
                ("bob", model.bob_labels, model.alice_labels),
            ):
                for setting in labels:
                    for remote in remotes:
                        p_plus, p_minus = outcome_distribution(
                            model, side, setting, remote
                        )
                        assert p_plus + p_minus == 1
                        mean = oracles.product_mean(model, [(side, setting)])
                        assert p_plus - p_minus == mean

    def test_presets_exactly_no_signalling(
        self, singleton, singleton_flip, perfect, noisy, random7
    ):
        for model in (singleton, singleton_flip, perfect, noisy, random7):
            report = verify_no_signalling(model)
            assert report.equal
            assert len(report.rows) == 4

    def test_campaign_exactly_no_signalling(self, small_campaign):
        for model in small_campaign:
            assert verify_no_signalling(model).equal


class TestLedgerCsv:
    def test_header_and_signs(self, tmp_path, singleton):
        path = tmp_path / "ledger.csv"
        simulate_trials(singleton, 10, seed=42).to_csv(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "trial,alice_setting,bob_setting,a,b"
        assert len(lines) == 11
        assert all(line.endswith("+1,+1") for line in lines[1:])

    def test_byte_identical_reruns(self, tmp_path, noisy):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        simulate_trials(noisy, 300, seed=5).to_csv(first)
        simulate_trials(noisy, 300, seed=5).to_csv(second)
        assert first.read_bytes() == second.read_bytes()


class TestLedgerViews:
    def test_counts_and_csv_match_records(self, tmp_path, noisy):
        ledger = simulate_trials(noisy, 2 * CHUNK + 3, seed=8)
        counts = [ledger.context_counts() for _ in range(3)]
        ledger.to_csv(tmp_path / "ledger.csv")

        oracles.ledger_csv_oracle(ledger, tmp_path / "oracle.csv")
        assert (tmp_path / "ledger.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
        assert counts[0] == counts[1] == counts[2]
        a_set, b_set, a_out, b_out = ledger_arrays(ledger)
        cells = 0
        for (alice_label, bob_label), cell in counts[0].items():
            mask = (a_set == ledger.alice_labels.index(alice_label)) & (
                b_set == ledger.bob_labels.index(bob_label)
            )
            for (a, b), count in cell.items():
                assert count == int(((a_out == a) & (b_out == b) & mask).sum())
                cells += 1
        assert cells == 16


class TestChunkedOracles:
    @pytest.mark.parametrize("n", CHUNK_SIZES)
    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    def test_model_matches_unchunked(self, tmp_path, name, n):
        model = ORACLE_MODELS[name]()
        expected = oracles.unchunked_trials_oracle(model, n, seed=n)
        assert_same_ledger(simulate_trials(model, n, seed=n), expected, tmp_path)

    @pytest.mark.parametrize("n", CHUNK_SIZES)
    def test_quantum_matches_unchunked(self, tmp_path, n):
        expected = oracles.unchunked_quantum_oracle(OPTIMAL_ANGLES, n, seed=n)
        assert_same_ledger(quantum_reference(OPTIMAL_ANGLES, n, seed=n), expected, tmp_path)

    @pytest.mark.parametrize("chunk", (1, 77, 4096))
    def test_chunk_size_does_not_change_stream(self, monkeypatch, noisy, chunk):
        n = 5003
        monkeypatch.setattr(simulate, "CHUNK", chunk)
        expected = oracles.unchunked_trials_oracle(noisy, n, seed=3)
        for got, want in zip(ledger_arrays(simulate_trials(noisy, n, seed=3)), expected):
            assert np.array_equal(got, want)
        expected = oracles.unchunked_quantum_oracle(OPTIMAL_ANGLES, n, seed=3)
        ledger = quantum_reference(OPTIMAL_ANGLES, n, seed=3)
        for got, want in zip(ledger_arrays(ledger), expected):
            assert np.array_equal(got, want)


class TestAtomicLedger:
    def test_failed_write_leaves_target_untouched(self, tmp_path, monkeypatch, noisy):
        # A code past the 16 cells fails on the last chunk, after earlier
        # chunks were already written to the temporary file.
        monkeypatch.setattr(simulate, "CHUNK", 4)
        ledger = simulate_trials(noisy, 20, seed=1)
        ledger.codes[-1] = 16
        target = tmp_path / "ledger.csv"
        target.write_text("previous\n", encoding="utf-8")
        with pytest.raises(IndexError):
            ledger.to_csv(target)
        assert target.read_text(encoding="utf-8") == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["ledger.csv"]

    def test_failed_write_creates_nothing(self, tmp_path):
        target = tmp_path / "summary.json"
        with pytest.raises(RuntimeError):
            with atomic_writer(target) as fh:
                fh.write("partial")
                raise RuntimeError("interrupted")
        assert list(tmp_path.iterdir()) == []
