import errno
import itertools
import math
import os
import re
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import oracles
import bell_lab.models as models_module
from bell_lab import simulate
from bell_lab.cli import _parse_angles
from bell_lab.exact import correlation_set, verify_no_signalling
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
    EmptyContextError,
    TrialLedger,
    _quantum_grid,
    _thresholds,
    empirical_chsh,
    no_signalling_report,
    quantum_reference,
    simulate_trials,
)
from tests_support import (
    PRESETS,
    alter_pmf,
    counting,
    local_splits,
    relation_models,
    split_local,
)

F = Fraction
OPTIMAL_ANGLES = (0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)
# Whole runs of several chunks, and one trial either side of a chunk boundary.
CHUNK_SIZES = (1, 4 * CHUNK - 1, 4 * CHUNK, 4 * CHUNK + 1, 12 * CHUNK + 7)


def quoted_label_model():
    """The noisy preset with labels a CSV writer must quote."""
    doc = model_to_dict(PRESETS["noisy_readout"]())
    doc["alice"] = dict(zip(('a,"q', "x'"), doc["alice"].values()))
    doc["bob"] = dict(zip(("y", '"b"'), doc["bob"].values()))
    return model_from_dict(doc)


def wide_label_model():
    """The noisy preset with labels of several UTF-8 bytes per character,
    so that row lengths in bytes and in characters differ."""
    doc = model_to_dict(PRESETS["noisy_readout"]())
    doc["alice"] = dict(zip(("α", "x→'"), doc["alice"].values()))
    doc["bob"] = dict(zip(("β,γ", "y"), doc["bob"].values()))
    return model_from_dict(doc)


def long_label_model():
    """The noisy preset with labels of 150-200 characters of 2, 3 and 4
    UTF-8 bytes each, so that rows are long and pad to the longest."""
    doc = model_to_dict(PRESETS["noisy_readout"]())
    doc["alice"] = dict(zip(("α" * 200, "ж" * 150 + ","), doc["alice"].values()))
    doc["bob"] = dict(zip(("→" * 200, "\U0001F600" * 190), doc["bob"].values()))
    return model_from_dict(doc)


def clustered_model():
    """A model whose thresholds cluster: weights of 2^-50 put up to four
    thresholds in the first and in the last guide bucket of the source and
    of each side, so a threshold lookup takes several passes there."""
    tiny = F(1, 2**50)
    alice_x = [tiny] * 4 + [1 - 4 * tiny]
    alice_x2 = [2 * tiny, F(1, 2) - 2 * tiny, F(1, 2)]
    bob_y = [F(1, 2), F(1, 2) - 3 * tiny, tiny, tiny, tiny]
    bob_y2 = [5 * tiny, 1 - 5 * tiny]

    def local(pmf, rows):
        return {"pmf": [str(w) for w in pmf], "table": rows}

    return model_from_dict({
        "source": [[str(tiny), str(3 * tiny)], [str(F(1, 2) - 4 * tiny), "1/2"]],
        "alice": {
            "x": local(alice_x, [[1, -1, 1, -1, 1], [-1, 1, -1, 1, -1]]),
            "x'": local(alice_x2, [[-1, 1, -1], [1, -1, 1]]),
        },
        "bob": {
            "y": local(bob_y, [[1, -1, 1, -1, 1], [-1, -1, 1, 1, -1]]),
            "y'": local(bob_y2, [[-1, 1], [1, -1]]),
        },
    })


ORACLE_MODELS = {
    **PRESETS,
    "quoted_labels": quoted_label_model,
    "wide_labels": wide_label_model,
    "clustered": clustered_model,
}


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


def lookup_cases():
    """(name, sorted int64 thresholds) as `_thresholds` builds them."""
    rng = np.random.default_rng(29)

    def from_weights(weights):
        return _thresholds([F(0), *itertools.accumulate(weights)])

    def random_weights(k):
        numerators = rng.integers(1, 1000, size=k).tolist()
        total = sum(numerators)
        return [F(w, total) for w in numerators]

    tiny, tinier = F(1, 2**50), F(1, 2**55)
    cases = [(f"random-{k}", from_weights(random_weights(k))) for k in (1, 2, 3, 256, 4096)]
    cases += [
        # Thresholds on guide-bucket starts: 2^51, 2^52, 3 * 2^51.
        ("dyadic", from_weights([F(1, 4)] * 4)),
        # Several thresholds in the first and the last bucket.
        ("clustered", from_weights([tiny] * 6 + [1 - 12 * tiny] + [tiny] * 6)),
        # Thresholds that collide: 2^-55 is below one unit of 2^-53.
        ("collapsed", from_weights([tinier] * 9 + [F(1, 2) - 9 * tinier, F(1, 2)])),
        # 4096 thresholds in the first bucket, 12 passes.
        ("one-bucket", from_weights([tiny] * 4095 + [1 - 4095 * tiny])),
    ]
    return cases


LOOKUP_CASES = lookup_cases()


class TestLookup:
    """`_lookup` against `np.searchsorted(side="left")`, the binary search it replaces."""

    @pytest.mark.parametrize(("name", "thresholds"), LOOKUP_CASES, ids=[c[0] for c in LOOKUP_CASES])
    def test_matches_searchsorted(self, name, thresholds):
        assert thresholds[-1] == U_SCALE
        near = np.concatenate([thresholds - 1, thresholds, thresholds + 1])
        random = simulate._draw_block(np.random.PCG64(len(thresholds)), 10_000, 1).ravel()
        draws = np.concatenate([[0, U_SCALE - 1], near[(near >= 0) & (near < U_SCALE)], random])
        got = simulate._lookup(thresholds)(draws)
        assert got.tolist() == np.searchsorted(thresholds, draws, side="left").tolist()

    def test_clustered_cases_fill_a_bucket(self):
        # So their lookups run the binary search past its first pass.
        cases = dict(LOOKUP_CASES)
        most = [np.bincount(cases[name][:-1] >> (53 - simulate._GUIDE_BITS)).max()
                for name in ("clustered", "collapsed", "one-bucket")]
        assert most == [6, 9, 4095]

    def test_draws_next_to_clustered_thresholds(self, monkeypatch):
        # Each uniform column draws each of its thresholds and their
        # neighbours in turn, under all four setting pairs.
        model = clustered_model()
        reduced = reduce_model(model)
        columns = [
            _thresholds([F(0), *itertools.accumulate(model.source.flattened())]),
            _thresholds(reduced.alice_map.breakpoints),
            _thresholds(reduced.bob_map.breakpoints),
        ]
        columns = [np.concatenate([[0, U_SCALE - 1], k - 1, k, k + 1]) for k in columns]
        columns = [c[(c >= 0) & (c < U_SCALE)] for c in columns]
        n = 4 * max(len(c) for c in columns)

        def near_thresholds(draws):
            rows = np.arange(len(draws))
            draws[:, 0] = rows % 2 * (U_SCALE // 2)
            draws[:, 1] = rows // 2 % 2 * (U_SCALE // 2)
            for col, values in zip((2, 3, 4), columns):
                draws[:, col] = values[rows // 4 % len(values)]

        patch_draws(monkeypatch, near_thresholds)
        ledger = simulate_trials(model, n, seed=0)
        expected = oracles.unchunked_trials_oracle(model, n, seed=0)
        for got, want in zip(ledger_arrays(ledger), expected):
            assert np.array_equal(got, want)
        # Not vacuous: all 16 cell codes occur.
        assert len(set(ledger.codes.tolist())) == 16


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
        assert counts.sum() == 500
        a_set, b_set, a, b = ledger_arrays(ledger)
        mask = (a_set == 0) & (b_set == 0)
        assert counts[0, 0].sum() == int(mask.sum())
        assert counts[0, 0, 1, 1] == int(((a == 1) & (b == 1) & mask).sum())

    def test_counts_match_whole_array_bincount(self, monkeypatch, noisy):
        # 3 * CHUNK + 7 trials, binned across chunk boundaries of three sizes.
        ledger = simulate_trials(noisy, 3 * CHUNK + 7, seed=4)
        bins = np.bincount(ledger.codes, minlength=16).reshape(2, 2, 2, 2)
        for chunk in (CHUNK, 4096, 77):
            monkeypatch.setattr(simulate, "CHUNK", chunk)
            # A fresh ledger each time: a ledger counts its cells once.
            counts = replace(ledger).context_counts()
            assert counts.shape == (2, 2, 2, 2)
            assert counts.dtype == np.int64
            assert np.array_equal(counts, bins)
        assert counts.sum() == 3 * CHUNK + 7

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
        a_set = int(draws[0, 0] >= U_SCALE // 2)
        b_set = int(draws[0, 1] >= U_SCALE // 2)
        got_a_set, got_b_set, got_a, _ = ledger_arrays(ledger)
        assert got_a_set[0] == a_set
        assert got_b_set[0] == b_set

        reduced = reduce_model(noisy)
        u1 = F(int(draws[0, 3]), U_SCALE)
        pair = oracles.locate(reduced.alice_map, u1)
        source_k = _thresholds(
            (F(0), F(1, 2), F(1, 2), F(1, 2), F(1))
        )
        src = int(np.searchsorted(source_k, draws[0, 2], side="left"))
        l1 = src // 2
        label = noisy.alice_labels[a_set]
        expected_a = noisy.alice[label].table[l1][pair[a_set]]
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
            zip(emp.contexts, correlation_set(noisy))
        )
        for ctx, n_ctx, e_hat in zip(
            emp.contexts, emp.n_per_context, emp.correlations
        ):
            assert abs(e_hat - float(exact[ctx])) <= 3 / math.sqrt(n_ctx)

    def test_needs_at_least_one_trial(self, singleton):
        with pytest.raises(ValueError):
            simulate_trials(singleton, 0, seed=1)


def patch_draws(monkeypatch, rewrite):
    """The samplers' row-major draw blocks, and every oracle generator's,
    pass through `rewrite` before they are used."""
    draw_block = simulate._draw_block

    def rewritten_block(bit_generator, rows, cols):
        draws = draw_block(bit_generator, rows, cols)
        rewrite(draws)
        return draws

    class RewrittenGenerator:
        def __init__(self, bit_generator):
            self._rng = np.random.Generator(bit_generator)

        def integers(self, *args, **kwargs):
            draws = self._rng.integers(*args, **kwargs)
            rewrite(draws)
            return draws

    monkeypatch.setattr(simulate, "_draw_block", rewritten_block)
    monkeypatch.setattr(
        np.random, "default_rng", lambda seed: RewrittenGenerator(np.random.PCG64(seed))
    )


class TestSettingTie:
    """A setting draw of exactly 2^52 has its top bit set: second setting."""

    @pytest.fixture
    def tied_draws(self, monkeypatch):
        """Both setting columns draw 2^52 - 1, 2^52 and 2^52 + 1 in rows 0 to
        2; every other column keeps its seeded draw."""

        def tie(draws):
            draws[:3, :2] = [[U_SCALE // 2 - 1], [U_SCALE // 2], [U_SCALE // 2 + 1]]

        patch_draws(monkeypatch, tie)

    def test_simulate_sends_tie_to_second_setting(self, tied_draws, noisy):
        a_set, b_set, _, _ = ledger_arrays(simulate_trials(noisy, 3, seed=0))
        assert a_set.tolist() == b_set.tolist() == [0, 1, 1]

    def test_quantum_sends_tie_to_second_setting(self, tied_draws):
        a_set, b_set, _, _ = ledger_arrays(quantum_reference(OPTIMAL_ANGLES, 3, seed=0))
        assert a_set.tolist() == b_set.tolist() == [0, 1, 1]

    def test_oracles_agree_at_the_tie(self, tied_draws, noisy):
        for ledger, expected in (
            (simulate_trials(noisy, 3, seed=0), oracles.unchunked_trials_oracle(noisy, 3, seed=0)),
            (quantum_reference(OPTIMAL_ANGLES, 3, seed=0),
             oracles.unchunked_quantum_oracle(OPTIMAL_ANGLES, 3, seed=0)),
        ):
            for got, want in zip(ledger_arrays(ledger), expected):
                assert np.array_equal(got, want)


class TestZeroSourceDraw:
    """A source draw of exactly 0 selects the first pair of positive weight."""

    @pytest.fixture
    def zero_draws(self, monkeypatch):
        """Every generator, the oracle's included, draws 0 in every column."""
        patch_draws(monkeypatch, lambda draws: draws.fill(0))

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


def draw_intervals(*pmfs) -> list[tuple[int, int]]:
    """(first draw, last draw) of each interval of the partition whose
    breakpoints are the cumulative sums of `pmfs`, by the sampler's contract
    alone: thresholds floor(c * 2^53), a draw equal to one goes to the lower
    interval, and draws stop at 2^53 - 1."""
    cuts = sorted({c for pmf in pmfs for c in itertools.accumulate(pmf) if c})
    ends = [min((c.numerator << 53) // c.denominator, U_SCALE - 1) for c in cuts]
    return list(zip([0, *(t + 1 for t in ends[:-1])], ends))


def thirds_model():
    """The noisy preset with pmfs of thirds on Alice's x and Bob's y, so that
    two breakpoints are not multiples of 2^-53."""
    model = alter_pmf(PRESETS["noisy_readout"](), "alice", "x", (F(1, 3), F(2, 3)))
    return alter_pmf(model, "bob", "y", (F(2, 3), F(1, 3)))


LAW_MODELS = {**relation_models(), "thirds": thirds_model()}


class TestSamplerLaw:
    """The model sampler's law, summed exactly from its own code tables:
    one trial per setting pair and per source, Alice and Bob interval,
    weighted by the product of the three intervals' widths in draws, gives
    each cell code's probability over 4 * 2^159.  It is compared with
    P(a, b | x, y) / 4, built from the exact marginals of
    `verify_no_signalling` and the dedicated route's correlation, neither of
    which uses the reduction.

    They are not exactly equal: interval 0 of each partition holds one draw
    more than its width times 2^53, the last one draw fewer, and a threshold
    that is not a multiple of 2^-53 moves an interval end by under a draw.
    So each interval's probability is off by at most 2^-53, and none is off
    when it is its partition's only interval.  Summed over a cell, where the
    other two factors' widths sum to at most 1, P(a, b | x, y) is off by at
    most m * 2^-53, m the number of the cell's intervals, over the three
    partitions, that end at a threshold inside (0, 1)."""

    @pytest.mark.parametrize("name", sorted(LAW_MODELS))
    def test_cell_law_within_the_threshold_bound(self, monkeypatch, name):
        model = LAW_MODELS[name]
        partitions = [
            draw_intervals(model.source.flattened()),
            draw_intervals(*(local.weights for local in model.alice.values())),
            draw_intervals(*(local.weights for local in model.bob.values())),
        ]
        assert all(lo <= hi for intervals in partitions for lo, hi in intervals)
        combos = list(itertools.product(range(2), range(2), *partitions))
        # Each combination's first draws, then its last draws.
        rows = np.array(
            [[x << 52, y << 52, *(interval[end] for interval in intervals)]
             for end in (0, 1) for x, y, *intervals in combos],
            dtype=np.int64,
        )
        rows[len(combos):, :2] += U_SCALE // 2 - 1
        assert len(rows) <= CHUNK

        def rewrite(draws):
            draws[:] = rows

        patch_draws(monkeypatch, rewrite)
        codes = simulate_trials(model, len(rows), seed=0).codes.tolist()
        # Each interval's draws map to one cell: its two ends agree.
        assert codes[:len(combos)] == codes[len(combos):]

        weights = [0] * 16
        used = [[set(), set(), set()] for _ in range(16)]
        for code, (x, y, *intervals) in zip(codes, combos):
            assert code >> 2 == 2 * x + y
            width = 1
            for k, (lo, hi) in enumerate(intervals):
                width *= hi - lo + 1
                if len(partitions[k]) > 1:
                    used[code][k].add(lo)
            weights[code] += width
        for x, y in itertools.product(range(2), repeat=2):
            assert sum(weights[8 * x + 4 * y:8 * x + 4 * y + 4]) == 2**159

        marginals = verify_no_signalling(model).rows
        correlations = correlation_set(model)
        for code in range(16):
            x, y, a, b = code >> 3, code >> 2 & 1, 2 * (code >> 1 & 1) - 1, 2 * (code & 1) - 1
            (a_plus, a_minus), (b_plus, b_minus) = (
                marginals[x].distributions[y], marginals[2 + y].distributions[x]
            )
            exact = (1 + a * (a_plus - a_minus) + b * (b_plus - b_minus)
                     + a * b * correlations[2 * x + y]) / 4
            m = sum(map(len, used[code]))
            assert abs(F(weights[code], 4 * 2**159) - exact / 4) <= F(m, 4 * 2**53), code


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
        assert emp.contexts == noisy.contexts()
        for (i, j), e_hat, n_ctx in zip(np.ndindex(2, 2), emp.correlations, emp.n_per_context):
            cell = counts[i, j]
            agree = int(cell[1, 1] + cell[0, 0])
            disagree = int(cell[1, 0] + cell[0, 1])
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

    # The integer thresholds of the golden cases' two `--quantum` angle sets,
    # so that a libm or numpy change fails here rather than shifting bytes.
    GOLDEN_GRIDS = {
        "0,1.5708,0.7854,2.3562": [
            [659539819910628, 4503599627370496, 8347659434830363, 9007199254740992],
            [3844071504854937, 4503599627370496, 5163127749886055, 9007199254740992],
            [659539819910628, 4503599627370496, 8347659434830363, 9007199254740992],
            [659539819910628, 4503599627370496, 8347659434830364, 9007199254740992],
        ],
        "0,0.7854,0.3927,1.1781": [
            [171408845834123, 4503599627370496, 8835790408906869, 9007199254740992],
            [1390079063267597, 4503599627370496, 7617120191473394, 9007199254740992],
            [171408845834123, 4503599627370496, 8835790408906869, 9007199254740992],
            [171408845834123, 4503599627370496, 8835790408906869, 9007199254740992],
        ],
    }

    @pytest.mark.parametrize("raw", sorted(GOLDEN_GRIDS))
    def test_golden_angle_thresholds(self, raw):
        assert _quantum_grid(_parse_angles(raw)).tolist() == self.GOLDEN_GRIDS[raw]

    def test_draw_on_a_threshold_goes_to_the_lower_cell(self, monkeypatch):
        # Context (a0, b0); rows 0-2 land on its three inner thresholds, rows
        # 3-5 one past them.  Grid cells (+1,+1), (+1,-1), (-1,+1), (-1,-1)
        # carry codes 3, 2, 1, 0.
        inner = _quantum_grid(OPTIMAL_ANGLES)[0, :3]

        def on_thresholds(draws):
            draws[:6, :2] = 0
            draws[:6, 2] = [*inner, *(inner + 1)]

        patch_draws(monkeypatch, on_thresholds)
        ledger = quantum_reference(OPTIMAL_ANGLES, 6, seed=0)
        assert ledger.codes.tolist() == [3, 2, 1, 2, 1, 0]
        expected = oracles.unchunked_quantum_oracle(OPTIMAL_ANGLES, 6, seed=0)
        for got, want in zip(ledger_arrays(ledger), expected):
            assert np.array_equal(got, want)


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

    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    def test_rows_match_records(self, name):
        # Each row's frequencies, recounted from the decoded records.
        ledger = simulate_trials(ORACLE_MODELS[name](), 3000, seed=2)
        a_set, b_set, a, b = ledger_arrays(ledger)
        expected = []
        for side, labels, remote_labels, own, remote, out in (
            ("alice", ledger.alice_labels, ledger.bob_labels, a_set, b_set, a),
            ("bob", ledger.bob_labels, ledger.alice_labels, b_set, a_set, b),
        ):
            for s, setting in enumerate(labels):
                for outcome in (1, -1):
                    frequencies = tuple(
                        int(((own == s) & (remote == r) & (out == outcome)).sum())
                        / int(((own == s) & (remote == r)).sum())
                        for r in (0, 1)
                    )
                    expected.append((side, setting, outcome, remote_labels, frequencies))
        report = no_signalling_report(ledger)
        assert [
            (r.side, r.setting, r.outcome, r.remote_labels, r.frequencies) for r in report.rows
        ] == expected


class TestLedgerCodes:
    @staticmethod
    def ledger(codes, dtype=np.uint8):
        return TrialLedger(seed=0, alice_labels=("x", "x'"), bob_labels=("y", "y'"),
                           codes=np.array(codes, dtype=dtype))

    @pytest.mark.parametrize(("codes", "dtype", "message"), [
        ([0, 16, 200], np.uint8, "trial 1 has cell code 16, outside 0..15"),
        ([3, 15, -1], np.int64, "trial 2 has cell code -1, outside 0..15"),
        ([255], np.uint8, "trial 0 has cell code 255, outside 0..15"),
    ])
    def test_rejects_codes_outside_the_cells(self, codes, dtype, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            self.ledger(codes, dtype)

    def test_compare_and_hash_by_identity(self):
        # Generated field-wise equality would ask an ndarray of 3 trials
        # for its truth value and raise; identity equality cannot.
        first, second = self.ledger([0, 5, 15]), self.ledger([0, 5, 15])
        assert first == first and first != second
        assert len({first, second, first}) == 2
        copy = replace(first, seed=7)
        assert copy != first and copy.seed == 7 and copy.codes is first.codes
        assert np.array_equal(copy.context_counts(), first.context_counts())

    def test_rejects_non_integer_codes(self):
        with pytest.raises(ValueError, match="must be integers"):
            self.ledger([0.0, 3.0], np.float64)

    @pytest.mark.parametrize(("codes", "got"), [
        ([0, 5, 15], "list"),
        (np.array([[0, 5], [15, 3]], dtype=np.uint8), "a 2-D uint8 array"),
        (np.uint8(5), "uint8"),
    ])
    def test_rejects_codes_that_are_not_a_1d_array(self, codes, got):
        message = f"cell codes must be integers in a 1-D ndarray, got {got}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TrialLedger(seed=0, alice_labels=("x", "x'"), bob_labels=("y", "y'"), codes=codes)

    def test_keeps_the_given_array(self):
        codes = np.array([0, 5, 15], dtype=np.uint8)
        ledger = TrialLedger(seed=0, alice_labels=("x", "x'"), bob_labels=("y", "y'"), codes=codes)
        assert ledger.codes is codes

    def test_codes_are_read_only(self):
        codes = np.array([0, 5, 15], dtype=np.uint8)
        ledger = TrialLedger(seed=0, alice_labels=("x", "x'"), bob_labels=("y", "y'"), codes=codes)
        with pytest.raises(ValueError, match="read-only"):
            ledger.codes[0] = 1
        assert ledger.codes.tolist() == [0, 5, 15]
        assert ledger.context_counts().sum() == 3

    def test_simulated_codes_are_read_only(self, noisy):
        ledger = simulate_trials(noisy, 10, seed=0)
        assert not ledger.codes.flags.writeable


class TestEmptyContext:
    @staticmethod
    def ledger(codes):
        return TrialLedger(seed=0, alice_labels=("x", "x'"), bob_labels=("y", "y'"),
                           codes=np.array(codes, dtype=np.uint8))

    @pytest.mark.parametrize("statistic", (empirical_chsh, no_signalling_report))
    def test_names_the_empty_context(self, statistic):
        # Two trials in each of (x,y), (x,y'), (x',y); none in (x',y').
        ledger = self.ledger([0, 3, 4, 7, 8, 11])
        assert ledger.context_counts().sum(axis=(2, 3)).tolist() == [[2, 2], [2, 0]]
        message = re.escape("""context ("x'", "y'") has no trials""")
        with pytest.raises(EmptyContextError, match=message):
            statistic(ledger)

    @pytest.mark.parametrize("statistic", (empirical_chsh, no_signalling_report))
    def test_first_empty_context_in_context_order(self, statistic):
        # Only (x',y) holds trials: (x,y) is the first empty context.
        ledger = self.ledger([8, 11])
        with pytest.raises(EmptyContextError, match=re.escape("context ('x', 'y') has no trials")):
            statistic(ledger)


class TestNoSignallingExact:
    def test_outcome_distribution_matches_oracle(self, small_campaign):
        for model in small_campaign[:25]:
            rows = verify_no_signalling(model).rows
            assert len(rows) == 4
            for row in rows:
                mean = oracles.product_mean(model, [(row.side, row.setting)])
                assert len(row.distributions) == 2
                for p_plus, p_minus in row.distributions:
                    assert p_plus + p_minus == 1
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
        assert all(np.array_equal(c, counts[0]) for c in counts[1:])
        assert not counts[0].flags.writeable
        a_set, b_set, a_out, b_out = ledger_arrays(ledger)
        for i, j, a, b in np.ndindex(2, 2, 2, 2):
            mask = (a_set == i) & (b_set == j) & (a_out == 2 * a - 1) & (b_out == 2 * b - 1)
            assert counts[0][i, j, a, b] == int(mask.sum())
        assert counts[0].sum() == ledger.n

    def test_codes_binned_once_for_counts_and_csv(self, monkeypatch, tmp_path, noisy):
        # One bincount per chunk while the ledger is built, none after.
        calls = counting(monkeypatch, np, "bincount")
        ledger = simulate_trials(noisy, 3 * CHUNK + 5, seed=8)
        assert len(calls) == 4
        ledger.to_csv(tmp_path / "ledger.csv")
        counts = ledger.context_counts()
        ledger.to_csv(tmp_path / "again.csv")
        assert len(calls) == 4
        assert np.array_equal(counts.ravel(), np.bincount(ledger.codes, minlength=16))
        oracles.ledger_csv_oracle(ledger, tmp_path / "oracle.csv")
        want = (tmp_path / "oracle.csv").read_bytes()
        assert (tmp_path / "ledger.csv").read_bytes() == want
        assert (tmp_path / "again.csv").read_bytes() == want

    def test_csv_writes_the_chunks_it_binned(self, monkeypatch, tmp_path, noisy):
        # Built in chunks of 77 trials, written after CHUNK changed: the
        # ledger writes the chunks whose bins fix its offsets.
        monkeypatch.setattr(simulate, "CHUNK", 77)
        ledger = simulate_trials(noisy, 5003, seed=3)
        monkeypatch.setattr(simulate, "CHUNK", 4096)
        ledger.to_csv(tmp_path / "ledger.csv")
        oracles.ledger_csv_oracle(ledger, tmp_path / "oracle.csv")
        assert (tmp_path / "ledger.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    @pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
    def test_counts_of_given_codes(self, monkeypatch, n):
        # Codes from outside the sampler, up to and past chunk boundaries.
        codes = np.random.default_rng(n).integers(0, 16, size=n).astype(np.uint8)
        want = np.bincount(codes, minlength=16).reshape(2, 2, 2, 2)
        calls = counting(monkeypatch, np, "bincount")
        ledger = TrialLedger(seed=0, alice_labels=("x", "x'"), bob_labels=("y", "y'"),
                             codes=codes)
        counts = ledger.context_counts()
        assert len(calls) == math.ceil(n / CHUNK)
        assert np.array_equal(counts, want)
        assert not counts.flags.writeable
        assert ledger.context_counts() is counts
        assert np.array_equal(replace(ledger).context_counts(), want)


def _render_cases():
    """(first trial, cell codes): all 16 codes, then random ones."""
    rng = np.random.default_rng(27)

    def codes(n):
        return np.concatenate([np.arange(16), rng.integers(0, 16, size=n - 16)]).astype(np.uint8)

    # Ranges across each power of ten up to 10^7 (0 .. 115 crosses 10 and 100).
    straddles = [(0, codes(116))] + [(10**k - 40, codes(80)) for k in range(3, 8)]
    # Ranges across several blocks of 10^4 at 5 and at 7 digits.
    runs = [(12_345, codes(30_000)), (1_234_567, codes(35_000))]
    return straddles, runs


STRADDLES, RUNS = _render_cases()
RENDER_LABELS = ("noisy_readout", "quoted_labels", "wide_labels", "quantum")


def render_labels(name):
    """(Alice's labels, Bob's labels) of an oracle model, or of the quantum sampler."""
    if name == "quantum":
        return simulate.QUANTUM_ALICE_LABELS, simulate.QUANTUM_BOB_LABELS
    model = ORACLE_MODELS[name]()
    return model.alice_labels, model.bob_labels


class TestRenderRows:
    """`_render_rows` against one csv.writer row per trial, with no simulation."""

    @staticmethod
    def assert_rows(alice, bob, cases):
        endings = TrialLedger(0, alice, bob, np.zeros(1, dtype=np.uint8))._row_endings()
        for first, codes in cases:
            got = b"".join(rows.tobytes() for rows in simulate._render_rows(first, codes, endings))
            assert got == oracles.ledger_rows_oracle(alice, bob, codes, first).encode()

    @pytest.mark.parametrize("labels", RENDER_LABELS)
    def test_matches_per_row_writer(self, labels):
        self.assert_rows(*render_labels(labels), STRADDLES + RUNS)

    @pytest.mark.parametrize("labels", RENDER_LABELS)
    def test_blocks_of_a_few_rows_match(self, monkeypatch, labels):
        # CHUNK * _ROW_BYTES = 64 padded bytes: blocks of 1 to 3 rows.
        monkeypatch.setattr(simulate, "CHUNK", 2)
        self.assert_rows(*render_labels(labels), STRADDLES)

    def test_memory_is_bounded_for_long_labels(self, monkeypatch, tmp_path):
        # One range, so the peak is one block's rather than two at once;
        # chunks of 4096 rows keep the ledger near 9 MB.
        monkeypatch.setattr(simulate, "CHUNK", 4096)
        monkeypatch.setattr(simulate, "_cores", lambda: 1)
        ledger = simulate_trials(long_label_model(), 3 * simulate.CHUNK, seed=4)
        path = tmp_path / "ledger.csv"
        tracemalloc.start()
        try:
            ledger.to_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = path.read_bytes().split(b"\r\n")[1:-1]
        chunks = [b"".join(row + b"\r\n" for row in rows[start:start + simulate.CHUNK])
                  for start in range(0, len(rows), simulate.CHUNK)]
        assert len(chunks) == 3
        chunk_bytes = min(len(chunk) for chunk in chunks)
        # A per-row string join holds a chunk's text as one str and as its
        # UTF-8 bytes at once, and more besides.
        join_floor = min(sys.getsizeof(chunk.decode()) + len(chunk) for chunk in chunks)
        assert peak <= chunk_bytes // 4
        assert peak <= join_floor


class TestStreamPins:
    """The PCG64 words and 53-bit draws behind every ledger, as literals, so
    that a numpy change fails here rather than shifting ledger bytes."""

    RAW_WORDS = [11749869230777074271, 4976686463289251617, 755828109848996024, 304881062738325533]
    DRAWS = [5737240835340368, 2430022687152954, 369056694262205, 148867706415198,
             7325287092427722, 8221371355416579, 5464089307389366, 6570720880431187]

    def test_raw_words(self):
        assert np.random.PCG64(0).random_raw(4).tolist() == self.RAW_WORDS

    def test_53_bit_draws(self):
        draws = np.random.Generator(np.random.PCG64(0)).integers(0, U_SCALE, size=8, dtype=np.int64)
        assert draws.tolist() == self.DRAWS
        # Each draw is one word's top 53 bits.
        assert [word >> 11 for word in self.RAW_WORDS] == self.DRAWS[:4]

    @pytest.mark.parametrize("seed", (0, 1, 7, 123456))
    def test_raw_words_are_the_generator_draws(self, seed):
        # The samplers draw raw words; the oracles draw through integers().
        rows, cols = 40_000, 5
        raw, generated = np.random.PCG64(seed), np.random.PCG64(seed)
        expected = np.random.Generator(generated).integers(
            0, U_SCALE, size=(rows, cols), dtype=np.int64)
        draws = simulate._draw_block(raw, rows, cols)
        assert draws.dtype == np.int64
        assert np.array_equal(draws, expected)
        words = np.random.PCG64(seed).random_raw(rows * cols)
        assert np.array_equal(words >> np.uint64(11), expected.ravel())
        # Both took one word per draw: the streams go on from the same word.
        assert raw.random_raw(3).tolist() == generated.random_raw(3).tolist()


class TestNegatedSetting:
    """Negating one setting's table flips exactly that setting's outcome
    bit, trial by trial, and in the ledger only that sign field."""

    @pytest.mark.parametrize("name", ("noisy_readout", "quoted_labels"))
    def test_only_that_settings_outcomes_flip(self, tmp_path, name):
        model = ORACLE_MODELS[name]()
        n = 50_000
        base = simulate_trials(model, n, seed=13)
        base.to_csv(tmp_path / "base.csv")
        base_lines = (tmp_path / "base.csv").read_bytes().split(b"\r\n")
        for side, labels, bit in (("alice", model.alice_labels, 2), ("bob", model.bob_labels, 1)):
            for index, label in enumerate(labels):
                doc = model_to_dict(model)
                doc[side][label]["table"] = [[-v for v in row] for row in doc[side][label]["table"]]
                ledger = simulate_trials(model_from_dict(doc), n, seed=13)
                setting = base.codes >> 3 if side == "alice" else (base.codes >> 2) & 1
                flipped = setting == index
                assert 0 < flipped.sum() < n
                assert np.array_equal(ledger.codes, np.where(flipped, base.codes ^ bit, base.codes))

                ledger.to_csv(tmp_path / "negated.csv")
                lines = (tmp_path / "negated.csv").read_bytes().split(b"\r\n")
                assert len(lines) == len(base_lines)
                field = -2 if side == "alice" else -1
                for t in np.flatnonzero(flipped).tolist():
                    got, want = lines[t + 1].rsplit(b",", 2), base_lines[t + 1].rsplit(b",", 2)
                    want[field] = {b"+1": b"-1", b"-1": b"+1"}[want[field]]
                    assert got == want
                kept = np.flatnonzero(~flipped) + 1
                assert [lines[0], *(lines[t] for t in kept.tolist())] == \
                    [base_lines[0], *(base_lines[t] for t in kept.tolist())]


SPLIT_MODELS = relation_models()


class TestSplitLocalValue:
    """Splitting one setting's local value k into two halves of its weight,
    with its table column duplicated, leaves every trial's cell code as it
    was: the new breakpoint falls inside interval k, and both halves read
    the same outcome."""

    @pytest.mark.parametrize("name", sorted(SPLIT_MODELS))
    def test_codes_unchanged(self, name):
        model = SPLIT_MODELS[name]
        n = 100_000
        codes = simulate_trials(model, n, seed=5).codes
        for side, label, k in local_splits(model):
            ledger = simulate_trials(split_local(model, side, label, k), n, seed=5)
            assert np.array_equal(ledger.codes, codes), (side, label, k)


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
        # The write fails after its first chunk was written to the temporary file.
        monkeypatch.setattr(simulate, "CHUNK", 4)
        monkeypatch.setattr(simulate, "_cores", lambda: 1)
        ledger = simulate_trials(noisy, 20, seed=1)
        write = simulate._pwrite_all
        writes = []

        def second_write_fails(fd, data, offset):
            writes.append(offset)
            if len(writes) == 2:
                raise RuntimeError("interrupted")
            write(fd, data, offset)

        monkeypatch.setattr(simulate, "_pwrite_all", second_write_fails)
        target = tmp_path / "ledger.csv"
        target.write_text("previous\n", encoding="utf-8")
        with pytest.raises(RuntimeError, match="interrupted"):
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


def started_threads(monkeypatch) -> list:
    """Count every thread started from now on, in a list of the threads."""
    threads = []
    start = threading.Thread.start

    def counted(thread):
        threads.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return threads


class TestTrialRanges:
    """The number of worker threads changes no cell code and no ledger byte."""

    @pytest.fixture
    def fast_switching(self):
        """Threads switch every microsecond, so the workers interleave finely."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("n", CHUNK_SIZES)
    def test_range_count_changes_no_byte(self, monkeypatch, tmp_path, fast_switching, n):
        # Chunks of 1000 trials on up to 5 threads that switch every
        # microsecond.  The clustered model's lookups take several passes.
        monkeypatch.setattr(simulate, "CHUNK", 1000)
        runs = [
            (lambda model=model: simulate_trials(model, n, seed=n),
             oracles.unchunked_trials_oracle(model, n, seed=n))
            for model in (wide_label_model(), clustered_model())
        ]
        runs.append((lambda: quantum_reference(OPTIMAL_ANGLES, n, seed=n),
                     oracles.unchunked_quantum_oracle(OPTIMAL_ANGLES, n, seed=n)))
        for run, expected in runs:
            want = None
            for cores in (1, 2, 3, 5):
                monkeypatch.setattr(simulate, "_cores", lambda cores=cores: cores)
                threads = started_threads(monkeypatch)
                ledger = run()
                for got, codes in zip(ledger_arrays(ledger), expected):
                    assert np.array_equal(got, codes)
                if want is None:
                    oracles.ledger_csv_oracle(ledger, tmp_path / "oracle.csv")
                    want = (tmp_path / "oracle.csv").read_bytes()
                ledger.to_csv(tmp_path / "ledger.csv")
                assert (tmp_path / "ledger.csv").read_bytes() == want
                # Sampling and writing each start one thread per worker after the first.
                assert len(threads) == 2 * (min(cores, -(-n // 1000)) - 1)

    @pytest.mark.parametrize("cores", (1, 2, 3, 5))
    @pytest.mark.parametrize("n", (1, 999, 1000, 1999, 2000, 4999, 5001))
    def test_ranges_tile_the_run(self, monkeypatch, n, cores):
        # The chunks tile range(n), and k = min(cores, chunks) workers
        # together take every chunk exactly once.
        monkeypatch.setattr(simulate, "CHUNK", 1000)
        monkeypatch.setattr(simulate, "_cores", lambda cores=cores: cores)
        chunks = list(simulate._chunks(n))
        assert [lo for lo, _ in chunks] == [0] + [hi for _, hi in chunks[:-1]]
        assert chunks[-1][1] == n
        assert all(0 < hi - lo <= 1000 for lo, hi in chunks)
        taken = []

        def task(lo, hi):
            taken.append((threading.current_thread(), (lo, hi)))

        simulate._in_parallel(chunks, task)
        assert sorted(chunk for _, chunk in taken) == chunks
        workers = {thread for thread, _ in taken}
        assert len(workers) == min(cores, len(chunks))
        assert threading.current_thread() in workers

    def test_empty_ledger_writes_the_header(self, tmp_path):
        # No chunk at all still runs on one worker, which has nothing to do.
        ledger = TrialLedger(seed=0, alice_labels=("x", "x'"), bob_labels=("y", "y'"),
                             codes=np.zeros(0, dtype=np.uint8))
        ledger.to_csv(tmp_path / "ledger.csv")
        assert (tmp_path / "ledger.csv").read_bytes() == b"trial,alice_setting,bob_setting,a,b\r\n"

    def test_one_worker_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        assert simulate._cores() == 1
        threads = started_threads(monkeypatch)
        simulate._in_parallel(list(simulate._chunks(10 * CHUNK)), lambda lo, hi: None)
        assert threads == []

    def test_two_range_memory_is_bounded(self, monkeypatch, tmp_path, noisy):
        # tracemalloc traces every thread, so the peak holds both workers'
        # chunk temporaries at once.  At CHUNK = 2^14 each worker samples
        # from a 640 KB block of draws and its 640 KB transpose: one worker
        # peaked at 1.44 MB and two at up to 2.8 MB.  At 2^15 two peaked
        # at 5.5 MB.  A larger CHUNK raises the process's peak RSS, and
        # fails here.
        monkeypatch.setattr(simulate, "_cores", lambda: 2)
        n = 4 * CHUNK
        simulate_trials(noisy, n, seed=2).to_csv(tmp_path / "warm.csv")
        threads = started_threads(monkeypatch)
        tracemalloc.start()
        try:
            simulate_trials(noisy, n, seed=2).to_csv(tmp_path / "ledger.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(threads) == 2
        assert peak < 3 * 2**20

    @pytest.mark.parametrize("cols", (3, 5))
    @pytest.mark.parametrize("lo", (0, 1, 65536, 123457))
    def test_advanced_stream_is_the_whole_run_from_row_lo(self, lo, cols):
        # The split rests on this: each 53-bit draw is one 64-bit word, so
        # advancing lo * cols words skips exactly lo rows.
        rows = 300
        whole = simulate._draw_block(np.random.PCG64(11), lo + rows, cols)
        bit_generator = np.random.PCG64(11)
        bit_generator.advance(lo * cols)
        part = simulate._draw_block(bit_generator, rows, cols)
        assert np.array_equal(part, whole[lo:])


class TestRangeFailure:
    """A chunk that fails on a worker thread fails the run and leaves
    nothing behind: no thread and no file."""

    @pytest.fixture
    def threads(self, monkeypatch):
        """Two workers, of chunks of 4 trials; the live thread count."""
        monkeypatch.setattr(simulate, "CHUNK", 4)
        monkeypatch.setattr(simulate, "_cores", lambda: 2)
        return threading.active_count()

    @staticmethod
    def on_worker() -> bool:
        return threading.current_thread() is not threading.main_thread()

    def test_child_write_failure_leaves_target_untouched(self, tmp_path, monkeypatch, noisy, threads):
        ledger = simulate_trials(noisy, 20, seed=1)
        write = simulate._pwrite_all

        def full_disk(fd, data, offset):
            if self.on_worker():
                raise OSError(errno.ENOSPC, "No space left on device")
            write(fd, data, offset)

        monkeypatch.setattr(simulate, "_pwrite_all", full_disk)
        target = tmp_path / "ledger.csv"
        target.write_text("previous\n", encoding="utf-8")
        with pytest.raises(OSError) as failure:
            ledger.to_csv(target)
        assert failure.value.errno == errno.ENOSPC
        assert target.read_text(encoding="utf-8") == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["ledger.csv"]
        assert threading.active_count() == threads

    def test_child_sample_failure_fails_the_run(self, monkeypatch, noisy, threads):
        settings = simulate._settings

        def exhausted(draws):
            if self.on_worker():
                raise MemoryError("no room for the draws")
            return settings(draws)

        monkeypatch.setattr(simulate, "_settings", exhausted)
        with pytest.raises(MemoryError, match="no room for the draws"):
            simulate_trials(noisy, 20, seed=1)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("on_worker, error", ((False, KeyboardInterrupt), (True, MemoryError)))
    def test_other_range_stops_at_its_next_chunk(self, monkeypatch, noisy, threads, on_worker, error):
        # Two workers of 50 chunks each.  One fails at its first chunk, as
        # on an interrupt; the other sleeps through each of its chunks, and
        # stops after the one it is in.
        settings = simulate._settings
        slow_chunks = []

        def failing(draws):
            if self.on_worker() == on_worker:
                raise error
            slow_chunks.append(1)
            time.sleep(0.01)
            return settings(draws)

        monkeypatch.setattr(simulate, "_settings", failing)
        with pytest.raises(error):
            simulate_trials(noisy, 400, seed=1)
        assert len(slow_chunks) < 10
        assert threading.active_count() == threads

    def test_calling_threads_exception_wins(self, monkeypatch, noisy, threads):
        # The worker is still running when the calling thread fails.
        def failing(draws):
            if self.on_worker():
                time.sleep(0.1)
                raise MemoryError("on the worker")
            raise ValueError("on the calling thread")

        monkeypatch.setattr(simulate, "_settings", failing)
        with pytest.raises(ValueError, match="on the calling thread"):
            simulate_trials(noisy, 20, seed=1)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("method, error, failing", (
        ("start", RuntimeError, {2}), ("join", KeyboardInterrupt, {1}),
        ("join", KeyboardInterrupt, {1, 2}),
    ))
    def test_calling_thread_interrupted_stops_workers(self, monkeypatch, noisy, threads,
                                                      method, error, failing):
        # The calling thread fails while it starts its second worker thread
        # (3 workers), or while it joins its one worker thread (2 workers)
        # after its own fast chunks, once or again while it joins after the
        # first failure.  The worker threads sleep through each of their
        # chunks, about 33 or 50 of them, and stop after the one they are in.
        monkeypatch.setattr(simulate, "_cores", lambda: 3 if method == "start" else 2)
        settings = simulate._settings
        slow_chunks = []

        def slow_on_worker(draws):
            if self.on_worker():
                slow_chunks.append(1)
                time.sleep(0.01)
            return settings(draws)

        original = getattr(threading.Thread, method)
        calls = []

        def fails_once(thread, *args):
            calls.append(thread)
            if len(calls) in failing:
                raise error
            return original(thread, *args)

        monkeypatch.setattr(simulate, "_settings", slow_on_worker)
        monkeypatch.setattr(threading.Thread, method, fails_once)
        with pytest.raises(error):
            simulate_trials(noisy, 400, seed=1)
        assert threading.active_count() == threads
        assert len(slow_chunks) < 10
