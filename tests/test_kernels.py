"""Integer-numerator exact kernels against the per-cell loops they replaced.

Every kernel that sums integer numerators over a common denominator is
compared, for exact rational equality, with its old loop in `oracles.py`
on the presets, the small campaign, fixed odd shapes, models with zero
weights and with denominators above 2^64, and a hypothesis property.
The expanded route, in the tier D selects (float64 below 2^53, int64
below 2^63), is compared with its Python-integer path, forced through the
private thresholds, on every one of those models; models with D at and
around 2^53 and 2^63 pin which dtype runs.  The float64 tier is also compared
with a forced int64 run and the oracle at D just under 2^53 on shapes that
stress each way its blocks fall.  The Python-integer path also gets
negative totals, totals at +-D, its block walk and its memory checked on
their own.  The expanded route's
matrix-product blocks meet the oracle on shapes that force each way a
block can fall, with a bound on its memory when Bob's grid is the wide one,
and exchanging the parties, or one side's two settings, permutes every
route's values.
The dedicated loop and the no-signalling check on it are also compared
with their oracles at the benchmark's size, on a skewed shape, and with
weights that sum in Python integers.
Each of the five factors is scaled to integer numerators once, when it
is built, and its stored pair is compared with the oracle's scaling on
the presets, drawn models, zero and big weights, and after
`dataclasses.replace`.  Every route returns its four correlations in
context order, and each is checked to compute its per-model statistics
once rather than once per context: validation, the dedicated and
expanded routes and the no-signalling check read the stored pairs and
scale nothing, the reduced route scales each side's widths once, and the
factored route and the counterfactuals build each setting's mean vector
once and apply the source to two vectors, with no scaling at all.
Parsing a model document parses each distinct weight string once.
"""

import itertools
import math
from dataclasses import astuple, replace
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bell_lab import exact, expanded, models, reduction, unified
from bell_lab.chsh import certify_model
from bell_lab.exact import correlation_set, verify_no_signalling
from bell_lab.models import (
    ContextualModel,
    JointPmf,
    LocalSetting,
    _scaled_factors,
)
from bell_lab.reduction import _reduced_route, reduce_model
from bell_lab.search import SearchMode, SearchSpec, random_model
from bell_lab.expanded import _blocks, _expanded_route
from bell_lab.unified import _factored_route, counterfactuals
from tests_support import PRESETS, alter_local, counting, positive_model, relation_models

BIG = 2**64 + 13

SHAPES = ((1, 1, 1, 1, 1, 1), (3, 1, 5, 2, 1, 4), (4, 4, 3, 3, 2, 2))
CHUNKED_SHAPES = ((1, 1, 64, 64, 16, 16), (16, 16, 8, 8, 4, 4))
# Budgets 1 and 7 cut the first chunked shape into single grid indices, about
# 4M one-row matrix products at budget 1, so they take this shape: the same
# pattern of one source cell (cols = 1), Alice's grid the wide one.
SMALL_BUDGET_SHAPE = (1, 1, 16, 16, 8, 8)


FLOAT64, INT64, OBJECT = np.dtype(np.float64), np.dtype(np.int64), np.dtype(object)


def python_integers(model: ContextualModel) -> tuple[Fraction, ...]:
    """`_expanded_route` with the float64 and int64 tiers switched off: no D
    is below 1."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expanded, "_EXACT_FLOAT", 1)
        patch.setattr(expanded, "_ONE_WORD", 1)
        return _expanded_route(model)


def int64_words(model: ContextualModel) -> tuple[Fraction, ...]:
    """`_expanded_route` with the float64 tier switched off, so every D below
    2^63 sums in int64."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expanded, "_EXACT_FLOAT", 1)
        return _expanded_route(model)


def assert_expanded_matches_oracle(model: ContextualModel) -> tuple[Fraction, ...]:
    """The expanded route against its oracle and against its Python-integer path."""
    values = _expanded_route(model)
    assert values == tuple(oracles.expanded_scaled_oracle(model, ctx) for ctx in model.contexts())
    assert values == python_integers(model)
    return values


def assert_dedicated_matches_oracles(model: ContextualModel) -> None:
    """The dedicated loop's correlations and no-signalling rows against their
    per-cell `Fraction` oracles."""
    assert correlation_set(model) == tuple(
        oracles.dedicated_fraction_oracle(model, ctx) for ctx in model.contexts()
    )
    a0, a1 = model.alice_labels
    b0, b1 = model.bob_labels
    rows = verify_no_signalling(model).rows
    assert [(row.side, row.setting) for row in rows] == [
        ("alice", a0), ("alice", a1), ("bob", b0), ("bob", b1)
    ]
    for row in rows:
        assert row.distributions == tuple(
            oracles.outcome_distribution_fraction_oracle(model, row.side, row.setting, remote)
            for remote in row.remote_labels
        )


def assert_kernels_match_oracles(model: ContextualModel) -> None:
    """Each route's tuple against its oracle, context by context."""
    contexts = model.contexts()
    reduced = reduce_model(model)
    assert_dedicated_matches_oracles(model)
    assert _factored_route(model) == oracles.correlation_quadruple(model)
    assert_expanded_matches_oracle(model)
    assert _reduced_route(model) == tuple(
        oracles.reduced_fraction_oracle(model, reduced, ctx) for ctx in contexts
    )
    a0, a1 = model.alice_labels
    b0, b1 = model.bob_labels
    assert astuple(counterfactuals(model)) == (
        oracles.product_mean(model, [("alice", a0), ("alice", a1)]),
        oracles.product_mean(model, [("bob", b0), ("bob", b1)]),
        oracles.product_mean(model, [("alice", a0), ("alice", a1), ("bob", b0), ("bob", b1)]),
    )


def build_model(source_rows, alice_pmfs, bob_pmfs, rng: random.Random) -> ContextualModel:
    """A model from explicit weights, with coin-flip response tables."""

    def side(labels, pmfs, rows):
        return {
            label: LocalSetting(
                pmf, [[rng.choice((1, -1)) for _ in pmf] for _ in range(rows)]
            )
            for label, pmf in zip(labels, pmfs)
        }

    return ContextualModel(
        source=JointPmf(tuple(tuple(row) for row in source_rows)),
        alice=side(("x", "x'"), alice_pmfs, len(source_rows)),
        bob=side(("y", "y'"), bob_pmfs, len(source_rows[0])),
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

    def test_zero_source_row_and_column(self):
        # Row 1 builds no dedicated factors at all, and column 2 none in any row.
        zero = Fraction(0)
        model = build_model(
            [
                [Fraction(1, 4), Fraction(1, 8), zero],
                [zero, zero, zero],
                [Fraction(3, 8), Fraction(1, 4), zero],
            ],
            [[Fraction(1, 3), Fraction(2, 3)], [Fraction(1, 2), zero, Fraction(1, 2)]],
            [[Fraction(3, 5), Fraction(2, 5)], [zero, Fraction(1)]],
            random.Random(13),
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
            big += [w.denominator > 2**64 for local in settings_.values() for w in local.weights]
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


def denominator_product(model: ContextualModel) -> int:
    """D: the product of the five factors' least common denominators."""
    d = math.lcm(*[w.denominator for w in model.source.flattened()])
    for local in itertools.chain(model.alice.values(), model.bob.values()):
        d *= math.lcm(*[w.denominator for w in local.weights])
    return d


def below(bound: int, shape, seed: int = 0) -> ContextualModel:
    """`positive_model(shape, seed)` with D raised to just below `bound`.

    Alice's first pmf is redrawn as positive weights over the largest q that
    keeps D = q * (the other four denominators) below `bound`; its first
    weight is 1/q, so its denominator is exactly q.
    """
    model = positive_model(shape, seed)
    label, local = next(iter(model.alice.items()))
    rest = denominator_product(model) // math.lcm(*[w.denominator for w in local.weights])
    q = (bound - 1) // rest
    cuts = sorted(random.Random(seed).sample(range(2, q), len(local.weights) - 2))
    bounds = [0, 1, *cuts, q]
    pmf = [Fraction(hi - lo, q) for lo, hi in zip(bounds, bounds[1:])]
    return alter_local(model, "alice", label, pmf=pmf)


def big_weight_model(seed: int, shape=(2, 2, 2, 3, 3, 2), bits: int = 70) -> ContextualModel:
    """Coin-flip tables and positive weights drawn up to 2^bits, normalised."""
    rng = random.Random(seed)
    s1, s2, *local_sizes = shape

    def pmf(size):
        return normalised([rng.randint(1, 2**bits) for _ in range(size)])

    flat = pmf(s1 * s2)
    source = [flat[r * s2:(r + 1) * s2] for r in range(s1)]
    locals_ = [pmf(n) for n in local_sizes]
    return build_model(source, locals_[:2], locals_[2:], rng)


def map_tables(model: ContextualModel, alice, bob) -> ContextualModel:
    """Copy of `model` with every readout v of Alice's tables replaced by
    alice(v) and every readout of Bob's by bob(v)."""

    def side(settings, f):
        return {
            label: LocalSetting(
                local.weights, [[f(v) for v in row] for row in local.table]
            )
            for label, local in settings.items()
        }

    return ContextualModel(
        source=model.source, alice=side(model.alice, alice), bob=side(model.bob, bob)
    )


def constant_model(source_d: int, local_d: int, readout: int) -> ContextualModel:
    """Pmfs (1/d, (d-1)/d), so D = source_d * local_d^4, with Alice's tables
    all `readout` and Bob's all +1: |total| = D and each correlation is `readout`."""

    def pmf(d):
        return [Fraction(1, d), Fraction(d - 1, d)]

    model = build_model([pmf(source_d)], [pmf(local_d)] * 2, [pmf(local_d)] * 2, random.Random(0))
    return map_tables(model, lambda v: readout, lambda v: 1)


def axis_dtypes(monkeypatch) -> list[np.dtype]:
    """Record the dtype of every axis `_local_axes` returns: two per setting."""
    dtypes = []
    build = expanded._local_axes

    def recorded(*args):
        axes = build(*args)
        dtypes.extend(axis.dtype for pair in axes for axis in pair)
        return axes

    monkeypatch.setattr(expanded, "_local_axes", recorded)
    return dtypes


class TestOneWordExpanded:
    """Which dtype the expanded route sums in, and its exactness at the switch."""

    @pytest.mark.parametrize(
        "source_d, local_d, dtype",
        [
            pytest.param(2**15 - 1, 2**12, INT64, id="D=2^63-2^48"),
            pytest.param(2**63 - 25, 1, INT64, id="D=2^63-25"),  # the largest prime below 2^63
            pytest.param(2**15, 2**12, OBJECT, id="D=2^63"),
            pytest.param(2**53 - 1, 1, FLOAT64, id="D=2^53-1"),
            pytest.param(2**13, 2**10, INT64, id="D=2^53"),
            pytest.param(2**53 + 1, 1, INT64, id="D=2^53+1"),
        ],
    )
    @pytest.mark.parametrize("readout", [1, -1])
    def test_totals_at_the_switch(self, monkeypatch, source_d, local_d, dtype, readout):
        # A total of +2^63 does not fit in int64, so an int64 sum at D = 2^63
        # wraps; 2^53 + 1 is the least integer a double does not hold, so a
        # float64 sum of the terms 1 and 2^53 at D = 2^53 + 1 rounds.
        model = constant_model(source_d, local_d, readout)
        assert denominator_product(model) == source_d * local_d**4
        dtypes = axis_dtypes(monkeypatch)
        values = _expanded_route(model)
        assert values == (readout,) * 4
        assert values == tuple(oracles.expanded_scaled_oracle(model, ctx) for ctx in model.contexts())
        assert dtypes == [dtype] * 8

    @pytest.mark.parametrize("shape", SHAPES + CHUNKED_SHAPES)
    def test_random_models_take_one_word(self, monkeypatch, shape):
        spec = SearchSpec(cardinalities=shape, mode=SearchMode.RANDOM)
        model = random_model(spec, random.Random(0))
        dtypes = axis_dtypes(monkeypatch)
        _expanded_route(model)
        assert dtypes == [FLOAT64] * 8


FLOAT_SHAPES = pytest.mark.parametrize(
    "shape",
    [(16, 16, 8, 8, 4, 4), (1, 1, 128, 128, 2, 2), (1, 1, 2, 2, 128, 128),
     (4, 1, 16, 16, 8, 8), (1, 2, 40, 40, 3, 3)],
    ids=["benchmark", "alice_heavy", "bob_heavy", "one_source_column", "blocks_in_a_row"],
)


class TestFloatExpanded:
    """The float64 tier at D just under 2^53, where cell terms and partial
    sums come nearest the largest integers a double holds, against a forced
    int64 run and the per-cell oracle; each shape cuts every context into
    several blocks."""

    @FLOAT_SHAPES
    def test_matches_int64_and_oracle(self, monkeypatch, shape):
        model = below(2**53, shape)
        assert 2**52 < denominator_product(model) < 2**53
        assert sum(len(boxes) for boxes, _ in matmul_blocks(model)) > 1
        dtypes = axis_dtypes(monkeypatch)
        values = _expanded_route(model)
        assert dtypes == [FLOAT64] * 8
        assert values == int64_words(model)
        assert values == tuple(oracles.expanded_scaled_oracle(model, ctx) for ctx in model.contexts())
        assert any(v != 0 for v in values)


class TestPythonIntegerExpanded:
    """Cases where a fault in the big-integer sum or its block walk would show.

    Each model is also summed on the forced Python-integer path, so the
    small-D case at bits=1 checks it too.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_negative_totals(self, seed):
        model = big_weight_model(seed)
        values = assert_expanded_matches_oracle(model)
        mirror = map_tables(model, lambda v: -v, lambda v: v)
        assert assert_expanded_matches_oracle(mirror) == tuple(-v for v in values)
        assert any(v != 0 for v in values)  # so one of the two has a negative total

    @pytest.mark.parametrize("bits", [1, 70, 300])
    def test_totals_at_the_bound(self, bits):
        # Constant tables put |total| at exactly D, the largest a sum reaches.
        model = big_weight_model(bits, bits=bits)
        assert assert_expanded_matches_oracle(map_tables(model, lambda v: 1, lambda v: 1)) == (1,) * 4
        assert assert_expanded_matches_oracle(map_tables(model, lambda v: -1, lambda v: 1)) == (-1,) * 4

    def test_300_bit_weights(self):
        model = big_weight_model(7, bits=300)
        assert denominator_product(model).bit_length() > 1200
        assert_expanded_matches_oracle(model)

    def test_memory_does_not_grow_with_cells(self):
        # A block's T and its product T @ B hold at most 2^13 Python
        # integers together, each at most D (about 2^360): under 1 MB
        # whether the model has 2^13 cells (one block per context) or 2^15
        # (four).  The larger model's whole T and T @ B, 4096 rows of 2 + 4
        # integers each, would take three times the cap.
        peaks, blocks = [], []
        for shape in ((4, 2, 16, 16, 2, 2), (16, 2, 16, 16, 2, 2)):
            model = big_weight_model(0, shape=shape)
            assert denominator_product(model).bit_length() > 350
            blocks.append([len(boxes) for boxes, _ in matmul_blocks(model)])
            tracemalloc.start()
            try:
                _expanded_route(model)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert blocks == [[1], [4]]
        assert max(peaks) < 4 * 2**20
        assert peaks[1] - peaks[0] < 2**19


@pytest.fixture(scope="module")
def chunked_models():
    """Skewed and bench-sized models with every weight positive and D just
    below 2^63, which take the int64 tier, and a big-weight model, which
    takes the Python-integer one, with their unpatched expanded values."""
    cases = [below(2**63, shape, 3) for shape in CHUNKED_SHAPES]
    cases.append(big_weight_model(0, shape=(4, 4, 8, 8, 4, 4)))
    return [(model, _expanded_route(model)) for model in cases]


@pytest.fixture(scope="module")
def small_budget_models(chunked_models):
    """`chunked_models` with the first at `SMALL_BUDGET_SHAPE`."""
    small = below(2**63, SMALL_BUDGET_SHAPE, 3)
    return [(small, _expanded_route(small)), *chunked_models[1:]]


class TestBlocks:
    @pytest.mark.parametrize("budget", [1, 7, 4096])
    @pytest.mark.parametrize("case", range(len(CHUNKED_SHAPES) + 1))
    def test_block_budget_does_not_change_values(
        self, monkeypatch, chunked_models, small_budget_models, case, budget
    ):
        model, expected = (chunked_models if budget == 4096 else small_budget_models)[case]
        monkeypatch.setattr(expanded, "_BLOCK_ELEMENTS", budget)
        assert _expanded_route(model) == expected

    def test_chunked_models_match_oracle(self, chunked_models):
        assert [2**53 <= denominator_product(model) < 2**63 for model, _ in chunked_models] == [
            True, True, False
        ]
        for model, expected in chunked_models:
            assert assert_expanded_matches_oracle(model) == expected

    def test_chunked_models_dedicated_match_oracle(self, chunked_models):
        for model, _ in chunked_models:
            assert_dedicated_matches_oracles(model)

    @pytest.mark.parametrize("shape", [(1, 1, 1, 1), (3, 5, 2, 7), (16, 8, 8, 16), (1, 64, 64, 1)])
    @pytest.mark.parametrize("inner", [1, 3, 16])
    @pytest.mark.parametrize("cap", [1, 2, 7, 100, 4096, 10**9])
    def test_blocks_tile_the_grid_once(self, shape, inner, cap):
        seen = np.zeros(shape, dtype=np.int64)
        for box in _blocks(shape, inner, cap):
            block = seen[box]
            assert block.size and block.size * inner <= max(cap, inner)
            block += 1
        assert (seen == 1).all()

    def test_certify_op_memory_is_bounded(self):
        # A block's T and its product T @ B hold at most 2^13 float64 values
        # (64 KB) together; the old six-loop kernel held O(local
        # cardinality), and one op peaked near 0.3 MB here.
        spec = SearchSpec(cardinalities=(16, 16, 8, 8, 4, 4), mode=SearchMode.RANDOM)
        model = random_model(spec, random.Random(0))
        certify_model(model)
        tracemalloc.start()
        try:
            certify_model(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024


def matmul_blocks(model: ContextualModel) -> list[tuple[list, int]]:
    """The blocks `_expanded_route` cuts each context into: per block of
    Bob's grid, Alice's blocks inside it and the elements one of her grid
    indices holds, a row of T and a row of T @ B."""
    (x, xp), (y, yp) = (
        [len(local.weights) for local in settings.values()] for settings in (model.alice, model.bob)
    )
    cols, cap = model.source.cols, expanded._BLOCK_ELEMENTS
    cuts = []
    for iy, iyp in _blocks((y, yp), cols, cap):
        inner = cols + len(range(y)[iy]) * len(range(yp)[iyp])
        cuts.append((list(_blocks((model.source.rows, x, xp), inner, cap)), inner))
    return cuts


def zero_weight_model() -> ContextualModel:
    """Size-1 source columns and local axes, zero weights, and cols = 1
    against |y| * |y'| = 6."""
    zero = Fraction(0)
    return build_model(
        [[Fraction(1, 3)], [zero], [Fraction(2, 3)]],
        [[Fraction(1)], [Fraction(1, 4), zero, Fraction(3, 4), zero]],
        [[zero, Fraction(1)], [Fraction(2, 7), Fraction(5, 7), zero]],
        random.Random(21),
    )


class TestMatmulBlocks:
    """The expanded route's blocks, one matrix product each, against the
    per-cell oracle on shapes that force each way a block can fall."""

    def test_several_blocks_inside_one_source_row(self):
        for model in (positive_model((1, 2, 40, 40, 3, 3)),
                      big_weight_model(4, shape=(1, 2, 40, 40, 3, 3))):
            [(boxes, inner)] = matmul_blocks(model)
            assert inner * 40 * 40 > expanded._BLOCK_ELEMENTS
            assert len(boxes) > 1 and all(box[1] != slice(None) for box in boxes)
            assert_expanded_matches_oracle(model)

    def test_one_grid_index_above_the_cap(self):
        # B is one block of 128 * 64 = 2^13 columns, so an (l1, lx, lx') index
        # holds cols + 2^13 = 1 + 2^13 elements: each block is one (l1, lx, lx').
        model = positive_model((2, 1, 2, 3, 128, 64))
        [(boxes, inner)] = matmul_blocks(model)
        assert inner > expanded._BLOCK_ELEMENTS
        assert len(boxes) == 2 * 2 * 3
        assert_expanded_matches_oracle(model)

    def test_several_blocks_of_bob(self):
        # |y| * |y'| = 91 * 91 columns of B, cut into blocks of 90 * 91 and
        # 1 * 91; Alice's blocks are single rows in the first, one in the last.
        # Every weight is positive, so each block adds terms.
        model = big_weight_model(7, shape=(2, 1, 2, 3, 91, 91), bits=4)
        cuts = matmul_blocks(model)
        assert [(len(boxes), inner) for boxes, inner in cuts] == [(12, 1 + 90 * 91), (1, 1 + 91)]
        assert_expanded_matches_oracle(model)

    def test_size_one_axes_and_zero_weights(self):
        model = zero_weight_model()
        [(boxes, inner)] = matmul_blocks(model)
        assert (len(boxes), inner) == (1, 1 + 6)
        values = assert_expanded_matches_oracle(model)
        assert values == oracles.correlation_quadruple(model)

    @pytest.mark.parametrize("cap", [1, 7, 50])
    def test_big_weights_in_small_blocks(self, monkeypatch, cap):
        # Python integers, in blocks of one grid index (cap <= inner = 9) or a few.
        model = big_weight_model(5, shape=(3, 3, 4, 3, 2, 3))
        expected = tuple(oracles.expanded_scaled_oracle(model, ctx) for ctx in model.contexts())
        monkeypatch.setattr(expanded, "_BLOCK_ELEMENTS", cap)
        assert sum(len(boxes) for boxes, _ in matmul_blocks(model)) > 3
        assert _expanded_route(model) == expected

    def test_int64_memory_does_not_grow_with_cells(self):
        # A block's T and T @ B hold at most 2^13 int64 values (64 KB)
        # together, at 2^18 cells as at 2^24.
        peaks = []
        for shape in ((16, 16, 8, 8, 4, 4), (32, 32, 16, 16, 8, 8)):
            model = below(2**63, shape)
            assert denominator_product(model) >= 2**53
            tracemalloc.start()
            try:
                _expanded_route(model)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 256 * 1024
        assert peaks[1] - peaks[0] < 64 * 1024

    @pytest.mark.parametrize("shape", [(1, 1, 1, 1, 1024, 1024), (4, 4, 1, 1, 512, 512)])
    def test_bob_heavy_memory_is_bounded(self, shape):
        # B = cols x |y| * |y'| has 2^20 float64 elements here, 8 MB whole;
        # cut into blocks, the route peaks near 0.3 MB.  Every weight is
        # positive, so each of Bob's blocks adds terms to the values.
        model = positive_model(shape)
        tracemalloc.start()
        try:
            values = _expanded_route(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert values == correlation_set(model)


def swap_parties(model: ContextualModel) -> ContextualModel:
    """The model with Alice and Bob exchanged: the source transposed, and
    each side's settings handed to the other."""
    return ContextualModel(
        source=JointPmf(tuple(zip(*model.source.weights))), alice=model.bob, bob=model.alice
    )


SWAP_MODELS = pytest.mark.parametrize(
    "model",
    [*(positive_model(shape, 3) for shape in SHAPES + CHUNKED_SHAPES),
     big_weight_model(6), zero_weight_model()],
    ids=[*("x".join(map(str, shape)) for shape in SHAPES + CHUNKED_SHAPES),
         "big_weight", "zero_weight"],
)


class TestPartySwap:
    """Exchanging the parties permutes every route's four values to
    (e_xy, e_x'y, e_xy', e_x'y'): the swapped model's context (y, x') is
    the original's (x', y)."""

    ROUTES = ("dedicated", "factored", "expanded", "reduced")

    @SWAP_MODELS
    def test_routes_permute(self, model):
        base = certify_model(model)
        swapped = certify_model(swap_parties(model))
        (x, xp), (y, yp) = model.alice_labels, model.bob_labels
        assert swapped.contexts == ((y, x), (y, xp), (yp, x), (yp, xp))
        for route in self.ROUTES:
            e = getattr(base, route)
            assert getattr(swapped, route) == (e[0], e[2], e[1], e[3]), route
        assert swapped.certificate.report.s_max == base.certificate.report.s_max

    def test_not_vacuous(self):
        # Some model's two mixed contexts differ, so the swap moves a value.
        models = [positive_model(shape, 3) for shape in SHAPES + CHUNKED_SHAPES]
        assert any(e[1] != e[2] for e in map(_expanded_route, models))


def reverse_settings(model: ContextualModel, side: str) -> ContextualModel:
    """The model with `side`'s two settings declared in the other order."""
    settings = model.alice if side == "alice" else model.bob
    return replace(model, **{side: dict(reversed(settings.items()))})


class TestSettingSwap:
    """Declaring one side's two settings in the other order permutes every
    route's four values: Alice's swap to (e_x'y, e_x'y', e_xy, e_xy'), and
    Bob's to (e_xy', e_xy, e_x'y', e_x'y)."""

    ORDERS = {"alice": (2, 3, 0, 1), "bob": (1, 0, 3, 2)}

    @pytest.mark.parametrize("side", sorted(ORDERS))
    @SWAP_MODELS
    def test_routes_permute(self, model, side):
        base = certify_model(model)
        swapped = certify_model(reverse_settings(model, side))
        order = self.ORDERS[side]
        assert swapped.contexts == tuple(base.contexts[k] for k in order)
        for route in TestPartySwap.ROUTES:
            e = getattr(base, route)
            assert getattr(swapped, route) == tuple(e[k] for k in order), route
        assert swapped.certificate.report.s_max == base.certificate.report.s_max

    @pytest.mark.parametrize("side", sorted(ORDERS))
    def test_not_vacuous(self, side):
        # Some model's values are not fixed by the permutation, so it moves one.
        order = self.ORDERS[side]
        models = [positive_model(shape, 3) for shape in SHAPES + CHUNKED_SHAPES]
        assert any(tuple(e[k] for k in order) != e for e in map(_expanded_route, models))


def factors(model: ContextualModel) -> list:
    """The model's five factors: the source, then each setting in declared order."""
    return [model.source, *model.alice.values(), *model.bob.values()]


def stored_pair_models() -> dict:
    """Models whose factors' stored pairs the oracle checks, by name."""
    spec = SearchSpec(cardinalities=(3, 2, 4, 1, 2, 5), mode=SearchMode.RANDOM)
    return {
        **{name: load() for name, load in sorted(PRESETS.items())},
        **{f"random-{seed}": random_model(spec, random.Random(seed)) for seed in (0, 1, 2)},
        "zero_weight": zero_weight_model(),
        **{f"big_weight-{seed}": big_weight_model(seed) for seed in (0, 1)},
    }


class TestStoredScaling:
    """Each factor's `_scaled` pair, computed at construction, against the
    oracle's own scaling of the same weights."""

    @pytest.mark.parametrize("name", sorted(stored_pair_models()))
    def test_matches_oracle(self, name):
        model = stored_pair_models()[name]
        if name.startswith("big_weight"):
            assert all(f._scaled[1] > 2**64 for f in factors(model))
        assert model.source._scaled == oracles._oracle_scaled_factors(
            list(model.source.flattened())
        )
        for local in factors(model)[1:]:
            assert local._scaled == oracles._oracle_scaled_factors(list(local.weights))

    @pytest.mark.parametrize("name", sorted(stored_pair_models()))
    def test_recomputed_by_replace(self, name):
        # New weights through `dataclasses.replace` get their own pair: the
        # source's rows reversed, each pmf reversed and its table's columns too.
        model = stored_pair_models()[name]
        source = replace(model.source, weights=model.source.weights[::-1])
        assert source._scaled == oracles._oracle_scaled_factors(list(source.flattened()))
        for local in factors(model)[1:]:
            swapped = replace(local, weights=local.weights[::-1],
                              table=[row[::-1] for row in local.table])
            assert swapped._scaled == oracles._oracle_scaled_factors(list(swapped.weights))


class TestScalingOncePerModel:
    """Each factor is scaled once, when it is built; the routes read the
    stored pairs and scale nothing per model or per context."""

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_construction(self, monkeypatch, name):
        # Loading a model builds five factors, each scaled once, in order.
        scaled = counting(monkeypatch, models, "_scaled_factors")
        model = PRESETS[name]()
        assert [list(weights) for (weights,) in scaled] == [
            list(model.source.flattened()), *(list(f.weights) for f in factors(model)[1:])
        ]

    def test_construction_of_a_drawn_model(self, monkeypatch):
        scaled = counting(monkeypatch, models, "_scaled_factors")
        spec = SearchSpec(cardinalities=(3, 2, 4, 1, 2, 5), mode=SearchMode.RANDOM)
        random_model(spec, random.Random(0))
        assert len(scaled) == 5

    def test_parse_once_per_distinct_string(self, monkeypatch):
        # Twelve weight strings, of which "1/2", "0" and "2/4" repeat: six
        # distinct ones, each parsed once, and "2/4" apart from "1/2".
        doc = models.model_to_dict(PRESETS["noisy_readout"]())
        doc["source"] = [["1/2", "0"], ["0", "2/4"]]
        pmfs = [["1/2", "2/4"], ["1"], ["1/3", "2/3"], ["1/2", "0", "1/2"]]
        for local, pmf in zip([*doc["alice"].values(), *doc["bob"].values()], pmfs):
            local["pmf"] = pmf
            local["table"] = [[1] * len(pmf)] * 2
        parsed = counting(monkeypatch, models, "parse_rational")
        model = models.model_from_dict(doc)
        assert sorted(text for (text,) in parsed) == ["0", "1", "1/2", "1/3", "2/3", "2/4"]
        assert model.source.weights == ((Fraction(1, 2), 0), (0, Fraction(1, 2)))

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_dedicated_route(self, monkeypatch, name):
        model = PRESETS[name]()
        assert "_scaled_factors" not in vars(exact)
        scaled = counting(monkeypatch, models, "_scaled_factors")
        values = correlation_set(model)
        assert len(scaled) == 0
        assert values == tuple(
            oracles.dedicated_fraction_oracle(model, ctx) for ctx in model.contexts()
        )

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_no_signalling(self, monkeypatch, name):
        model = PRESETS[name]()
        scaled = counting(monkeypatch, models, "_scaled_factors")
        report = exact.verify_no_signalling(model)
        assert len(scaled) == 0
        assert len(report.rows) == 4
        for row in report.rows:
            assert row.distributions == tuple(
                oracles.outcome_distribution_fraction_oracle(model, row.side, row.setting, remote)
                for remote in row.remote_labels
            )

    @pytest.mark.parametrize("name", [*sorted(PRESETS), "big_weight_model"])
    def test_expanded_route(self, monkeypatch, name):
        # Every preset sums in float64, weights near 2^70 in Python integers;
        # either way each side's axes are built once, two per setting.
        big = name == "big_weight_model"
        model = big_weight_model(0) if big else PRESETS[name]()
        assert "_scaled_factors" not in vars(expanded)
        scaled = counting(monkeypatch, models, "_scaled_factors")
        dtypes = axis_dtypes(monkeypatch)
        values = expanded._expanded_route(model)
        assert (len(scaled), dtypes) == (0, [OBJECT if big else FLOAT64] * 8)
        assert values == tuple(
            oracles.expanded_scaled_oracle(model, ctx) for ctx in model.contexts()
        )

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_reduced_route(self, monkeypatch, name):
        # Alice's and Bob's overlay widths; the source's pair is stored.
        model = PRESETS[name]()
        scaled = counting(monkeypatch, reduction, "_scaled_factors")
        values = reduction._reduced_route(model)
        assert len(scaled) == 2
        reduced = reduce_model(model)
        assert [widths for (widths,) in scaled] == [
            reduced.alice_map.widths(), reduced.bob_map.widths()
        ]
        assert values == tuple(
            oracles.reduced_fraction_oracle(model, reduced, ctx) for ctx in model.contexts()
        )

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_factored_route(self, monkeypatch, name):
        # The source is applied once per Bob setting, not once per context.
        model = PRESETS[name]()
        assert "_scaled_factors" not in vars(unified)
        scaled_models = counting(monkeypatch, models, "_scaled_factors")
        means = counting(monkeypatch, unified, "_means")
        source_times = counting(monkeypatch, unified, "_source_times")
        values = unified._factored_route(model)
        assert (len(means), len(source_times), len(scaled_models)) == (4, 2, 0)
        assert values == oracles.correlation_quadruple(model)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_counterfactuals(self, monkeypatch, name):
        # The source is applied to Bob's product of means and to all ones.
        # Validation reads the five factors' stored pairs and the factored
        # sums scale nothing, so nothing is scaled.
        model = PRESETS[name]()
        assert "_scaled_factors" not in vars(unified)
        scaled_models = counting(monkeypatch, models, "_scaled_factors")
        means = counting(monkeypatch, unified, "_means")
        source_times = counting(monkeypatch, unified, "_source_times")
        cf = unified.counterfactuals(model)
        assert (len(means), len(source_times), len(scaled_models)) == (4, 2, 0)
        a0, a1 = model.alice_labels
        b0, b1 = model.bob_labels
        assert cf.full_product == oracles.product_mean(
            model, [("alice", a0), ("alice", a1), ("bob", b0), ("bob", b1)]
        )


class TestMeans:
    """Each setting's mean vector, from half-sums, against the plain sum of
    p(k) * R(l, k) it replaced."""

    @pytest.mark.parametrize(
        "model", [*relation_models().values(), zero_weight_model()],
        ids=[*relation_models(), "zero_weight"],
    )
    def test_matches_plain_sum(self, model):
        for local in (*model.alice.values(), *model.bob.values()):
            assert unified._means(local) == oracles.means_oracle(local)
