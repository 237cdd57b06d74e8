"""Integer-numerator exact kernels against the per-cell loops they replaced.

Every kernel that sums integer numerators over a common denominator is
compared, for exact rational equality, with its old loop in `oracles.py`
on the presets, the small campaign, fixed odd shapes, models with zero
weights and with denominators above 2^64, and a hypothesis property.
The multi-modular expanded route also gets its choice of moduli, its
re-centring and its block walk checked on their own.
The dedicated and expanded routes are also checked to scale each of the
five factors once per model rather than once per context.
"""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from bell_lab import exact, unified
from bell_lab.chsh import certify_model
from bell_lab.exact import correlation_set, outcome_distribution
from bell_lab.models import (
    ContextualModel,
    JointPmf,
    LocalSetting,
    Pmf,
    ResponseTable,
    _scaled_factors,
)
from bell_lab.reduction import _reduced_expectation, reduce_model
from bell_lab.search import SearchMode, SearchSpec, random_model
from bell_lab.unified import (
    DEFAULT_CELL_LIMIT,
    _blocks,
    _expanded_route,
    _moduli,
)
from tests_support import PRESETS, counting

BIG = 2**64 + 13

SHAPES = ((1, 1, 1, 1, 1, 1), (3, 1, 5, 2, 1, 4), (4, 4, 3, 3, 2, 2))


def assert_kernels_match_oracles(model: ContextualModel) -> None:
    expanded = _expanded_route(model, DEFAULT_CELL_LIMIT)
    reduced = reduce_model(model)
    assert correlation_set(model).as_tuple() == tuple(
        oracles.dedicated_fraction_oracle(model, ctx) for ctx in model.contexts()
    )
    for ctx in model.contexts():
        assert expanded(ctx) == oracles.expanded_scaled_oracle(model, ctx)
        assert _reduced_expectation(reduced, ctx) == oracles.reduced_fraction_oracle(reduced, ctx)
    for side, labels, remote_labels in (
        ("alice", model.alice_labels, model.bob_labels),
        ("bob", model.bob_labels, model.alice_labels),
    ):
        for setting in labels:
            for remote in remote_labels:
                assert outcome_distribution(
                    model, side, setting, remote
                ) == oracles.outcome_distribution_fraction_oracle(model, side, setting, remote)


def build_model(source_rows, alice_pmfs, bob_pmfs, rng: random.Random) -> ContextualModel:
    """A model from explicit weights, with coin-flip response tables."""

    def side(name, labels, pmfs, rows):
        return {
            label: LocalSetting(
                pmf=Pmf(tuple(pmf)),
                table=ResponseTable(
                    side=name,
                    setting=label,
                    values=tuple(
                        tuple(rng.choice((1, -1)) for _ in pmf) for _ in range(rows)
                    ),
                ),
            )
            for label, pmf in zip(labels, pmfs)
        }

    return ContextualModel(
        source=JointPmf(tuple(tuple(row) for row in source_rows)),
        alice=side("alice", ("x", "x'"), alice_pmfs, len(source_rows)),
        bob=side("bob", ("y", "y'"), bob_pmfs, len(source_rows[0])),
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
            big += [w.denominator > 2**64 for local in settings_.values() for w in local.pmf.weights]
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
        d *= math.lcm(*[w.denominator for w in local.pmf.weights])
    return d


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
                pmf=local.pmf,
                table=ResponseTable(
                    side=local.table.side,
                    setting=label,
                    values=tuple(tuple(f(v) for v in row) for row in local.table.values),
                ),
            )
            for label, local in settings.items()
        }

    return ContextualModel(
        source=model.source, alice=side(model.alice, alice), bob=side(model.bob, bob)
    )


MODULUS_CEILING = 2**31


def largest_primes(count: int) -> list[int]:
    """The `count` largest primes below 2^31, by trial division."""
    def is_prime(n):
        return all(n % d for d in range(3, math.isqrt(n) + 1, 2))

    candidates = range(MODULUS_CEILING - 1, 2, -2)
    return list(itertools.islice(filter(is_prime, candidates), count))


class TestPrimeSupply:
    """The coprime walk against the supply it replaced: the largest primes below 2^31."""

    @pytest.mark.parametrize(
        "bound", [1, 2, 2**30, 2**31, 2**62, 2**62 + 1, 3**400, 2**1351 - 1]
    )
    def test_moduli_are_the_fewest_largest_primes(self, bound):
        # Every prime above 2^31 / 3 is kept by the walk, so its i-th modulus
        # is at least the i-th prime, and it needs exactly as many moduli as
        # the fewest largest primes whose product exceeds 2 * bound.
        moduli, m = _moduli(bound)
        primes = largest_primes(len(moduli))
        assert all(q >= p for q, p in zip(moduli, primes, strict=True))
        assert math.prod(primes) > 2 * bound >= math.prod(primes[:-1])
        assert m == math.prod(moduli) > 2 * bound >= math.prod(moduli[:-1])


class TestModuli:
    @given(st.integers(1, 2**1351 - 1))
    @example(1)
    @example(2)
    @example(2**30)
    @example(2**31)
    @example(2**62)
    @example(2**62 + 1)
    @example(3**400)
    @example(2**1351 - 1)
    def test_greedy_coprime_walk(self, bound):
        moduli, m = _moduli(bound)
        assert moduli[0] == MODULUS_CEILING - 1
        assert all(q % 2 == 1 and q < MODULUS_CEILING for q in moduli)
        assert all(math.gcd(a, b) == 1 for a, b in itertools.combinations(moduli, 2))
        assert m == math.prod(moduli) > 2 * bound
        assert math.prod(moduli[:-1]) <= 2 * bound
        kept = set(moduli)
        for n in range(moduli[0], moduli[-1], -2):
            if n not in kept:
                assert any(math.gcd(n, q) > 1 for q in moduli if q > n), n


class TestMultiModularExpanded:
    """Cases where a fault in the residue arithmetic or the CRT would show."""

    def assert_matches_oracle(self, model):
        expanded = _expanded_route(model, DEFAULT_CELL_LIMIT)
        values = [expanded(ctx) for ctx in model.contexts()]
        assert values == [oracles.expanded_scaled_oracle(model, ctx) for ctx in model.contexts()]
        return values

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_negative_totals_are_recentred(self, seed):
        model = big_weight_model(seed)
        values = self.assert_matches_oracle(model)
        mirror = map_tables(model, lambda v: -v, lambda v: v)
        assert self.assert_matches_oracle(mirror) == [-v for v in values]
        assert any(v != 0 for v in values)  # so one of the two has a negative total

    @pytest.mark.parametrize("bits", [1, 70, 300])
    def test_totals_at_the_bound(self, bits):
        # Constant tables put |total| at exactly D, where one prime too few
        # or a wrong re-centring gives a different residue class.
        model = big_weight_model(bits, bits=bits)
        assert self.assert_matches_oracle(map_tables(model, lambda v: 1, lambda v: 1)) == [1] * 4
        assert self.assert_matches_oracle(map_tables(model, lambda v: -1, lambda v: 1)) == [-1] * 4

    def test_more_than_40_primes(self):
        model = big_weight_model(7, bits=300)
        assert len(_moduli(denominator_product(model))[0]) > 40
        self.assert_matches_oracle(model)


CHUNKED_SHAPES = ((1, 1, 64, 64, 16, 16), (16, 16, 8, 8, 4, 4))


@pytest.fixture(scope="module")
def chunked_models():
    """Skewed and bench-sized models with their unpatched expanded values
    in contexts (x, y) and (x', y'), which read opposite local axes."""
    cases = []
    for shape in CHUNKED_SHAPES:
        spec = SearchSpec(cardinalities=shape, mode=SearchMode.RANDOM)
        model = random_model(spec, random.Random(3))
        contexts = model.contexts()[::3]
        expanded = _expanded_route(model, DEFAULT_CELL_LIMIT)
        cases.append((model, contexts, [expanded(c) for c in contexts]))
    return cases


class TestBlocks:
    @pytest.mark.parametrize("budget", [1, 7, 4096])
    @pytest.mark.parametrize("case", range(len(CHUNKED_SHAPES)))
    def test_block_budget_does_not_change_values(self, monkeypatch, chunked_models, case, budget):
        model, contexts, expected = chunked_models[case]
        monkeypatch.setattr(unified, "_BLOCK_ELEMENTS", budget)
        expanded = _expanded_route(model, DEFAULT_CELL_LIMIT)
        assert [expanded(c) for c in contexts] == expected

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
        # Blocks hold 2^14 int64 terms (128 KB); the old six-loop kernel
        # held O(local cardinality), and one op peaked near 0.3 MB here.
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


class TestScalingOncePerModel:
    """Each route scales the five factors once per model, not once per context."""

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_dedicated_route(self, monkeypatch, name):
        model = PRESETS[name]()
        scaled = counting(monkeypatch, exact, "_scaled_factors")
        values = correlation_set(model).as_tuple()
        assert len(scaled) == 5
        assert values == tuple(
            oracles.dedicated_fraction_oracle(model, ctx) for ctx in model.contexts()
        )

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_expanded_route(self, monkeypatch, name):
        model = PRESETS[name]()
        dedicated = correlation_set(model).as_tuple()
        scaled = counting(monkeypatch, unified, "_scaled_factors")
        moduli = counting(monkeypatch, unified, "_moduli")
        report = unified.equivalence_report(model, dedicated, DEFAULT_CELL_LIMIT)
        assert (len(scaled), len(moduli)) == (5, 1)
        assert report.expanded == tuple(
            oracles.expanded_scaled_oracle(model, ctx) for ctx in model.contexts()
        )
