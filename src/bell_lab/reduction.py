"""Two-uniform form of a model: local randomness from shared uniforms.

Each side's two local variables become deterministic functions of one
uniform variable on [0,1) through inverse-transform interval partitions.
The two partitions of a side are overlaid into one refinement whose
intervals each carry a pair of local values, one per setting.  The random
inputs of the reduced form (source pair, U1, U2) carry no setting label;
every setting dependence lives in the deterministic interval maps and the
response tables.

Everything here is exact interval algebra on rationals; the quadrature
sums integer numerators over each factor's common denominator and returns
one Fraction.  Nothing is ever sampled in this module; the sampling path
lives in the simulator.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .models import (
    Context,
    ContextualModel,
    Pmf,
    _scaled_factors,
    format_rational,
    require_valid,
)


@dataclass(frozen=True)
class IntervalPartition:
    """Partition of [0,1) into consecutive labelled intervals.

    breakpoints are strictly increasing from 0 to 1; interval i spans
    (breakpoints[i], breakpoints[i+1]], except the first which includes 0.
    labels[i] is what interval i maps to: a support index for one pmf's
    inverse transform, or a (first-setting, second-setting) index pair for
    a side's overlay of two.  Zero-weight support points yield zero-width
    intervals, which are dropped; their indices simply never appear in
    labels.
    """

    breakpoints: tuple[Fraction, ...]
    labels: tuple[int | tuple[int, int], ...]

    def __post_init__(self):
        if len(self.breakpoints) != len(self.labels) + 1:
            raise ValueError("breakpoint/label count mismatch")

    def locate(self, u: Fraction) -> int | tuple[int, int]:
        """Label for a point of [0,1); boundaries go to the lower interval."""
        if not 0 <= u < 1:
            raise ValueError(f"point {format_rational(Fraction(u))} outside [0, 1)")
        idx = bisect_left(self.breakpoints, u) - 1
        return self.labels[max(idx, 0)]

    def widths(self) -> tuple[Fraction, ...]:
        return tuple(
            hi - lo for lo, hi in zip(self.breakpoints, self.breakpoints[1:])
        )


def inverse_transform_partition(pmf: Pmf) -> IntervalPartition:
    """Cumulative-sum partition: interval widths equal the weights in order."""
    breakpoints = [Fraction(0)]
    labels = []
    cum = Fraction(0)
    for index, w in enumerate(pmf.weights):
        if w == 0:
            continue
        cum += w
        breakpoints.append(cum)
        labels.append(index)
    if cum != 1:
        raise ValueError(f"weights sum to {format_rational(cum)}, expected 1")
    return IntervalPartition(breakpoints=tuple(breakpoints), labels=tuple(labels))


def _overlay(first: IntervalPartition, second: IntervalPartition) -> IntervalPartition:
    """Common refinement of two partitions; each interval's label is the pair
    (first label, second label).

    An interval's width is the weight of its label pair when one shared
    uniform drives both partitions, so the widths recover each partition's
    weights as marginals.
    """
    breakpoints = [Fraction(0)]
    labels = []
    ia = ib = 0
    lo = Fraction(0)
    while ia < len(first.labels) and ib < len(second.labels):
        hi = min(first.breakpoints[ia + 1], second.breakpoints[ib + 1])
        if hi > lo:
            breakpoints.append(hi)
            labels.append((first.labels[ia], second.labels[ib]))
        if first.breakpoints[ia + 1] == hi:
            ia += 1
        if second.breakpoints[ib + 1] == hi:
            ib += 1
        lo = hi
    return IntervalPartition(breakpoints=tuple(breakpoints), labels=tuple(labels))


@dataclass(frozen=True)
class ReducedModel:
    """Original source and tables; local randomness replaced by two uniforms."""

    base: ContextualModel
    alice_map: IntervalPartition
    bob_map: IntervalPartition


def reduce_model(model: ContextualModel) -> ReducedModel:
    require_valid(model)
    a0, a1 = model.alice_labels
    b0, b1 = model.bob_labels
    alice_map = _overlay(
        inverse_transform_partition(model.alice[a0].pmf),
        inverse_transform_partition(model.alice[a1].pmf),
    )
    bob_map = _overlay(
        inverse_transform_partition(model.bob[b0].pmf),
        inverse_transform_partition(model.bob[b1].pmf),
    )
    return ReducedModel(base=model, alice_map=alice_map, bob_map=bob_map)


def _interval_means(uniform_map: IntervalPartition, table, slot: int) -> tuple[list[int], int]:
    """Per source index, the width-weighted response over refined intervals,
    as integer numerators over the widths' common denominator."""
    widths, d = _scaled_factors(uniform_map.widths())
    means = [
        sum(w * row[pair[slot]] for w, pair in zip(widths, uniform_map.labels))
        for row in table
    ]
    return means, d


def _reduced_expectation(reduced: ReducedModel, ctx: Context) -> Fraction:
    """Context correlation under the reduced form, by exact quadrature.

    Integrates over refined intervals times source pairs; each interval
    contributes its width times the response value its pair selects.
    Widths and source weights are integer numerators over their common
    denominators, and each side's per-source interval mean is computed
    once per source index.
    """
    model = reduced.base
    a_slot = model.alice_labels.index(ctx.alice)
    b_slot = model.bob_labels.index(ctx.bob)
    a_table = model.alice[ctx.alice].table.values
    b_table = model.bob[ctx.bob].table.values

    a_means, a_den = _interval_means(reduced.alice_map, a_table, a_slot)
    b_means, b_den = _interval_means(reduced.bob_map, b_table, b_slot)
    source, source_den = _scaled_factors(model.source.flattened())
    cols = model.source.cols
    total = 0
    for l1, a_mean in enumerate(a_means):
        for l2, b_mean in enumerate(b_means):
            w_src = source[l1 * cols + l2]
            if w_src == 0:
                continue
            total += w_src * a_mean * b_mean
    return Fraction(total, source_den * a_den * b_den)


@dataclass(frozen=True)
class ReductionReport:
    contexts: tuple[Context, ...]
    original: tuple[Fraction, ...]
    reduced: tuple[Fraction, ...]
    equal: bool


def reduction_report(model: ContextualModel, original: tuple[Fraction, ...]) -> ReductionReport:
    """Compare a valid model's dedicated correlations, in context order, with
    the reduced form's, exactly."""
    reduced = reduce_model(model)
    contexts = model.contexts()
    values = tuple(_reduced_expectation(reduced, ctx) for ctx in contexts)
    return ReductionReport(
        contexts=contexts, original=original, reduced=values, equal=original == values
    )
