"""Two-uniform form of a model: local randomness from shared uniforms.

Each side's two local variables become deterministic functions of one
uniform variable on [0,1) through inverse-transform interval partitions.
The two partitions of a side are overlaid into one refinement whose
intervals each carry a pair of local values, one per setting.  The random
inputs of the reduced form (source pair, U1, U2) carry no setting label;
every setting dependence lives in the deterministic interval maps and the
response tables.

Everything here is exact interval algebra on rationals, and `_readout` is
the one place that reads a refined interval's label pair.  The private
`_reduced_route`, run by `bell_lab.chsh.certify_model`, integrates that
readout: it sums integer numerators over each factor's common denominator
and returns one Fraction per context.  `bell_lab.simulate.simulate_trials`
samples the same readout; nothing is sampled in this module.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .models import ContextualModel, _scaled_factors, format_rational, require_valid


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

    def widths(self) -> tuple[Fraction, ...]:
        return tuple(
            hi - lo for lo, hi in zip(self.breakpoints, self.breakpoints[1:])
        )


def inverse_transform_partition(weights) -> IntervalPartition:
    """Cumulative-sum partition: widths are the nonzero weights, labels their indices."""
    nonzero = [(index, w) for index, w in enumerate(weights) if w != 0]
    breakpoints = tuple(accumulate((w for _, w in nonzero), initial=Fraction(0)))
    if breakpoints[-1] != 1:
        raise ValueError(f"weights sum to {format_rational(breakpoints[-1])}, expected 1")
    return IntervalPartition(breakpoints=breakpoints, labels=tuple(index for index, _ in nonzero))


def _overlay(first: IntervalPartition, second: IntervalPartition) -> IntervalPartition:
    """Common refinement of two partitions; each interval's label is the pair
    (first label, second label).

    The breakpoints are the union of both sets, so no interval has zero
    width; interval (lo, hi] takes, in each partition, the label of the
    interval that holds hi.  An interval's width is the weight of its label
    pair when one shared uniform drives both partitions, so the widths
    recover each partition's weights as marginals.
    """
    breakpoints = tuple(sorted(set(first.breakpoints) | set(second.breakpoints)))
    labels = tuple(
        tuple(p.labels[bisect_left(p.breakpoints, hi) - 1] for p in (first, second))
        for hi in breakpoints[1:]
    )
    return IntervalPartition(breakpoints=breakpoints, labels=labels)


@dataclass(frozen=True)
class ReducedModel:
    """Each side's local randomness as a map from one uniform to its pair of
    local values; the source and tables stay the model's."""

    alice_map: IntervalPartition
    bob_map: IntervalPartition


def _reduce(model: ContextualModel) -> ReducedModel:
    """Overlay each side's two inverse-transform partitions, first declared
    setting first; `model` is not validated."""
    return ReducedModel(*(
        _overlay(*(inverse_transform_partition(local.weights) for local in settings.values()))
        for settings in (model.alice, model.bob)
    ))


def reduce_model(model: ContextualModel) -> ReducedModel:
    """Validate `model`, then reduce it."""
    require_valid(model)
    return _reduce(model)


def _readout(uniform_map: IntervalPartition, settings) -> list[list[list[int]]]:
    """Per setting in declared order, per source index and per refined
    interval, the setting's response on that interval: setting i reads slot
    i of the interval's label pair, then that entry of its table row."""
    return [
        [[row[pair[slot]] for pair in uniform_map.labels] for row in local.table]
        for slot, local in enumerate(settings.values())
    ]


def _interval_means(uniform_map: IntervalPartition, settings) -> tuple[list, int]:
    """Per setting in declared order and per source index, the width-weighted
    response over the refined intervals, as integer numerators over the
    widths' common denominator."""
    widths, d = _scaled_factors(uniform_map.widths())
    means = [
        [sum(w * value for w, value in zip(widths, responses)) for responses in per_source]
        for per_source in _readout(uniform_map, settings)
    ]
    return means, d


def _reduced_route(model: ContextualModel) -> tuple[Fraction, ...]:
    """The reduced form's correlations in context order, by exact quadrature.

    Reduces `model` without revalidating it, then integrates over refined
    intervals times source pairs; each interval contributes its width
    times the response value its pair selects.  The source's integer
    numerators are the ones it was built with, each side's widths are
    scaled to integer numerators once, and each setting's
    per-source interval means are computed once, Bob's then weighted by the
    source once per row, so each context is one dot product.
    """
    reduced = _reduce(model)
    source, source_den = model.source._scaled
    alice, a_den = _interval_means(reduced.alice_map, model.alice)
    bob, b_den = _interval_means(reduced.bob_map, model.bob)
    cols = model.source.cols
    rows = [source[i:i + cols] for i in range(0, len(source), cols)]
    # Per Bob setting and source row l1: sum over l2 of S(l1, l2) * m_B(l2).
    bob = [[sum(w * m for w, m in zip(row, b_means) if w) for row in rows] for b_means in bob]
    den = source_den * a_den * b_den
    return tuple(
        Fraction(sum(a * b for a, b in zip(a_means, b_sums)), den)
        for a_means in alice for b_sums in bob
    )
