"""Exact context correlations by direct four-fold summation.

Each context's correlation is a sum over the two source indices and the
two local indices the context actually uses, weighted by the source joint
pmf and the two local pmfs.  Everything stays rational: each factor's
weights are integer numerators over that factor's common denominator, every
cell adds an integer term, and the sum becomes one Fraction at the end.

``correlation_set`` validates the model once; the private
``_dedicated_route`` then scales the five factors (the source and the four
local pmfs) once and runs one integer loop per context.  Both return the
four correlations as a plain tuple in context order, (x,y), (x,y'),
(x',y), (x',y'), the shape every certify route returns.

The exact no-signalling check runs on the same loop: one side's outcome
law in a context is the context expectation with the remote table set to
all +1, so the remote pmf is still summed explicitly.  It too scales the
five factors once per model.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .models import ContextualModel, _scaled_factors, require_valid


def _scaled_local(local) -> tuple[list[int], int, tuple[tuple[int, ...], ...]]:
    """One setting's pmf numerators, their denominator, and its response table."""
    nums, den = _scaled_factors(local.weights)
    return nums, den, local.table


def _context_expectation(model: ContextualModel, source, alice, bob) -> Fraction:
    """E over one context from pre-scaled factors.

    `source` is the flattened source's ``(numerators, denominator)``;
    `alice` and `bob` are the read settings' ``_scaled_local`` triples.
    Loop order fixed as (l1, l2, lx, ly) for reproducible traces; only
    zero-probability source pairs are skipped.
    """
    source_nums, source_den = source
    a_pmf, a_den, a_table = alice
    b_pmf, b_den, b_table = bob
    cols = model.source.cols
    total = 0
    for l1 in range(model.source.rows):
        a_row = a_table[l1]
        for l2 in range(cols):
            w_source = source_nums[l1 * cols + l2]
            if w_source == 0:
                continue
            b_row = b_table[l2]
            for lx, w_a in enumerate(a_pmf):
                w = w_source * w_a * a_row[lx]
                for ly, w_b in enumerate(b_pmf):
                    total += w * w_b * b_row[ly]
    return Fraction(total, source_den * a_den * b_den)


def _scaled_sides(model: ContextualModel) -> tuple[list, list]:
    """Every setting's ``_scaled_local`` triple, per side in declared order."""
    return tuple(
        [_scaled_local(local) for local in settings.values()]
        for settings in (model.alice, model.bob)
    )


def _dedicated_route(model: ContextualModel) -> tuple[Fraction, ...]:
    """The four correlations of a valid model in context order, each factor
    scaled once; `model` is not revalidated."""
    source = _scaled_factors(model.source.flattened())
    alice, bob = _scaled_sides(model)
    return tuple(_context_expectation(model, source, a, b) for a in alice for b in bob)


def correlation_set(model: ContextualModel) -> tuple[Fraction, ...]:
    """Validate `model` once, then compute its four correlations in context
    order through `_dedicated_route`."""
    require_valid(model)
    return _dedicated_route(model)


def _outcome_distribution(model, source, side, own, remote) -> tuple[Fraction, Fraction]:
    """Exact (P(+1), P(-1)) for one side's outcome in a full context, from
    the pre-scaled source and the `own` and `remote` ``_scaled_local`` triples.

    The remote setting enters with its own pmf and an all +1 table, so the
    result could depend on it; `verify_no_signalling` checks that it never
    does.  The expectation E gives P(+/-1) = (1 +/- E)/2.
    """
    nums, den, table = remote
    ones = (nums, den, tuple((1,) * len(row) for row in table))
    pair = (own, ones) if side == "alice" else (ones, own)
    e = _context_expectation(model, source, *pair)
    return ((1 + e) / 2, (1 - e) / 2)


@dataclass(frozen=True)
class ExactMarginalRow:
    side: str
    setting: str
    remote_labels: tuple[str, str]
    distributions: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]
    equal: bool


@dataclass(frozen=True)
class ExactNoSignallingReport:
    rows: tuple[ExactMarginalRow, ...]
    equal: bool


def verify_no_signalling(model: ContextualModel) -> ExactNoSignallingReport:
    """Exact check: each side's outcome law is identical across the remote
    setting, as rationals, for all four side/setting combinations."""
    require_valid(model)
    source = _scaled_factors(model.source.flattened())
    alice, bob = _scaled_sides(model)
    rows = []
    for side, owns, remotes, labels, remote_labels in (
        ("alice", alice, bob, model.alice_labels, model.bob_labels),
        ("bob", bob, alice, model.bob_labels, model.alice_labels),
    ):
        for setting, own in zip(labels, owns):
            dists = tuple(
                _outcome_distribution(model, source, side, own, remote) for remote in remotes
            )
            rows.append(
                ExactMarginalRow(
                    side=side,
                    setting=setting,
                    remote_labels=remote_labels,
                    distributions=dists,
                    equal=dists[0] == dists[1],
                )
            )
    return ExactNoSignallingReport(
        rows=tuple(rows), equal=all(r.equal for r in rows)
    )
