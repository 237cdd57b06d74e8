"""Exact context correlations by direct four-fold summation.

Each context's correlation is a sum over the two source indices and the
two local indices the context actually uses, weighted by the source joint
pmf and the two local pmfs.  Everything stays rational: each factor's
weights are integer numerators over that factor's common denominator, every
cell adds an integer term, and the sum becomes one Fraction at the end.

The five factors (the source and the four local pmfs) are scaled once per
model, and one integer loop serves every context.  ``correlation_set``
validates the model first; ``_unchecked_correlation_set`` skips that for
callers whose models are valid by construction (the search moves).

The exact no-signalling check runs on the same loop: one side's outcome
law in a context is the context expectation with the remote table set to
all +1, so the remote pmf is still summed explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .models import ContextualModel, _scaled_factors, require_valid


@dataclass(frozen=True)
class CorrelationSet:
    """The four context correlations, canonical order (x,y), (x,y'), (x',y), (x',y')."""

    e_xy: Fraction
    e_xyp: Fraction
    e_xpy: Fraction
    e_xpyp: Fraction

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.e_xy, self.e_xyp, self.e_xpy, self.e_xpyp)


def _scaled_local(local) -> tuple[list[int], int, tuple[tuple[int, ...], ...]]:
    """One setting's pmf numerators, their denominator, and its response table."""
    nums, den = _scaled_factors(local.pmf.weights)
    return nums, den, local.table.values


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


def _unchecked_correlation_set(model: ContextualModel) -> CorrelationSet:
    """The four correlations without validating `model`; each factor scaled once."""
    source = _scaled_factors(model.source.flattened())
    alice = {label: _scaled_local(local) for label, local in model.alice.items()}
    bob = {label: _scaled_local(local) for label, local in model.bob.items()}
    return CorrelationSet(*(
        _context_expectation(model, source, alice[ctx.alice], bob[ctx.bob])
        for ctx in model.contexts()
    ))


def correlation_set(model: ContextualModel) -> CorrelationSet:
    """Validate `model` once, then compute its four correlations."""
    require_valid(model)
    return _unchecked_correlation_set(model)


def outcome_distribution(
    model: ContextualModel, side: str, setting: str, remote: str
) -> tuple[Fraction, Fraction]:
    """Exact (P(+1), P(-1)) for one side's outcome in a full context.

    The remote setting enters with its own pmf and an all +1 table, so the
    result could in principle depend on it; the point of the check below
    is that it never does.  The expectation E gives P(+/-1) = (1 +/- E)/2.
    """
    source = _scaled_factors(model.source.flattened())
    own = _scaled_local(model.local(side, setting))
    remote_side = "bob" if side == "alice" else "alice"
    nums, den, table = _scaled_local(model.local(remote_side, remote))
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
    rows = []
    for side, labels, remote_labels in (
        ("alice", model.alice_labels, model.bob_labels),
        ("bob", model.bob_labels, model.alice_labels),
    ):
        for setting in labels:
            dists = tuple(
                outcome_distribution(model, side, setting, remote)
                for remote in remote_labels
            )
            rows.append(
                ExactMarginalRow(
                    side=side,
                    setting=setting,
                    remote_labels=tuple(remote_labels),
                    distributions=dists,
                    equal=dists[0] == dists[1],
                )
            )
    return ExactNoSignallingReport(
        rows=tuple(rows), equal=all(r.equal for r in rows)
    )
