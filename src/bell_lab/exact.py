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
