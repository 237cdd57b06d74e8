"""Exact context correlations by direct four-fold summation.

Each context's correlation is a sum over the two source indices and the
two local indices the context actually uses, weighted by the source joint
pmf and the two local pmfs.  Everything stays rational: each factor's
weights are integer numerators over that factor's common denominator, every
cell adds an integer term, and the sum becomes one Fraction at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .models import Context, ContextualModel, _scaled_factors, require_valid


@dataclass(frozen=True)
class CorrelationSet:
    """The four context correlations, canonical order (x,y), (x,y'), (x',y), (x',y')."""

    e_xy: Fraction
    e_xyp: Fraction
    e_xpy: Fraction
    e_xpyp: Fraction

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.e_xy, self.e_xyp, self.e_xpy, self.e_xpyp)


def expectation_in_context(model: ContextualModel, ctx: Context) -> Fraction:
    """E over one context: sum A(l1,lx) * B(l2,ly) * p_x(lx) * p_y(ly) * p(l1,l2).

    Loop order fixed as (l1, l2, lx, ly) for reproducible traces; only
    zero-probability source pairs are skipped.  The three pmfs are scaled
    to integer numerators, so each cell's term is an integer and the sum
    is divided by the product of their denominators once.
    """
    a_local = model.local("alice", ctx.alice)
    b_local = model.local("bob", ctx.bob)
    a_table = a_local.table.values
    b_table = b_local.table.values
    a_pmf, a_den = _scaled_factors(a_local.pmf.weights)
    b_pmf, b_den = _scaled_factors(b_local.pmf.weights)
    source, source_den = _scaled_factors(model.source.flattened())

    cols = model.source.cols
    total = 0
    for l1 in range(model.source.rows):
        a_row = a_table[l1]
        for l2 in range(cols):
            w_source = source[l1 * cols + l2]
            if w_source == 0:
                continue
            b_row = b_table[l2]
            for lx, w_a in enumerate(a_pmf):
                w = w_source * w_a * a_row[lx]
                for ly, w_b in enumerate(b_pmf):
                    total += w * w_b * b_row[ly]
    return Fraction(total, source_den * a_den * b_den)


def correlation_set(model: ContextualModel) -> CorrelationSet:
    require_valid(model)
    values = tuple(expectation_in_context(model, ctx) for ctx in model.contexts())
    return CorrelationSet(*values)
