"""Single product sample space on which all four contexts coexist.

Cells are tuples (l1, l2, lx, lxp, ly, lyp) indexing the six factors in a
fixed axis order: source pair first, then Alice's locals in declared
setting order, then Bob's.  The pmf is the product of the source joint
weight and the four local weights.  No object holds the space: every
route reads the model's five factors directly and returns its four
correlations in context order, and `bell_lab.chsh.certify_model` is the
only public way to run them.  The factored route (`_factored_route`) and
the counterfactuals integrate the unread factors out in Fraction arithmetic:
one mean vector per setting, the source applied once to each vector read on
Bob's side, and one dot product per expectation.  They share no scaling code
with the dedicated and expanded routes.  The expanded route, which sums one
integer term per cell in numpy, lives in `bell_lab.expanded`.

Lifting is by projection: the response function for Alice's first setting
reads only (l1, lx), her second only (l1, lxp), and symmetrically for
Bob.  Because every context's functions live on this one space, products
never measured together (both Alice settings at once, say) still have
well-defined exact expectations; those are the counterfactuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .models import ContextualModel, LocalSetting, require_valid


def _means(local: LocalSetting) -> list[Fraction]:
    """One setting's mean vector m(l) = sum_k p(k) * R(l, k), one entry per source index.

    Computed as 2 * (sum of p(k) over R(l, k) = +1) - 1, the same rational
    for a validated setting: its pmf sums to 1 and each outcome is +-1.
    """
    weights = local.weights
    return [
        2 * sum((w for w, v in zip(weights, row) if v > 0), Fraction(0)) - 1
        for row in local.table
    ]


def _source_times(model: ContextualModel, v) -> list[Fraction]:
    """(S v)(l1) = sum over l2 of S(l1, l2) * v(l2), one entry per source row."""
    return [
        sum((w * v[l2] for l2, w in enumerate(row) if w), Fraction(0))
        for row in model.source.weights
    ]


def _dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _factored_route(model: ContextualModel) -> tuple[Fraction, ...]:
    """The factored route: E of the lifted product in each context, in context order.

    The four factors a context does not read integrate out to 1, so its
    correlation is the bilinear form u . S v of the source S with the two
    read settings' mean vectors; S v is built once per Bob setting and
    shared by both Alice settings.  Deliberately a different computation
    route from the dedicated-space four-fold sum; exact agreement between
    the two is the point.  `certify_model` validates the model first, as
    `_means` requires.
    """
    alice = [_means(local) for local in model.alice.values()]
    bob = [_source_times(model, _means(local)) for local in model.bob.values()]
    return tuple(_dot(a, b) for a in alice for b in bob)


@dataclass(frozen=True)
class CounterfactualSet:
    """Expectations of products never jointly measured in any single context."""

    alice_pair: Fraction
    bob_pair: Fraction
    full_product: Fraction


def counterfactuals(model: ContextualModel) -> CounterfactualSet:
    """E of both-Alice, both-Bob, and all-four products of a model, factor-aware.

    Validates `model` first.  Each side's two functions read disjoint local
    factors, so the local pmfs integrate into independent per-source means
    and each product is the bilinear form of the source with the per-side
    products of means; no expansion, so no size guard in play.
    """
    require_valid(model)
    mx, mxp = (_means(local) for local in model.alice.values())
    my, myp = (_means(local) for local in model.bob.values())
    alice = [a * b for a, b in zip(mx, mxp)]
    bob = _source_times(model, [a * b for a, b in zip(my, myp)])
    return CounterfactualSet(
        alice_pair=_dot(alice, _source_times(model, [1] * model.source.cols)),
        bob_pair=sum(bob, Fraction(0)),
        full_product=_dot(alice, bob),
    )
