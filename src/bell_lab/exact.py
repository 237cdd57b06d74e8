"""Exact context correlations by direct four-fold summation.

Each context's correlation is a sum over the two source indices and the
two local indices the context actually uses, weighted by the source joint
pmf and the two local pmfs.  Everything stays rational: each factor's
weights are integer numerators over that factor's common denominator, every
cell adds an integer term, and the sum becomes one Fraction at the end.
The loop order is (l1, lx, l2, ly): each local table is signed by its pmf
once per model, w(l)·R(row, l), each source row's (l2, ly) factors are
built once, and every (l1, lx) multiplies them in, so each cell still adds
one term while the loop over (lx, l2, ly) runs in C, in ``sum(starmap(mul,
product(...)))``.

``correlation_set`` validates the model once; the private
``_dedicated_route`` then reads the integer numerators that each of the
five factors (the source and the four local pmfs) carries from its
construction, and runs one integer loop per context.  Both return the
four correlations as a plain tuple in context order, (x,y), (x,y'),
(x',y), (x',y'), the shape every certify route returns.

The exact no-signalling check runs on the same loop: one side's outcome
law in a context is the context expectation with the remote table set to
all +1, so the remote pmf is still summed explicitly.  It too reads the
five factors' stored numerators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product, starmap
from operator import mul

from .models import ContextualModel, require_valid


def _scaled_local(local) -> tuple[list[int], int, list[list[int]]]:
    """One setting's stored pmf numerators, their denominator, and its
    response table signed by them: entry (l, l') is w(l')·R(l, l')."""
    nums, den = local._scaled
    return nums, den, [list(map(mul, nums, row)) for row in local.table]


def _context_expectation(source, alice, bob) -> Fraction:
    """E over one context from pre-scaled factors.

    `source` is the flattened source's ``(numerators, denominator)``;
    `alice` and `bob` are the read settings' ``_scaled_local`` triples.
    Source row l1's factors S(l1, l2)·w_B(ly)·B(l2, ly) skip only
    zero-probability pairs, and each of Alice's signed weights
    w_A(lx)·A(l1, lx) is multiplied by every one of them, so every cell
    adds its own term and nothing is summed out beforehand.
    """
    source_nums, source_den = source
    _, a_den, a_signed = alice
    _, b_den, b_signed = bob
    # zip draws from b_signed first, so each row takes exactly one source
    # row's weights from `weights` and no more.
    weights = iter(source_nums)
    total = 0
    for a_terms in a_signed:
        factors = []
        for b_terms, w_source in zip(b_signed, weights):
            if w_source:
                factors += map(w_source.__mul__, b_terms)
        total += sum(starmap(mul, product(a_terms, factors)))
    return Fraction(total, source_den * a_den * b_den)


def _scaled_sides(model: ContextualModel) -> tuple[list, list]:
    """Every setting's ``_scaled_local`` triple, per side in declared order."""
    return tuple(
        [_scaled_local(local) for local in settings.values()]
        for settings in (model.alice, model.bob)
    )


def _dedicated_route(model: ContextualModel) -> tuple[Fraction, ...]:
    """The four correlations of a valid model in context order, from each
    factor's stored numerators; `model` is not revalidated."""
    source = model.source._scaled
    alice, bob = _scaled_sides(model)
    return tuple(_context_expectation(source, a, b) for a in alice for b in bob)


def correlation_set(model: ContextualModel) -> tuple[Fraction, ...]:
    """Validate `model` once, then compute its four correlations in context
    order through `_dedicated_route`."""
    require_valid(model)
    return _dedicated_route(model)


def _outcome_distribution(source, side, own, remote) -> tuple[Fraction, Fraction]:
    """Exact (P(+1), P(-1)) for one side's outcome in a full context, from
    the pre-scaled source and the `own` and `remote` ``_scaled_local`` triples.

    The remote setting enters with its own pmf and an all +1 table, whose
    signed rows are the pmf itself, so the result could depend on it;
    `verify_no_signalling` checks that it never does.  The expectation E
    gives P(+/-1) = (1 +/- E)/2.
    """
    nums, den, signed = remote
    ones = (nums, den, [nums] * len(signed))
    pair = (own, ones) if side == "alice" else (ones, own)
    e = _context_expectation(source, *pair)
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
    source = model.source._scaled
    alice, bob = _scaled_sides(model)
    rows = []
    for side, owns, remotes, labels, remote_labels in (
        ("alice", alice, bob, model.alice_labels, model.bob_labels),
        ("bob", bob, alice, model.bob_labels, model.alice_labels),
    ):
        for setting, own in zip(labels, owns):
            dists = tuple(
                _outcome_distribution(source, side, own, remote) for remote in remotes
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
