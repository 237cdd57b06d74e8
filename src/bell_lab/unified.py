"""Single product sample space on which all four contexts coexist.

Cells are tuples (l1, l2, lx, lxp, ly, lyp) indexing the six factors in a
fixed axis order: source pair first, then Alice's locals in declared
setting order, then Bob's.  The pmf is the product of the source joint
weight and the four local weights; it is stored factorized and expanded
only on demand, behind a cell-count guard.  The expanded sum runs on
integer numerators over each factor's common denominator and returns one
Fraction; the factored route and the counterfactuals stay in Fraction
arithmetic, so they share no scaling code with the dedicated and expanded
routes.

Lifting is by projection: the response function for Alice's first setting
reads only (l1, lx), her second only (l1, lxp), and symmetrically for
Bob.  Because every context's functions live on this one space, products
never measured together (both Alice settings at once, say) still have
well-defined exact expectations; those are the counterfactuals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .exact import expectation_in_context
from .models import Context, ContextualModel, _scaled_factors, require_valid

DEFAULT_CELL_LIMIT = 10**7


class SizeExceededError(RuntimeError):
    """Expanded enumeration would exceed the configured cell limit."""

    def __init__(self, size: int, limit: int):
        self.size = size
        self.limit = limit
        super().__init__(f"unified space has {size} cells, limit is {limit}")


@dataclass(frozen=True)
class UnifiedModel:
    base: ContextualModel
    cell_limit: int

    @property
    def alice_labels(self) -> tuple[str, ...]:
        return self.base.alice_labels

    @property
    def bob_labels(self) -> tuple[str, ...]:
        return self.base.bob_labels

    @property
    def size(self) -> int:
        n = self.base.source.rows * self.base.source.cols
        for local in itertools.chain(self.base.alice.values(), self.base.bob.values()):
            n *= local.pmf.size
        return n


def build_unified(model: ContextualModel, cell_limit: int = DEFAULT_CELL_LIMIT) -> UnifiedModel:
    """Construct the product space; never expands, so never fails on size."""
    require_valid(model)
    return UnifiedModel(base=model, cell_limit=cell_limit)


def _local_mean(model: ContextualModel, side: str, label: str, source_index: int) -> Fraction:
    """Mean of one response function over its local pmf, at a fixed source index."""
    local = model.local(side, label)
    row = local.table.values[source_index]
    return sum(
        (w * v for w, v in zip(local.pmf.weights, row)), Fraction(0)
    )


def expectation_unified(u: UnifiedModel, ctx: Context) -> Fraction:
    """E of the lifted product for one context, marginalizing unused factors.

    The four factors the context does not read integrate out to 1, so the
    sum collapses to source-weighted products of per-side local means.
    Deliberately a different computation route from the dedicated-space
    four-fold sum; exact agreement between the two is the point.
    """
    model = u.base
    a_means = [
        _local_mean(model, "alice", ctx.alice, l1) for l1 in range(model.source.rows)
    ]
    b_means = [
        _local_mean(model, "bob", ctx.bob, l2) for l2 in range(model.source.cols)
    ]
    total = Fraction(0)
    for l1, row in enumerate(model.source.weights):
        for l2, w in enumerate(row):
            if w == 0:
                continue
            total += w * a_means[l1] * b_means[l2]
    return total


def _axis_factors(nums, table_row, axis):
    """A side's two local axes at one source index, in declared order.

    Both are integer pmf numerators; the axis the context reads also
    carries the response value, so a cell's product picks it up once.
    """
    read = [w * v for w, v in zip(nums[axis], table_row)]
    return (read, nums[1]) if axis == 0 else (nums[0], read)


def expectation_unified_expanded(u: UnifiedModel, ctx: Context) -> Fraction:
    """Same expectation by brute-force sum over every expanded cell; guarded.

    Six nested loops, one per axis (l1, l2, lx, lxp, ly, lyp), build each
    cell's integer term w_src * w_x * w_x' * w_y * w_y' * A * B from
    partial products of the outer axes, and every cell adds its own term:
    nothing is summed out.  The pmfs are integer numerators over their
    common denominators, so the sum is divided by their product once.
    """
    if u.size > u.cell_limit:
        raise SizeExceededError(u.size, u.cell_limit)
    model = u.base
    source, denom = _scaled_factors(model.source.flattened())
    alice_nums, bob_nums = [], []
    for nums, settings in ((alice_nums, model.alice), (bob_nums, model.bob)):
        for local in settings.values():
            scaled, d = _scaled_factors(local.pmf.weights)
            nums.append(scaled)
            denom *= d
    a_table = model.local("alice", ctx.alice).table.values
    b_table = model.local("bob", ctx.bob).table.values
    a_axis = u.alice_labels.index(ctx.alice)
    b_axis = u.bob_labels.index(ctx.bob)

    cols = model.source.cols
    total = 0
    for l1 in range(model.source.rows):
        xs, xps = _axis_factors(alice_nums, a_table[l1], a_axis)
        for l2 in range(cols):
            ys, yps = _axis_factors(bob_nums, b_table[l2], b_axis)
            w_source = source[l1 * cols + l2]
            for w_x in xs:
                w0 = w_source * w_x
                for w_xp in xps:
                    w1 = w0 * w_xp
                    for w_y in ys:
                        w2 = w1 * w_y
                        for w_yp in yps:
                            total += w2 * w_yp
    return Fraction(total, denom)


@dataclass(frozen=True)
class CounterfactualSet:
    """Expectations of products never jointly measured in any single context."""

    alice_pair: Fraction
    bob_pair: Fraction
    full_product: Fraction

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.alice_pair, self.bob_pair, self.full_product)


def counterfactuals(u: UnifiedModel) -> CounterfactualSet:
    """E of both-Alice, both-Bob, and all-four products, factor-aware.

    Each side's two functions read disjoint local factors, so the local
    pmfs integrate into independent per-source means and the sums reduce
    to source-weighted products; no expansion, so no size guard in play.
    """
    model = u.base
    a0, a1 = u.alice_labels
    b0, b1 = u.bob_labels
    ax = [_local_mean(model, "alice", a0, i) for i in range(model.source.rows)]
    axp = [_local_mean(model, "alice", a1, i) for i in range(model.source.rows)]
    by = [_local_mean(model, "bob", b0, j) for j in range(model.source.cols)]
    byp = [_local_mean(model, "bob", b1, j) for j in range(model.source.cols)]

    alice_pair = Fraction(0)
    bob_pair = Fraction(0)
    full = Fraction(0)
    for l1, row in enumerate(model.source.weights):
        for l2, w in enumerate(row):
            if w == 0:
                continue
            alice_pair += w * ax[l1] * axp[l1]
            bob_pair += w * by[l2] * byp[l2]
            full += w * ax[l1] * axp[l1] * by[l2] * byp[l2]
    return CounterfactualSet(alice_pair=alice_pair, bob_pair=bob_pair, full_product=full)


@dataclass(frozen=True)
class EquivalenceReport:
    """Side-by-side values from the dedicated-space and product-space routes."""

    contexts: tuple[Context, ...]
    dedicated: tuple[Fraction, ...]
    factored: tuple[Fraction, ...]
    expanded: tuple[Fraction, ...]
    equal: bool


def verify_equivalence(
    model: ContextualModel, cell_limit: int = DEFAULT_CELL_LIMIT
) -> EquivalenceReport:
    """Recompute all four correlations on the product space and compare.

    The factored route always runs; the expanded brute-force route runs
    when the space fits under `cell_limit` and raises otherwise, since a
    certificate that silently skipped the heavyweight check would be
    misleading.  Verdict is exact rational equality across every route.
    """
    require_valid(model)
    u = build_unified(model, cell_limit)
    contexts = model.contexts()
    dedicated = tuple(expectation_in_context(model, ctx) for ctx in contexts)
    factored = tuple(expectation_unified(u, ctx) for ctx in contexts)
    expanded = tuple(expectation_unified_expanded(u, ctx) for ctx in contexts)
    equal = dedicated == factored == expanded
    return EquivalenceReport(
        contexts=contexts,
        dedicated=dedicated,
        factored=factored,
        expanded=expanded,
        equal=equal,
    )
