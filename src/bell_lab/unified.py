"""Single product sample space on which all four contexts coexist.

Cells are tuples (l1, l2, lx, lxp, ly, lyp) indexing the six factors in a
fixed axis order: source pair first, then Alice's locals in declared
setting order, then Bob's.  The pmf is the product of the source joint
weight and the four local weights.  No object holds the space: every
route reads the model's five factors directly.  The factored route and
the counterfactuals integrate the unread factors out in Fraction
arithmetic, so they share no scaling code with the dedicated and expanded
routes.  The expanded route sums one integer term per cell modulo coprime
moduli, behind a cell-count guard; `_expanded_route` states why that sum
is exact.

Lifting is by projection: the response function for Alice's first setting
reads only (l1, lx), her second only (l1, lxp), and symmetrically for
Bob.  Because every context's functions live on this one space, products
never measured together (both Alice settings at once, say) still have
well-defined exact expectations; those are the counterfactuals.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .models import Context, ContextualModel, LocalSetting, _scaled_factors, require_valid

DEFAULT_CELL_LIMIT = 10**7


class SizeExceededError(RuntimeError):
    """Expanded enumeration would exceed the configured cell limit."""

    def __init__(self, size: int, limit: int):
        self.size = size
        self.limit = limit
        super().__init__(f"unified space has {size} cells, limit is {limit}")


def _cell_count(model: ContextualModel) -> int:
    """Cells of the expanded space: the source grid times the four local sizes."""
    n = model.source.rows * model.source.cols
    for local in itertools.chain(model.alice.values(), model.bob.values()):
        n *= local.pmf.size
    return n


def _local_mean(model: ContextualModel, side: str, label: str, source_index: int) -> Fraction:
    """Mean of one response function over its local pmf, at a fixed source index."""
    local = model.local(side, label)
    row = local.table.values[source_index]
    return sum(
        (w * v for w, v in zip(local.pmf.weights, row)), Fraction(0)
    )


def expectation_unified(model: ContextualModel, ctx: Context) -> Fraction:
    """E of the lifted product for one context, marginalizing unused factors.

    The four factors the context does not read integrate out to 1, so the
    sum collapses to source-weighted products of per-side local means.
    Deliberately a different computation route from the dedicated-space
    four-fold sum; exact agreement between the two is the point.
    """
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


# Largest number of int64 terms one block of the expanded sum holds, moduli
# included.  Bob's two local axes are never split, so a block holds at least
# k * |y| * |y'| terms.  Terms are below 2^31, so a block's per-modulus sum
# fits in int64 while the block has fewer than 2^32 cells.
_BLOCK_ELEMENTS = 1 << 14


def _moduli(bound: int) -> tuple[list[int], int]:
    """Coprime odd moduli below 2^31 whose product m exceeds 2 * bound.

    Keeps each odd number from 2^31 - 1 down that is coprime to the product
    so far: the CRT needs coprime moduli, not primes, and a product of two
    residues below 2^31 fits in int64.
    """
    moduli, m, q = [], 1, (1 << 31) - 1
    while m <= 2 * bound:
        if math.gcd(q, m) == 1:
            moduli.append(q)
            m *= q
        q -= 2
    return moduli, m


def _blocks(shape, inner: int, cap: int):
    """Boxes of the grid `shape`, in C order, as tuples of slices.

    Each grid index stands for `inner` cells; a box covers at most `cap`
    cells, or one grid index when a single index already holds more.
    """
    size, cut = inner, len(shape)
    while cut > 0 and size * shape[cut - 1] <= cap:
        cut -= 1
        size *= shape[cut]
    if cut == 0:
        yield (slice(None),) * len(shape)
        return
    cut -= 1
    step = max(1, cap // size)
    tail = (slice(None),) * (len(shape) - cut - 1)
    for lead in itertools.product(*(range(n) for n in shape[:cut])):
        head = tuple(slice(i, i + 1) for i in lead)
        for start in range(0, shape[cut], step):
            yield (*head, slice(start, start + step), *tail)


def _residues(nums, moduli) -> np.ndarray:
    """Integer numerators modulo each modulus: shape (k, len(nums)), int64."""
    return np.array([[n % q for n in nums] for q in moduli], dtype=np.int64)


def _mulmod(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    """a * b mod p elementwise, for entries in [0, p); axis 0 runs over the moduli p."""
    out = a * b
    out %= p.reshape(-1, *(1,) * (out.ndim - 1))
    return out


def _local_axes(settings, read: LocalSetting, residues, p: np.ndarray) -> list[np.ndarray]:
    """One side's two local factors at every source index, shape (k, n_src, n).

    `residues` holds each setting's pmf numerators modulo the moduli, shape
    (k, 1, n), in declared setting order, and `p` the moduli on axis 0; the
    axis the context reads also carries the response value, so a cell's
    product picks it up once.
    """
    axes = []
    for local, res in zip(settings.values(), residues):
        table = np.array(local.table.values, dtype=np.int64)
        if local is read:
            axes.append(res * table % p)
        else:
            axes.append(np.broadcast_to(res, (res.shape[0], *table.shape)))
    return axes


def _expanded_route(model: ContextualModel, cell_limit: int):
    """The guarded expanded route of one model, as a function of the context.

    Raises `SizeExceededError` when the space has more than `cell_limit`
    cells.  Otherwise scales the five factors, picks the moduli and takes
    the residues once; each call of the returned function then sums one
    context's cells.  Every cell (l1, l2, lx, lx', ly, ly') gets its own
    integer term w_src * w_x * w_x' * w_y * w_y' * A * B, with each pmf
    written as integer numerators over its common denominator; nothing is
    summed out before the tables multiply in.  The sum is exact by
    multi-modular arithmetic:

    - The absolute terms sum to exactly D, the product of the five factor
      denominators (each factor's numerators sum to its denominator and
      A, B are +-1), so |total| <= D.
    - The terms are summed modulo k pairwise coprime odd numbers below
      2^31, taken greedily from 2^31 - 1 down until their product m
      exceeds 2D (`_moduli`), all k moduli on the leading axis of one int64
      array, reducing after every product so two residues never overflow.
    - The cell grid is walked in blocks of at most `_BLOCK_ELEMENTS` terms
      (one Bob (ly, ly') grid per modulus when that alone is larger), so
      memory does not grow with the number of cells.
    - The Chinese remainder theorem rebuilds the total modulo m in Python
      integers; re-centred to (-m/2, m/2] it is the exact total, returned
      as Fraction(total, D).
    """
    size = _cell_count(model)
    if size > cell_limit:
        raise SizeExceededError(size, cell_limit)
    source, denom = _scaled_factors(model.source.flattened())
    scaled = {
        side: [_scaled_factors(local.pmf.weights) for local in settings.values()]
        for side, settings in (("alice", model.alice), ("bob", model.bob))
    }
    for _, d in itertools.chain(*scaled.values()):
        denom *= d
    moduli, m = _moduli(denom)
    p = np.array(moduli, dtype=np.int64)
    k = len(moduli)
    rows, cols = model.source.rows, model.source.cols
    src = _residues(source, moduli).reshape(k, rows, cols)
    residues = {
        side: [_residues(nums, moduli)[:, None, :] for nums, _ in factors]
        for side, factors in scaled.items()
    }
    p_axes = p[:, None, None]
    crt = [m // q * pow(m // q, -1, q) for q in moduli]

    def expectation(ctx: Context) -> Fraction:
        read_a, read_b = model.local("alice", ctx.alice), model.local("bob", ctx.bob)
        x, xp = _local_axes(model.alice, read_a, residues["alice"], p_axes)
        y, yp = _local_axes(model.bob, read_b, residues["bob"], p_axes)

        # Blocks cut the grid (l1, lx, lx', l2); each index holds Bob's (ly, ly') cells.
        shape = (rows, x.shape[2], xp.shape[2], cols)
        inner = y.shape[2] * yp.shape[2]
        sums = np.zeros(k, dtype=np.int64)
        bob_cols = None
        for r, ix, ixp, c in _blocks(shape, inner, max(1, _BLOCK_ELEMENTS // k)):
            if c != bob_cols:  # consecutive blocks mostly share Bob's columns
                bob = _mulmod(y[:, c, :, None], yp[:, c, None, :], p)
                bob_cols = c
            alice = _mulmod(x[:, r, ix, None], xp[:, r, None, ixp], p)
            terms = _mulmod(alice[..., None], src[:, r, None, None, c], p)
            terms = _mulmod(terms[..., None, None], bob[:, None, None, None], p)
            sums = (sums + terms.reshape(k, -1).sum(axis=1)) % p

        total = sum(residue * coef for residue, coef in zip(sums.tolist(), crt)) % m
        if total > m // 2:
            total -= m
        return Fraction(total, denom)

    return expectation


@dataclass(frozen=True)
class CounterfactualSet:
    """Expectations of products never jointly measured in any single context."""

    alice_pair: Fraction
    bob_pair: Fraction
    full_product: Fraction

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.alice_pair, self.bob_pair, self.full_product)


def counterfactuals(model: ContextualModel) -> CounterfactualSet:
    """E of both-Alice, both-Bob, and all-four products of a model, factor-aware.

    Validates `model` first.  Each side's two functions read disjoint local
    factors, so the local pmfs integrate into independent per-source means
    and the sums reduce to source-weighted products; no expansion, so no
    size guard in play.
    """
    require_valid(model)
    a0, a1 = model.alice_labels
    b0, b1 = model.bob_labels
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


def equivalence_report(
    model: ContextualModel, dedicated: tuple[Fraction, ...], cell_limit: int
) -> EquivalenceReport:
    """Compare the dedicated correlations of a valid model with the product space.

    `dedicated` holds the four dedicated-route values in context order.
    The factored route always runs; the expanded brute-force route runs
    when the space fits under `cell_limit` and raises otherwise, since a
    certificate that silently skipped the heavyweight check would be
    misleading.  Verdict is exact rational equality across every route.
    """
    contexts = model.contexts()
    factored = tuple(expectation_unified(model, ctx) for ctx in contexts)
    expanded_route = _expanded_route(model, cell_limit)
    expanded = tuple(expanded_route(ctx) for ctx in contexts)
    return EquivalenceReport(
        contexts=contexts,
        dedicated=dedicated,
        factored=factored,
        expanded=expanded,
        equal=dedicated == factored == expanded,
    )
