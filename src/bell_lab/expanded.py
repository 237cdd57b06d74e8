"""The expanded route: one integer term per cell of the product space.

`_expanded_route` sums every cell (l1, l2, lx, lxp, ly, lyp) of the space
`unified` describes, behind its cell-count guard: in one int64 word when
D, the product of the five factor denominators, is below 2^63 (every
preset and every `random_model` output), and modulo coprime moduli
otherwise; its docstring states why each is exact.  It is the only route
that computes with numpy, so it lives apart: `check` and `search` never
import this module, and `bell_lab.chsh.certify_model` imports it when it
runs.  It reads the model's factors directly and shares no scaling code
with the dedicated and factored routes.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .models import ContextualModel, _scaled_factors
from .unified import DEFAULT_CELL_LIMIT, SizeExceededError, _cell_count

# Largest number of int64 terms one block of the expanded sum holds, moduli
# included.  Bob's two local axes are never split, so a block holds at least
# k * |y| * |y'| terms.  On the multi-modular path terms are below 2^31, so a
# block's per-modulus sum fits in int64 while the block has fewer than 2^32
# cells; on the one-word path no partial sum exceeds D.
_BLOCK_ELEMENTS = 1 << 14

# The expanded sum runs in one int64 word when D is below this: every partial
# product of a cell term is at most D, and the absolute terms of a context
# sum to exactly D, so no product or running sum can overflow.
_ONE_WORD = 1 << 63


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
    """Integer numerators modulo each modulus: shape (k, len(nums)), int64.

    With `moduli` None (the one-word path) the numerators themselves are
    the one row.
    """
    if moduli is None:
        return np.array([nums], dtype=np.int64)
    return np.array([[n % q for n in nums] for q in moduli], dtype=np.int64)


def _mulmod(a: np.ndarray, b: np.ndarray, p: np.ndarray | None) -> np.ndarray:
    """a * b elementwise, reduced mod p unless p is None; axis 0 runs over the moduli p."""
    out = a * b
    if p is not None:
        out %= p.reshape(-1, *(1,) * (out.ndim - 1))
    return out


def _local_axes(
    settings, scaled, moduli, p: np.ndarray | None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each setting's local factor at every source index, shape (k, n_src, n),
    as the pair (unread, read), in declared setting order.

    `scaled` holds each setting's `_scaled_factors` pair and `p` the
    moduli (None on the one-word path); the read factor also carries the
    response value, so a cell's product picks it up once.
    """
    axes = []
    for local, (nums, _) in zip(settings.values(), scaled):
        res = _residues(nums, moduli)[:, None, :]
        read = _mulmod(res, np.array(local.table, dtype=np.int64), p)
        axes.append((np.broadcast_to(res, read.shape), read))
    return axes


def _expanded_route(
    model: ContextualModel, cell_limit: int = DEFAULT_CELL_LIMIT
) -> tuple[Fraction, ...]:
    """The guarded expanded route: the four correlations in context order.

    Raises `SizeExceededError` when the space has more than `cell_limit`
    cells.  Otherwise scales the five factors, builds each setting's read
    and unread axes once, then sums each context's cells.  Every cell
    (l1, l2, lx, lx', ly, ly') gets its own integer term
    w_src * w_x * w_x' * w_y * w_y' * A * B, with each pmf written as
    integer numerators over its common denominator; nothing is summed out
    before the tables multiply in.  The absolute terms sum to exactly D,
    the product of the five factor denominators (each factor's numerators
    sum to its denominator and A, B are +-1), so |total| <= D, and the
    total is returned as Fraction(total, D).  The sum is exact on either
    of two paths, which share one block walk:

    - One word, when D < 2^63 (every preset and every `random_model`
      output).  Each factor's numerators are at most its denominator, so
      every partial product of a term is at most D, and every partial sum
      is at most the sum of the absolute terms, D.  Plain int64 products
      and sums then cannot overflow, and the sum is the total itself.
    - Multi-modular, when D >= 2^63 (weights with large denominators).
      The terms are summed modulo k pairwise coprime odd numbers below
      2^31, taken greedily from 2^31 - 1 down until their product m
      exceeds 2D (`_moduli`), all k moduli on the leading axis of one
      int64 array, reducing after every product so two residues never
      overflow.  The Chinese remainder theorem rebuilds the total modulo
      m in Python integers; re-centred to (-m/2, m/2] it is the exact
      total.

    The cell grid is walked in blocks of at most `_BLOCK_ELEMENTS` terms
    (one Bob (ly, ly') grid per modulus when that alone is larger), so
    memory does not grow with the number of cells.
    """
    size = _cell_count(model)
    if size > cell_limit:
        raise SizeExceededError(size, cell_limit)
    source, denom = _scaled_factors(model.source.flattened())
    alice_scaled, bob_scaled = (
        [_scaled_factors(local.weights) for local in settings.values()]
        for settings in (model.alice, model.bob)
    )
    for _, d in alice_scaled + bob_scaled:
        denom *= d
    if denom < _ONE_WORD:
        moduli, p, k = None, None, 1
    else:
        moduli, m = _moduli(denom)
        p = np.array(moduli, dtype=np.int64)
        k = len(moduli)
        crt = [m // q * pow(m // q, -1, q) for q in moduli]
    rows, cols = model.source.rows, model.source.cols
    src = _residues(source, moduli).reshape(k, rows, cols)
    alice = _local_axes(model.alice, alice_scaled, moduli, p)
    bob = _local_axes(model.bob, bob_scaled, moduli, p)

    values = []
    for i, j in itertools.product(range(len(alice)), range(len(bob))):
        x, xp = (read if s == i else unread for s, (unread, read) in enumerate(alice))
        y, yp = (read if s == j else unread for s, (unread, read) in enumerate(bob))

        # Blocks cut the grid (l1, lx, lx', l2); each index holds Bob's (ly, ly') cells.
        shape = (rows, x.shape[2], xp.shape[2], cols)
        inner = y.shape[2] * yp.shape[2]
        sums = np.zeros(k, dtype=np.int64)  # an array, so numpy never warns on a scalar
        bob_cols = None
        for r, ix, ixp, c in _blocks(shape, inner, max(1, _BLOCK_ELEMENTS // k)):
            if c != bob_cols:  # consecutive blocks mostly share Bob's columns
                bob_terms = _mulmod(y[:, c, :, None], yp[:, c, None, :], p)
                bob_cols = c
            alice_terms = _mulmod(x[:, r, ix, None], xp[:, r, None, ixp], p)
            terms = _mulmod(alice_terms[..., None], src[:, r, None, None, c], p)
            terms = _mulmod(terms[..., None, None], bob_terms[:, None, None, None], p)
            sums += terms.reshape(k, -1).sum(axis=1)
            if p is not None:
                sums %= p

        if p is None:
            total = int(sums[0])
        else:
            total = sum(residue * coef for residue, coef in zip(sums.tolist(), crt)) % m
            if total > m // 2:
                total -= m
        values.append(Fraction(total, denom))
    return tuple(values)
