"""The expanded route: one integer term per cell of the product space.

`_expanded_route` sums every cell (l1, l2, lx, lxp, ly, lyp) of the space
`unified` describes, in one of three tiers chosen from D, the product of
the five factor denominators:

- float64 when D < 2^53 (every preset and every `random_model` output),
  whose matrix products run in BLAS;
- int64 when 2^53 <= D < 2^63, in numpy's integer loop;
- Python integers (dtype object) otherwise.

Its docstring states why each is exact.  Each block of cells is one
matrix product T @ B: T holds Alice's two factors times the source, by
rows (l1, lx, lx') and columns l2, and B Bob's two factors, by rows l2
and columns (ly, ly'), so the product adds every cell's term once.

The block bound, for both parties: per context, Bob's grid (ly, ly') is
cut into blocks of B's columns and, inside each, Alice's grid
(l1, lx, lx') into blocks of T's rows.  A block of B, and a block's T and
T @ B together, each hold at most `_BLOCK_ELEMENTS` elements, or one
column of B or one row of T and of T @ B when that alone is more.  Each
block's sum is added into one Python integer, so the route's memory does
not grow with the number of cells.

It is the only route that computes with numpy, so it lives apart: `check`
and `search` never import this module, and `bell_lab.chsh.certify_model`
imports it when it runs.  It reads each factor's integer numerators,
which the factor carries from its construction, as the dedicated and
reduced routes do, and shares no summation code with them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from .models import ContextualModel

# The cap of the module docstring's block bound, on a block of B and on a
# block's T and T @ B together: 64 KB of int64 or float64 each, or 2^13
# Python integers.
_BLOCK_ELEMENTS = 1 << 13

# The expanded sum runs in float64 when D is below `_EXACT_FLOAT`, in int64
# when it is below `_ONE_WORD`, and in Python integers otherwise: every
# partial product of a cell term is at most D, and the absolute terms of a
# context sum to exactly D, so below 2^53 no double operation rounds and
# below 2^63 no int64 product or partial sum overflows.
_EXACT_FLOAT = 1 << 53
_ONE_WORD = 1 << 63


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


def _local_axes(settings, scaled, dtype) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each setting's local factor at every source index, shape (n_src, n),
    as the pair (unread, read), in declared setting order.

    `scaled` holds each setting's stored `_scaled_factors` pair; the read
    factor also carries the response value, so a cell's product picks it
    up once.
    """
    axes = []
    for local, (nums, _) in zip(settings.values(), scaled):
        unread = np.array([nums], dtype=dtype)
        read = unread * np.array(local.table, dtype=dtype)
        axes.append((np.broadcast_to(unread, read.shape), read))
    return axes


def _expanded_route(model: ContextualModel) -> tuple[Fraction, ...]:
    """The expanded route: the four correlations in context order.

    Reads the five factors' stored numerators, builds each setting's read
    and unread axes once, then sums each context's cells.  Every cell
    (l1, l2, lx, lx', ly, ly') gets its own integer term
    w_src * w_x * w_x' * w_y * w_y' * A * B, with each pmf written as
    integer numerators over its common denominator; nothing is summed out
    before the tables multiply in.  The absolute terms sum to exactly D,
    the product of the five factor denominators (each factor's numerators
    sum to its denominator and A, B are +-1), so |total| <= D, and the
    total is returned as Fraction(total, D).  The terms are integers held
    in one array dtype, chosen from D, and each sum is exact:

    - float64 when D < 2^53 (every preset and every `random_model` output).
      Each factor's numerators are at most its denominator, so every
      partial product of a term is at most D, and every partial sum, being
      a sum of some of the terms, is at most the sum of the absolute terms,
      D.  A double holds every integer of magnitude up to 2^53 exactly, so
      no multiplication, addition or fused multiply-add inside T @ B or its
      `.sum()` rounds, in whatever order BLAS groups them.  A BLAS that
      broke this would make this route disagree with the others, and
      `certify` would report the mismatch and exit 1; it could never turn
      a failing model into a pass.
    - int64 when 2^53 <= D < 2^63.  By the same bounds no product or
      partial sum overflows.
    - Python integers (dtype object) when D >= 2^63 (weights with large
      denominators), which do not overflow at all.

    Each context's cells are summed in the blocks of the module
    docstring, one T @ B each.  The product forms each cell's term
    T[n, l2] * B[l2, q] once and adds it, so the bounds above hold for
    every partial sum.  numpy's int64 and object matrix products use no
    BLAS and start no threads; the float64 ones call BLAS, which may run
    a large block on its own threads.
    """
    source, denom = model.source._scaled
    alice_scaled, bob_scaled = (
        [local._scaled for local in settings.values()] for settings in (model.alice, model.bob)
    )
    for _, d in alice_scaled + bob_scaled:
        denom *= d
    dtype = np.float64 if denom < _EXACT_FLOAT else np.int64 if denom < _ONE_WORD else object
    rows, cols = model.source.rows, model.source.cols
    src = np.array(source, dtype=dtype).reshape(rows, cols)
    alice = _local_axes(model.alice, alice_scaled, dtype)
    bob = _local_axes(model.bob, bob_scaled, dtype)

    values = []
    for i, j in itertools.product(range(len(alice)), range(len(bob))):
        x, xp = (read if s == i else unread for s, (unread, read) in enumerate(alice))
        y, yp = (read if s == j else unread for s, (unread, read) in enumerate(bob))

        shape = (rows, x.shape[1], xp.shape[1])
        total = 0
        # Blocks cut Bob's grid (ly, ly'), each index one column of B, and
        # inside each, Alice's grid (l1, lx, lx'), each index one row of T
        # and one of the product T @ B.
        for iy, iyp in _blocks((y.shape[1], yp.shape[1]), cols, _BLOCK_ELEMENTS):
            bob_terms = (y[:, iy, None] * yp[:, None, iyp]).reshape(cols, -1)
            inner = cols + bob_terms.shape[1]
            for r, ix, ixp in _blocks(shape, inner, _BLOCK_ELEMENTS):
                alice_terms = x[r, ix, None] * xp[r, None, ixp]
                terms = (alice_terms[..., None] * src[r, None, None, :]).reshape(-1, cols)
                total += int((terms @ bob_terms).sum())
        values.append(Fraction(total, denom))
    return tuple(values)
