"""Independent reference computations used to cross-check the engine.

Everything here is deliberately naive: full product-space enumeration with
no factorization, no skipping, no shared code with the package beyond the
model data structures.  The exceptions are `exhaustive_oracle`, which
reuses the package's assignment decoding and exact pipeline but none of
its search shortcuts, and the simulation oracles at the bottom, which
reuse the sampler's thresholds but draw and write without chunking or
precomputed rows.  Slow is fine; these run on small campaigns.

The `*_fraction_oracle` and `expanded_scaled_oracle` functions are the
per-cell loops the package ran before its exact kernels moved to integer
numerators, kept verbatim so each integer kernel is compared against the
loop it replaced.  They scale nothing through the package's helpers.
`chsh_fraction_oracle` is likewise the Fraction-generator CHSH report the
package used before its eight sums moved to integers.
"""

from __future__ import annotations

import csv
import itertools
from bisect import bisect_right
from fractions import Fraction
from math import lcm

import numpy as np

from bell_lab.chsh import CHSH_PATTERNS, LHV_BOUND, ChshReport, chsh_from_correlations
from bell_lab.exact import CorrelationSet, correlation_set
from bell_lab.models import Context, ContextualModel, canonical_json, format_rational
from bell_lab.reduction import ReducedModel, reduce_model
from bell_lab.search import assignment_count, decode_assignment
from bell_lab.unified import DEFAULT_CELL_LIMIT, SizeExceededError
from bell_lab.simulate import U_SCALE, _quantum_grid, _thresholds


def product_mean(model: ContextualModel, selected) -> Fraction:
    """Mean of a product of response functions over the full product space.

    `selected` is a sequence of (side, label) pairs naming which response
    functions to multiply.  Enumerates every cell of the six-axis product
    space, multiplying all six factor weights, no shortcuts.
    """
    alabels = tuple(model.alice)
    blabels = tuple(model.bob)
    a_pmfs = [model.alice[t].pmf.weights for t in alabels]
    b_pmfs = [model.bob[t].pmf.weights for t in blabels]
    total = Fraction(0)
    for i in range(model.source.rows):
        for j in range(model.source.cols):
            base = model.source.weights[i][j]
            for la in itertools.product(*[range(len(p)) for p in a_pmfs]):
                for lb in itertools.product(*[range(len(p)) for p in b_pmfs]):
                    w = base
                    for pmf, k in zip(a_pmfs, la):
                        w = w * pmf[k]
                    for pmf, k in zip(b_pmfs, lb):
                        w = w * pmf[k]
                    v = 1
                    for side, label in selected:
                        if side == "alice":
                            t = alabels.index(label)
                            v *= model.alice[label].table.values[i][la[t]]
                        else:
                            t = blabels.index(label)
                            v *= model.bob[label].table.values[j][lb[t]]
                    total += w * v
    return total


def correlation_quadruple(model: ContextualModel):
    """The four context correlations, canonical order, by brute force."""
    a0, a1 = tuple(model.alice)
    b0, b1 = tuple(model.bob)
    return tuple(
        product_mean(model, [("alice", a), ("bob", b)])
        for a, b in ((a0, b0), (a0, b1), (a1, b0), (a1, b1))
    )


def chsh_sums(correlations):
    """All eight one-side-of-the-inequality sums, as a multiset.

    A sign pattern belongs to the family iff it negates an odd number of
    the four terms.
    """
    sums = []
    for signs in itertools.product((1, -1), repeat=4):
        if signs.count(-1) % 2 == 1:
            sums.append(sum(s * c for s, c in zip(signs, correlations)))
    return sorted(sums)


def s_max(correlations) -> Fraction:
    return max(abs(s) for s in chsh_sums(correlations))


def chsh_fraction_oracle(c: CorrelationSet) -> ChshReport:
    """Evaluate all eight signed sums exactly and take the maximum magnitude."""
    values = c.as_tuple()
    for v in values:
        if not -1 <= v <= 1:
            raise ValueError(f"correlation {format_rational(v)} outside [-1, 1]")
    sums = tuple(
        sum((s * v for s, v in zip(pattern, values)), Fraction(0))
        for pattern in CHSH_PATTERNS
    )
    s_max = max(abs(s) for s in sums)
    return ChshReport(sums=sums, s_max=s_max, bound_satisfied=s_max <= LHV_BOUND)


def atom_denominator(*weight_lists) -> int:
    d = 1
    for weights in weight_lists:
        for w in weights:
            d = lcm(d, w.denominator)
    return d


def couple_by_atoms(p_weights, q_weights) -> dict:
    """Comonotone coupling of two pmfs, computed by slicing [0,1) into
    equal atoms of a common denominator and assigning each atom to the
    pair of cumulative-interval indices it falls in.
    """
    d = atom_denominator(p_weights, q_weights)

    def thresholds(weights):
        cum = [0]
        for w in weights:
            cum.append(cum[-1] + int(w * d))
        return cum

    cp = thresholds(p_weights)
    cq = thresholds(q_weights)
    out: dict = {}
    for t in range(d):
        i = bisect_right(cp, t) - 1
        j = bisect_right(cq, t) - 1
        key = (i, j)
        out[key] = out.get(key, Fraction(0)) + Fraction(1, d)
    return out


def reduced_context_mean(model: ContextualModel, alice_label: str, bob_label: str) -> Fraction:
    """Context correlation of the two-uniform form of `model`, computed by
    atomized quadrature over (u1, u2) without any partition machinery.

    Each side's uniform is sliced into atoms of the common denominator of
    that side's two local pmfs; an atom at position t selects local value
    index k for setting s where t falls in the k-th cumulative interval of
    that setting's pmf.
    """
    alabels = tuple(model.alice)
    blabels = tuple(model.bob)

    def side_atoms(settings, labels):
        d = atom_denominator(*[settings[t].pmf.weights for t in labels])
        cums = {}
        for t in labels:
            cum = [0]
            for w in settings[t].pmf.weights:
                cum.append(cum[-1] + int(w * d))
            cums[t] = cum
        return d, cums

    da, acums = side_atoms(model.alice, alabels)
    db, bcums = side_atoms(model.bob, blabels)
    atab = model.alice[alice_label].table.values
    btab = model.bob[bob_label].table.values
    acum = acums[alice_label]
    bcum = bcums[bob_label]

    total = Fraction(0)
    for i in range(model.source.rows):
        for j in range(model.source.cols):
            w0 = model.source.weights[i][j]
            if w0 == 0:
                continue
            asum = 0
            for t in range(da):
                asum += atab[i][bisect_right(acum, t) - 1]
            bsum = 0
            for t in range(db):
                bsum += btab[j][bisect_right(bcum, t) - 1]
            total += w0 * Fraction(asum, da) * Fraction(bsum, db)
    return total


def dedicated_fraction_oracle(model: ContextualModel, ctx: Context) -> Fraction:
    """E over one context: sum A(l1,lx) * B(l2,ly) * p_x(lx) * p_y(ly) * p(l1,l2).

    Loop order fixed as (l1, l2, lx, ly) for reproducible traces; only
    zero-probability source pairs are skipped.
    """
    a_local = model.local("alice", ctx.alice)
    b_local = model.local("bob", ctx.bob)
    a_table = a_local.table.values
    b_table = b_local.table.values
    a_pmf = a_local.pmf.weights
    b_pmf = b_local.pmf.weights

    total = Fraction(0)
    for l1, source_row in enumerate(model.source.weights):
        for l2, w_source in enumerate(source_row):
            if w_source == 0:
                continue
            for lx, w_a in enumerate(a_pmf):
                for ly, w_b in enumerate(b_pmf):
                    total += a_table[l1][lx] * b_table[l2][ly] * w_a * w_b * w_source
    return total


def _oracle_scaled_factors(weights):
    """Integer numerators over one common denominator, for fast exact sums."""
    d = lcm(*[w.denominator for w in weights]) if weights else 1
    return [int(w * d) for w in weights], d


def expanded_scaled_oracle(
    model: ContextualModel, ctx: Context, cell_limit: int = DEFAULT_CELL_LIMIT
) -> Fraction:
    """Same expectation by brute-force sum over every expanded cell; guarded.

    Accumulates integer numerators over the product of factor
    denominators, so the full sweep stays exact without per-cell Fraction
    arithmetic.
    """
    a0, a1 = model.alice_labels
    b0, b1 = model.bob_labels
    size = model.source.rows * model.source.cols
    for side, label in (("alice", a0), ("alice", a1), ("bob", b0), ("bob", b1)):
        size *= len(model.local(side, label).pmf.weights)
    if size > cell_limit:
        raise SizeExceededError(size, cell_limit)
    src_num, src_den = _oracle_scaled_factors(list(model.source.flattened()))
    local_scaled = {
        (side, label): _oracle_scaled_factors(list(model.local(side, label).pmf.weights))
        for side, label in (
            ("alice", a0), ("alice", a1), ("bob", b0), ("bob", b1),
        )
    }
    a_table = model.local("alice", ctx.alice).table.values
    b_table = model.local("bob", ctx.bob).table.values
    a_axis = model.alice_labels.index(ctx.alice)
    b_axis = model.bob_labels.index(ctx.bob)

    cols = model.source.cols
    nums = [local_scaled[k][0] for k in (("alice", a0), ("alice", a1), ("bob", b0), ("bob", b1))]
    total = 0
    for l1 in range(model.source.rows):
        for l2 in range(cols):
            w0 = src_num[l1 * cols + l2]
            for locals_cell in itertools.product(*[range(len(n)) for n in nums]):
                w = w0
                for n, k in zip(nums, locals_cell):
                    w *= n[k]
                a = a_table[l1][locals_cell[a_axis]]
                b = b_table[l2][locals_cell[2 + b_axis]]
                total += w * a * b
    denom = src_den
    for _, d in local_scaled.values():
        denom *= d
    return Fraction(total, denom)


def reduced_fraction_oracle(reduced: ReducedModel, ctx: Context) -> Fraction:
    """Context correlation under the reduced form, by exact quadrature.

    Integrates over refined intervals times source pairs; each interval
    contributes its width times the response value its pair selects.
    """
    model = reduced.base
    a_slot = model.alice_labels.index(ctx.alice)
    b_slot = model.bob_labels.index(ctx.bob)
    a_table = model.alice[ctx.alice].table.values
    b_table = model.bob[ctx.bob].table.values

    a_widths = reduced.alice_map.widths()
    b_widths = reduced.bob_map.widths()
    total = Fraction(0)
    for l1, row in enumerate(model.source.weights):
        a_mean = sum(
            (
                w * a_table[l1][pair[a_slot]]
                for w, pair in zip(a_widths, reduced.alice_map.labels)
            ),
            Fraction(0),
        )
        for l2, w_src in enumerate(row):
            if w_src == 0:
                continue
            b_mean = sum(
                (
                    w * b_table[l2][pair[b_slot]]
                    for w, pair in zip(b_widths, reduced.bob_map.labels)
                ),
                Fraction(0),
            )
            total += w_src * a_mean * b_mean
    return total


def outcome_distribution_fraction_oracle(
    model: ContextualModel, side: str, setting: str, remote: str
) -> tuple[Fraction, Fraction]:
    """Exact (P(+1), P(-1)) for one side's outcome in a full context.

    The remote side's local pmf is summed explicitly rather than being
    marginalized away, so the result could in principle depend on the
    remote setting; the point of the check below is that it never does.
    """
    local = model.local(side, setting)
    remote_local = model.local("bob" if side == "alice" else "alice", remote)
    p_plus = Fraction(0)
    total_mass = Fraction(0)
    for l1, row in enumerate(model.source.weights):
        for l2, w_src in enumerate(row):
            own_index = l1 if side == "alice" else l2
            for k, w_loc in enumerate(local.pmf.weights):
                for _, w_rem in enumerate(remote_local.pmf.weights):
                    w = w_src * w_loc * w_rem
                    total_mass += w
                    if local.table.values[own_index][k] == 1:
                        p_plus += w
    return (p_plus, total_mass - p_plus)


def exhaustive_oracle(cardinalities):
    """Exhaustive search by scanning every index through the full pipeline.

    Each index is decoded into a model and scored by `correlation_set`
    and the eight-sum report, with no vertex argument.  Returns
    (best_model, best_s_max, improvements, evaluated): improvements are
    the strict records of the scan in index order, and ties on the best
    score go to the smallest canonical serialization.
    """
    total = assignment_count(cardinalities)
    best_model = best_json = best_s = None
    improvements = []
    for m in range(total):
        model = decode_assignment(cardinalities, m)
        s = chsh_from_correlations(correlation_set(model)).s_max
        if best_s is None or s > best_s:
            best_model, best_json, best_s = model, canonical_json(model), s
            improvements.append((m, s))
        elif s == best_s:
            serialized = canonical_json(model)
            if serialized < best_json:
                best_model, best_json = model, serialized
    return best_model, best_s, tuple(improvements), total


def unchunked_trials_oracle(model: ContextualModel, n: int, seed: int = 0):
    """(alice setting, bob setting, a, b) int8 arrays of `simulate_trials`,
    from one (n, 5) block draw pushed through the searchsorted pipeline at
    once, the settings included."""
    reduced = reduce_model(model)

    def table_stack(settings, labels):
        depth = max(s.pmf.size for s in settings.values())
        rows = max(s.table.rows for s in settings.values())
        stack = np.zeros((2, rows, depth), dtype=np.int8)
        for t, label in enumerate(labels):
            for r, row in enumerate(settings[label].table.values):
                stack[t, r, : len(row)] = row
        return stack

    draws = np.random.default_rng(seed).integers(0, U_SCALE, size=(n, 5), dtype=np.int64)
    setting_k = _thresholds((Fraction(0), Fraction(1, 2), Fraction(1)))
    a_set = np.searchsorted(setting_k, draws[:, 0], side="left")
    b_set = np.searchsorted(setting_k, draws[:, 1], side="left")
    # Every flat source cell gets a threshold; a draw that lands on a
    # zero-weight cell (only a draw of 0 can) moves forward to the next cell.
    source = model.source.flattened()
    source_k = _thresholds([Fraction(0), *itertools.accumulate(source)])
    src = np.searchsorted(source_k, draws[:, 2], side="left")
    positive = np.flatnonzero([w > 0 for w in source])
    src = positive[np.searchsorted(positive, src, side="left")]
    alice_pairs = np.array(reduced.alice_map.labels, dtype=np.int64)
    bob_pairs = np.array(reduced.bob_map.labels, dtype=np.int64)
    alice_k = _thresholds(reduced.alice_map.breakpoints)
    bob_k = _thresholds(reduced.bob_map.breakpoints)
    local_a = alice_pairs[np.searchsorted(alice_k, draws[:, 3], side="left"), a_set]
    local_b = bob_pairs[np.searchsorted(bob_k, draws[:, 4], side="left"), b_set]
    a = table_stack(model.alice, model.alice_labels)[a_set, src // model.source.cols, local_a]
    b = table_stack(model.bob, model.bob_labels)[b_set, src % model.source.cols, local_b]
    return a_set.astype(np.int8), b_set.astype(np.int8), a, b


def unchunked_quantum_oracle(angles, n: int, seed: int = 0):
    """(alice setting, bob setting, a, b) int8 arrays of
    `quantum_reference`, from one (n, 3) block draw."""
    grid = _quantum_grid(angles)
    draws = np.random.default_rng(seed).integers(0, U_SCALE, size=(n, 3), dtype=np.int64)
    a_set = (draws[:, 0] >= U_SCALE // 2).astype(np.int64)
    b_set = (draws[:, 1] >= U_SCALE // 2).astype(np.int64)
    context = a_set * 2 + b_set
    code = np.empty(n, dtype=np.int64)
    for ctx in range(4):
        mask = context == ctx
        code[mask] = np.searchsorted(grid[ctx], draws[mask, 2], side="left")
    a = (1 - 2 * (code // 2)).astype(np.int8)
    b = (1 - 2 * (code % 2)).astype(np.int8)
    return a_set.astype(np.int8), b_set.astype(np.int8), a, b


def ledger_csv_oracle(ledger, path) -> None:
    """`TrialLedger.to_csv` as one csv.writer row per trial, each decoded
    from its cell code alice*8 + bob*4 + (a > 0)*2 + (b > 0)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "alice_setting", "bob_setting", "a", "b"])
        signs = {0: "-1", 1: "+1"}
        for t in range(ledger.n):
            code = int(ledger.codes[t])
            writer.writerow([
                t,
                ledger.alice_labels[code // 8],
                ledger.bob_labels[code // 4 % 2],
                signs[code // 2 % 2],
                signs[code % 2],
            ])
