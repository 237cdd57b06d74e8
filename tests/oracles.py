"""Independent reference computations used to cross-check the engine.

Everything here is deliberately naive: full product-space enumeration with
no factorization, no skipping, no shared code with the package beyond the
model data structures.  The exceptions are `exhaustive_oracle`, which
decodes every assignment with `decode_assignment` and scores it through
the package's exact pipeline but none of its search shortcuts, and the
simulation oracles at the bottom, which reuse the sampler's thresholds
but draw and write without chunking or precomputed rows.  Slow is fine;
these run on small campaigns.

The `*_fraction_oracle` and `expanded_scaled_oracle` functions are the
per-cell loops the package ran before its exact kernels moved to integer
numerators, kept verbatim so each integer kernel is compared against the
loop it replaced.  They scale nothing through the package's helpers.
`chsh_fraction_oracle` is likewise the Fraction-generator CHSH report the
package used before its eight sums moved to integers.
`means_oracle` is the factored route's mean vector as the package summed
it before it took each mean from the half-sum of the weights read +1.

`score_oracle`, `neighbors_oracle`, `hill_climb_oracle` and
`random_sampling_oracle` are the search the package ran before it scored
candidates as moves on integer per-source means: every neighbour is built
as a model and scored through `correlation_set` and the eight-sum report.
The neighbour order is the specification of the package's move order.

`locate` is the point lookup the sampler's threshold search must agree
with: the label of the partition interval that holds a point of [0, 1).

`inverse_transform_loop_oracle` and `overlay_merge_oracle` are the
partition builders the package ran before it built partitions by their
definitions (accumulated nonzero weights; the union of two breakpoint
sets), kept verbatim: a running-sum loop and a two-pointer merge.

The per-context oracles take a context as its (alice_label, bob_label)
pair and look each setting up by label, where the package goes by
position.
"""

from __future__ import annotations

import csv
import io
import itertools
import random
from bisect import bisect_left, bisect_right
from dataclasses import replace
from fractions import Fraction
from math import lcm

import numpy as np

from bell_lab.chsh import (
    CHSH_PATTERNS,
    DEFAULT_CELL_LIMIT,
    LHV_BOUND,
    ChshReport,
    SizeExceededError,
    chsh_from_correlations,
)
from bell_lab.exact import correlation_set
from bell_lab.models import (
    ContextualModel,
    JointPmf,
    LocalSetting,
    canonical_json,
    format_rational,
)
from bell_lab.reduction import IntervalPartition, ReducedModel, reduce_model
from bell_lab.search import (
    DEFAULT_MAX_DENOMINATOR,
    RNG_ALGORITHM,
    SearchResult,
    random_model,
)
from bell_lab.simulate import U_SCALE, _quantum_grid, _thresholds


def _local(model: ContextualModel, side: str, label: str) -> LocalSetting:
    return (model.alice if side == "alice" else model.bob)[label]


def assignment_count(cardinalities) -> int:
    """Table assignments of a shape: two outcomes for every table entry."""
    s1, s2, la0, la1, lb0, lb1 = cardinalities
    return 2 ** (s1 * (la0 + la1) + s2 * (lb0 + lb1))


def decode_assignment(cardinalities, assignment: int) -> ContextualModel:
    """Model for one enumeration index: uniform pmfs, tables from the bits.

    Bit k (ascending) drives flat entry k, in table order Alice first
    setting, Alice second, Bob first, Bob second, each row-major; a set
    bit means -1.
    """
    s1, s2, la0, la1, lb0, lb1 = cardinalities
    source = JointPmf(tuple(tuple(Fraction(1, s1 * s2) for _ in range(s2)) for _ in range(s1)))
    bits = (-1 if assignment >> k & 1 else 1 for k in itertools.count())
    settings = [
        LocalSetting(
            (Fraction(1, cols),) * cols,
            tuple(tuple(next(bits) for _ in range(cols)) for _ in range(rows)),
        )
        for rows, cols in ((s1, la0), (s1, la1), (s2, lb0), (s2, lb1))
    ]
    return ContextualModel(
        source=source,
        alice={"x": settings[0], "x'": settings[1]},
        bob={"y": settings[2], "y'": settings[3]},
    )


def locate(partition: IntervalPartition, u: Fraction):
    """Label for a point of [0,1); boundaries go to the lower interval."""
    idx = bisect_left(partition.breakpoints, u) - 1
    return partition.labels[max(idx, 0)]


def product_mean(model: ContextualModel, selected) -> Fraction:
    """Mean of a product of response functions over the full product space.

    `selected` is a sequence of (side, label) pairs naming which response
    functions to multiply.  Enumerates every cell of the six-axis product
    space, multiplying all six factor weights, no shortcuts.
    """
    alabels = tuple(model.alice)
    blabels = tuple(model.bob)
    a_pmfs = [model.alice[t].weights for t in alabels]
    b_pmfs = [model.bob[t].weights for t in blabels]
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
                            v *= model.alice[label].table[i][la[t]]
                        else:
                            t = blabels.index(label)
                            v *= model.bob[label].table[j][lb[t]]
                    total += w * v
    return total


def means_oracle(local: LocalSetting) -> list[Fraction]:
    """One setting's mean vector m(l) = sum_k p(k) * R(l, k), term by term."""
    return [sum((w * v for w, v in zip(local.weights, row)), Fraction(0)) for row in local.table]


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


def chsh_fraction_oracle(values) -> ChshReport:
    """Evaluate all eight signed sums exactly and take the maximum magnitude."""
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


def inverse_transform_loop_oracle(weights) -> IntervalPartition:
    """Cumulative-sum partition: interval widths equal the weights in order."""
    breakpoints = [Fraction(0)]
    labels = []
    cum = Fraction(0)
    for index, w in enumerate(weights):
        if w == 0:
            continue
        cum += w
        breakpoints.append(cum)
        labels.append(index)
    if cum != 1:
        raise ValueError(f"weights sum to {format_rational(cum)}, expected 1")
    return IntervalPartition(breakpoints=tuple(breakpoints), labels=tuple(labels))


def overlay_merge_oracle(first: IntervalPartition, second: IntervalPartition) -> IntervalPartition:
    """Common refinement of two partitions; each interval's label is the pair
    (first label, second label).

    An interval's width is the weight of its label pair when one shared
    uniform drives both partitions, so the widths recover each partition's
    weights as marginals.
    """
    breakpoints = [Fraction(0)]
    labels = []
    ia = ib = 0
    lo = Fraction(0)
    while ia < len(first.labels) and ib < len(second.labels):
        hi = min(first.breakpoints[ia + 1], second.breakpoints[ib + 1])
        if hi > lo:
            breakpoints.append(hi)
            labels.append((first.labels[ia], second.labels[ib]))
        if first.breakpoints[ia + 1] == hi:
            ia += 1
        if second.breakpoints[ib + 1] == hi:
            ib += 1
        lo = hi
    return IntervalPartition(breakpoints=tuple(breakpoints), labels=tuple(labels))


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
        d = atom_denominator(*[settings[t].weights for t in labels])
        cums = {}
        for t in labels:
            cum = [0]
            for w in settings[t].weights:
                cum.append(cum[-1] + int(w * d))
            cums[t] = cum
        return d, cums

    da, acums = side_atoms(model.alice, alabels)
    db, bcums = side_atoms(model.bob, blabels)
    atab = model.alice[alice_label].table
    btab = model.bob[bob_label].table
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


def dedicated_fraction_oracle(model: ContextualModel, ctx: tuple[str, str]) -> Fraction:
    """E over one context: sum A(l1,lx) * B(l2,ly) * p_x(lx) * p_y(ly) * p(l1,l2).

    Loop order fixed as (l1, l2, lx, ly) for reproducible traces; only
    zero-probability source pairs are skipped.
    """
    alice_label, bob_label = ctx
    a_local = _local(model, "alice", alice_label)
    b_local = _local(model, "bob", bob_label)
    a_table = a_local.table
    b_table = b_local.table
    a_pmf = a_local.weights
    b_pmf = b_local.weights

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
    model: ContextualModel, ctx: tuple[str, str], cell_limit: int = DEFAULT_CELL_LIMIT
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
        size *= len(_local(model, side, label).weights)
    if size > cell_limit:
        raise SizeExceededError(size, cell_limit)
    src_num, src_den = _oracle_scaled_factors(list(model.source.flattened()))
    local_scaled = {
        (side, label): _oracle_scaled_factors(list(_local(model, side, label).weights))
        for side, label in (
            ("alice", a0), ("alice", a1), ("bob", b0), ("bob", b1),
        )
    }
    alice_label, bob_label = ctx
    a_table = _local(model, "alice", alice_label).table
    b_table = _local(model, "bob", bob_label).table
    a_axis = model.alice_labels.index(alice_label)
    b_axis = model.bob_labels.index(bob_label)

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


def reduced_fraction_oracle(
    model: ContextualModel, reduced: ReducedModel, ctx: tuple[str, str]
) -> Fraction:
    """Context correlation of `model` under its reduced form, by exact quadrature.

    Integrates over refined intervals times source pairs; each interval
    contributes its width times the response value its pair selects.
    """
    alice_label, bob_label = ctx
    a_slot = model.alice_labels.index(alice_label)
    b_slot = model.bob_labels.index(bob_label)
    a_table = model.alice[alice_label].table
    b_table = model.bob[bob_label].table

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
    local = _local(model, side, setting)
    remote_local = _local(model, "bob" if side == "alice" else "alice", remote)
    p_plus = Fraction(0)
    total_mass = Fraction(0)
    for l1, row in enumerate(model.source.weights):
        for l2, w_src in enumerate(row):
            own_index = l1 if side == "alice" else l2
            for k, w_loc in enumerate(local.weights):
                for _, w_rem in enumerate(remote_local.weights):
                    w = w_src * w_loc * w_rem
                    total_mass += w
                    if local.table[own_index][k] == 1:
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


def score_oracle(model: ContextualModel) -> Fraction:
    """s_max through the dedicated route and the eight-sum report."""
    return chsh_from_correlations(correlation_set(model)).s_max


def _with_local(model: ContextualModel, side: str, label: str, local: LocalSetting):
    settings = dict(model.alice if side == "alice" else model.bob)
    settings[label] = local
    return replace(model, **{side: settings})


def _with_table_entry(model: ContextualModel, side: str, label: str, r: int, c: int):
    local = _local(model, side, label)
    values = [list(row) for row in local.table]
    values[r][c] = -values[r][c]
    return _with_local(model, side, label, LocalSetting(local.weights, values))


def _mass_moves(weights, step: Fraction):
    """Weights with `step` moved from i to j, over ordered pairs i != j
    where weight i holds at least `step`."""
    for i in range(len(weights)):
        if weights[i] < step:
            continue
        for j in range(len(weights)):
            if i != j:
                out = list(weights)
                out[i] -= step
                out[j] += step
                yield tuple(out)


def neighbors_oracle(model: ContextualModel, step: Fraction):
    """Fixed scan order: single table flips (Alice's settings in declared
    order then Bob's, row-major), then single-step pmf mass moves
    (source flat, then each local pmf, ordered index pairs)."""
    for side in ("alice", "bob"):
        settings = model.alice if side == "alice" else model.bob
        for label, local in settings.items():
            for r, row in enumerate(local.table):
                for c in range(len(row)):
                    yield _with_table_entry(model, side, label, r, c)
    rows, cols = model.source.rows, model.source.cols
    for moved in _mass_moves(model.source.flattened(), step):
        source = tuple(moved[r * cols:(r + 1) * cols] for r in range(rows))
        yield replace(model, source=JointPmf(source))
    for side in ("alice", "bob"):
        settings = model.alice if side == "alice" else model.bob
        for label, local in settings.items():
            for moved in _mass_moves(local.weights, step):
                moved_local = LocalSetting(moved, local.table)
                yield _with_local(model, side, label, moved_local)


def hill_climb_oracle(spec) -> SearchResult:
    """First-improvement hill climb over built neighbour models, each scored
    by `score_oracle`; same rng stream, budget and records as the package."""
    rng = random.Random(spec.seed)
    step = Fraction(1, DEFAULT_MAX_DENOMINATOR)
    current = random_model(spec, rng)
    current_score = score_oracle(current)
    evaluated = 1
    best_model, best_score = current, current_score
    improvements = [(1, current_score)]
    while evaluated < spec.budget:
        advanced = False
        for candidate in neighbors_oracle(current, step):
            score = score_oracle(candidate)
            evaluated += 1
            if score > current_score:
                current, current_score = candidate, score
                if score > best_score:
                    best_model, best_score = candidate, score
                    improvements.append((evaluated, score))
                advanced = True
                break
            if evaluated >= spec.budget:
                break
        if not advanced and evaluated < spec.budget:
            current = random_model(spec, rng)
            current_score = score_oracle(current)
            evaluated += 1
            if current_score > best_score:
                best_model, best_score = current, current_score
                improvements.append((evaluated, current_score))
    return SearchResult(best_model, best_score, evaluated, tuple(improvements), RNG_ALGORITHM)


def random_sampling_oracle(spec) -> SearchResult:
    """Independent `random_model` draws scored by `score_oracle`; the first
    achiever of the best score wins."""
    rng = random.Random(spec.seed)
    best_model = best_score = None
    improvements = []
    for k in range(1, spec.budget + 1):
        model = random_model(spec, rng)
        score = score_oracle(model)
        if best_score is None or score > best_score:
            best_model, best_score = model, score
            improvements.append((k, score))
    return SearchResult(best_model, best_score, spec.budget, tuple(improvements), RNG_ALGORITHM)


def unchunked_trials_oracle(model: ContextualModel, n: int, seed: int = 0):
    """(alice setting, bob setting, a, b) int8 arrays of `simulate_trials`,
    from one (n, 5) block draw pushed through the searchsorted pipeline at
    once, the settings included."""
    reduced = reduce_model(model)

    def table_stack(settings, labels):
        depth = max(len(s.weights) for s in settings.values())
        rows = max(len(s.table) for s in settings.values())
        stack = np.zeros((2, rows, depth), dtype=np.int8)
        for t, label in enumerate(labels):
            for r, row in enumerate(settings[label].table):
                stack[t, r, : len(row)] = row
        return stack

    draws = np.random.default_rng(seed).integers(0, U_SCALE, size=(n, 5), dtype=np.int64)
    # A setting draw at the threshold 1/2 goes to the second setting: U >= 1/2.
    setting_k = _thresholds((Fraction(0), Fraction(1, 2), Fraction(1)))
    a_set = np.searchsorted(setting_k, draws[:, 0], side="right")
    b_set = np.searchsorted(setting_k, draws[:, 1], side="right")
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


def ledger_rows_oracle(alice_labels, bob_labels, codes, first_trial: int = 0) -> str:
    """Ledger rows as one csv.writer row per trial, numbered from
    `first_trial`, each decoded from its cell code
    alice*8 + bob*4 + (a > 0)*2 + (b > 0)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    signs = {0: "-1", 1: "+1"}
    for t, code in enumerate(np.asarray(codes).tolist(), first_trial):
        writer.writerow([
            t,
            alice_labels[code // 8],
            bob_labels[code // 4 % 2],
            signs[code // 2 % 2],
            signs[code % 2],
        ])
    return buf.getvalue()


def ledger_csv_oracle(ledger, path) -> None:
    """`TrialLedger.to_csv` as a csv.writer header and `ledger_rows_oracle`."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(["trial", "alice_setting", "bob_setting", "a", "b"])
        fh.write(ledger_rows_oracle(ledger.alice_labels, ledger.bob_labels, ledger.codes))
