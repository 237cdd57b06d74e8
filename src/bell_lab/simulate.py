"""Seeded Monte Carlo simulation and empirical statistics.

Trials are driven through the two-uniform reduced form, so the sampling
path itself exercises the partition maps: per trial the stream provides
five 53-bit dyadic uniforms, consumed in the fixed column order (Alice
setting, Bob setting, source pair, U1, U2).  Per side a trial does one
threshold lookup and one gather from `reduction._readout`'s outcomes.
Each setting is the top bit of its draw, so both settings are exactly
uniform in both samplers.  Any other dyadic draw k/2^53 is compared
against integer thresholds floor(c * 2^53) of the exact rational
cumulative breakpoints c; a draw landing exactly on a threshold goes to
the lower interval.  Thresholds beyond 53-bit resolution would collapse;
each interval is then under-weighted by at most 2^-53, which is far below
anything the statistics here can resolve.

Draws are taken in row chunks of CHUNK trials, each chunk's cell codes
written into one preallocated byte array, so memory is about 1 B per
trial.  numpy's PCG64 `integers` fills rows in stream order, so the
chunked stream is identical to one whole-run block draw and the ledger
bytes do not depend on the chunk size.

Floats appear in this module's estimates and z-scores only; the exact
no-signalling check lives in `exact`.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .chsh import CHSH_PATTERNS
from .models import ContextualModel, atomic_writer
from .reduction import _readout, inverse_transform_partition, reduce_model

U_BITS = 53
U_SCALE = 1 << U_BITS

# The bit generator behind every draw; summary.json names it.
RNG_ALGORITHM = "PCG64"

# Trials per draw, sample and ledger-write chunk; bounds the temporaries.
CHUNK = 1 << 16

QUANTUM_ALICE_LABELS = ("a0", "a1")
QUANTUM_BOB_LABELS = ("b0", "b1")


class EmptyContextError(ValueError):
    """A ledger has no trials in some context, so its statistics are undefined."""


def _thresholds(breakpoints) -> np.ndarray:
    """Integer thresholds for the cumulative endpoints past the leading 0."""
    return np.array(
        [(b.numerator << U_BITS) // b.denominator for b in breakpoints[1:]],
        dtype=np.int64,
    )


def _chunks(n: int):
    """(start, stop) row ranges of at most CHUNK trials covering range(n)."""
    for start in range(0, n, CHUNK):
        yield start, min(start + CHUNK, n)


def _csv_line(fields) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerow(fields)
    return buf.getvalue()


@dataclass(frozen=True)
class TrialLedger:
    """Per-trial records, plus the seed that produced them.

    Each trial is one uint8 cell code in 0..15:
    alice_setting*8 + bob_setting*4 + (a > 0)*2 + (b > 0), the settings
    being positions in the label tuples and a, b the +/-1 outcomes.
    Counts are derived from the codes on demand, so they cannot drift
    out of step with the records.  A code outside 0..15 is refused, and
    the codes array is marked read-only.
    """

    seed: int
    alice_labels: tuple[str, str]
    bob_labels: tuple[str, str]
    codes: np.ndarray

    def __post_init__(self):
        codes = self.codes
        if codes.dtype.kind not in "iu":
            raise ValueError(f"cell codes must be integers, got dtype {codes.dtype}")
        if codes.size and not 0 <= codes.min() <= codes.max() <= 15:
            trial = int(np.flatnonzero((codes < 0) | (codes > 15))[0])
            raise ValueError(f"trial {trial} has cell code {codes[trial]}, outside 0..15")
        codes.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.codes)

    def context_counts(self) -> np.ndarray:
        """Trial counts, int64 of shape (2, 2, 2, 2), indexed
        [alice setting, bob setting, a > 0, b > 0]: the bits of the cell code."""
        # bincount casts its input to intp; binning per chunk bounds that copy.
        bins = np.zeros(16, dtype=np.int64)
        for start, stop in _chunks(self.n):
            bins += np.bincount(self.codes[start:stop], minlength=16)
        return bins.reshape(2, 2, 2, 2)

    def _row_suffixes(self) -> tuple[str, ...]:
        """The 16 possible `,alice,bob,a,b` row endings, indexed by code.

        Each is rendered through csv.writer behind a one-digit trial
        number, so labels that need quoting are quoted exactly as a
        per-row writer would quote them.
        """
        signs = ("-1", "+1")
        return tuple(
            _csv_line([0, self.alice_labels[code >> 3], self.bob_labels[(code >> 2) & 1],
                       signs[(code >> 1) & 1], signs[code & 1]])[1:]
            for code in range(16)
        )

    def to_csv(self, path) -> None:
        """Write one row per trial to `path`, atomically."""
        suffixes = self._row_suffixes()
        with atomic_writer(path, newline="") as fh:
            fh.write(_csv_line(["trial", "alice_setting", "bob_setting", "a", "b"]))
            for start, stop in _chunks(self.n):
                fh.write("".join([
                    f"{t}{suffixes[code]}"
                    for t, code in zip(range(start, stop), self.codes[start:stop].tolist())
                ]))


def _sample_ledger(seed: int, n: int, cols: int, sample, alice_labels, bob_labels) -> TrialLedger:
    """Draw n rows of `cols` 53-bit integers, CHUNK rows at a time.

    `sample` maps one chunk's (rows, cols) draw block to the chunk's
    cell codes (see `TrialLedger`).
    """
    if n < 1:
        raise ValueError(f"need at least one trial, got n={n}")
    codes = np.empty(n, dtype=np.uint8)
    rng = np.random.Generator(np.random.PCG64(seed))
    for start, stop in _chunks(n):
        draws = rng.integers(0, U_SCALE, size=(stop - start, cols), dtype=np.int64)
        codes[start:stop] = sample(draws)
    return TrialLedger(seed=seed, alice_labels=alice_labels, bob_labels=bob_labels, codes=codes)


def _settings(draws) -> tuple[np.ndarray, np.ndarray]:
    """Alice's and Bob's setting indices: the top bits of draw columns 0
    and 1, so each setting has probability exactly 1/2."""
    return draws[:, 0] >> (U_BITS - 1), draws[:, 1] >> (U_BITS - 1)


def simulate_trials(model: ContextualModel, n: int, seed: int = 0) -> TrialLedger:
    """Run n trials of the four-context protocol; reproducible from seed.

    Each trial draws both settings, one source pair, and the two shared
    uniforms, then gathers each side's outcome from its readout at (setting,
    source index, refined interval holding its uniform).  The source pair is
    read through its own partition, so a pair of weight zero is never drawn.
    Settings are exactly uniform: each is the top bit of its draw, as in
    `quantum_reference`.
    """
    reduced = reduce_model(model)  # validates the model

    source_map = inverse_transform_partition(model.source.flattened())
    source_k = _thresholds(source_map.breakpoints)
    source_labels = np.array(source_map.labels, dtype=np.int64)
    cols = model.source.cols
    alice_k = _thresholds(reduced.alice_map.breakpoints)
    bob_k = _thresholds(reduced.bob_map.breakpoints)
    # [setting, source index, refined interval] -> outcome > 0.
    alice_out = (np.array(_readout(reduced.alice_map, model.alice)) > 0).astype(np.uint8)
    bob_out = (np.array(_readout(reduced.bob_map, model.bob)) > 0).astype(np.uint8)

    def sample(draws):
        a_set, b_set = _settings(draws)
        src = source_labels[np.searchsorted(source_k, draws[:, 2], side="left")]
        a = alice_out[a_set, src // cols, np.searchsorted(alice_k, draws[:, 3], side="left")]
        b = bob_out[b_set, src % cols, np.searchsorted(bob_k, draws[:, 4], side="left")]
        return a_set * 8 + b_set * 4 + a * 2 + b

    return _sample_ledger(seed, n, 5, sample, model.alice_labels, model.bob_labels)


def _quantum_grid(angles) -> np.ndarray:
    """Per context (Alice index * 2 + Bob index), cumulative integer
    thresholds over the outcome cells ordered (+1,+1), (+1,-1), (-1,+1),
    (-1,-1)."""
    values = [float(angle) for angle in angles]
    for label, angle in zip(QUANTUM_ALICE_LABELS + QUANTUM_BOB_LABELS, values):
        if not math.isfinite(angle):
            raise ValueError(f"quantum angle {label} must be finite, got {angle}")
    alice_angles, bob_angles = values[:2], values[2:4]
    grid = np.empty((4, 4), dtype=np.int64)
    for i, alpha in enumerate(alice_angles):
        for j, beta in enumerate(bob_angles):
            c = math.cos(alpha - beta)
            probs = [(1 - a * b * c) / 4 for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
            cum = 0.0
            row = []
            for p in probs:
                cum += p
                row.append(min(int(cum * U_SCALE), U_SCALE))
            row[-1] = U_SCALE
            grid[i * 2 + j] = row
    return grid


def quantum_reference(angles, n: int, seed: int = 0) -> TrialLedger:
    """Singlet-statistics trial generator: the positive control.

    Outcomes follow P(a, b | alpha, beta) = (1 - a*b*cos(alpha - beta))/4
    with exactly uniform random settings, drawn as in `simulate_trials`.
    No model in this package can produce these statistics; the empirical
    pipeline must be able to say so.
    """
    grid = _quantum_grid(angles)

    def sample(draws):
        a_set, b_set = _settings(draws)
        context = a_set * 2 + b_set
        # Thresholds below the draw: searchsorted(side="left") on each sorted row.
        grid_index = (draws[:, 2, None] > grid[context]).sum(axis=1)
        # Grid index 0 is (+1,+1), outcome bits 3; index 3 is (-1,-1), bits 0.
        return context * 4 + 3 - grid_index

    return _sample_ledger(seed, n, 3, sample, QUANTUM_ALICE_LABELS, QUANTUM_BOB_LABELS)


@dataclass(frozen=True)
class EmpiricalChsh:
    """Float analog of the exact eight-sum report, with standard errors."""

    contexts: tuple[tuple[str, str], ...]
    n_per_context: tuple[int, ...]
    correlations: tuple[float, ...]
    standard_errors: tuple[float, ...]
    sums: tuple[float, ...]
    sum_standard_error: float
    s_max: float


def _context_sizes(ledger: TrialLedger, counts: np.ndarray) -> np.ndarray:
    """Trials per context, shape (2, 2), from `ledger.context_counts()`.

    Raises `EmptyContextError` naming the first empty context in context
    order, since no statistic of an empty context is defined.
    """
    sizes = counts.sum(axis=(2, 3))
    empty = np.argwhere(sizes == 0)
    if len(empty):
        i, j = empty[0]
        raise EmptyContextError(
            f"context {(ledger.alice_labels[i], ledger.bob_labels[j])} has no trials"
        )
    return sizes


def empirical_chsh(ledger: TrialLedger) -> EmpiricalChsh:
    """Per-context empirical correlations and the eight signed sums.

    A context correlation's standard error is sqrt((1 - e^2)/n_ctx); the
    sums share one error, the four context errors combined in quadrature.
    """
    counts = ledger.context_counts()
    ns = tuple(_context_sizes(ledger, counts).ravel().tolist())
    # Each context's cell counts as ((a-, b-), (a-, b+)), ((a+, b-), (a+, b+)).
    correlations = tuple(
        (pp + mm - pm - mp) / n_ctx
        for n_ctx, ((mm, mp), (pm, pp)) in zip(ns, counts.reshape(4, 2, 2).tolist())
    )
    errors = tuple(math.sqrt(max(1 - e * e, 0.0) / n_ctx) for n_ctx, e in zip(ns, correlations))
    sums = tuple(
        sum(s * e for s, e in zip(pattern, correlations)) for pattern in CHSH_PATTERNS
    )
    return EmpiricalChsh(
        contexts=tuple((a, b) for a in ledger.alice_labels for b in ledger.bob_labels),
        n_per_context=ns,
        correlations=correlations,
        standard_errors=errors,
        sums=sums,
        sum_standard_error=math.sqrt(sum(se * se for se in errors)),
        s_max=max(abs(s) for s in sums),
    )


@dataclass(frozen=True)
class NoSignallingRow:
    """One side/setting/outcome frequency compared across the remote setting."""

    side: str
    setting: str
    outcome: int
    remote_labels: tuple[str, str]
    frequencies: tuple[float, float]
    difference: float
    standard_error: float
    z: float


@dataclass(frozen=True)
class NoSignallingReport:
    rows: tuple[NoSignallingRow, ...]
    max_abs_z: float


def no_signalling_report(ledger: TrialLedger) -> NoSignallingReport:
    """Frequency-difference z-tests across the remote setting, all 8 rows.

    z uses the pooled two-sample standard error; a zero error with a zero
    difference scores z = 0, a zero error with a nonzero difference is
    reported as infinite.
    """
    counts = ledger.context_counts()
    sizes = _context_sizes(ledger, counts)
    rows = []
    # Per side: outcome counts [own setting][remote setting][outcome > 0]
    # and context sizes [own setting][remote setting].
    for side, labels, remote_labels, outcomes, totals in (
        ("alice", ledger.alice_labels, ledger.bob_labels, counts.sum(axis=3), sizes),
        ("bob", ledger.bob_labels, ledger.alice_labels,
         counts.sum(axis=2).transpose(1, 0, 2), sizes.T),
    ):
        for setting, own, (n1, n2) in zip(labels, outcomes.tolist(), totals.tolist()):
            for outcome in (1, -1):
                h1, h2 = (by_outcome[outcome > 0] for by_outcome in own)
                f1, f2 = h1 / n1, h2 / n2
                diff = f1 - f2
                pooled = (h1 + h2) / (n1 + n2)
                se = math.sqrt(pooled * (1 - pooled) * (1 / n1 + 1 / n2))
                if se == 0:
                    z = 0.0 if diff == 0 else math.copysign(math.inf, diff)
                else:
                    z = diff / se
                rows.append(
                    NoSignallingRow(
                        side=side,
                        setting=setting,
                        outcome=outcome,
                        remote_labels=tuple(remote_labels),
                        frequencies=(f1, f2),
                        difference=diff,
                        standard_error=se,
                        z=z,
                    )
                )
    return NoSignallingReport(
        rows=tuple(rows), max_abs_z=max(abs(r.z) for r in rows)
    )
