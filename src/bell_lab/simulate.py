"""Seeded Monte Carlo simulation and empirical statistics.

Trials are driven through the two-uniform reduced form, so the sampling
path itself exercises the partition maps: per trial the model sampler
takes five 53-bit dyadic uniforms, in the fixed column order (Alice
setting, Bob setting, source pair, U1, U2).  Each is the top 53 bits of
one raw PCG64 word, the stream that NumPy's RNG policy (NEP 19) pins;
they are the very draws `Generator.integers(0, 2^53)` makes, so the
bytes are those of every earlier version (`_draw_block`).  Each setting
is the top bit of its draw, so both settings are exactly uniform in both
samplers.  Any other dyadic draw k/2^53 is compared against integer
thresholds floor(c * 2^53) of the exact rational cumulative breakpoints
c; a draw landing exactly on a threshold goes to the lower interval.
So interval 0 of each partition holds one draw more than its share when
its end c * 2^53 is an integer, the last interval up to one draw fewer,
and each interval is within 2^-53 of its exact width, either way: far
below anything the statistics here can resolve.  `TestSamplerLaw` bounds
each cell's law by m * 2^-53, m its intervals that end inside (0, 1).

A chunk's draws are transposed once, so each column is contiguous.  The
model sampler finds each column's interval by a guide-table lookup
(`_lookup`): a table by the draw's top bits, then a branchless binary
search inside the bucket, one pass in practice.  Per side, one uint8
table holds that side's code bits by setting, source row and refined
interval (from `reduction._readout`), so a trial's cell code is one
gather per side and one add.  The quantum sampler takes three uniforms:
the settings and a U, placed by its context's three inner thresholds.

A run is cut into chunks of CHUNK trials, the only unit of parallel
work: `_in_parallel` shares them out among one thread per usable core.
numpy's draws, gathers and compares and the ledger's `pwrite`s release
the interpreter lock, so the threads overlap.  Every 53-bit draw takes
exactly one 64-bit word of the PCG64 stream, so the chunk starting at
trial lo advances a fresh PCG64(seed) by lo * columns words.  It puts
its cell codes into one shared byte array, about 1 B per trial, and
writes its ledger rows at the byte offset that the codes before it fix.
So neither the chunk size nor the number of threads changes a byte.

Ledger rows are rendered a chunk at a time with numpy, no Python object
per row (`_render_rows`).  The 16 possible row endings are rendered once
by csv.writer and padded into fixed-width records; each trial costs one
record gather of its ending and one of the ending's keep-mask, by cell
code.  The trial numbers' low four digits are slices of a table of the
strings 0000 .. 9999, and their higher digits are constant over each run
of 10^4 trials.  The kept bytes are exactly one csv.writer row per trial.

Floats appear in this module's estimates and z-scores only; the exact
no-signalling check lives in `exact`.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import sys
import threading
from dataclasses import dataclass
from functools import cache

import numpy as np

from .chsh import CHSH_PATTERNS
from .models import ContextualModel, atomic_writer
from .reduction import _readout, inverse_transform_partition, reduce_model

U_BITS = 53
U_SCALE = 1 << U_BITS

# The bit generator behind every draw; summary.json names it.
RNG_ALGORITHM = "PCG64"

# Trials per chunk, the unit of sampling, ledger writing and parallel work;
# bounds the temporaries, which every thread holds at once.
CHUNK = 1 << 14

# A threshold lookup's guide table has one entry per value of a draw's top
# _GUIDE_BITS bits: 8 KB at 10 bits.
_GUIDE_BITS = 10

# A block of rendered ledger rows pads to at most CHUNK * _ROW_BYTES bytes:
# one block per chunk for rows up to 32 bytes wide, as short labels give.
_ROW_BYTES = 32

# Trial numbers' low digits come from a table of every _LOW_DIGITS-digit string.
_LOW_DIGITS = 4
_LOW_BLOCK = 10**_LOW_DIGITS

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


def _digits_below(t: int) -> int:
    """Decimal digits in the trial numbers 0 .. t-1 together."""
    total, width, low = 0, 1, 0
    while low < t:
        high = 10**width
        total += width * (min(t, high) - low)
        low, width = high, width + 1
    return total


def _cores() -> int:
    """Cores this process may run on, each worth one worker thread; 1 where
    the host cannot say."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _in_parallel(items, task) -> None:
    """Run task(*item) for every item on k = min(_cores(), len(items)),
    at least 1, workers, worker 0 on this thread: worker j takes items j,
    j + k, j + 2k, ....  Once a task fails, every worker stops before its
    next item.

    Every thread is joined before this returns or raises.  An exception
    on this thread, also one raised while a thread is started or joined,
    stops the workers first and wins over theirs; otherwise the first
    failed worker's exception is raised.
    """
    workers = max(1, min(_cores(), len(items)))
    failures = [None] * workers
    stop = threading.Event()

    def work(index):
        try:
            for item in items[index::workers]:
                if stop.is_set():
                    return
                task(*item)
        except BaseException as exc:  # re-raised on the calling thread below
            failures[index] = exc
            stop.set()

    started = []
    try:
        for index in range(1, workers):
            thread = threading.Thread(target=work, args=(index,))
            thread.start()
            started.append(thread)
        work(0)
        for thread in started:
            thread.join()
    except BaseException:
        stop.set()
        while any(thread.is_alive() for thread in started):
            with contextlib.suppress(BaseException):  # a second interrupt: the first wins
                for thread in started:
                    thread.join()
        raise
    for failure in failures:
        if failure is not None:
            raise failure


def _pwrite_all(fd: int, data, offset: int) -> None:
    """Write all of the bytes-like `data` at `offset`; one pwrite may stop short."""
    view = memoryview(data)
    while view:
        written = os.pwrite(fd, view, offset)
        view, offset = view[written:], offset + written


@cache
def _digit_records() -> np.ndarray:
    """The 4-digit strings 0000 .. 9999 as read-only V4 records."""
    return _records([f"{i:0{_LOW_DIGITS}d}".encode() for i in range(_LOW_BLOCK)], _LOW_DIGITS)


def _records(rows, width: int) -> np.ndarray:
    """Byte strings zero-padded to `width`, as V{width} records."""
    return np.frombuffer(b"".join(row.ljust(width, b"\0") for row in rows), dtype=f"V{width}")


def _render_rows(first: int, codes, endings):
    """Yield the ledger rows of trials first, first + 1, ... with cell
    codes `codes` and row endings `endings` (indexed by code), as uint8
    arrays whose bytes, in order, are the rows.

    Each block of rows shares one trial-number width w.  Its rows are a
    matrix of W = max(w, 4) digit bytes then L bytes, L the longest
    ending, and a bool keep-matrix marks the bytes that are kept.  Both
    are one gather of V{W + L} records by code: the ending behind zeroed
    digits, and its keep-mask.  Within each run of trials sharing a block
    of 10^4, the low 4 digits are a slice of `_digit_records()` and the
    higher ones a constant record.  A block pads to at most CHUNK *
    _ROW_BYTES bytes, so long labels make shorter blocks rather than
    larger matrices.
    """
    digits = _digit_records()
    longest = max(len(e) for e in endings)
    stop = first + len(codes)
    lo = first
    while lo < stop:
        w = len(str(lo))
        high = max(w - _LOW_DIGITS, 0)
        number_width = high + _LOW_DIGITS
        width = number_width + longest
        hi = min(stop, 10**w, lo + max(1, CHUNK * _ROW_BYTES // width))
        block = codes[lo - first:hi - first]
        rows = _records([bytes(number_width) + e for e in endings], width).take(block)
        # Below 1000 the 4-digit record's leading zeros are not kept.
        keep = _records([bytes(number_width - w) + b"\1" * (w + len(e)) for e in endings], width)
        rows = rows.view(np.uint8).reshape(-1, width)
        keep = keep.take(block).view(np.bool_).reshape(-1, width)
        low = rows[:, high:number_width].view(f"V{_LOW_DIGITS}")[:, 0]
        runs = [lo, *range((lo // _LOW_BLOCK + 1) * _LOW_BLOCK, hi, _LOW_BLOCK), hi]
        for run, end in zip(runs, runs[1:]):
            offset = run % _LOW_BLOCK
            low[run - lo:end - lo] = digits[offset:offset + end - run]
            if high:
                top = str(run // _LOW_BLOCK).encode()
                rows[run - lo:end - lo, :high].view(f"V{high}")[:, 0] = np.void(top)
        yield rows[keep]
        lo = hi


def _csv_line(fields) -> bytes:
    """One csv.writer row, in UTF-8."""
    buf = io.StringIO()
    csv.writer(buf).writerow(fields)
    return buf.getvalue().encode()


@dataclass(frozen=True, eq=False)
class TrialLedger:
    """Per-trial records, plus the seed that produced them.

    Each trial is one uint8 cell code in 0..15:
    alice_setting*8 + bob_setting*4 + (a > 0)*2 + (b > 0), the settings
    being positions in the label tuples and a, b the +/-1 outcomes.
    Codes that are not a 1-D integer ndarray, or a code outside 0..15, are
    refused, and the codes array, not copied, is marked read-only.  The
    constructor then bins the codes once, a chunk of `_chunks` at a time:
    the counts and the ledger's byte offsets both come from those bins, so
    they cannot drift out of step with the records.  Ledgers compare and
    hash by identity, since an ndarray field has no single truth value.
    """

    seed: int
    alice_labels: tuple[str, str]
    bob_labels: tuple[str, str]
    codes: np.ndarray

    def __post_init__(self):
        codes = self.codes
        if not (isinstance(codes, np.ndarray) and codes.ndim == 1 and codes.dtype.kind in "iu"):
            got = (f"a {codes.ndim}-D {codes.dtype} array" if isinstance(codes, np.ndarray)
                   else type(codes).__name__)
            raise ValueError(f"cell codes must be integers in a 1-D ndarray, got {got}")
        if codes.size and not 0 <= codes.min() <= codes.max() <= 15:
            trial = int(np.flatnonzero((codes < 0) | (codes > 15))[0])
            raise ValueError(f"trial {trial} has cell code {codes[trial]}, outside 0..15")
        codes.flags.writeable = False
        chunks = list(_chunks(len(codes)))
        bins = np.zeros((len(chunks), 16), dtype=np.int64)
        # bincount casts its input to intp; binning per chunk bounds that copy.
        for row, (lo, hi) in zip(bins, chunks):
            row[:] = np.bincount(codes[lo:hi], minlength=16)
        counts = bins.sum(axis=0).reshape(2, 2, 2, 2)
        counts.flags.writeable = False
        object.__setattr__(self, "_ranges", chunks)
        object.__setattr__(self, "_bins", bins)
        object.__setattr__(self, "_counts", counts)

    @property
    def n(self) -> int:
        return len(self.codes)

    def context_counts(self) -> np.ndarray:
        """Trial counts, int64 of shape (2, 2, 2, 2), indexed
        [alice setting, bob setting, a > 0, b > 0]: the bits of the cell code.
        Counted when the ledger is built; every call returns the same
        read-only array."""
        return self._counts

    def _row_endings(self) -> tuple[bytes, ...]:
        """The 16 possible `,alice,bob,a,b` row endings in UTF-8, indexed
        by code.

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
        """Write one row per trial to `path`, atomically.

        Every byte is written by `_pwrite_all`: the header's at offset 0,
        then each chunk the constructor binned renders its rows and writes
        them at its own byte offset.  That offset counts the header, the
        digits of the trial numbers before the chunk, and the row endings of
        the codes before it, from the bins of the chunks before it.
        """
        endings = self._row_endings()
        ending_bytes = np.array([len(e) for e in endings], dtype=np.int64)
        header = _csv_line(["trial", "alice_setting", "bob_setting", "a", "b"])
        chunk_bytes = self._bins @ ending_bytes
        before = len(header) + np.cumsum(chunk_bytes) - chunk_bytes
        chunks = [(lo, hi, int(b) + _digits_below(lo)) for (lo, hi), b in zip(self._ranges, before)]

        with atomic_writer(path) as fh:
            _pwrite_all(fh.fileno(), header, 0)

            def write(lo, hi, offset):
                for rows in _render_rows(lo, self.codes[lo:hi], endings):
                    _pwrite_all(fh.fileno(), rows, offset)
                    offset += len(rows)

            _in_parallel(chunks, write)


def _draw_block(bit_generator, rows: int, cols: int) -> np.ndarray:
    """The next rows * cols 53-bit draws of `bit_generator`, as a row-major
    (rows, cols) int64 block: each is the top 53 bits of one raw word,
    shifted in place.

    These are exactly `Generator.integers(0, 2^53, dtype=np.int64)`'s draws
    from the same bit generator.  For the range 2^53, numpy's Lemire method
    keeps the high word of word * 2^53, which is word >> 11, and its
    rejection threshold is 2^64 mod 2^53 = 0: it never rejects, and takes
    one word per draw.  Reading the raw words keeps the bytes on the stream
    that NumPy's RNG policy (NEP 19) pins, which `Generator`'s algorithms
    are not.
    """
    words = bit_generator.random_raw(rows * cols)
    words >>= 64 - U_BITS
    return words.view(np.int64).reshape(rows, cols)


def _sample_ledger(seed: int, n: int, cols: int, sample, alice_labels, bob_labels) -> TrialLedger:
    """Draw n rows of `cols` 53-bit integers, CHUNK rows at a time.

    `sample` maps one chunk's draws, transposed to a C-ordered (cols,
    rows) block so that each column is contiguous, to the chunk's cell
    codes (see `TrialLedger`).
    """
    if n < 1:
        raise ValueError(f"need at least one trial, got n={n}")
    if n > sys.maxsize:  # refused as a size the host cannot allocate is
        raise MemoryError(f"cannot allocate {n} trial codes")
    codes = np.zeros(n, dtype=np.uint8)
    # PCG64(seed) seeds from SeedSequence(seed); hashing the seed once per
    # run, not per chunk, halves each chunk's setup under the interpreter lock.
    seed_sequence = np.random.SeedSequence(seed)

    def draw(lo, hi):
        bit_generator = np.random.PCG64(seed_sequence)
        # One 64-bit word per 53-bit value: skip the rows before lo.
        bit_generator.advance(lo * cols)
        draws = np.ascontiguousarray(_draw_block(bit_generator, hi - lo, cols).T)
        codes[lo:hi] = sample(draws)

    _in_parallel(list(_chunks(n)), draw)
    return TrialLedger(seed=seed, alice_labels=alice_labels, bob_labels=bob_labels, codes=codes)


def _settings(draws) -> tuple[np.ndarray, np.ndarray]:
    """Alice's and Bob's setting indices: the top bits of draw columns 0
    and 1, so each setting has probability exactly 1/2."""
    return draws[0] >> (U_BITS - 1), draws[1] >> (U_BITS - 1)


def _lookup(thresholds: np.ndarray):
    """A function that maps int64 draws in [0, 2^53) to the number of the
    sorted int64 `thresholds` below each, as `np.searchsorted(thresholds,
    draws, side="left")` does: a draw equal to a threshold goes to the lower
    interval.

    This is guide-table ("indexed") search: Chen and Asau, AIIE Trans. 6,
    163 (1974); Devroye, Non-Uniform Random Variate Generation (1986), ch.
    III.  A table indexed by a draw's top _GUIDE_BITS bits gives the count
    of thresholds below that bucket's start.  A branchless binary search
    then counts the thresholds inside the bucket that are below the draw:
    bit_length(m) passes of take, compare and add, m the most thresholds in
    one bucket.  Past a bucket's last threshold the compare fails, since
    every later threshold, and the U_SCALE padding, is above its draws.
    """
    shift = U_BITS - _GUIDE_BITS
    starts = np.arange((1 << _GUIDE_BITS) + 1, dtype=np.int64) << shift
    below = np.searchsorted(thresholds, starts, side="left")
    guide = below[:-1]
    passes = int(np.diff(below).max()).bit_length()
    padded = np.concatenate([thresholds, np.full(1 << passes, U_SCALE, dtype=np.int64)])
    # Pass p compares the threshold 2^p - 1 places on, and steps 2^p past it if below.
    steps = [(padded[(1 << p) - 1:], 1 << p) for p in reversed(range(passes))]

    def lookup(draws):
        index = guide.take(draws >> shift)
        for probe, step in steps:
            np.add(index, step, out=index, where=probe.take(index) < draws)
        return index

    return lookup


def _side_codes(uniform_map, settings, source_rows, setting_bit: int, outcome_bit: int):
    """A function (setting, source interval, uniform draw) -> one side's
    bits of the cell code, setting * setting_bit + (outcome > 0) * outcome_bit,
    for arrays of each.

    The bits sit in one flat uint8 table indexed [setting, source row,
    refined interval], from `_readout`; `source_rows` gives each source
    interval's row.
    """
    positive = np.array(_readout(uniform_map, settings)) > 0
    bits = (np.arange(2)[:, None, None] * setting_bit + positive * outcome_bit).astype(np.uint8)
    table = bits.ravel()
    row_offsets = source_rows * positive.shape[2]
    stride = positive[0].size
    lookup = _lookup(_thresholds(uniform_map.breakpoints))

    def codes(setting, source, draws):
        index = lookup(draws)
        index += row_offsets.take(source)
        index += setting * stride
        return table.take(index)

    return codes


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
    source_lookup = _lookup(_thresholds(source_map.breakpoints))
    labels = np.array(source_map.labels, dtype=np.intp)
    cols = model.source.cols
    alice = _side_codes(reduced.alice_map, model.alice, labels // cols, 8, 2)
    bob = _side_codes(reduced.bob_map, model.bob, labels % cols, 4, 1)

    def sample(draws):
        a_set, b_set = _settings(draws)
        src = source_lookup(draws[2])
        return alice(a_set, src, draws[3]) + bob(b_set, src, draws[4])

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
        # Grid index 0 is (+1,+1), outcome bits 3; index 3 is (-1,-1), bits 0.
        # Each step of the grid index is one of the context's thresholds below
        # the draw, as searchsorted(side="left"); the last, 2^53, never is.
        codes = context * 4 + 3
        for inner in grid.T[:3]:
            codes -= inner.take(context) < draws[2]
        return codes

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
