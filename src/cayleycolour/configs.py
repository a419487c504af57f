"""Truncated Bernoulli space over a Cayley ball.

A configuration is a read-only ±1 sample on every ball vertex.  A rule
never shifts one: its window at vertex v reads (v.x)(w) = x(wv) through the
ball's left tables.

Sampling is batched and seeded per batch.  One engine, ``batches``, walks
the batch indices: it draws batches k = 0, 1, 2, ... in runs of consecutive
batches, optionally filters their rows, applies a per-sample statistic once
per run and yields the results in batch order, cut at exactly n kept
samples.  ``histogram`` counts an integer statistic over that one walk, and
the p-degree histograms in ``arrows`` are built on it, so a count never
depends on how many workers draw the runs: one worker runs on the calling
thread, more map runs in a thread pool and are still consumed in order.  A
statistic declares the vertex columns it reads, and only those bytes of
each row are converted; it and its filter see just those columns.  A single
configuration, ``sample``, is row 0 of batch 0, drawn by the same path.

The v1 stream (``pcg64-seedseq/batch1024/v1``), unchanged since it was
frozen: batch k is read from PCG64 seeded by
``SeedSequence(entropy=seed, spawn_key=(k,))``.  Its raw 64-bit outputs are
taken as little-endian bytes, and byte i gives coordinate i of the batch,
in row-major order over (row, vertex): +1 when the byte's top bit is set,
-1 otherwise.  This is the stream that
``Generator.integers(0, 2, size=(rows, |ball|), dtype=int8)`` draws: its
bounded uint8 draw maps a byte u to (2u) >> 8, the top bit, and rejects no
byte when the range is two values.

The seeds are derived in bulk.  ``_seed_words`` evaluates SeedSequence's
documented uint32 hash over a whole block of batch indices at once, and
``batch_streams`` applies PCG64's seeding step to each result and sets one
reused ``PCG64`` to it, which is what ``PCG64(SeedSequence(...))`` does one
batch at a time.  A wide batch is read in row slices of about
``SLICE_BYTES``, so the raw words of a radius-12 batch are never all alive
at once.
"""

from __future__ import annotations

import functools
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .groups import Ball

ALGORITHM = "pcg64-seedseq/batch1024/v1"
BATCH_SIZE = 1024
# Raw bytes read per random_raw call (whole words: a multiple of 8 rows, at
# least 8), gathered bytes per sample_batch call in ``batches``, and batch
# indices whose seeds are hashed together.
SLICE_BYTES = 1 << 22
RUN_BYTES = 1 << 16
SEED_BLOCK = 1024

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): its constants,
# and the (constant, next constant) pairs that successive hashmix calls use.
_MASK32 = 0xFFFFFFFF
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(value: int, mult: int, count: int) -> list[tuple[int, int]]:
    pairs = []
    for _ in range(count):
        pairs.append((value, value * mult & _MASK32))
        value = pairs[-1][1]
    return pairs


# Four pool words, twelve cross mixes, then four mixes per spawn-key word.
_MIX_ENTROPY = _hash_constants(0x43B0D7E5, 0x931E8875, 4 + 12 + 2 * 4)
_GENERATE = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)

# PCG64's 128-bit LCG multiplier (pcg_setseq_128_srandom_r).
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hashmix(value, constants):
    """hashmix with the hash constant c and its successor c': works on Python
    ints and, elementwise, on uint32 arrays (constants then broadcast)."""
    c, c_next = constants
    value = (value ^ c) * c_next & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    x = (x * _MIX_MULT_L - y * _MIX_MULT_R) & _MASK32
    return x ^ x >> 16


def _column_constants(pairs: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    c, c_next = np.array(pairs, dtype=np.uint32).T
    return c[:, None], c_next[:, None]


def _seed_words(seed: int, first: int, count: int) -> np.ndarray:
    """``SeedSequence(entropy=seed, spawn_key=(k,)).generate_state(4, np.uint64)``
    for k = first, ..., first + count - 1, as a (count, 4) uint64 array.

    The entropy words are the seed's two 32-bit halves padded with zeros to
    the pool size (the same four words whether the seed needs one or two),
    then k's low word and, when k >= 2^32, its high word.  The pool mixing
    of the seed words is the same for every k and runs on Python ints; the
    spawn-key words are mixed into all four pool words at once, for all k.
    """
    consts = iter(_MIX_ENTROPY)
    pool = [_hashmix(word, next(consts)) for word in (seed & _MASK32, seed >> 32, 0, 0)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(consts)))
    pool = np.array(pool, dtype=np.uint32)[:, None]
    k = np.uint64(first) + np.arange(count, dtype=np.uint64)
    low, high = (k & _MASK32).astype(np.uint32), (k >> 32).astype(np.uint32)
    pool = _mix(pool, _hashmix(low, _column_constants(_MIX_ENTROPY[16:20])))
    pool = np.where(high != 0, _mix(pool, _hashmix(high, _column_constants(_MIX_ENTROPY[20:24]))), pool)
    # generate_state cycles the pool into eight uint32 words, read in
    # little-endian pairs as four uint64 words.
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _column_constants(_GENERATE))
    return np.ascontiguousarray(state.T).view("<u8").astype(np.uint64, copy=False)


@functools.lru_cache(maxsize=4)
def _seed_block(seed: int, block: int) -> np.ndarray:
    """Seed words of batches block * SEED_BLOCK, ..., (block + 1) * SEED_BLOCK - 1.

    The hash costs about 0.1 ms per call whatever its length, so it runs
    over whole blocks, and the few blocks that the runs in flight read are
    kept (read-only) rather than hashed again for every run."""
    words = _seed_words(seed, block * SEED_BLOCK, SEED_BLOCK)
    words.setflags(write=False)
    return words


@dataclass(frozen=True)
class RandomSource:
    """Seed plus a frozen algorithm identifier for reproducible streams."""

    seed: int
    algorithm: str = ALGORITHM

    def __post_init__(self) -> None:
        if self.algorithm != ALGORITHM:
            raise ValueError(f"unsupported sample algorithm {self.algorithm!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")


def batch_streams(source: RandomSource, first: int, count: int) -> Iterator[np.random.PCG64]:
    """One PCG64, set in turn to the start of batches first, ..., first + count - 1.

    Each state is what ``PCG64(SeedSequence(entropy=seed, spawn_key=(k,)))``
    starts from: with seed words (s, q) as 128-bit ints, inc = 2q + 1 and
    state = ((inc + s) * M + inc) mod 2^128.  Read a batch's words before
    advancing to the next: the generator is reused.
    """
    bits = np.random.PCG64(0)  # every batch overwrites this state
    k, stop = first, first + count
    while k < stop:
        block, offset = divmod(k, SEED_BLOCK)
        words = _seed_block(source.seed, block)[offset : offset + stop - k]
        for s_hi, s_lo, q_hi, q_lo in words.tolist():
            inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
            state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
            bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
            yield bits
        k += len(words)


class Configuration:
    """Read-only ±1 values on the ball vertices."""

    def __init__(self, ball: Ball, values: np.ndarray):
        values = np.asarray(values, dtype=np.int8)
        if values.shape != (len(ball),):
            raise ValueError("values must cover every ball vertex")
        if not np.all(np.isin(values, (-1, 1))):
            raise ValueError("values must be -1 or +1")
        self.ball = ball
        self.values = values
        self.values.setflags(write=False)


def sample_batch(
    ball: Ball,
    source: RandomSource,
    batch: int,
    rows: int = BATCH_SIZE,
    columns: Sequence[int] | np.ndarray | None = None,
    run: int = 1,
) -> np.ndarray:
    """Rows of ±1 values, one per sample: int8, shape (run * rows, len(columns)).

    The first `rows` rows of batches batch, ..., batch + run - 1, stacked in
    batch order, restricted to the vertex columns listed (every vertex when
    None).  Coordinate i of a batch, counted row-major, is +1 when the top
    bit of byte i of the batch's raw PCG64 output (little-endian 64-bit
    words) is set and -1 otherwise; see the module docstring.  The bytes are
    read in order, so the first `rows` rows are those of the whole batch.
    Raw words are read in slices of whole rows within ``SLICE_BYTES``; only
    the listed columns of each slice are kept and converted."""
    width = len(ball)
    picked = np.arange(width) if columns is None else np.asarray(columns, dtype=np.intp)
    out = np.empty((run * rows, len(picked)), dtype=np.uint8)
    step = min(rows, max(8, SLICE_BYTES // (8 * width) * 8))  # 8 rows are whole words
    for i, bits in enumerate(batch_streams(source, batch, run)):
        for start in range(i * rows, (i + 1) * rows, step):
            stop = min(start + step, (i + 1) * rows)
            raw = bits.random_raw(-(-(stop - start) * width // 8)).astype("<u8", copy=False)
            block = raw.view(np.uint8)[: (stop - start) * width].reshape(-1, width)
            block.take(picked, axis=1, out=out[start:stop])
            del raw, block  # freed before the next slice is read
    out >>= 7
    values = out.view(np.int8)
    values *= 2  # in place: the gathered bytes are the one run-sized allocation
    values -= 1
    return values


def sample(ball: Ball, source: RandomSource) -> Configuration:
    return Configuration(ball, sample_batch(ball, source, 0, 1)[0])


def batches(
    ball: Ball,
    source: RandomSource,
    n: int,
    statistic: Callable[[np.ndarray], np.ndarray] | None = None,
    keep: Callable[[np.ndarray], np.ndarray] | None = None,
    workers: int = 1,
    columns: Sequence[int] | np.ndarray | None = None,
) -> Iterator[np.ndarray]:
    """Per-sample results of batches 0, 1, 2, ..., cut to the first n kept samples.

    Batches are drawn in runs of consecutive batches, one ``sample_batch``
    call per run, restricted to ``columns`` (every vertex when None); a
    run's rows take at most ``RUN_BYTES`` unless one batch alone takes more.
    ``keep`` maps a run's rows to a boolean
    mask, and ``statistic`` maps the kept rows to one result per row (the
    rows themselves when None); both see only the listed columns, in the
    order listed.  Without ``keep``, ``statistic`` sees the drawn array
    itself and only its output is cut.  A run is no longer than the batches
    still known to be needed, split over the workers; ``workers`` runs are
    in flight at a time, in a thread pool when there are more than one, and
    results are yielded in batch order either way, so they never depend on
    ``workers``.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    width = len(ball) if columns is None else len(columns)
    longest = max(1, RUN_BYTES // (BATCH_SIZE * width))

    def draw(span: tuple[int, int]) -> np.ndarray:
        first, count = span
        rows = sample_batch(ball, source, first, columns=columns, run=count)
        if keep is not None:
            rows = rows[keep(rows)]
        return rows if statistic is None else statistic(rows)

    if workers > 1:
        # Imported here so that a one-worker run never loads concurrent.futures.
        from concurrent.futures import ThreadPoolExecutor

        context = ThreadPoolExecutor(workers)
    else:
        context = nullcontext()
    total = first = 0
    with context as pool:
        apply = map if pool is None else pool.map
        while total < n:
            due = -(-(n - total) // BATCH_SIZE)  # batches that must still be drawn
            length = min(longest, -(-due // workers))
            spans = [(first + i * length, length) for i in range(min(workers, -(-due // length)))]
            for out in apply(draw, spans):
                out = out[: n - total]
                total += len(out)
                yield out
                if total == n:
                    break
            first += len(spans) * length


def histogram(
    ball: Ball,
    source: RandomSource,
    n: int,
    statistic: Callable[[np.ndarray], np.ndarray],
    minlength: int,
    keep: Callable[[np.ndarray], np.ndarray] | None = None,
    workers: int = 1,
    columns: Sequence[int] | np.ndarray | None = None,
) -> np.ndarray:
    """Counts of an integer per-sample statistic over the first n kept samples."""
    counts = np.zeros(minlength, dtype=np.int64)
    for values in batches(ball, source, n, statistic, keep, workers, columns):
        counts += np.bincount(values, minlength=minlength)
    return counts
