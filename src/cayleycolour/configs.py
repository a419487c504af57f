"""Truncated Bernoulli space over a Cayley ball.

A configuration assigns ±1 to every ball vertex.  Shifting by a group
element moves coordinates by right multiplication, so the action satisfies
(g.x)(w) = x(wg); coordinates whose preimage leaves the ball become
undefined (stored as 0) rather than silently defaulted.

Sampling is batched and seeded per batch.  One engine, ``batches``, walks
the batch indices: it draws batch k = 0, 1, 2, ..., optionally filters its
rows, applies a per-sample statistic and yields the results in batch order,
cut at exactly n kept samples.  Every sampler and estimator here and in
``arrows`` reads that one walk, so an estimate never depends on how many
workers draw the batches: one worker runs on the calling thread, more run in
a thread pool and are still consumed in index order.

The v1 stream (``pcg64-seedseq/batch1024/v1``): batch k is read from PCG64
seeded by ``SeedSequence(entropy=seed, spawn_key=(k,))``.  Its raw 64-bit
outputs are taken as little-endian bytes, and byte i gives coordinate i of
the batch, in row-major order over (row, vertex): +1 when the byte's top bit
is set, -1 otherwise.  This is the stream that
``Generator.integers(0, 2, size=(rows, |ball|), dtype=int8)`` draws: its
bounded uint8 draw maps a byte u to (2u) >> 8, the top bit, and rejects no
byte when the range is two values.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .groups import Ball, ReducedWord

ALGORITHM = "pcg64-seedseq/batch1024/v1"
BATCH_SIZE = 1024


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

    def batch_bits(self, batch: int) -> np.random.PCG64:
        """The bit generator whose raw output is batch `batch`."""
        return np.random.PCG64(np.random.SeedSequence(entropy=self.seed, spawn_key=(batch,)))


class Configuration:
    """±1 values on ball vertices; 0 marks an undefined coordinate."""

    def __init__(self, ball: Ball, values: np.ndarray):
        values = np.asarray(values, dtype=np.int8)
        if values.shape != (len(ball),):
            raise ValueError("values must cover every ball vertex")
        if not np.all(np.isin(values, (-1, 0, 1))):
            raise ValueError("values must be -1, 0 (undefined) or +1")
        self.ball = ball
        self.values = values
        self.values.setflags(write=False)

    @property
    def is_total(self) -> bool:
        return bool(np.all(self.values != 0))

    def defined_mask(self) -> np.ndarray:
        return self.values != 0

    def __getitem__(self, w: ReducedWord) -> int:
        v = int(self.values[self.ball.index_of(w)])
        if v == 0:
            raise ValueError(f"coordinate at {w} is undefined")
        return v

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self.ball is other.ball and np.array_equal(self.values, other.values)

    def __hash__(self):
        return hash((id(self.ball), self.values.tobytes()))


def sample_batch(ball: Ball, source: RandomSource, batch: int, rows: int = BATCH_SIZE) -> np.ndarray:
    """Rows of ±1 values, one per sample: int8, shape (rows, |ball|).

    Coordinate i, counted row-major, is +1 when the top bit of byte i of the
    batch's raw PCG64 output (little-endian 64-bit words) is set and -1
    otherwise; see the module docstring.  The bytes are read in order, so
    the first `rows` rows are those of the whole batch."""
    size = rows * len(ball)
    raw = source.batch_bits(batch).random_raw(-(-size // 8))
    bits = raw.astype("<u8", copy=False).view(np.uint8)[:size]
    bits >>= 7
    values = bits.view(np.int8).reshape(rows, len(ball))
    values *= 2  # in place: the raw words are the one batch-sized allocation
    values -= 1
    return values


def sample(ball: Ball, source: RandomSource, index: int = 0) -> Configuration:
    if index < 0:
        raise ValueError("sample index must be nonnegative")
    batch, row = divmod(index, BATCH_SIZE)
    return Configuration(ball, sample_batch(ball, source, batch, row + 1)[row])


def batches(
    ball: Ball,
    source: RandomSource,
    n: int,
    statistic: Callable[[np.ndarray], np.ndarray] | None = None,
    keep: Callable[[np.ndarray], np.ndarray] | None = None,
    workers: int = 1,
) -> Iterator[np.ndarray]:
    """Per-sample results of batches 0, 1, 2, ..., cut to the first n kept samples.

    Each batch is drawn by ``sample_batch``; ``keep`` maps its rows to a
    boolean mask, and ``statistic`` maps the kept rows to one result per row
    (the rows themselves when None).  Without ``keep``, ``statistic`` sees the
    drawn array itself and only its output is cut.  ``workers`` batches are
    in flight at a time, in a thread pool when there are more than one;
    results are yielded in batch order either way, so they never depend on
    ``workers``.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")

    def draw(batch: int) -> np.ndarray:
        rows = sample_batch(ball, source, batch)
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
            for out in apply(draw, range(first, first + workers)):
                out = out[: n - total]
                total += len(out)
                yield out
                if total == n:
                    break
            first += workers


def histogram(
    ball: Ball,
    source: RandomSource,
    n: int,
    statistic: Callable[[np.ndarray], np.ndarray],
    minlength: int,
    keep: Callable[[np.ndarray], np.ndarray] | None = None,
    workers: int = 1,
) -> np.ndarray:
    """Counts of an integer per-sample statistic over the first n kept samples."""
    counts = np.zeros(minlength, dtype=np.int64)
    for values in batches(ball, source, n, statistic, keep, workers):
        counts += np.bincount(values, minlength=minlength)
    return counts


def shift(x: Configuration, g: ReducedWord) -> Configuration:
    """(g.x)(w) = x(wg); coordinates pulled from outside the ball go undefined.

    Composition follows the left action law: shift(shift(x, g), h) matches
    shift(x, hg) wherever both are defined.
    """
    table = x.ball.right_table(g)
    out = np.where(table >= 0, x.values[np.maximum(table, 0)], 0).astype(np.int8)
    return Configuration(x.ball, out)


# A window predicate maps a value matrix (n_samples, |ball|) to a boolean
# row per sample, reading only coordinates within `window` of the root.
WindowPredicate = Callable[[np.ndarray, Ball], np.ndarray]


@dataclass(frozen=True)
class DensityEstimate:
    predicate: str
    n: int
    count: int
    estimate: float
    stderr: float
    seed: int
    algorithm: str = ALGORITHM

    def to_record(self) -> dict:
        return {
            "predicate": self.predicate,
            "n": self.n,
            "count": self.count,
            "estimate": self.estimate,
            "stderr": self.stderr,
            "seed": self.seed,
            "algorithm": self.algorithm,
        }


def empirical_density(
    predicate: WindowPredicate,
    ball: Ball,
    n: int,
    source: RandomSource,
    window: int = 0,
    name: str | None = None,
    workers: int = 1,
) -> DensityEstimate:
    """Monte Carlo frequency of a local event at the root.

    The result depends only on (seed, ball, n), never on `workers`.
    """
    if n <= 0:
        raise ValueError("need a positive sample count")
    if window > ball.radius:
        raise ValueError(f"window {window} exceeds ball radius {ball.radius}")

    def hits(rows: np.ndarray) -> np.ndarray:
        return np.asarray(predicate(rows, ball), dtype=bool)

    count = int(histogram(ball, source, n, hits, 2, workers=workers)[1])
    p = count / n
    return DensityEstimate(
        predicate=name or getattr(predicate, "__name__", "predicate"),
        n=n,
        count=count,
        estimate=p,
        stderr=math.sqrt(p * (1 - p) / n),
        seed=source.seed,
    )


def empirical_covariance(
    pred_a: WindowPredicate,
    pred_b: WindowPredicate,
    ball: Ball,
    n: int,
    source: RandomSource,
) -> float:
    """Sample covariance of two ±1 window observables (predicates as indicators)."""

    def joint(rows: np.ndarray) -> np.ndarray:
        a = np.asarray(pred_a(rows, ball), dtype=np.int8)
        return a + 2 * np.asarray(pred_b(rows, ball), dtype=np.int8)

    _, only_a, only_b, both = (int(c) for c in histogram(ball, source, n, joint, 4))
    return both / n - ((only_a + both) / n) * ((only_b + both) / n)
