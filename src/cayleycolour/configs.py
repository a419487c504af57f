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
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import IO, Callable, Iterator

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

    def batch_rng(self, batch: int) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(batch,))
        return np.random.Generator(np.random.PCG64(ss))


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

    def write_csv(self, fileobj: IO[str]) -> None:
        writer = csv.writer(fileobj)
        writer.writerow(["word", "value"])
        for i, w in enumerate(self.ball.words):
            if self.values[i] != 0:
                writer.writerow([w.to_string(), int(self.values[i])])


def sample_batch(ball: Ball, source: RandomSource, batch: int, rows: int = BATCH_SIZE) -> np.ndarray:
    """Rows of ±1 values, one per sample; the first `rows` of the batch, since
    PCG64 fills rows in order.  int8, shape (rows, |ball|)."""
    rng = source.batch_rng(batch)
    values = rng.integers(0, 2, size=(rows, len(ball)), dtype=np.int8)
    values *= 2  # in place: one batch-sized allocation per draw
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

    total = first = 0
    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
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


def sample_stream(ball: Ball, source: RandomSource, n: int) -> Iterator[Configuration]:
    for rows in batches(ball, source, n):
        for row in rows:
            yield Configuration(ball, row)


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
