import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cayleycolour import configs
from cayleycolour.configs import (
    BATCH_SIZE,
    Configuration,
    RandomSource,
    batch_streams,
    histogram,
    sample,
    sample_batch,
)
from cayleycolour.groups import ball, free_group, z2_z3

F2 = free_group(2)

# Frozen output of sample(ball(F2, 2), RandomSource(42)); guards the
# sampling algorithm against silent change.
GOLDEN_SEED42_R2 = [-1, 1, -1, -1, 1, 1, 1, 1, 1, -1, 1, 1, -1, -1, -1, 1, 1]


def test_golden_sample():
    b = ball(F2, 2)
    x = sample(b, RandomSource(42))
    assert list(x.values) == GOLDEN_SEED42_R2


def test_sampling_deterministic():
    b = ball(F2, 3)
    a = sample(b, RandomSource(7))
    c = sample(b, RandomSource(7))
    assert np.array_equal(a.values, c.values)
    assert not np.array_equal(a.values, sample(b, RandomSource(8)).values)


def test_sample_values_are_pm1():
    b = ball(F2, 2)
    block = sample_batch(b, RandomSource(1), 0)
    assert block.shape == (BATCH_SIZE, len(b))
    assert set(np.unique(block)) == {-1, 1}


def generator_rows(seed, batch, rows, width):
    """The batch as `Generator.integers` draws it, mapped to ±1."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(batch,))
    bits = np.random.Generator(np.random.PCG64(ss)).integers(0, 2, size=(rows, width), dtype=np.int8)
    return bits * 2 - 1


def with_seeding_examples(test):
    """Seeds and batch indices at the 32-bit word boundaries of the
    SeedSequence entropy: 2^32 and up take two words, and k >= 2^32 gives
    a two-word spawn key."""
    for seed in (0, 2**32 - 1, 2**32, 2**64 - 1):
        for first in (0, 2**32 - 1, 2**32):
            test = example(seed=seed, first=first, count=3)(test)
    return test


@settings(max_examples=60, deadline=None)
@with_seeding_examples
@example(seed=5, first=configs.SEED_BLOCK - 1, count=3)
@given(seed=st.integers(0, 2**64 - 1), first=st.integers(0, 2**64 - 1), count=st.integers(1, 3))
def test_bulk_seeding_replays_seed_sequence(seed, first, count):
    # The seeds are hashed over whole blocks of batch indices and set on one
    # reused PCG64; each batch must read what a PCG64 built from its own
    # SeedSequence reads.  count may cross a block boundary.
    first = min(first, 2**64 - count)
    streams = batch_streams(RandomSource(seed), first, count)
    for k, bits in zip(range(first, first + count), streams, strict=True):
        own = np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
        assert np.array_equal(bits.random_raw(9), own.random_raw(9))


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    torsion=st.booleans(),
    radius=st.integers(0, 4),
    seed=st.integers(0, 2**64 - 1),
    batch=st.integers(0, 2**32 - 1),
    rows=st.integers(1, BATCH_SIZE),
)
def test_sample_batch_replays_generator_integers(data, torsion, radius, seed, batch, rows):
    # sample_batch reads the top bit of each raw byte; this pins that to the
    # numpy draw it replaces, so a numpy change fails here instead of
    # silently changing every sampled record.  A column subset (in any
    # order, repeats allowed) is the same columns of the whole draw.
    b = ball(z2_z3() if torsion else F2, radius)
    expected = generator_rows(seed, batch, rows, len(b))
    drawn = sample_batch(b, RandomSource(seed), batch, rows)
    assert drawn.dtype == np.int8
    assert np.array_equal(drawn, expected)
    columns = data.draw(st.lists(st.integers(0, len(b) - 1), max_size=6), label="columns")
    picked = sample_batch(b, RandomSource(seed), batch, rows, columns=columns)
    assert picked.dtype == np.int8
    assert np.array_equal(picked, expected[:, columns])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), batch=st.integers(0, 2**32), run=st.integers(1, 4), rows=st.integers(1, 40))
def test_sample_batch_run_stacks_batches(seed, batch, run, rows):
    # A run is its batches' rows stacked in batch order.
    b = ball(F2, 2)
    drawn = sample_batch(b, RandomSource(seed), batch, rows, columns=[4, 0], run=run)
    expected = np.concatenate([generator_rows(seed, batch + i, rows, len(b)) for i in range(run)])
    assert np.array_equal(drawn, expected[:, [4, 0]])


@pytest.mark.parametrize("rows", [1, 7, 8, 9, 16, 23, 40])
def test_sample_batch_slices_are_invisible(monkeypatch, rows):
    # With a slice budget below one row, each raw read is the minimum of
    # 8 rows; the slices must join into the batch's stream.
    monkeypatch.setattr(configs, "SLICE_BYTES", 1)
    for p, radius in ((F2, 1), (z2_z3(), 3)):
        b = ball(p, radius)
        expected = generator_rows(7, 5, rows, len(b))
        assert np.array_equal(sample_batch(b, RandomSource(7), 5, rows), expected)
        assert np.array_equal(sample_batch(b, RandomSource(7), 5, rows, columns=[2, 1]), expected[:, [2, 1]])


@pytest.mark.parametrize("rows", range(1, 9))
def test_sample_batch_stream_every_tail_length(rows):
    # rows * 5 runs through every residue mod 8, so the last raw word is
    # read with 0 to 7 bytes left over; widths 14 and 8 (Z2*Z3) are even.
    seed = 2**64 - 1
    for p, radius in ((F2, 1), (z2_z3(), 3), (z2_z3(), 2)):
        b = ball(p, radius)
        assert np.array_equal(sample_batch(b, RandomSource(seed), 3, rows), generator_rows(seed, 3, rows, len(b)))


def test_configuration_validation():
    b = ball(F2, 1)
    with pytest.raises(ValueError):
        Configuration(b, np.zeros(3, dtype=np.int8))
    with pytest.raises(ValueError):
        Configuration(b, np.full(len(b), 2, dtype=np.int8))
    # There is no undefined coordinate: a configuration is a ±1 sample.
    with pytest.raises(ValueError):
        Configuration(b, np.zeros(len(b), dtype=np.int8))


def test_coordinate_access():
    b = ball(F2, 2)
    x = sample(b, RandomSource(42))
    assert x.values[b.words.index(F2.identity())] == GOLDEN_SEED42_R2[0]
    assert x.values[b.words.index(F2.word("a"))] == GOLDEN_SEED42_R2[1]


def test_mean_and_covariance_near_zero():
    # Joint histogram of the root and a-coordinates being +1: cell
    # root + 2 * a, so cells 1 and 3 hold the root's +1s, 2 and 3 a's.
    b = ball(F2, 1)
    n = 100_000
    i_a = b.words.index(F2.word("a"))

    def joint(rows):
        return (rows[:, 0] == 1) + 2 * (rows[:, i_a] == 1)

    _, only_root, only_a, both = histogram(b, RandomSource(2024), n, joint, 4) / n
    p = only_root + both
    assert abs(p - 0.5) <= 3 * math.sqrt(p * (1 - p) / n)
    assert abs(both - p * (only_a + both)) <= 0.02


def reference_rows(b, source, n, keep):
    """The first n kept rows, drawn batch by batch without the engine."""
    kept, batch = [], 0
    while sum(len(rows) for rows in kept) < n:
        rows = sample_batch(b, source, batch)
        kept.append(rows if keep is None else rows[keep(rows)])
        batch += 1
    return np.concatenate(kept)[:n]


def row_code(rows):
    """Each row's +1 columns as the bits of one integer: distinct rows get
    distinct codes, so counts of codes are the multiset of rows."""
    return (rows == 1).astype(np.int64) @ (1 << np.arange(rows.shape[1]))


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 40_000),
    workers=st.integers(1, 4),
    conditioned=st.booleans(),
    gathered=st.booleans(),
    seed=st.integers(0, 2**64 - 1),
)
def test_engine_matches_reference_loop(n, workers, conditioned, gathered, seed):
    # The engine draws runs of batches; the reference draws one whole batch
    # at a time.  With columns, keep and statistic see only those columns,
    # in the order listed: column 3 of the ball is column 0 of the gathered
    # rows.  The statistic tells every row apart, so the counts match only
    # if the engine counted exactly the first n kept rows.
    b = ball(F2, 1)
    source = RandomSource(seed)
    columns = [3, 0, 2, 1] if gathered else None
    column = 0 if gathered else 3
    keep = (lambda rows: rows[:, column] == -1) if conditioned else None
    expected = reference_rows(b, source, n, (lambda rows: rows[:, 3] == -1) if conditioned else None)
    if gathered:
        expected = expected[:, columns]
    cells = 2 ** expected.shape[1]
    counts = histogram(b, source, n, row_code, cells, keep, workers, columns)
    assert np.array_equal(counts, np.bincount(row_code(expected), minlength=cells))


def test_engine_rejects_zero_workers():
    with pytest.raises(ValueError):
        histogram(ball(F2, 1), RandomSource(1), 10, row_code, 32, workers=0)


def test_shift_preserves_density():
    # Radius-1 window predicate density is shift invariant up to noise.
    b = ball(F2, 2)
    src = RandomSource(77)
    n = 100_000
    i_a = b.words.index(F2.word("a"))

    def pred(block):
        return (block[:, 0] == 1) & (block[:, i_a] == -1)

    table = b.right_table(F2.word("b"))

    def pred_shifted(block):
        return pred(block[:, np.maximum(table, 0)])

    d0, d1 = (histogram(b, src, n, p, 2)[1] / n for p in (pred, pred_shifted))
    sigma = max(math.sqrt(d * (1 - d) / n) for d in (d0, d1))
    assert abs(d0 - d1) <= 4 * sigma


def test_random_source_rejects_unknown_algorithm():
    with pytest.raises(ValueError):
        RandomSource(1, algorithm="mt19937/v0")
