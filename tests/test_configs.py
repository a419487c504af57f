import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleycolour.configs import (
    BATCH_SIZE,
    Configuration,
    RandomSource,
    batches,
    empirical_covariance,
    empirical_density,
    histogram,
    sample,
    sample_batch,
    shift,
)
from cayleycolour.groups import ball, free_group, reduce_letters, z2_z3

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
    a = sample(b, RandomSource(7), index=5)
    c = sample(b, RandomSource(7), index=5)
    assert a == c
    assert a != sample(b, RandomSource(8), index=5)


def test_sample_values_are_pm1():
    b = ball(F2, 2)
    block = sample_batch(b, RandomSource(1), 0)
    assert block.shape == (BATCH_SIZE, len(b))
    assert set(np.unique(block)) == {-1, 1}


def test_configuration_validation():
    b = ball(F2, 1)
    with pytest.raises(ValueError):
        Configuration(b, np.zeros(3, dtype=np.int8))
    with pytest.raises(ValueError):
        Configuration(b, np.full(len(b), 2, dtype=np.int8))


def test_coordinate_access():
    b = ball(F2, 2)
    x = sample(b, RandomSource(42))
    assert x[F2.identity()] == GOLDEN_SEED42_R2[0]
    assert x[F2.word("a")] == GOLDEN_SEED42_R2[1]


@pytest.mark.parametrize("index", [0, 1, 1023, 1024, 2500])
def test_sample_is_its_batch_row(index):
    # sample draws only the rows up to its own; they are a prefix of the batch.
    b = ball(F2, 3)
    src = RandomSource(17)
    batch = sample_batch(b, src, index // BATCH_SIZE)
    assert np.array_equal(sample(b, src, index).values, batch[index % BATCH_SIZE])


def test_shift_identity():
    b = ball(F2, 2)
    x = sample(b, RandomSource(3))
    assert shift(x, F2.identity()) == x


def test_shift_definition_instance():
    # (T1.x)(e) = x(T1) with T1 the first generator.
    b = ball(F2, 2)
    x = sample(b, RandomSource(11))
    t1 = F2.word("a")
    y = shift(x, t1)
    assert y[F2.identity()] == x[t1]


def test_shift_marks_out_of_ball_undefined():
    b = ball(F2, 2)
    x = sample(b, RandomSource(4))
    y = shift(x, F2.word("a"))
    # w = aa pulls from aaa, outside radius 2.
    assert y.values[b.index_of(F2.word("aa"))] == 0
    with pytest.raises(ValueError):
        y[F2.word("aa")]
    assert not y.is_total


def test_shift_composition_law():
    # Left action: shift(shift(x, g), h) = shift(x, hg) on the common domain.
    b = ball(F2, 4)
    words2 = [w for w in b.words if w.length <= 2]
    x = sample(b, RandomSource(9))
    for g in words2:
        for h in words2:
            two = shift(shift(x, g), h)
            one = shift(x, h * g)
            both = two.defined_mask() & one.defined_mask()
            assert np.array_equal(two.values[both], one.values[both])
            # The two-step domain never exceeds the one-step domain.
            assert not np.any(two.defined_mask() & ~one.defined_mask())


def test_mean_and_covariance_near_zero():
    b = ball(F2, 1)
    src = RandomSource(2024)

    def root_is_one(block, _ball):
        return block[:, 0] == 1

    est = empirical_density(root_is_one, b, 100_000, src)
    assert abs(est.estimate - 0.5) <= 3 * est.stderr

    i_a = b.index_of(F2.word("a"))

    def a_is_one(block, _ball):
        return block[:, i_a] == 1

    cov = empirical_covariance(root_is_one, a_is_one, b, 100_000, src)
    assert abs(cov) <= 0.02


def test_density_worker_invariance():
    b = ball(F2, 1)

    def root_is_one(block, _ball):
        return block[:, 0] == 1

    runs = [
        empirical_density(root_is_one, b, 5000, RandomSource(5), workers=w) for w in (1, 2, 4)
    ]
    assert runs[0].count == runs[1].count == runs[2].count


def reference_rows(b, source, n, keep):
    """The first n kept rows, drawn batch by batch without the engine."""
    kept, batch = [], 0
    while sum(len(rows) for rows in kept) < n:
        rows = sample_batch(b, source, batch)
        kept.append(rows if keep is None else rows[keep(rows)])
        batch += 1
    return np.concatenate(kept)[:n]


def root_code(rows):
    return (rows[:, :3] == 1).astype(np.int64) @ np.array([4, 2, 1])


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 5000),
    workers=st.integers(1, 4),
    conditioned=st.booleans(),
    seed=st.integers(0, 2**64 - 1),
)
def test_engine_matches_reference_loop(n, workers, conditioned, seed):
    b = ball(F2, 1)
    source = RandomSource(seed)
    keep = (lambda rows: rows[:, 3] == -1) if conditioned else None
    expected = reference_rows(b, source, n, keep)
    drawn = np.concatenate(list(batches(b, source, n, keep=keep, workers=workers)))
    assert np.array_equal(drawn, expected)
    counts = histogram(b, source, n, root_code, 8, keep, workers)
    assert np.array_equal(counts, np.bincount(root_code(expected), minlength=8))


def test_engine_rejects_zero_workers():
    with pytest.raises(ValueError):
        next(batches(ball(F2, 1), RandomSource(1), 10, workers=0))


def test_density_window_check():
    b = ball(F2, 1)
    with pytest.raises(ValueError):
        empirical_density(lambda m, _b: m[:, 0] == 1, b, 10, RandomSource(1), window=2)


def test_shift_preserves_density():
    # Radius-1 window predicate density is shift invariant up to noise.
    b = ball(F2, 2)
    src = RandomSource(77)
    n = 100_000
    i_a = b.index_of(F2.word("a"))

    def pred(block, _ball):
        return (block[:, 0] == 1) & (block[:, i_a] == -1)

    table = b.right_table(F2.word("b"))

    def pred_shifted(block, _ball):
        moved = block[:, np.maximum(table, 0)]
        return (moved[:, 0] == 1) & (moved[:, i_a] == -1)

    d0 = empirical_density(pred, b, n, src)
    d1 = empirical_density(pred_shifted, b, n, src)
    sigma = max(d0.stderr, d1.stderr)
    assert abs(d0.estimate - d1.estimate) <= 4 * sigma


def test_csv_export():
    b = ball(F2, 1)
    x = sample(b, RandomSource(42))
    buf = io.StringIO()
    x.write_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "word,value"
    assert len(lines) == len(b) + 1


def test_random_source_rejects_unknown_algorithm():
    with pytest.raises(ValueError):
        RandomSource(1, algorithm="mt19937/v0")


def test_density_record_fields():
    b = ball(F2, 1)
    est = empirical_density(lambda m, _b: m[:, 0] == 1, b, 1000, RandomSource(6), name="root+")
    rec = est.to_record()
    assert rec["predicate"] == "root+"
    assert rec["n"] == 1000
    assert rec["seed"] == 6
    assert rec["algorithm"].startswith("pcg64")


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    torsion=st.booleans(),
    radius=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
    holes=st.sampled_from([0.0, 0.1]),
)
def test_shift_action_law_random(data, torsion, radius, seed, holes):
    # shift(shift(x, g), h) = shift(x, hg) wherever both are defined, and the
    # two-step domain lies inside the one-step domain.
    p = z2_z3() if torsion else F2
    letters = st.lists(st.tuples(st.integers(0, 1), st.integers(-3, 3)), max_size=4)
    g, h = (reduce_letters(data.draw(letters), p) for _ in range(2))
    b = ball(p, radius)
    rng = np.random.default_rng(seed)
    values = rng.choice(np.array([-1, 1], dtype=np.int8), size=len(b))
    values[rng.random(len(b)) < holes] = 0
    x = Configuration(b, values)
    two = shift(shift(x, g), h)
    one = shift(x, h * g)
    both = two.defined_mask() & one.defined_mask()
    assert np.array_equal(two.values[both], one.values[both])
    assert not np.any(two.defined_mask() & ~one.defined_mask())
