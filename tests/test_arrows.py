import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cayleycolour.arrows import (
    ARROW_COLOURS,
    arrow_field,
    arrow_rule,
    candidate_arrays,
    constructive_solve,
    incoming_counts,
    mass_audit,
    neighbour_tables,
    pdegree_histogram,
    pdegree_profile,
)
from cayleycolour.configs import BATCH_SIZE, RUN_BYTES, Configuration, RandomSource, histogram, sample
from cayleycolour.groups import ball, free_group, z2_z3
from cayleycolour.measures import replay_refutation
from cayleycolour.rules import RANK_ONE, Colouring, check, classify_rank, rule_to_json

from helpers import word_lengths

F2 = free_group(2)


def small_ball(radius=4):
    return ball(F2, radius)


def solved(radius=4, seed=7):
    b = small_ball(radius)
    config = sample(b, RandomSource(seed))
    return config, constructive_solve(config)


def test_rule_is_rank_one():
    assert classify_rank(arrow_rule()) == RANK_ONE


def test_compiled_rule_is_pinned():
    # The rule's compiled table, which the in-pointing signs determine.
    digest = hashlib.sha256(rule_to_json(arrow_rule()).encode()).hexdigest()
    assert digest == "e52a619c733c541a9447470f57903e23909f4195ac91082b4641efd416969b9c"


def test_rule_rejects_torsion_group():
    with pytest.raises(ValueError):
        arrow_rule(z2_z3())


def test_both_candidates_uncrowded_leaves_active_free():
    rule = arrow_rule()
    out = rule.allowed_fn((1, 1, 1, 1, 1), ("a1u", "a1u", "a1u", "a1u"))
    assert {c[:2] for c in out} == {"a1", "a2"}


def test_one_crowded_candidate_forces_the_other():
    rule = arrow_rule()
    # sign +1: candidates are the T1 and T2 descendants (slots 0 and 2)
    out = rule.allowed_fn((1, 1, 1, 1, 1), ("a1c", "a1u", "a1u", "a1u"))
    assert {c[:2] for c in out} == {"a2"}
    out = rule.allowed_fn((1, 1, 1, 1, 1), ("a1u", "a1u", "a2c", "a1u"))
    assert {c[:2] for c in out} == {"a1"}


def test_negative_sign_reads_inverse_candidates():
    rule = arrow_rule()
    out = rule.allowed_fn((-1, 1, 1, 1, 1), ("a1u", "a1c", "a1u", "a2u"))
    # candidates are now slots 1 and 3: one crowded, so point at slot 3
    assert {c[:2] for c in out} == {"a2"}


def test_two_incoming_arrows_force_crowded():
    rule = arrow_rule()
    # T1-neighbour aims here iff its sign is -1 and its active part is 1;
    # T2-neighbour iff its sign is -1 and its active part is 2.
    out = rule.allowed_fn((1, -1, -1, -1, -1), ("a1u", "a2u", "a2u", "a1u"))
    assert out and all(c[2] == "c" for c in out)


def test_zero_incoming_forces_uncrowded():
    rule = arrow_rule()
    out = rule.allowed_fn((1, 1, -1, 1, -1), ("a1u", "a1u", "a2u", "a2u"))
    assert out and all(c[2] == "u" for c in out)


def test_candidates_follow_sign_bit():
    b = small_ball()
    values = np.ones(len(b), dtype=np.int8)
    config = Configuration(b, values)
    t1, u1, t2, u2 = neighbour_tables(b)
    z1, z2 = candidate_arrays(config, np.array([0]))
    assert (z1[0], z2[0]) == (t1[0], t2[0])
    flipped = values.copy()
    flipped[0] = -1
    config = Configuration(b, flipped)
    z1, z2 = candidate_arrays(config, np.array([0]))
    assert (z1[0], z2[0]) == (u1[0], u2[0])


def test_candidates_boundary_error():
    b = small_ball()
    config = sample(b, RandomSource(3))
    edge = int(np.flatnonzero(word_lengths(b) == b.radius)[0])
    with pytest.raises(ValueError):
        candidate_arrays(config, np.array([edge]))


def test_pdegree_matches_candidate_membership():
    # The p-degree of w counts the neighbours that list w as a candidate.
    b = small_ball(6)
    config = sample(b, RandomSource(11))
    interior = np.arange(b.interior_size(2))
    neighbours = np.stack([table[interior] for table in neighbour_tables(b)], axis=1)
    z1, z2 = candidate_arrays(config, neighbours.ravel())
    centre = np.repeat(interior, 4)
    expected = ((z1 == centre) | (z2 == centre)).reshape(-1, 4).sum(axis=1)
    assert set(expected) == {0, 1, 2, 3, 4}
    assert np.array_equal(pdegree_profile(b, config.values[None, :], interior)[0], expected)


def test_pdegree_binomial_law():
    b = small_ball(3)
    n = 100_000
    report = pdegree_histogram(b, RandomSource(2024), n)
    assert sum(report.histogram) == n
    for d in range(5):
        expected = n * math.comb(4, d) / 16
        sigma = math.sqrt(n * (math.comb(4, d) / 16) * (1 - math.comb(4, d) / 16))
        assert abs(report.histogram[d] - expected) <= 3 * sigma
    assert abs(report.fraction(0) - Fraction(1, 16)) <= Fraction(1, 100)


def test_neighbour_bits_independent_fair_coins():
    b = small_ball(3)
    t1, u1, t2, u2 = neighbour_tables(b)
    idx = [int(t1[0]), int(u1[0]), int(t2[0]), int(u2[0])]

    def code(values):
        return (values[:, idx] > 0).astype(np.int64) @ np.array([8, 4, 2, 1])

    n = 100_000
    cells = histogram(b, RandomSource(515), n, code, 16)
    chi2 = float(((cells - n / 16) ** 2 / (n / 16)).sum())
    assert stats.chi2.sf(chi2, df=15) > 0.001


def test_conditional_pdegree_three_eighths_and_one_eighth():
    b = small_ball(3)
    n = 100_000
    report = pdegree_histogram(b, RandomSource(99), n, conditional=True)
    assert sum(report.histogram) == n
    assert abs(report.fraction(3) - Fraction(3, 8)) < Fraction(15, 1000)
    assert abs(report.fraction(4) - Fraction(1, 8)) < Fraction(15, 1000)
    # conditioning forces at least one potential in-pointer
    assert report.histogram[0] == 0


# Batches per run when only the root's four neighbour columns are drawn.
ROOT_RUN = RUN_BYTES // (BATCH_SIZE * 4)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize(
    "n",
    [2500, 3 * ROOT_RUN * BATCH_SIZE, 5 * ROOT_RUN * BATCH_SIZE + 700],
    ids=["mid_batch", "run_boundary", "several_runs"],
)
def test_root_histograms_match_pdegree_profile(n, workers):
    # The histograms draw only the root's four neighbour columns, in runs
    # of batches; they must count what pdegree_profile gives at the root on
    # whole batches, sample by sample.  n = 3 runs ends on a run boundary
    # for 1, 2 and 3 workers alike; the plain reference draws all columns,
    # so its runs are shorter.
    b = small_ball(2)
    source = RandomSource(31)
    j = int(neighbour_tables(b)[0][0])

    def at_root(rows):
        return pdegree_profile(b, rows, np.array([0]))[:, 0]

    plain = histogram(b, source, n, at_root, 5)
    assert pdegree_histogram(b, source, n, workers=workers).histogram == tuple(plain)
    conditioned = histogram(b, source, n, at_root, 5, keep=lambda rows: rows[:, j] == -1)
    assert pdegree_histogram(b, source, n, conditional=True, workers=workers).histogram == tuple(conditioned)


def test_constructive_solution_satisfies_rule():
    config, colouring = solved()
    report = check(arrow_rule(), colouring)
    assert report.satisfied


def test_constructive_targets_strictly_longer():
    config, colouring = solved()
    targets = arrow_field(colouring)
    b = colouring.ball
    defined = np.flatnonzero(targets >= 0)
    assert len(defined) > 0
    lengths = word_lengths(b)
    assert np.all(lengths[targets[defined]] == lengths[defined] + 1)


@settings(max_examples=40, deadline=None)
@given(radius=st.integers(3, 8), seed=st.integers(0, 2**32 - 1))
def test_constructive_longer_first_candidate_matches_the_tables(radius, seed):
    """The solve reads which first candidate is longer off `Ball.first`
    alone, building no table; the unit tables agree on every vertex
    it colours: a1 exactly where that candidate is longer."""
    b = ball(F2, radius)
    values = np.random.default_rng(seed).choice(np.array([-1, 1], dtype=np.int8), len(b))
    codes = constructive_solve(Configuration(b, values)).codes
    assert not b._left
    n = b.interior_size(1)
    t1, u1, _, _ = neighbour_tables(b)
    first = np.where(values[:n] == 1, t1[:n], u1[:n])
    lengths = word_lengths(b)
    longer = lengths[first] > lengths[:n]
    assert np.array_equal(codes[:n] == ARROW_COLOURS.index("a1u"), longer)
    assert np.all(codes[:n] >= 0) and np.all(codes[n:] == -1)


def test_constructive_no_crowding():
    config, colouring = solved()
    incoming = incoming_counts(arrow_field(colouring))
    assert int(incoming[: colouring.ball.interior_size(2)].max()) <= 1


def test_mass_audit_verified_and_infeasible():
    config, colouring = solved(radius=5)
    audit = mass_audit(colouring)
    assert audit.certificate.verified
    assert audit.outflow_per_vertex == 1
    assert audit.outflow_total == audit.interior_size
    assert audit.feasibility is not None and not audit.feasibility.feasible
    ref = audit.feasibility.refutation
    assert ref.display == "1 <= 15/16"
    assert ref.gap == Fraction(1, 16)
    assert replay_refutation(audit.program, ref)


def test_mass_audit_needs_the_sign_bits():
    config, colouring = solved(radius=5)
    bare = Colouring(colouring.ball, ARROW_COLOURS, colouring.codes)
    with pytest.raises(ValueError, match="sign bits"):
        mass_audit(bare)


def test_mass_audit_capacity_near_fifteen_sixteenths():
    config, colouring = solved(radius=6, seed=21)
    audit = mass_audit(colouring)
    assert abs(audit.in_capacity_estimate - Fraction(15, 16)) < Fraction(5, 100)
    assert audit.crowded_fraction == 0


def test_mass_audit_detects_crowding():
    config, colouring = solved()
    b = colouring.ball
    # find an interior vertex with an incoming arrow and aim a second one at it
    incoming = incoming_counts(arrow_field(colouring))
    victim = next(int(w) for w in np.flatnonzero(incoming == 1) if w < b.interior_size(2))
    broken = colouring.copy()
    t1, u1, t2, u2 = neighbour_tables(b)
    senders = {int(t1[victim]): (-1, 1), int(u1[victim]): (1, 1), int(t2[victim]): (-1, 2), int(u2[victim]): (1, 2)}
    for sender, (need_sign, active) in senders.items():
        here = arrow_field(broken)[sender] == victim
        if not here and config.values[sender] == need_sign:
            broken.codes[sender] = ARROW_COLOURS.index(f"a{active}u")
            break
    audit = mass_audit(broken)
    assert audit.crowded_fraction > 0
    assert not audit.certificate.verified
    assert audit.feasibility is None
    assert audit.certificate.first_failure is not None
