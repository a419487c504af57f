import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from cayleycolour.arrows import (
    ARROW_COLOURS,
    arrow_field,
    arrow_rule,
    candidates,
    chain_recursion,
    conditional_pdegree,
    constructive_solve,
    incoming_counts,
    mass_audit,
    neighbour_tables,
    pdegree,
    pdegree_histogram,
    pdegree_profile,
    survival_map,
)
from cayleycolour.configs import Configuration, RandomSource, histogram, sample
from cayleycolour.groups import ball, free_group, z2_z3
from cayleycolour.measures import replay_refutation
from cayleycolour.rules import RANK_ONE, Colouring, check, classify_rank

F2 = free_group(2)


def small_ball(radius=4):
    return ball(F2, radius)


def solved(radius=4, seed=7):
    b = small_ball(radius)
    config = sample(b, RandomSource(seed))
    return config, constructive_solve(config)


def test_rule_is_rank_one():
    assert classify_rank(arrow_rule()) == RANK_ONE


def test_rule_rejects_torsion_group():
    with pytest.raises(ValueError):
        arrow_rule(z2_z3())


def test_both_candidates_uncrowded_leaves_active_free():
    rule = arrow_rule()
    out = rule.allowed((1, 1, 1, 1, 1), ("a1u", "a1u", "a1u", "a1u"))
    assert {c[:2] for c in out} == {"a1", "a2"}


def test_one_crowded_candidate_forces_the_other():
    rule = arrow_rule()
    # sign +1: candidates are the T1 and T2 descendants (slots 0 and 2)
    out = rule.allowed((1, 1, 1, 1, 1), ("a1c", "a1u", "a1u", "a1u"))
    assert {c[:2] for c in out} == {"a2"}
    out = rule.allowed((1, 1, 1, 1, 1), ("a1u", "a1u", "a2c", "a1u"))
    assert {c[:2] for c in out} == {"a1"}


def test_negative_sign_reads_inverse_candidates():
    rule = arrow_rule()
    out = rule.allowed((-1, 1, 1, 1, 1), ("a1u", "a1c", "a1u", "a2u"))
    # candidates are now slots 1 and 3: one crowded, so point at slot 3
    assert {c[:2] for c in out} == {"a2"}


def test_two_incoming_arrows_force_crowded():
    rule = arrow_rule()
    # T1-neighbour aims here iff its sign is -1 and its active part is 1;
    # T2-neighbour iff its sign is -1 and its active part is 2.
    out = rule.allowed((1, -1, -1, -1, -1), ("a1u", "a2u", "a2u", "a1u"))
    assert out and all(c[2] == "c" for c in out)


def test_zero_incoming_forces_uncrowded():
    rule = arrow_rule()
    out = rule.allowed((1, 1, -1, 1, -1), ("a1u", "a1u", "a2u", "a2u"))
    assert out and all(c[2] == "u" for c in out)


def test_candidates_follow_sign_bit():
    b = small_ball()
    values = np.ones(len(b), dtype=np.int8)
    config = Configuration(b, values)
    t1, u1, t2, u2 = neighbour_tables(b)
    assert candidates(config, 0) == (int(t1[0]), int(t2[0]))
    flipped = values.copy()
    flipped[0] = -1
    config = Configuration(b, flipped)
    assert candidates(config, 0) == (int(u1[0]), int(u2[0]))


def test_candidates_boundary_error():
    b = small_ball()
    config = sample(b, RandomSource(3))
    edge = int(np.flatnonzero(b.lengths == b.radius)[0])
    with pytest.raises(ValueError):
        candidates(config, edge)


def test_pdegree_matches_candidate_membership():
    b = small_ball()
    config = sample(b, RandomSource(11))
    t1, u1, t2, u2 = neighbour_tables(b)
    for w in b.interior_indices(2)[:40]:
        w = int(w)
        expected = 0
        for nb in (t1[w], u1[w], t2[w], u2[w]):
            if w in candidates(config, int(nb)):
                expected += 1
        assert pdegree(config, w) == expected


def test_pdegree_profile_matches_scalar():
    b = small_ball()
    config = sample(b, RandomSource(13))
    interior = b.interior_indices(1)
    batch = pdegree_profile(b, config.values[None, :], interior)[0]
    for slot, w in enumerate(interior[:60]):
        assert batch[slot] == pdegree(config, int(w))


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
    report = conditional_pdegree(b, RandomSource(99), n)
    assert sum(report.histogram) == n
    assert abs(report.fraction(3) - Fraction(3, 8)) < Fraction(15, 1000)
    assert abs(report.fraction(4) - Fraction(1, 8)) < Fraction(15, 1000)
    # conditioning forces at least one potential in-pointer
    assert report.histogram[0] == 0


@pytest.mark.parametrize("workers", [1, 2])
def test_root_histograms_match_pdegree_profile(workers):
    # The histograms read the root's four neighbour columns directly; they
    # must count what pdegree_profile gives at the root, sample by sample.
    b = small_ball(2)
    source = RandomSource(31)
    j = int(neighbour_tables(b)[0][0])

    def at_root(rows):
        return pdegree_profile(b, rows, np.array([0]))[:, 0]

    n = 2500  # three batches, the last one cut
    plain = histogram(b, source, n, at_root, 5)
    assert pdegree_histogram(b, source, n, workers).histogram == tuple(plain)
    conditioned = histogram(b, source, n, at_root, 5, keep=lambda rows: rows[:, j] == -1)
    assert conditional_pdegree(b, source, n, workers).histogram == tuple(conditioned)


def test_constructive_solution_satisfies_rule():
    config, colouring = solved()
    report = check(arrow_rule(), colouring)
    assert report.satisfied


def test_constructive_targets_strictly_longer():
    config, colouring = solved()
    field = arrow_field(colouring)
    b = colouring.ball
    defined = np.flatnonzero(field.targets >= 0)
    assert len(defined) > 0
    assert np.all(b.lengths[field.targets[defined]] == b.lengths[defined] + 1)


def test_constructive_no_crowding():
    config, colouring = solved()
    incoming = incoming_counts(arrow_field(colouring))
    interior = colouring.ball.interior_indices(2)
    assert int(incoming[interior].max()) <= 1


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
    field = arrow_field(colouring)
    incoming = incoming_counts(field)
    interior = set(int(i) for i in b.interior_indices(2))
    victim = next(int(w) for w in np.flatnonzero(incoming == 1) if int(w) in interior)
    broken = colouring.copy()
    t1, u1, t2, u2 = neighbour_tables(b)
    senders = {int(t1[victim]): (-1, 1), int(u1[victim]): (1, 1), int(t2[victim]): (-1, 2), int(u2[victim]): (1, 2)}
    for sender, (need_sign, active) in senders.items():
        here = arrow_field(broken).targets[sender] == victim
        if not here and config.values[sender] == need_sign:
            broken.set_colour(sender, f"a{active}u")
            break
    audit = mass_audit(broken)
    assert audit.crowded_fraction > 0
    assert not audit.certificate.verified
    assert audit.feasibility is None
    assert audit.certificate.first_failure is not None


def test_survival_map_exact_head():
    assert survival_map(Fraction(1)) == Fraction(1, 2)
    assert survival_map(Fraction(1, 2)) == Fraction(5, 32)
    assert survival_map(Fraction(5, 32)) == Fraction(2275, 131072)
    assert survival_map(Fraction(0)) == 0


def test_chain_recursion_record():
    analysis = chain_recursion()
    assert analysis.residual_quadratic == (1, -3, 4)
    assert analysis.discriminant == -7
    assert analysis.real_fixed_points == (Fraction(0),)
    assert analysis.exact_head[:3] == (Fraction(1), Fraction(1, 2), Fraction(5, 32))
    assert 0 < analysis.first_below_tolerance <= 60
    assert analysis.iterates[analysis.first_below_tolerance] < 1e-6
    rec = analysis.to_record()
    assert rec["exact_head"][2] == "5/32"


def test_chain_recursion_reports_a_miss():
    analysis = chain_recursion(steps=3)
    assert analysis.first_below_tolerance is None
    assert analysis.to_record()["first_below_tolerance"] is None


def test_iterates_monotone_to_zero():
    analysis = chain_recursion(steps=30)
    xs = analysis.iterates
    assert all(xs[i + 1] <= xs[i] for i in range(len(xs) - 1))
    assert xs[-1] < 1e-12
