"""End-to-end acceptance: each test is one criterion, one pass/fail line.

Stated tolerances and runtime budgets are asserted inside the tests
themselves; fixed seeds keep every line reproducible.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from cayleycolour import arrows, equidecomp, hausdorff, proper
from cayleycolour.cli import main
from cayleycolour.configs import RandomSource, sample
from cayleycolour.groups import ball, free_group
from cayleycolour.measures import feasible
from cayleycolour.rules import check

F2 = free_group(2)
ST = free_group(2, "st")


@pytest.fixture(scope="module")
def ball8():
    return ball(F2, 8)


@pytest.fixture(scope="module")
def ball3():
    return ball(F2, 3)


def test_01_sphere_sizes_exact():
    started = time.perf_counter()
    b = ball(F2, 8)
    assert b.sphere_sizes[0] == 1
    for length in range(1, 9):
        assert b.sphere_sizes[length] == 4 * 3 ** (length - 1)
    assert len(ball(F2, 3)) == 53
    assert time.perf_counter() - started < 1.0


def test_02_pdegree_binomial_law(ball3):
    started = time.perf_counter()
    n = 100_000
    report = arrows.pdegree_histogram(ball3, RandomSource(0), n)
    for degree in range(5):
        p = Fraction(math.comb(4, degree), 16)
        mean = n * p
        sigma = float(n * p * (1 - p)) ** 0.5
        assert abs(report.histogram[degree] - float(mean)) <= 3 * sigma
    assert abs(report.histogram[0] / n - 1 / 16) <= 0.01
    assert time.perf_counter() - started < 10.0


def test_03_conditional_pdegree(ball3):
    started = time.perf_counter()
    n = 100_000
    report = arrows.pdegree_histogram(ball3, RandomSource(1), n, conditional=True)
    assert abs(report.histogram[3] / n - 3 / 8) <= 0.015
    assert abs(report.histogram[4] / n - 1 / 8) <= 0.015
    assert time.perf_counter() - started < 30.0


def test_05_arrow_constructive_mass_audit(ball8):
    started = time.perf_counter()
    config = sample(ball8, RandomSource(5))
    colouring = arrows.constructive_solve(config)
    report = check(arrows.arrow_rule(F2), colouring)
    assert report.n_violations == 0
    audit = arrows.mass_audit(colouring, seed=5)
    assert audit.crowded_fraction == 0
    assert audit.outflow_per_vertex == 1
    assert audit.in_capacity_estimate <= Fraction(15, 16) + Fraction(2, 100)
    assert audit.certificate.verified
    assert audit.feasibility is not None and not audit.feasibility.feasible
    assert audit.feasibility.refutation.gap >= Fraction(1, 16)
    assert time.perf_counter() - started < 10.0


def test_06_three_class_contradiction(ball8):
    started = time.perf_counter()
    colouring = hausdorff.example1_solve(ball8)
    report = check(hausdorff.example1_rule(2, F2), colouring)
    assert report.n_violations == 0
    certificates = hausdorff.example1_certificates(colouring)
    assert all(c.verified for c in certificates)
    assert all(c.checks_passed == c.checks_total for c in certificates)
    outcome = feasible(hausdorff.example1_program(certificates))
    assert not outcome.feasible
    assert outcome.refutation.display == "2/3 <= 1/3"
    assert time.perf_counter() - started < 5.0


def test_07_offsets_and_base_colouring():
    offsets = proper.offsets16(F2)
    assert len(offsets) == 16
    assert sum(1 for w in offsets if w.length == 2) == 4
    assert sum(1 for w in offsets if w.length == 4) == 12
    assert {w.inverse() for w in offsets} == set(offsets)
    b10 = ball(F2, 10)
    base = proper.greedy_base_colouring(b10, choice="min", seed=0)
    assert base.codes.min() >= 0
    assert int(base.codes.max()) <= 16
    assert proper.offset_conflicts(base, proper.offset_pairs(b10)) == 0


def test_08_list_transport_fifty_configs(ball8):
    base = proper.greedy_base_colouring(ball8, choice="min", seed=0)
    total_violations = 0
    for seed in range(50):
        config = sample(ball8, RandomSource(seed))
        colouring = arrows.constructive_solve(config)
        graph = proper.secondary_graph(config)
        transported = proper.arrows_to_list_colouring(colouring, base)
        report = proper.check_proper_list(graph, base, transported)
        total_violations += report.n_violations
    assert total_violations == 0


def test_09_doubled_space_audit():
    exact = feasible(proper.doubled_flow_program())
    assert not exact.feasible
    assert exact.refutation.gap == Fraction(15, 512)

    b7 = ball(F2, 7)
    config = sample(b7, RandomSource(2))
    arrow_colouring = arrows.constructive_solve(config)

    # Randomized greedy base: calibration succeeds and the doubled audit runs.
    base = proper.greedy_base_colouring(b7, choice="random", seed=2)
    calibration = proper.calibrate_N(base)
    assert calibration.succeeded
    graph = proper.doubled_graph(config, base, calibration.N, q_proxy=frozenset(calibration.failing))
    colouring = proper.canonical_doubled_colouring(graph, arrow_colouring)
    assert not proper.check_proper(graph, colouring, seed=2).conflicts
    audit = proper.flow_audit_doubled(colouring, graph)
    assert not audit.feasibility.feasible
    assert audit.clique_touches_q_fraction <= Fraction(1, 128) + Fraction(1, 100)

    # Deterministic greedy base reuses too few colours; the run must say
    # calibration failed rather than silently passing.
    canonical = proper.greedy_base_colouring(b7, choice="min", seed=0)
    failed = proper.calibrate_N(canonical)
    assert not failed.succeeded
    assert failed.N is None and failed.failure_fraction > failed.epsilon


def test_10_prefix_identities():
    started = time.perf_counter()
    b = ball(ST, 6)
    prefix = equidecomp.check_decomposition(b, equidecomp.free_group_decomposition(b), len(b))
    assert prefix.all_verified
    # W(s) u s W(S) and W(t) u t W(T) each rebuild the group: the identity is left over
    assert prefix.piece_sizes["1"] == 1 and "1" not in prefix.mover_words
    assert time.perf_counter() - started < 30.0


def test_12_cli_determinism(tmp_path):
    runs = [
        ["pdeg", "--samples", "3000", "--seed", "5"],
        ["solve", "--rule", "example1", "--radius", "5"],
        ["audit", "--rule", "example1", "--radius", "6"],
        ["audit", "--rule", "arrow", "--radius", "6", "--seed", "3"],
        ["audit", "--rule", "hausdorff", "--radius", "5"],
        ["offsets", "--radius", "6"],
        ["doubled", "--radius", "5", "--n-levels", "3", "--seed", "4"],
        ["prefix", "--radius", "5"],
    ]
    out = tmp_path / "artifact.json"
    for args in runs:
        main(args + ["--out", str(out)])
        first = out.read_bytes()
        # Only pdeg reads --workers; every other command simply reruns.
        reruns = [["--workers", w] for w in ("1", "4")] if args[0] == "pdeg" else [[]]
        for extra in reruns:
            main(args + extra + ["--out", str(out)])
            assert out.read_bytes() == first, f"nondeterministic: {args + extra}"
        record = json.loads(first)
        assert record["schema"] == "cayleycolour/v1"
