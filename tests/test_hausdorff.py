from fractions import Fraction

import numpy as np
import pytest

from cayleycolour.groups import ball, free_group, z2_z3
from cayleycolour.hausdorff import (
    E1_COLOURS,
    H_COLOURS,
    MOVERS,
    example1_certificates,
    example1_program,
    example1_rule,
    example1_solve,
    hausdorff_rule,
    hausdorff_solve,
    six_piece_doubling,
    six_piece_pieces,
)
from cayleycolour.measures import feasible, replay_refutation
from cayleycolour.rules import RANK_ONE, RANK_TWO_OR_HIGHER, check, classify_rank


def test_example1_rule_is_rank_one():
    assert classify_rank(example1_rule(2)) == RANK_ONE
    assert classify_rank(example1_rule(3, free_group(3))) == RANK_ONE


def test_example1_allowed_cases():
    rule = example1_rule(2)
    # tau^-1 = A1, tau = A2: forced forward.
    assert rule.allowed((), ("A2", "A1", "A1")) == {"A2"}
    # tau = A3 = A_{i-1}, all descendants A1 except tau(x): count = k = 2.
    assert rule.allowed((), ("A3", "A1", "A1")) == {"A2"}
    # tau = A3, exactly one A1 among descendants: copy tau(x).
    assert rule.allowed((), ("A3", "A1", "A2")) == {"A3"}


def test_example1_rule_validation():
    with pytest.raises(ValueError):
        example1_rule(1, free_group(1))
    with pytest.raises(ValueError):
        example1_rule(2, z2_z3())  # tau would have order 2


def test_example1_solver_satisfies():
    b = ball(free_group(2), 6)
    col = example1_solve(b)
    assert col.colour_at(0) == "A1"
    report = check(example1_rule(2), col)
    assert report.satisfied


def test_example1_tau_cycles_forward():
    b = ball(free_group(2), 5)
    col = example1_solve(b)
    tau = b.presentation.generator(0, 1)
    table = b.left_table(tau)
    for i in b.interior_indices(1):
        c = col.codes[int(i)]
        assert col.codes[int(table[int(i)])] == (c + 1) % 3


def test_example1_zero_or_k_invariant():
    # Every interior vertex: coloured A1 with no A1 descendants, or not A1
    # with exactly k of the k+1 descendants coloured A1.
    b = ball(free_group(2), 6)
    col = example1_solve(b)
    rule = example1_rule(2)
    tables = [b.left_table(d) for d in rule.descendants]
    for i in b.interior_indices(1):
        i = int(i)
        descs = [col.colour_at(int(t[i])) for t in tables]
        count = sum(1 for c in descs if c == "A1")
        if col.colour_at(i) == "A1":
            assert count == 0
        else:
            assert count == 2


def test_example1_certificates_verified():
    b = ball(free_group(2), 6)
    col = example1_solve(b)
    certs = example1_certificates(col)
    assert len(certs) == 4
    assert all(c.verified for c in certs)


def test_example1_certificates_detect_breakage():
    b = ball(free_group(2), 5)
    col = example1_solve(b)
    col.codes[0] = (col.codes[0] + 1) % 3
    with pytest.raises(ValueError, match="vertex"):
        example1_certificates(col)


def test_example1_program_infeasible():
    b = ball(free_group(2), 6)
    program = example1_program(example1_solve(b))
    result = feasible(program)
    assert not result.feasible
    assert result.refutation.display == "2/3 <= 1/3"
    assert result.refutation.gap == Fraction(1, 3)
    assert replay_refutation(program, result.refutation)


def test_hausdorff_rule_rank_two():
    rule = hausdorff_rule()
    assert classify_rank(rule) == RANK_TWO_OR_HIGHER
    # tau part wants C, sigma part wants A: empty.
    assert rule.allowed((), ("B", "C")) == frozenset()
    assert rule.allowed((), ("A", "A")) == {"B"}


def test_hausdorff_rule_needs_right_group():
    with pytest.raises(ValueError):
        hausdorff_rule(free_group(2))


def test_hausdorff_solver_satisfies():
    b = ball(z2_z3(), 9)
    classes = hausdorff_solve(b)
    assert classes.colouring.colour_at(0) == "A"
    report = check(hausdorff_rule(), classes.colouring)
    assert report.satisfied


def test_hausdorff_tau_moves_a_to_b():
    b = ball(z2_z3(), 7)
    classes = hausdorff_solve(b)
    tau = b.presentation.word("t")
    table = b.left_table(tau)
    cls = classes.colouring.codes
    for i in b.interior_indices(1):
        if cls[int(i)] == 0:
            assert cls[int(table[int(i)])] == 1


def test_six_pieces_partition_interior():
    b = ball(z2_z3(), 9)
    classes = hausdorff_solve(b)
    piece = six_piece_pieces(classes)
    inner = b.interior_indices(2)
    assert np.all(piece[inner] > 0)
    report = six_piece_doubling(classes)
    assert report.partition_exact
    assert sum(report.piece_sizes.values()) == report.interior_size


def test_six_piece_movers_verified():
    b = ball(z2_z3(), 9)
    report = six_piece_doubling(hausdorff_solve(b))
    for name, (passed, total) in report.into_checks.items():
        assert passed == total, name
    for name, (passed, total) in report.onto_checks.items():
        assert passed == total, name
    assert report.copies_disjoint
    # At this radius at least some moved vertices stay inside.
    assert any(total > 0 for _, total in report.into_checks.values())


def test_copies_disjoint_fails_on_overlapping_images(monkeypatch):
    # s sends the P5 piece into A, as P1's mover does: every into-check
    # still passes, but copy 1 now hits some vertices twice.
    monkeypatch.setitem(MOVERS, "P5", ("s", "A", 1))
    report = six_piece_doubling(hausdorff_solve(ball(z2_z3(), 10)))
    assert all(passed == total for passed, total in report.into_checks.values())
    assert not report.copies_disjoint
    assert not report.all_verified


def test_six_piece_rejects_bad_classes():
    b = ball(z2_z3(), 6)
    classes = hausdorff_solve(b)
    classes.colouring.codes[0] = (classes.colouring.codes[0] + 1) % 3
    with pytest.raises(ValueError):
        six_piece_doubling(classes)


def test_classes_csv(tmp_path):
    b = ball(z2_z3(), 3)
    classes = hausdorff_solve(b)
    path = tmp_path / "classes.csv"
    with open(path, "w") as fh:
        classes.write_csv(fh)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "word,class"
    assert len(lines) == len(b) + 1


def test_empty_interior_trivial_report():
    b = ball(z2_z3(), 1)
    report = six_piece_doubling(hausdorff_solve(b))
    assert report.interior_size == 0
    assert report.partition_exact
