from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleycolour.groups import Presentation, ball, free_group, z2_z3
from cayleycolour.hausdorff import (
    E1_COLOURS,
    H_COLOURS,
    MOVERS,
    PIECES,
    _cycle_delta,
    automaton_colouring,
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
from cayleycolour.rules import RANK_ONE, RANK_TWO_OR_HIGHER, Colouring, check, classify_rank

from helpers import word_lengths


def test_example1_rule_is_rank_one():
    assert classify_rank(example1_rule(2)) == RANK_ONE
    assert classify_rank(example1_rule(3, free_group(3))) == RANK_ONE


def test_example1_allowed_cases():
    rule = example1_rule(2)
    # tau^-1 = A1, tau = A2: forced forward.
    assert rule.allowed_fn((), ("A2", "A1", "A1")) == {"A2"}
    # tau = A3 = A_{i-1}, all descendants A1 except tau(x): count = k = 2.
    assert rule.allowed_fn((), ("A3", "A1", "A1")) == {"A2"}
    # tau = A3, exactly one A1 among descendants: copy tau(x).
    assert rule.allowed_fn((), ("A3", "A1", "A2")) == {"A3"}


def test_example1_rule_validation():
    with pytest.raises(ValueError):
        example1_rule(1, free_group(1))
    with pytest.raises(ValueError):
        example1_rule(2, z2_z3())  # tau would have order 2
    # The solver colours for the k = 2 rule, and rejects what that rule rejects.
    with pytest.raises(ValueError, match="must have 2 generators"):
        example1_solve(ball(free_group(3), 2))
    with pytest.raises(ValueError, match="tau's order"):
        example1_solve(ball(z2_z3(), 2))


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
    for i in range(b.interior_size(1)):
        c = col.codes[int(i)]
        assert col.codes[int(table[int(i)])] == (c + 1) % 3


def test_example1_zero_or_k_invariant():
    # Every interior vertex: coloured A1 with no A1 descendants, or not A1
    # with exactly k of the k+1 descendants coloured A1.
    b = ball(free_group(2), 6)
    col = example1_solve(b)
    rule = example1_rule(2)
    tables = [b.left_table(d) for d in rule.descendants]
    for i in range(b.interior_size(1)):
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
    broken = [c for c in example1_certificates(col) if not c.verified]
    assert broken and broken[0].first_failure is not None
    assert broken[0].to_record()["first_failure"] == broken[0].first_failure


def test_example1_program_infeasible():
    b = ball(free_group(2), 6)
    program = example1_program(example1_certificates(example1_solve(b)))
    result = feasible(program)
    assert not result.feasible
    assert result.refutation.display == "2/3 <= 1/3"
    assert result.refutation.gap == Fraction(1, 3)
    assert replay_refutation(program, result.refutation)


def test_hausdorff_rule_rank_two():
    rule = hausdorff_rule()
    assert classify_rank(rule) == RANK_TWO_OR_HIGHER
    # tau part wants C, sigma part wants A: empty.
    assert rule.allowed_fn((), ("B", "C")) == frozenset()
    assert rule.allowed_fn((), ("A", "A")) == {"B"}


def test_hausdorff_rule_needs_right_group():
    with pytest.raises(ValueError):
        hausdorff_rule(free_group(2))


def test_hausdorff_solver_satisfies():
    b = ball(z2_z3(), 9)
    classes = hausdorff_solve(b)
    assert classes.colour_at(0) == "A"
    report = check(hausdorff_rule(), classes)
    assert report.satisfied


def test_hausdorff_tau_moves_a_to_b():
    b = ball(z2_z3(), 7)
    classes = hausdorff_solve(b)
    tau = b.presentation.word("t")
    table = b.left_table(tau)
    cls = classes.codes
    for i in range(b.interior_size(1)):
        if cls[int(i)] == 0:
            assert cls[int(table[int(i)])] == 1


# ---------------------------------------------------------------------------
# Automaton colourings.


def automaton_reference(b, delta, root):
    """Codes one vertex at a time, in vertex order, each from its parent's
    code and its first letter."""
    codes = [root]
    for v in range(1, len(b)):
        codes.append(int(delta[codes[int(b.parent[v])], int(b.first[v])]))
    return codes


AUTOMATON_PRESENTATIONS = st.lists(st.sampled_from([None, 2, 3, 4, 6]), min_size=1, max_size=3).map(
    lambda orders: Presentation(tuple(zip("abc", orders)))
)


@settings(max_examples=80, deadline=None)
@given(p=AUTOMATON_PRESENTATIONS, data=st.data())
def test_automaton_colouring_matches_per_vertex_loop(p, data):
    """Random presentations with free and torsion generators, random delta
    over 2-4 colours and a random root; radii 0-8 (0-5 with three
    generators, whose free ball of radius 8 has 585,937 vertices)."""
    b = ball(p, data.draw(st.integers(0, 8 if p.n_generators < 3 else 5), label="radius"))
    k = data.draw(st.integers(2, 4), label="colours")
    shape = (k, len(p.adjacency_letters()))
    entries = data.draw(st.lists(st.integers(0, k - 1), min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
    delta = np.array(entries).reshape(shape)
    root = data.draw(st.integers(0, k - 1), label="root")
    codes = automaton_colouring(b, delta, root)
    assert codes.dtype == np.int16
    assert codes.tolist() == automaton_reference(b, delta, root)


@pytest.mark.parametrize(
    "presentation, tau, rule, palette, entry, value",
    [
        # example1 on F2: delta[A3][B] = A3, not A1.
        (free_group(2), 0, example1_rule(2), E1_COLOURS, (2, 3), 2),
        # Hausdorff on Z2*Z3: delta[A][t] = A, not B.
        (z2_z3(), 1, hausdorff_rule(), H_COLOURS, (0, 1), 0),
    ],
    ids=["example1-f2", "hausdorff-z2z3"],
)
def test_one_edited_delta_entry_fails_check(presentation, tau, rule, palette, entry, value):
    """The builtin delta satisfies its rule; the same delta with one entry
    that an interior vertex reads set to another colour does not."""
    b = ball(presentation, 6)
    delta = _cycle_delta(presentation, tau)
    assert check(rule, Colouring(b, palette, automaton_colouring(b, delta, 0))).satisfied
    colour, letter = entry
    assert delta[entry] != value
    delta[entry] = value
    codes = automaton_colouring(b, delta, 0)
    n = b.interior_size(rule.dependency_radius)
    assert np.any((codes[b.parent[1:n]] == colour) & (b.first[1:n] == letter)), "the edited entry is read"
    report = check(rule, Colouring(b, palette, codes))
    assert report.n_violations > 0 and not report.satisfied


def test_unread_delta_entry_changes_no_code():
    """In Z2*Z3 a word starting with t has a parent starting with s, which
    the Hausdorff delta never colours C: delta[C][t] is read by no vertex."""
    b = ball(z2_z3(), 8)
    delta = _cycle_delta(b.presentation, 1)
    codes = automaton_colouring(b, delta, 0)
    delta[2, 1] = 2
    assert np.array_equal(automaton_colouring(b, delta, 0), codes)


def test_six_pieces_partition_interior():
    b = ball(z2_z3(), 9)
    classes = hausdorff_solve(b)
    piece = six_piece_pieces(classes)
    assert np.all(piece[: b.interior_size(2)] > 0)
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


def onto_reference(classes):
    """Onto-checks and the boundary remainder one interior vertex at a time."""
    b = classes.ball
    piece = six_piece_pieces(classes)
    cls = classes.codes
    inner = np.flatnonzero(word_lengths(b) <= b.radius - 2)
    remainder = 0
    onto = {}
    for k, name in enumerate(PIECES):
        word_text, target, _ = MOVERS[name]
        mover = b.presentation.word(word_text)
        remainder += int(np.count_nonzero(b.left_table(mover)[piece == k + 1] < 0))
        inv_table = b.left_table(mover.inverse())
        passed = total = 0
        for i in inner:
            if cls[i] != H_COLOURS.index(target):
                continue
            j = int(inv_table[i])
            if j < 0 or piece[j] == 0:
                remainder += 1
                continue
            total += 1
            passed += int(piece[j] == k + 1)
        onto[name] = (passed, total)
    return onto, remainder


@pytest.mark.parametrize(
    "swap",
    [None, ("P5", ("s", "A", 1)), ("P2", ("t", "A", 2)), ("P4", ("tt", "C", 2))],
)
@pytest.mark.parametrize("radius", [6, 10])
def test_onto_checks_match_per_vertex_loop(monkeypatch, swap, radius):
    if swap is not None:
        monkeypatch.setitem(MOVERS, *swap)
    classes = hausdorff_solve(ball(z2_z3(), radius))
    report = six_piece_doubling(classes)
    onto, remainder = onto_reference(classes)
    assert report.onto_checks == onto
    assert report.boundary_remainder == remainder
    if swap is not None:
        assert any(passed < total for passed, total in onto.values())


def six_piece_reference(classes):
    """Piece numbers one interior vertex at a time: the loop the masks
    replaced."""
    b = classes.ball
    cls = classes.codes
    t_s = b.left_table(b.presentation.word("s"))
    t_t = b.left_table(b.presentation.word("t"))
    piece = np.zeros(len(b), dtype=np.int8)
    for i in np.flatnonzero(word_lengths(b) <= b.radius - 2).tolist():
        c = int(cls[i])
        if c == 0:
            piece[i] = 1 if cls[t_s[i]] == 1 else 2
        elif c == 1:
            piece[i] = 3 if cls[t_s[t_t[t_t[i]]]] == 1 else 4
        else:
            piece[i] = 5 if cls[t_s[t_t[i]]] == 1 else 6
    return piece


SIX_PIECE_CLASSES = {r: hausdorff_solve(ball(z2_z3(), r)) for r in range(1, 10)}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_six_piece_pieces_match_reference_loop(data):
    """The shipped classes, and the same classes with random vertices moved
    to another class or left uncoloured."""
    classes = SIX_PIECE_CLASSES[data.draw(st.integers(1, 9), label="radius")]
    b = classes.ball
    assert np.array_equal(six_piece_pieces(classes), six_piece_reference(classes))
    codes = classes.codes.copy()
    moved = data.draw(st.lists(st.integers(0, len(b) - 1), max_size=20), label="moved")
    codes[moved] = data.draw(st.lists(st.integers(-1, 2), min_size=len(moved), max_size=len(moved)))
    perturbed = Colouring(b, H_COLOURS, codes)
    assert np.array_equal(six_piece_pieces(perturbed), six_piece_reference(perturbed))


def test_six_piece_rejects_bad_classes():
    b = ball(z2_z3(), 6)
    classes = hausdorff_solve(b)
    classes.codes[0] = (classes.codes[0] + 1) % 3
    with pytest.raises(ValueError):
        six_piece_doubling(classes)


def test_classes_csv(tmp_path):
    b = ball(z2_z3(), 3)
    classes = hausdorff_solve(b)
    path = tmp_path / "classes.csv"
    with open(path, "w") as fh:
        classes.write_csv(fh)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "word,colour"
    assert len(lines) == len(b) + 1


def test_empty_interior_trivial_report():
    b = ball(z2_z3(), 1)
    report = six_piece_doubling(hausdorff_solve(b))
    assert report.interior_size == 0
    assert report.partition_exact
