import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleycolour import hausdorff
from cayleycolour.equidecomp import Decomposition, DecompositionReport, check_decomposition, free_group_decomposition
from cayleycolour.groups import ball, free_group, z2_z3


P = free_group(2, "st")
BALL6 = ball(P, 6)


def prefix_words(letter, b):
    """The ball words in the decomposition's piece named by the unit letter."""
    decomposition = free_group_decomposition(b)
    mask = decomposition.pieces == decomposition.names.index(letter) + 1
    return frozenset(b.words[int(i)] for i in np.flatnonzero(mask))


class TestPrefixSets:
    def test_sphere_count_at_radius_three(self):
        assert len(prefix_words("s", ball(P, 3))) == 13

    def test_counts_split_evenly(self):
        for letter in ("s", "S", "t", "T"):
            assert len(prefix_words(letter, BALL6)) == (len(BALL6.words) - 1) // 4

    def test_partition(self):
        parts = [prefix_words(x, BALL6) for x in ("s", "S", "t", "T")]
        union = frozenset({P.identity()}).union(*parts)
        assert union == frozenset(BALL6.words)
        assert sum(map(len, parts)) + 1 == len(BALL6.words)
        for x, part in zip("sStT", parts):
            assert all(w.to_string()[0] == x for w in part)

    def test_needs_free_rank_two(self):
        for b in (ball(z2_z3(), 3), ball(free_group(1), 3)):
            with pytest.raises(ValueError, match="prefix sets live on the rank-two free group"):
                free_group_decomposition(b)

    def test_inverse_set_is_suffix_set(self):
        ws = prefix_words("s", BALL6)
        inverted = {w.inverse() for w in ws}
        by_suffix = {
            w for w in BALL6.words if not w.is_identity and w.unit_letters()[-1] == (0, -1)
        }
        assert inverted == by_suffix
        # prefix s and suffix s^-1 overlap from length 3 on
        assert P.word("stS") in ws and P.word("stS") in inverted


def decomposition_reference(b, decomposition, judged):
    """check_decomposition on frozensets of `b.words`, one product per
    element, products outside the ball kept: the loop the arrays replaced.
    The judged vertices are the first `judged` words."""
    words = list(b.words)
    inside = frozenset(words)

    def word_set(mask):
        return frozenset(words[int(i)] for i in np.flatnonzero(mask))

    region = frozenset(words[:judged])
    pieces = {name: word_set(decomposition.pieces == k + 1) for k, name in enumerate(decomposition.names)}
    piece_of = {w: name for name, piece in pieces.items() for w in piece}
    sizes = {name: len(piece) for name, piece in pieces.items()}
    partition_exact = region <= frozenset(piece_of) and sum(sizes.values()) == len(region)
    into, onto, images, covered, remainder = {}, {}, {}, {}, 0
    for name, text in decomposition.movers.items():
        mover = b.presentation.word(text)
        target = word_set(decomposition.targets[name])
        moved = frozenset(mover * w for w in pieces[name])
        remainder += len(moved - inside)
        moved &= inside
        images.setdefault(decomposition.copies[name], []).append(moved)
        covered[decomposition.copies[name]] = covered.get(decomposition.copies[name], frozenset()) | target
        into[name] = (len(moved & target), len(moved))
        sources = [mover.inverse() * v for v in region & target]
        landed = [piece_of[w] for w in sources if w in piece_of]
        remainder += len(sources) - len(landed)
        onto[name] = (landed.count(name), len(landed))
    return DecompositionReport(
        interior_size=len(region),
        piece_sizes=sizes,
        partition_exact=partition_exact,
        mover_words=dict(decomposition.movers),
        into_checks={name: into[name] for name in decomposition.names if name in into},
        onto_checks={name: onto[name] for name in decomposition.names if name in onto},
        boundary_remainder=remainder,
        copies_disjoint=all(sum(map(len, parts)) == len(frozenset().union(*parts)) for parts in images.values()),
        copies_cover=all(region <= cover for cover in covered.values()),
    )


class TestPrefixIdentities:
    @pytest.mark.parametrize("presentation", [P, free_group(2)], ids=["st", "ab"])
    @pytest.mark.parametrize("radius", [1, 2, 3, 4, 5, 6])
    def test_masks_match_word_sets(self, presentation, radius):
        b = ball(presentation, radius)
        judged = len(b)
        decomposition = free_group_decomposition(b)
        report = check_decomposition(b, decomposition, judged)
        reference = decomposition_reference(b, decomposition, judged)
        assert report == reference
        assert json.dumps(report.to_record()) == json.dumps(reference.to_record())
        assert report.all_verified

    @pytest.mark.parametrize("radius", range(2, 9))
    def test_six_piece_masks_match_word_sets(self, monkeypatch, radius):
        # The data as `six_piece_doubling` hands it to the checker.
        seen = []

        def capture(*args):
            seen.append(args)
            return check_decomposition(*args)

        monkeypatch.setattr(hausdorff, "check_decomposition", capture)
        report = hausdorff.six_piece_doubling(hausdorff.hausdorff_solve(ball(z2_z3(), radius)))
        ((b, decomposition, judged),) = seen
        reference = decomposition_reference(b, decomposition, judged)
        assert report == reference
        assert json.dumps(report.to_record()) == json.dumps(reference.to_record())
        assert report.all_verified == (judged > 0)

    def test_all_verified_on_radius_six(self):
        report = check_decomposition(BALL6, free_group_decomposition(BALL6), len(BALL6))
        assert report.all_verified
        assert report.partition_exact

    def test_literal_reading_misses_identity(self):
        # W(s) u s W(S) and W(t) u t W(T) are each the whole group, so the
        # identity is the one vertex neither copy uses: the piece left over.
        report = check_decomposition(BALL6, free_group_decomposition(BALL6), len(BALL6))
        assert report.piece_sizes["1"] == 1
        assert set(report.mover_words) == {"s", "S", "t", "T"}

    def test_other_radii(self):
        for r in range(1, 10):
            b = ball(P, r)
            assert check_decomposition(b, free_group_decomposition(b), len(b)).all_verified

    def test_targets_that_miss_judged_vertices_fail(self):
        # Only W(s) by 1 onto W(s) and W(t) by 1 onto W(t): every count
        # matches and the copies are disjoint, but neither copy rebuilds
        # the words outside its one target.
        decomposition = free_group_decomposition(BALL6)
        s, t = P.name(0), P.name(1)
        partial = decomposition._replace(
            movers={s: "1", t: "1"},
            copies={s: 1, t: 2},
            targets={s: decomposition.targets[s], t: decomposition.targets[t]},
        )
        report = check_decomposition(BALL6, partial, len(BALL6))
        counts = [*report.into_checks.values(), *report.onto_checks.values()]
        assert all(passed == total for passed, total in counts)
        assert report.partition_exact and report.copies_disjoint
        assert not report.copies_cover
        assert not report.all_verified
        assert report.to_record()["all_verified"] is False
        assert "copies_cover" not in report.to_record()

    def test_record_serializes(self):
        b = ball(P, 4)
        rec = check_decomposition(b, free_group_decomposition(b), len(b)).to_record()
        json.dumps(rec)
        assert rec["all_verified"] is True


F2_BALLS = {r: ball(P, r) for r in range(1, 8)}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_relabelled_vertex_fails(data):
    """Relabelling any single vertex of the F2 decomposition to another
    piece breaks an into or onto count."""
    b = F2_BALLS[data.draw(st.integers(1, 7), label="radius")]
    decomposition = free_group_decomposition(b)
    v = data.draw(st.integers(0, len(b) - 1), label="vertex")
    others = [k for k in range(1, len(decomposition.names) + 1) if k != decomposition.pieces[v]]
    decomposition.pieces[v] = data.draw(st.sampled_from(others), label="piece")
    report = check_decomposition(b, decomposition, len(b))
    assert not report.all_verified
    counts = [*report.into_checks.values(), *report.onto_checks.values()]
    assert any(passed != total for passed, total in counts)


# Small balls of both presentations the decompositions live on, and the
# words a random mover is drawn from, some of them longer than the radius.
RANDOM_BALLS = {(name, r): ball(p, r) for name, p in (("f2", P), ("z2z3", z2_z3())) for r in range(0, 6)}
RANDOM_MOVERS = {name: ball(b.presentation, 3).names() for (name, r), b in RANDOM_BALLS.items() if r == 0}


def real_decomposition(b):
    """The data `prefix` or `six_piece_doubling` hands the checker, and
    the count it judges."""
    if b.presentation.order(0) is None:
        return free_group_decomposition(b), len(b)
    classes = hausdorff.hausdorff_solve(b)
    decomposition = Decomposition(
        pieces=hausdorff.six_piece_pieces(classes),
        names=hausdorff.PIECES,
        movers={name: word for name, (word, _, _) in hausdorff.MOVERS.items()},
        copies={name: copy for name, (_, _, copy) in hausdorff.MOVERS.items()},
        targets={name: classes.codes == hausdorff.H_COLOURS.index(t) for name, (_, t, _) in hausdorff.MOVERS.items()},
    )
    return decomposition, b.interior_size(2)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_random_decompositions_match_word_sets(data):
    """Random pieces, movers, copies and targets, or a real decomposition
    with one piece's mover or copy redrawn, so that copies overlap and
    counts break as often as they hold: the one-shot tables and the hit
    masks give the reference's report."""
    name = data.draw(st.sampled_from(["f2", "z2z3"]), label="presentation")
    b = RANDOM_BALLS[name, data.draw(st.integers(0, 5), label="radius")]
    words = RANDOM_MOVERS[name]
    if data.draw(st.booleans(), label="real"):
        decomposition, judged = real_decomposition(b)
        piece = data.draw(st.sampled_from(sorted(decomposition.movers)), label="edited piece")
        decomposition.movers[piece] = data.draw(st.sampled_from(words), label="mover")
        decomposition.copies[piece] = data.draw(st.integers(1, 2), label="copy")
    else:
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        names = tuple(f"P{k}" for k in range(1, data.draw(st.integers(1, 6), label="pieces") + 1))
        moved = data.draw(st.lists(st.sampled_from(names), unique=True), label="moved")
        decomposition = Decomposition(
            pieces=rng.integers(0, len(names) + 1, size=len(b)).astype(np.int8),
            names=names,
            movers={k: data.draw(st.sampled_from(words), label="mover") for k in moved},
            copies={k: data.draw(st.integers(1, 2), label="copy") for k in moved},
            targets={k: rng.random(len(b)) < data.draw(st.floats(0, 1), label="density") for k in moved},
        )
        judged = data.draw(st.integers(0, len(b)), label="judged")
    cached = set(b._left)
    report = check_decomposition(b, decomposition, judged)
    # Equal reports have equal counts, copies_disjoint and all_verified.
    assert report == decomposition_reference(b, decomposition, judged)
    assert set(b._left) == cached


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "unit-tables-cached"])
@pytest.mark.parametrize("command", ["prefix", "six-piece"])
def test_checks_leave_the_table_cache_as_they_found_it(command, warm):
    """`prefix`'s check and the six-piece doubling forget every table they
    build, and keep the unit tables a caller had already cached."""
    b = ball(P, 6) if command == "prefix" else ball(z2_z3(), 8)
    if warm:
        b.unit_tables()
    cached = set(b._left)
    if command == "prefix":
        report = check_decomposition(b, free_group_decomposition(b), len(b))
    else:
        report = hausdorff.six_piece_doubling(hausdorff.hausdorff_solve(b))
    assert report.all_verified
    assert set(b._left) == cached


@pytest.mark.parametrize(
    "command, bound",
    [("prefix", 9), ("six-piece", 17)],
)
def test_decomposition_peak_traced_memory(command, bound):
    """Ball, data and check of `prefix` at F2 radius 11 (354,293 vertices)
    and of the six-piece doubling at Z2*Z3 radius 32 (458,746 vertices)
    under tracemalloc, which numpy reports its buffers to.  With every mover
    table cached, the images of a copy concatenated and sorted, and the
    interior an int64 index array, these peaked at 19.1 and 27.5 MiB; with
    one-shot tables, hit masks and prefix slices at 8.2 and 15.6 MiB."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        if command == "prefix":
            b = ball(P, 11)
            report = check_decomposition(b, free_group_decomposition(b), len(b))
        else:
            report = hausdorff.six_piece_doubling(hausdorff.hausdorff_solve(ball(z2_z3(), 32)))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert report.all_verified
    assert peak <= bound * 2**20, peak / 2**20
