import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleycolour import hausdorff
from cayleycolour.equidecomp import DecompositionReport, check_decomposition, free_group_decomposition
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
    element, products outside the ball kept: the loop the arrays replaced."""
    words = list(b.words)
    inside = frozenset(words)

    def word_set(mask):
        return frozenset(words[int(i)] for i in np.flatnonzero(mask))

    region = frozenset(words[int(i)] for i in judged)
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
        judged = np.arange(len(b))
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
        assert report.all_verified == (len(judged) > 0)

    def test_all_verified_on_radius_six(self):
        report = check_decomposition(BALL6, free_group_decomposition(BALL6), np.arange(len(BALL6)))
        assert report.all_verified
        assert report.partition_exact

    def test_literal_reading_misses_identity(self):
        # W(s) u s W(S) and W(t) u t W(T) are each the whole group, so the
        # identity is the one vertex neither copy uses: the piece left over.
        report = check_decomposition(BALL6, free_group_decomposition(BALL6), np.arange(len(BALL6)))
        assert report.piece_sizes["1"] == 1
        assert set(report.mover_words) == {"s", "S", "t", "T"}

    def test_other_radii(self):
        for r in range(1, 10):
            b = ball(P, r)
            assert check_decomposition(b, free_group_decomposition(b), np.arange(len(b))).all_verified

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
        report = check_decomposition(BALL6, partial, np.arange(len(BALL6)))
        counts = [*report.into_checks.values(), *report.onto_checks.values()]
        assert all(passed == total for passed, total in counts)
        assert report.partition_exact and report.copies_disjoint
        assert not report.copies_cover
        assert not report.all_verified
        assert report.to_record()["all_verified"] is False
        assert "copies_cover" not in report.to_record()

    def test_record_serializes(self):
        b = ball(P, 4)
        rec = check_decomposition(b, free_group_decomposition(b), np.arange(len(b))).to_record()
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
    report = check_decomposition(b, decomposition, np.arange(len(b)))
    assert not report.all_verified
    counts = [*report.into_checks.values(), *report.onto_checks.values()]
    assert any(passed != total for passed, total in counts)
