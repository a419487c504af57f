import json

import numpy as np
import pytest

from cayleycolour.equidecomp import PrefixReport, _prefix_masks, verify_prefix_identities
from cayleycolour.groups import ball, free_group, z2_z3


P = free_group(2, "st")
BALL6 = ball(P, 6)


def prefix_words(letter, b):
    """The ball words whose reduced form starts with the unit letter, read
    off `_prefix_masks` (masks in s, S, t, T order)."""
    mask = _prefix_masks(b)["sStT".index(letter)]
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

    def test_needs_free_rank_two(self):
        with pytest.raises(ValueError):
            verify_prefix_identities(ball(z2_z3(), 3))
        with pytest.raises(ValueError):
            verify_prefix_identities(ball(free_group(1), 3))

    def test_inverse_set_is_suffix_set(self):
        ws = prefix_words("s", BALL6)
        inverted = {w.inverse() for w in ws}
        by_suffix = {
            w for w in BALL6.words if not w.is_identity and w.unit_letters()[-1] == (0, -1)
        }
        assert inverted == by_suffix
        # prefix s and suffix s^-1 overlap from length 3 on
        assert P.word("stS") in ws and P.word("stS") in inverted


def prefix_reference(b):
    """verify_prefix_identities on frozensets of words, one product per
    element, products outside the ball kept: the loop the masks replaced."""
    p = b.presentation
    one, s, t = p.identity(), p.generator(0), p.generator(1)
    starts = {}
    for w in b.words:
        if not w.is_identity:
            gen, exp = w.letters[0]
            starts.setdefault((gen, exp > 0), set()).add(w)
    ws, ws_inv, wt, wt_inv = (frozenset(starts[key]) for key in ((0, True), (0, False), (1, True), (1, False)))

    def restrict(words, radius):
        return frozenset(w for w in words if w.length <= radius)

    def translate(g, words):
        return frozenset(g * w for w in words)

    everything = frozenset(b.words)
    sizes = len(ws) + len(ws_inv) + len(wt) + len(wt_inv) + 1
    partition_exact = {one} | ws | ws_inv | wt | wt_inv == everything and sizes == len(everything)
    star_exact, star_gap = [], []
    for g, src, others in ((s, ws_inv, (ws_inv, wt, wt_inv)), (t, wt_inv, (wt_inv, ws, ws_inv))):
        lhs = restrict(translate(g, src), b.radius - 1)
        literal = restrict(others[0] | others[1] | others[2], b.radius - 1)
        star_exact.append(lhs == literal | {one})
        star_gap.append(tuple(sorted(w.to_string() for w in lhs - literal)))
    chain_exact, gap_sizes, tail_sizes = [], [], []
    current = {one} | wt | wt_inv
    running = None
    for n in range(1, b.radius - 1):
        inner = b.radius - n
        current = translate(t, current) - (ws | ws_inv)
        shifted = translate(p.generator(1, n), wt)
        computed = restrict(current, inner)
        chain_exact.append(computed == restrict({p.generator(1, k) for k in range(n + 1)} | wt_inv | shifted, inner))
        gap_sizes.append(len(computed - restrict({p.generator(1, n)} | wt_inv | shifted, inner)))
        running = computed if running is None else restrict(running, inner) & computed
        tail_sizes.append(len(running - restrict(wt_inv, inner)))
    return PrefixReport(
        radius=b.radius,
        star_exact=tuple(star_exact),
        star_literal_gap=tuple(star_gap),
        chain_exact=tuple(chain_exact),
        chain_literal_gap_sizes=tuple(gap_sizes),
        intersection_tail_sizes=tuple(tail_sizes),
        partition_exact=partition_exact,
    )


class TestPrefixIdentities:
    @pytest.mark.parametrize("presentation", [P, free_group(2)], ids=["st", "ab"])
    @pytest.mark.parametrize("radius", [3, 4, 5, 6])
    def test_masks_match_word_sets(self, presentation, radius):
        b = ball(presentation, radius)
        report = verify_prefix_identities(b)
        assert report == prefix_reference(b)
        assert json.dumps(report.to_record()) == json.dumps(prefix_reference(b).to_record())

    def test_all_verified_on_radius_six(self):
        report = verify_prefix_identities(BALL6)
        assert report.all_verified
        assert report.partition_exact

    def test_literal_reading_misses_identity(self):
        report = verify_prefix_identities(BALL6)
        assert report.star_literal_gap == (("1",), ("1",))

    def test_chain_gap_grows_with_accumulated_powers(self):
        report = verify_prefix_identities(BALL6)
        assert report.chain_exact == (True, True, True, True)
        assert report.chain_literal_gap_sizes[:3] == (1, 2, 3)

    def test_intersection_tail_shrinks(self):
        tails = verify_prefix_identities(BALL6).intersection_tail_sizes
        assert all(x >= y for x, y in zip(tails, tails[1:]))
        assert tails[-1] < tails[0]

    def test_other_radii(self):
        for r in (4, 5):
            assert verify_prefix_identities(ball(P, r)).all_verified

    def test_radius_guard(self):
        with pytest.raises(ValueError):
            verify_prefix_identities(ball(P, 2))

    def test_record_serializes(self):
        rec = verify_prefix_identities(ball(P, 4)).to_record()
        json.dumps(rec)
        assert rec["all_verified"] is True
