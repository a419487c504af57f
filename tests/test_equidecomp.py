import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleycolour.equidecomp import (
    CancellationReport,
    Decomposition,
    LevelSet,
    PrefixReport,
    _kuhn_matching,
    cancellation_check,
    cancellation_experiment,
    equidecomposable,
    n_fold,
    prefix_set,
    strongly_paradoxical,
    type_add,
    verify_decomposition,
    verify_prefix_identities,
    weakly_paradoxical,
)
from cayleycolour.groups import ball, free_group, z2_z3


P = free_group(2, "st")
S_UNIT = [P.identity(), P.word("s"), P.word("S"), P.word("t"), P.word("T")]


def words(*texts):
    return [P.word(t) for t in texts]


def lset(*texts, level=0):
    return LevelSet.from_words(words(*texts), level)


class TestLevelSets:
    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            LevelSet(frozenset({(P.word("s"), -1)}))

    def test_cardinality_adds(self):
        a = lset("1", "s", "t")
        b = lset("s", "t")  # same points, still disjoint after relabel
        assert len(type_add(a, b)) == 5

    def test_empty_is_identity(self):
        a = lset("s", "st")
        empty = LevelSet(frozenset())
        assert type_add(a, empty).elements == a.elements
        assert type_add(empty, a).elements == a.elements

    def test_add_levels_disjoint(self):
        a = lset("1", level=0)
        b = lset("1", level=0)
        out = type_add(a, b)
        assert out.levels == frozenset({0, 1})

    def test_single_level_add_associates_exactly(self):
        a, b, c = lset("1"), lset("s"), lset("t", "ts")
        assert type_add(type_add(a, b), c).elements == type_add(a, type_add(b, c)).elements

    def test_multi_level_add_associates_up_to_matching(self):
        a = LevelSet(frozenset({(P.word("1"), 0), (P.word("s"), 3)}))
        b, c = lset("t"), lset("st")
        left = type_add(type_add(a, b), c)
        right = type_add(a, type_add(b, c))
        witness = equidecomposable(left, right, [P.identity()])
        assert witness is not None
        assert verify_decomposition(witness, left, right, bijection=True)

    def test_n_fold_sizes(self):
        a = lset("1", "s", "ss")
        assert len(n_fold(0, a)) == 0
        assert len(n_fold(3, a)) == 9
        assert len(n_fold(3, a).levels) == 3

    def test_record_round_trip(self):
        a = lset("s", "T")
        rec = a.to_record()
        json.dumps(rec)
        assert rec["elements"] == [["T", 0], ["s", 0]]


class TestMatching:
    def test_shift_along_orbit(self):
        # {x, tx} maps into {tx, ttx} by the single mover t
        a = lset("1", "t")
        b = lset("t", "tt")
        witness = equidecomposable(a, b, [P.word("t")])
        assert witness is not None
        assert verify_decomposition(witness, a, b, movers=[P.word("t")], bijection=True)
        assert all(m.to_string() == "t" for _, m, _ in witness.pairs)

    def test_pigeonhole(self):
        assert equidecomposable(lset("1", "s", "t"), lset("1", "s"), S_UNIT) is None

    def test_no_mover_reaches(self):
        assert equidecomposable(lset("1"), lset("ss"), [P.word("s")]) is None

    def test_reflexive_with_identity(self):
        a = LevelSet(frozenset({(P.word("s"), 0), (P.word("t"), 2)}))
        witness = equidecomposable(a, a, [P.identity()])
        assert witness is not None
        assert verify_decomposition(witness, a, a, bijection=True)

    def test_symmetric_with_inverse_movers(self):
        a = lset("1", "s")
        b = lset("t", "ts")
        assert equidecomposable(a, b, S_UNIT) is not None
        assert equidecomposable(b, a, S_UNIT) is not None

    def test_transitive_with_composed_movers(self):
        a, b, c = lset("1", "s"), lset("t", "ts"), lset("st", "sts")
        s2 = list(ball(P, 2).words)
        assert equidecomposable(a, b, S_UNIT) is not None
        assert equidecomposable(b, c, S_UNIT) is not None
        assert equidecomposable(a, c, s2) is not None

    def test_augmenting_path_needed(self):
        # x can only go to tx; greedy matching ts.x first must get rerouted
        a = lset("1", "T")
        b = lset("t", "ts")
        witness = equidecomposable(a, b, [P.word("t"), P.word("tst")])
        assert witness is not None
        assert verify_decomposition(witness, a, b, bijection=True)

    def test_max_pieces_bound(self):
        a = lset("1", "ss")
        b = lset("s", "ss")  # needs two different movers
        witness = equidecomposable(a, b, S_UNIT)
        assert witness is not None and witness.n_pieces() == 2

    def test_verify_rejects_bad_mover(self):
        a, b = lset("1"), lset("t")
        (witness,) = [equidecomposable(a, b, [P.word("t")])]
        assert not verify_decomposition(witness, a, b, movers=[P.word("s")])

    def test_verify_rejects_wrong_image(self):
        src = (P.word("1"), 0)
        forged = Decomposition(((src, P.word("t"), (P.word("s"), 0)),))
        assert not verify_decomposition(forged, lset("1"), lset("s"))

    def test_verify_rejects_duplicate_target(self):
        a = lset("1", "t")
        tgt = (P.word("t"), 0)
        forged = Decomposition(
            (((P.word("1"), 0), P.word("t"), tgt), ((P.word("t"), 0), P.identity(), tgt))
        )
        assert not verify_decomposition(forged, a, lset("t"))


def brute_force_matching_size(adjacency, used=frozenset()):
    if not adjacency:
        return 0
    head, rest = adjacency[0], adjacency[1:]
    best = brute_force_matching_size(rest, used)
    for v in head:
        if v not in used:
            best = max(best, 1 + brute_force_matching_size(rest, used | {v}))
    return best


@st.composite
def bipartite_graphs(draw):
    n_left = draw(st.integers(0, 6))
    n_right = draw(st.integers(0, 6))
    rows = st.lists(st.integers(0, n_right - 1), unique=True) if n_right else st.just([])
    return n_left, draw(st.lists(rows, min_size=n_left, max_size=n_left)), n_right


@settings(max_examples=200, deadline=None)
@given(bipartite_graphs())
def test_kuhn_matching_is_maximum(graph):
    n_left, adjacency, n_right = graph
    match = _kuhn_matching(n_left, adjacency, n_right)
    matched = [(u, v) for u, v in enumerate(match) if v != -1]
    assert all(v in adjacency[u] for u, v in matched)
    assert len({v for _, v in matched}) == len(matched)
    assert len(matched) == brute_force_matching_size(adjacency)


class TestParadoxPredicates:
    def test_only_empty_set_collapses(self):
        empty = LevelSet(frozenset())
        trivial = Decomposition(())
        assert strongly_paradoxical(empty, trivial)
        assert weakly_paradoxical(empty, trivial, 3)

    def test_nonempty_witness_rejected(self):
        e = lset("1")
        forged = Decomposition((((P.word("1"), 0), P.identity(), (P.word("1"), 0)),))
        assert not strongly_paradoxical(e, forged)
        assert not weakly_paradoxical(e, forged, 1)


class TestCancellation:
    def test_single_instance(self):
        a = lset("1", "s")
        b = lset("t", "ts", "tt")
        lifted, base = cancellation_check(3, a, b, S_UNIT)
        assert lifted is not None
        assert base is not None
        assert verify_decomposition(base, a, b, movers=S_UNIT)

    @pytest.mark.parametrize("n", [2, 3])
    def test_forced_instances_always_cancel(self, n):
        pool = list(ball(P, 3).words)
        report = cancellation_experiment(n, pool, S_UNIT, trials=100, seed=11 * n)
        assert isinstance(report, CancellationReport)
        assert report.witnessed == 100
        assert report.recovered == 100
        assert report.failures == 0

    def test_free_instances_never_fail(self):
        pool = list(ball(P, 3).words)
        report = cancellation_experiment(2, pool, S_UNIT, trials=60, seed=5, forced=False)
        assert report.failures == 0
        assert report.witnessed + report.skipped == 60

    def test_record(self):
        rec = CancellationReport(2, 10, 8, 8, 2, 0).to_record()
        json.dumps(rec)
        assert rec["failures"] == 0


BALL6 = ball(P, 6)


class TestPrefixSets:
    def test_sphere_count_at_radius_three(self):
        assert len(prefix_set("s", ball(P, 3))) == 13

    def test_counts_split_evenly(self):
        for letter in ("s", "S", "t", "T"):
            assert len(prefix_set(letter, BALL6)) == (len(BALL6.words) - 1) // 4

    def test_partition(self):
        parts = [prefix_set(x, BALL6) for x in ("s", "S", "t", "T")]
        union = frozenset({P.identity()}).union(*parts)
        assert union == frozenset(BALL6.words)
        assert sum(map(len, parts)) + 1 == len(BALL6.words)

    def test_unknown_letter(self):
        with pytest.raises(KeyError):
            prefix_set("x", BALL6)

    def test_non_unit_word(self):
        with pytest.raises(ValueError):
            prefix_set("st", BALL6)

    def test_needs_free_rank_two(self):
        with pytest.raises(ValueError):
            prefix_set("s", ball(z2_z3(), 3))
        with pytest.raises(ValueError):
            prefix_set("a", ball(free_group(1), 3))

    def test_inverse_set_is_suffix_set(self):
        ws = prefix_set("s", BALL6)
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
        shifted = translate(t**n, wt)
        computed = restrict(current, inner)
        chain_exact.append(computed == restrict({t**k for k in range(n + 1)} | wt_inv | shifted, inner))
        gap_sizes.append(len(computed - restrict({t**n} | wt_inv | shifted, inner)))
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
