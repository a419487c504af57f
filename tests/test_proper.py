import functools
import tracemalloc
from fractions import Fraction
from itertools import combinations
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleycolour import proper

from cayleycolour.arrows import arrow_rule, candidate_arrays, constructive_solve, neighbour_tables, pdegree_profile
from cayleycolour.configs import Configuration, RandomSource, sample
from cayleycolour.groups import Ball, Presentation, ball, free_group, z2_z3
from cayleycolour.measures import replay_refutation
from cayleycolour.proper import (
    GREEDY_CHOICES,
    PALETTE17,
    _choice_draws,
    _choice_words,
    _edges,
    _expand,
    _in_order,
    _kept,
    _nth_set_bit,
    _start,
    _walk,
    Calibration,
    arrows_to_list_colouring,
    calibrate_N,
    canonical_doubled_colouring,
    check_proper,
    check_proper_list,
    doubled_graph,
    flow_audit_doubled,
    greedy_base_colouring,
    list_assignments,
    offset_conflicts,
    offsets16,
    representatives,
    secondary_graph,
)
from cayleycolour.rules import Colouring, ViolationReport, check

from helpers import word_lengths


def candidate_pair(config, w):
    z1, z2 = candidate_arrays(config, np.array([w]))
    return int(z1[0]), int(z2[0])

F2 = free_group(2)


def setup_r6(seed=7):
    b = ball(F2, 6)
    config = sample(b, RandomSource(seed))
    base = greedy_base_colouring(b)
    return b, config, base


def test_offsets16_counts():
    for presentation in (F2, free_group(2, "st")):
        offsets = offsets16(presentation)
        assert len(offsets) == len(set(offsets)) == 16
        assert all(g.length == 2 for g in offsets[:4])
        assert all(g.length == 4 for g in offsets[4:])
        assert {g.inverse() for g in offsets} == set(offsets)
        reps = representatives(offsets)
        assert len(reps) == 8
        assert {g.inverse() for g in reps} == set(offsets) - set(reps)


def test_offsets16_identity_products():
    short = offsets16()[:4]
    identity_products = sum(1 for g in short for h in short if (g * h).is_identity)
    assert identity_products == 4
    g1, g3 = short[0], short[2]  # aB and bA
    assert (g1 * g3).is_identity
    assert (g1 * g1).length == 4


def test_offsets_require_free_group():
    with pytest.raises(ValueError):
        offsets16(z2_z3())


def test_greedy_base_proper():
    b, config, base = setup_r6()
    assert offset_conflicts(base) == 0
    assert base.colour_at(0) == "c0"
    assert len({int(c) for c in base.codes}) <= 17
    assert int(base.codes.min()) >= 0


def test_greedy_random_choice_proper():
    b = ball(F2, 5)
    base = greedy_base_colouring(b, choice="random", seed=11)
    assert offset_conflicts(base) == 0


def test_representatives_take_one_of_each_inverse_pair():
    offsets = offsets16()
    reps = representatives(offsets)
    assert len(reps) == 8
    words = {g.letters for g in reps}
    inverses = {g.inverse().letters for g in reps}
    assert words.isdisjoint(inverses)
    assert words | inverses == {g.letters for g in offsets}


def direct_conflicts(colouring):
    """Offset conflicts summed over all 16 tables, one per element."""
    b, codes = colouring.ball, colouring.codes
    total = 0
    for g in offsets16(b.presentation):
        t = b.left_table(g)
        inside = np.flatnonzero(t >= 0)
        total += int(np.count_nonzero(codes[inside] == codes[t[inside]]))
    return total


@settings(max_examples=40, deadline=None)
@given(
    radius=st.integers(5, 8),
    colours=st.integers(1, len(PALETTE17)),
    blank=st.floats(0, 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_offset_conflicts_equal_the_sum_over_all_sixteen_tables(radius, colours, blank, seed):
    """Doubling the count over one table per inverse pair is exact, for
    improper colourings and blank (-1) codes too."""
    b = GREEDY_BALLS[radius]
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, colours, size=len(b)).astype(np.int16)
    codes[rng.random(len(b)) < blank] = -1
    colouring = Colouring(b, PALETTE17, codes)
    assert offset_conflicts(colouring) == direct_conflicts(colouring)


def test_offset_conflicts_count_a_planted_conflict_from_both_ends():
    b = GREEDY_BALLS[6]
    base = greedy_base_colouring(b)
    w, g = 0, offsets16()[4:][5]
    v = int(b.left_table(g)[w])
    codes = base.codes.copy()
    codes[v] = codes[w]
    planted = Colouring(b, PALETTE17, codes)
    assert offset_conflicts(planted) == direct_conflicts(planted) >= 2
    assert offset_conflicts(planted) % 2 == 0


def test_greedy_and_conflict_count_read_one_table_per_inverse_pair(monkeypatch):
    requested = []
    real = Ball.left_table

    def left_table(self, g):
        requested.append(g.letters)
        return real(self, g)

    monkeypatch.setattr(Ball, "left_table", left_table)
    b = ball(F2, 6)
    offsets = offsets16()
    assert offset_conflicts(greedy_base_colouring(b, "random", 4)) == 0
    words = set(requested)
    assert len(words) == 8
    assert words <= {g.letters for g in offsets}
    assert not any(g.inverse().letters in words for g in offsets if g.letters in words)


PAIR_BALLS = {(names, r): ball(free_group(2, names), r) for names in ("ab", "st") for r in range(5, 10)}


@settings(max_examples=20, deadline=None)
@given(names=st.sampled_from(["ab", "st"]), radius=st.integers(5, 9))
def test_offset_pairs_hold_each_defined_table_entry_once(names, radius):
    """The two lists of each representative g hold the defined entries
    (w, g*w) of g's left table: (g*w, w) where g*w < w, (w, g*w) where
    g*w > w, each w exactly once."""
    b = PAIR_BALLS[names, radius]
    proper.offset_pairs.cache_clear()
    pairs = proper.offset_pairs(b)
    reps = representatives(offsets16(b.presentation))
    assert len(pairs) == 2 * len(reps)
    for k, g in enumerate(reps):
        t = b.left_table(g)
        (src, dst), (low, high) = pairs[2 * k], pairs[2 * k + 1]
        assert src.dtype == dst.dtype == low.dtype == high.dtype == np.int32
        assert (src < dst).all() and (low < high).all()
        assert np.array_equal(t[dst], src) and np.array_equal(t[low], high)
        entries = np.sort(np.concatenate([dst, low]))
        assert np.array_equal(entries, np.flatnonzero(t >= 0))
        b.forget(g)


def test_offset_pass_raises_on_a_dropped_pair(monkeypatch):
    """Each table's two lists must hold all its defined entries; a pair
    lost between table and lists stops the pass."""
    real = proper._earlier_pairs

    def drop_one(t):
        (src, dst), later = real(t)
        return (src[1:], dst[1:]), later

    monkeypatch.setattr(proper, "_earlier_pairs", drop_one)
    proper.offset_pairs.cache_clear()
    with pytest.raises(RuntimeError, match="pairs for"):
        greedy_base_colouring(ball(F2, 6))


def test_no_offset_table_stays_cached_or_is_built_twice(monkeypatch):
    """The greedy and the conflict count of one ball build each offset
    table once, and leave no table in the ball's cache: the pass forgets
    each offset table once read, and the count reads the pass's lists."""
    requested = []
    real = Ball.left_table

    def left_table(self, g):
        requested.append(g.letters)
        return real(self, g)

    monkeypatch.setattr(Ball, "left_table", left_table)
    b = ball(F2, 7)
    base = greedy_base_colouring(b)
    reps = {g.letters for g in representatives(offsets16())}
    assert not reps & set(b._left)
    assert offset_conflicts(base) == 0
    assert not b._left
    assert sorted(requested) == sorted(reps)


def test_offsets_peak_traced_memory_at_radius_10():
    """Ball, greedy and conflict count of F2 at radius 10 under tracemalloc,
    which numpy reports its buffers to: 16.04 MiB when all 16 offset tables
    were built and the sphere scratch outlived the ball's construction,
    7.43 MiB with 8 cached offset tables, and 3.78 MiB once one uncached
    pass turned them into the pair lists that greedy and count read."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        base = greedy_base_colouring(ball(F2, 10))
        assert offset_conflicts(base) == 0
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 4.1 * 2**20, peak / 2**20


def test_greedy_needs_room():
    with pytest.raises(ValueError):
        greedy_base_colouring(ball(F2, 4))


def test_greedy_rejects_unknown_choice():
    with pytest.raises(ValueError, match="mni"):
        greedy_base_colouring(ball(F2, 5), choice="mni")


def test_list_assignment_distinct():
    b, config, base = setup_r6()
    lists = list_assignments(config, base, np.arange(300))
    assert lists.shape == (300, 2)
    for c1, c2 in lists.tolist():
        assert c1 != c2


def test_list_assignment_boundary_error():
    b, config, base = setup_r6()
    edge = int(np.flatnonzero(word_lengths(b) == b.radius)[0])
    with pytest.raises(ValueError):
        list_assignments(config, base, [edge])


def test_secondary_clique_sizes_are_pdegrees():
    b, config, base = setup_r6()
    graph = secondary_graph(config)
    assert graph.cliques.shape == (b.interior_size(2), 4)
    sizes = np.count_nonzero(graph.cliques >= 0, axis=1)
    assert np.array_equal(sizes, pdegree_profile(b, config.values[None, :], np.arange(len(graph.cliques)))[0])


def test_secondary_edge_offsets():
    """Same-orientation clique-mates differ by a short offset; mates with
    opposite orientation differ by a same-sign length-2 product instead."""
    b, config, base = setup_r6()
    short = {g.letters for g in offsets16()[:4]}
    t1, u1, t2, u2 = (b.left_table(F2.generator(g, e)) for g, e in ((0, 1), (0, -1), (1, 1), (1, -1)))

    def slot_sign(x, z):
        if x == t1[z] or x == t2[z]:
            return 1
        assert x == u1[z] or x == u2[z]
        return -1

    graph = secondary_graph(config)
    seen_same = seen_cross = 0
    for z, row in enumerate(graph.cliques):
        clique = row[row >= 0]
        for i in range(len(clique)):
            for j in range(i + 1, len(clique)):
                x, y = clique[i], clique[j]
                offset = b.words[x] * b.words[y].inverse()
                assert offset.length == 2
                if slot_sign(x, z) == slot_sign(y, z):
                    assert offset.letters in short
                    seen_same += 1
                else:
                    assert offset.letters not in short
                    seen_cross += 1
    assert seen_same > 0 and seen_cross > 0


def test_away_targets_differ_from_centre_by_short_offset():
    b, config, base = setup_r6()
    short = {g.letters for g in offsets16()[:4]}
    graph = secondary_graph(config)
    lengths = word_lengths(b)
    checked = 0
    for z, row in enumerate(graph.cliques):
        for x in row[row >= 0].tolist():
            if lengths[x] > b.radius - 1:
                continue
            pair = candidate_pair(config, x)
            assert z in pair
            other = pair[0] if pair[1] == z else pair[1]
            offset = b.words[other] * b.words[z].inverse()
            assert offset.letters in short
            checked += 1
    assert checked > 100


def test_list_transport_proper():
    b, config, base = setup_r6()
    colouring = constructive_solve(config)
    assert check(arrow_rule(), colouring).satisfied
    lists_cover = np.arange(b.interior_size(1))
    lists = list_assignments(config, base, lists_cover)
    transported = arrows_to_list_colouring(colouring, base)
    graph = secondary_graph(config)
    report = check_proper_list(graph, base, transported)
    assert report.satisfied
    # every transported colour sits on the vertex's own list
    for w, pair in zip(lists_cover.tolist(), lists.tolist()):
        got = int(transported.codes[w])
        if got >= 0:
            assert got in pair


def test_list_transport_many_seeds():
    b = ball(F2, 5)
    base = greedy_base_colouring(b)
    for seed in range(6):
        config = sample(b, RandomSource(seed))
        transported = arrows_to_list_colouring(constructive_solve(config), base)
        assert check_proper_list(secondary_graph(config), base, transported).satisfied


def test_list_transport_rejects_crowding():
    b, config, base = setup_r6()
    colouring = constructive_solve(config)
    # aim a second arrow at an already-hit interior vertex
    from cayleycolour.arrows import ARROW_COLOURS, arrow_field, incoming_counts, neighbour_tables

    targets = arrow_field(colouring)
    incoming = incoming_counts(targets)
    victim = next(int(w) for w in np.flatnonzero(incoming == 1) if w < b.interior_size(2))
    t1, u1, t2, u2 = neighbour_tables(b)
    broken = colouring.copy()
    for sender, need, active in (
        (int(t1[victim]), -1, 1),
        (int(u1[victim]), 1, 1),
        (int(t2[victim]), -1, 2),
        (int(u2[victim]), 1, 2),
    ):
        if targets[sender] != victim and config.values[sender] == need:
            broken.codes[sender] = ARROW_COLOURS.index(f"a{active}u")
            break
    with pytest.raises(ValueError):
        arrows_to_list_colouring(broken, base)


def test_check_proper_list_flags_constant_clique():
    b, config, base = setup_r6()
    graph = secondary_graph(config)
    constant = Colouring.uniform(b, PALETTE17, "c3")
    report = check_proper_list(graph, base, constant)
    assert not report.satisfied


def test_check_proper_list_uncoloured_candidate():
    b, config, base = setup_r6()
    graph = secondary_graph(config)
    transported = arrows_to_list_colouring(constructive_solve(config), base)
    member = int(graph.members()[0])
    holed = base.copy()
    holed.codes[candidate_pair(config, member)[1]] = -1
    with pytest.raises(ValueError, match="uncoloured"):
        check_proper_list(graph, holed, transported)


def test_check_proper_list_needs_the_base_palette():
    b, config, base = setup_r6()
    graph = secondary_graph(config)
    renamed = Colouring(b, tuple(reversed(PALETTE17)), base.codes)
    with pytest.raises(ValueError, match="palettes"):
        check_proper_list(graph, renamed, arrows_to_list_colouring(constructive_solve(config), base))


# F2, the torsion group of the Hausdorff rule, and a generator of order 4,
# whose block a^2 = A^2 has a two-letter unit spelling.
KERNEL_GROUPS = {"F2": F2, "Z2*Z3": z2_z3(), "Z4*Z5": Presentation((("a", 4), ("b", 5)))}
KERNEL_BALLS = {(name, r): ball(p, r) for name, p in KERNEL_GROUPS.items() for r in range(7)}


@functools.cache
def vertex_index(b):
    """Each word of the ball, by its letters, to its vertex."""
    return {w.letters: i for i, w in enumerate(b.words)}


def suffix_images(b, x):
    """gamma * x for every word gamma of the ball by ReducedWord products
    and `vertex_index`, gamma's unit letters applied from the right, one
    product per word: gamma = l * rest, l its first unit letter.  -1 once
    a partial product leaves the ball."""
    p = b.presentation
    index = vertex_index(b)
    products = {(): b.words[x]}
    images = [x]
    for gamma in b.words[1:]:
        letter = p.generator(*gamma.unit_letters()[0])
        before = products.get((letter.inverse() * gamma).letters)
        product = None if before is None else letter * before
        if product is not None and product.letters in index:
            products[gamma.letters] = product
            images.append(index[product.letters])
        else:
            images.append(-1)
    return images


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_word_images_match_multiplication(data):
    """The word-image walk against ReducedWord products and `vertex_index`:
    every nonempty word of length <= limit times a vertex list (possibly
    empty, with repeats and boundary vertices), in groups of a few
    entries, each group its distinct words of one length with how many
    consecutive entries each owns; each (word, position) comes once, and
    the parity and colour selection of `_edges` keeps the right pairs."""
    name = data.draw(st.sampled_from(sorted(KERNEL_GROUPS)), label="group")
    radius = data.draw(st.integers(0, 6), label="radius")
    b = KERNEL_BALLS[name, radius]
    limit = data.draw(st.integers(0, radius), label="limit")
    lengths = word_lengths(b)
    boundary = np.flatnonzero(lengths == radius).tolist()
    drawn = data.draw(st.lists(st.integers(0, len(b) - 1), max_size=4), label="vertices")
    drawn += data.draw(st.lists(st.sampled_from(boundary), max_size=2), label="boundary")
    drawn += drawn[: data.draw(st.integers(0, 2), label="repeats")]
    vertices = np.array(drawn, dtype=np.int64)
    budget = data.draw(st.integers(1, 6), label="chunk budget")

    columns = {x: suffix_images(b, x) for x in set(drawn)}
    n_words = sum(b.sphere_sizes[: limit + 1])
    expected = {
        (g, j): columns[x][g] for g in range(1, n_words) for j, x in enumerate(drawn) if columns[x][g] >= 0
    }
    if name != "Z4*Z5":
        # Along a reduced word of F2 or Z2*Z3 the lengths fall and then
        # rise, so the walk drops exactly the products outside the ball.
        for g in range(1, n_words):
            for j, x in enumerate(drawn):
                product = b.words[g] * b.words[x]
                assert expected.get((g, j), -1) == vertex_index(b).get(product.letters, -1)

    parity = data.draw(st.integers(0, 1), label="parity")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="colour seed"))
    codes = rng.integers(0, 3, size=len(b))
    forbidden = rng.integers(0, 3, size=len(vertices))
    with patch.object(proper, "_BLOCK_ENTRIES", budget):
        groups = list(_walk(b, _start(vertices), 0, limit))
        kept_groups = list(_kept(_edges(b, limit, parity, vertices, codes, (forbidden,))))

    for length, (words, counts, position, image) in groups:
        assert 0 < len(position) <= budget and len(image) == len(position)
        assert position.dtype == image.dtype == np.int32
        assert len(words) == len(counts) and (counts > 0).all() and counts.sum() == len(position)
        assert len(np.unique(words)) == len(words), "a word came twice in one group"
        assert (lengths[words] == length).all()
    walked = [(int(g), int(j), int(y)) for _, group in groups for g, j, y in zip(*_expand(group))]
    assert len({(g, j) for g, j, _ in walked}) == len(walked), "a (word, position) came twice"
    assert {(g, j): y for g, j, y in walked} == expected

    want = sorted(
        (g, j, int(vertices[j]), y)
        for (g, j), y in expected.items()
        if lengths[g] % 2 == parity and codes[y] != forbidden[j]
    )
    for words, counts, position, _ in kept_groups:
        assert (counts > 0).all() and counts.sum() == len(position)
    kept = sorted(
        (int(g), int(j), int(vertices[j]), int(y)) for group in kept_groups for g, j, y in zip(*_expand(group))
    )
    assert kept == want
    xs, ys = _in_order(kept_groups, vertices)
    assert list(zip(xs.tolist(), ys.tolist())) == [(x, y) for _, _, x, y in want]


def test_calibrate_trivial_epsilon():
    b, config, base = setup_r6()
    cal = calibrate_N(base, epsilon=Fraction(1))
    assert cal.succeeded and cal.N == 1


def test_calibrate_failure_counts_monotone():
    b = ball(F2, 7)
    base = greedy_base_colouring(b, choice="random", seed=5)
    cal = calibrate_N(base, epsilon=Fraction(1, 10**9))
    fracs = [Fraction(fails, size) for _, size, fails in cal.trace]
    assert all(fracs[i + 1] <= fracs[i] for i in range(len(fracs) - 1))


def test_calibrate_reports_q_proxy():
    b = ball(F2, 7)
    base = greedy_base_colouring(b, choice="random", seed=5)
    cal = calibrate_N(base, epsilon=Fraction(1, 512))
    if cal.succeeded:
        assert cal.failure_fraction <= Fraction(1, 512)
        assert len(cal.failing) == cal.failure_fraction * cal.sample_size
    else:
        assert cal.N is None
        assert cal.failure_fraction > Fraction(1, 512)


def reference_calibration(base, epsilon):
    """calibrate_N one N at a time, each eligible vertex's colours read
    through the `left_table` of every odd word up to N: the loop the word
    walk replaced."""
    b = base.ball
    lengths = word_lengths(b)
    trace = []
    for n_odd in range(1, b.radius + 1, 2):
        eligible = np.flatnonzero(lengths <= b.radius - n_odd)
        seen = np.zeros((len(eligible), len(base.palette)), dtype=bool)
        for g in np.flatnonzero((lengths <= n_odd) & (lengths % 2 == 1)):
            seen[np.arange(len(eligible)), base.codes[b.left_table(b.words[g])[eligible]]] = True
        failing = tuple(eligible[~seen.all(axis=1)].tolist())
        trace.append((n_odd, len(eligible), len(failing)))
        if Fraction(len(failing), len(eligible)) <= epsilon:
            return n_odd, failing, tuple(trace)
    return None, failing, tuple(trace)


@pytest.mark.parametrize("seed", [0, 1, 2, 5])
def test_calibrate_matches_reference(seed):
    # One walk serves every N, trimmed to the vertices still eligible after
    # each odd sphere; the per-N loop must give the same trace and Q.
    for choice in GREEDY_CHOICES:
        for epsilon in (Fraction(1), Fraction(1, 512), Fraction(1, 10**9)):
            base = greedy_base_colouring(ball(F2, 6), choice=choice, seed=seed)
            cal = calibrate_N(base, epsilon=epsilon)
            assert (cal.N, cal.failing, cal.trace) == reference_calibration(base, epsilon)


def test_calibrate_and_check_proper_peak_traced_memory_at_radius_8():
    """calibrate_N and check_proper on the doubled-f2-r8 inputs (F2 at
    radius 8, random greedy, seed 3) under tracemalloc, above the memory
    they start from: 2.64 MiB when every word was walked over blocks of
    vertex columns, -1 images included, and 0.92 MiB with the pruned walk."""
    b = ball(F2, 8)
    config = sample(b, RandomSource(3))
    arrow_colouring = constructive_solve(config)
    base = greedy_base_colouring(b, choice="random", seed=3)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        cal = calibrate_N(base)
        graph = doubled_graph(config, base, cal.N, frozenset(cal.failing))
        report = check_proper(graph, canonical_doubled_colouring(graph, arrow_colouring), seed=3)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert report.satisfied and report.edges_checked["cross"] > 0
    assert peak <= 1.75 * 2**20, peak / 2**20


def test_calibrate_and_check_proper_peak_traced_memory_at_radius_10():
    """The same stages on F2 at radius 10 (118,097 vertices): 3.22 MiB
    with a (vertices x 17) boolean `seen`, the failing vertices of every N
    as Python ints and one word per walk entry; 2.55 MiB with a colour
    mask per vertex and the walk grouped by word, now set by
    check_proper.  The four unit tables these stages read, and keep cached
    for the rest of the run (1.8 MiB), are built before the window."""
    b = ball(F2, 10)
    config = sample(b, RandomSource(3))
    arrow_colouring = constructive_solve(config)
    base = greedy_base_colouring(b, choice="random", seed=3)
    b.unit_tables()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        cal = calibrate_N(base)
        graph = doubled_graph(config, base, cal.N, frozenset(cal.failing))
        report = check_proper(graph, canonical_doubled_colouring(graph, arrow_colouring), seed=3)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert report.satisfied and report.edges_checked["cross"] == 1749811
    assert peak <= 3 * 2**20, peak / 2**20


def test_doubled_graph_clips_limits_at_radius():
    b, config, base = setup_r6()
    graph = doubled_graph(config, base, 1)
    assert (graph.odd_limit, graph.even_limit) == (1, 6)
    graph = doubled_graph(config, base, 7)
    assert (graph.odd_limit, graph.even_limit) == (6, 6)


def test_rho_involution():
    b, config, base = setup_r6()
    graph = doubled_graph(config, base, 1)
    for v in (0, 5, len(b) - 1, len(b), 2 * len(b) - 1):
        assert graph.rho(graph.rho(v)) == v


def test_q_vertices_have_no_first_copy_edges():
    b, config, base = setup_r6()
    qv = 10  # a vertex of the 2-interior
    graph = doubled_graph(config, base, 1, q_proxy=frozenset({qv}))
    codes = canonical_doubled_colouring(graph, constructive_solve(config))
    report = check_proper(graph, codes, copy2_sample=8)
    assert report.satisfied
    assert qv not in graph.senders
    xs, _ = _in_order(_kept(graph.cross_edges()), graph.senders)
    assert len(xs) and qv not in xs, "Q vertex produced a cross edge"


def test_canonical_doubled_colouring_proper():
    b, config, base = setup_r6()
    graph = doubled_graph(config, base, 3)
    arrow_colouring = constructive_solve(config)
    codes = canonical_doubled_colouring(graph, arrow_colouring)
    # Copy t of vertex v is code t * |ball| + v, so rho(v) is v's second copy.
    n = len(b)
    assert codes.dtype == np.int16 and codes.shape == (2 * n,)
    assert np.array_equal(codes[:n], arrows_to_list_colouring(arrow_colouring, base).codes)
    assert np.array_equal(codes[n:], base.codes)
    assert codes[graph.rho(5)] == base.codes[5]
    report = check_proper(graph, codes, copy2_sample=48)
    assert report.satisfied and report.uncoloured == 0
    assert report.edges_checked["secondary"] > 0
    assert report.edges_checked["cross"] > 0
    assert report.edges_checked["copy2"] > 0

    # check_proper skips an uncoloured end, so it counts the blank instead.
    blank = codes.copy()
    blank[graph.rho(5)] = -1
    report = check_proper(graph, blank, copy2_sample=48)
    assert not report.conflicts and report.uncoloured == 1 and report.satisfied is False


def test_flow_audit_exact_gap():
    b, config, base = setup_r6()
    graph = doubled_graph(config, base, 1)
    codes = canonical_doubled_colouring(graph, constructive_solve(config))
    audit = flow_audit_doubled(codes, graph)
    assert audit.outflow_bound == Fraction(511, 512)
    assert audit.inflow_bound == Fraction(496, 512)
    assert not audit.feasibility.feasible
    ref = audit.feasibility.refutation
    assert ref.gap == Fraction(15, 512)
    assert replay_refutation(audit.program, ref)
    assert audit.outflow_fraction == 1
    assert audit.induced_crowded_fraction == 0
    assert audit.clique_touches_q_fraction == 0

    # Cliques are padded with -1: Q holding only the last vertex, a
    # boundary vertex in no clique, touches none and drops no edge.
    last = doubled_graph(config, base, 1, q_proxy=[len(b) - 1])
    assert flow_audit_doubled(codes, last).clique_touches_q_fraction == 0
    edges = check_proper(graph, codes, copy2_sample=8).edges_checked
    assert check_proper(last, codes, copy2_sample=8).edges_checked["secondary"] == edges["secondary"]


def test_flow_audit_counts_q():
    b, config, base = setup_r6()
    qv = {0, 1, 2}  # vertices of the 2-interior
    graph = doubled_graph(config, base, 1, q_proxy=frozenset(qv))
    codes = canonical_doubled_colouring(graph, constructive_solve(config))
    audit = flow_audit_doubled(codes, graph)
    assert audit.q_fraction == Fraction(3, b.interior_size(1))
    assert audit.outflow_fraction == 1 - audit.q_fraction
    assert audit.clique_touches_q_fraction > 0


def crowded_reference(codes, graph):
    """The induced crowded fraction with a count per ball vertex."""
    n, n_eligible = graph.n_first, graph.ball.interior_size(1)
    z1, z2 = candidate_arrays(graph.config, graph.senders)
    cx = codes[graph.senders]
    to_first = (cx >= 0) & (cx == codes[n + z1])
    to_second = ~to_first & (cx >= 0) & (cx == codes[n + z2])
    landed = np.bincount(np.concatenate([z1[to_first], z2[to_second]]), minlength=n)
    return Fraction(int((landed[:n_eligible] >= 2).sum()), n_eligible)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_flow_audit_crowded_matches_bincount(data):
    """Random Q and random doubled codes, with two senders planted to land
    on one clique centre: the audit's crowded count, read off the sorted
    landings, is the per-vertex count's."""
    b = ball(F2, data.draw(st.integers(5, 7), label="radius"))
    config = sample(b, RandomSource(data.draw(st.integers(0, 2**32), label="seed")))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32), label="codes"))
    q = frozenset(rng.choice(b.interior_size(1), size=data.draw(st.integers(0, 60), label="|Q|")).tolist())
    graph = doubled_graph(config, greedy_base_colouring(b), 1, q_proxy=q)
    codes = rng.integers(-1, data.draw(st.integers(1, 4), label="colours"), size=2 * len(b)).astype(np.int16)
    # A centre with two clique-mates off Q, both of colour 5 and so the only
    # vertices that can land on it: a double landing.
    centres = [k for k, row in enumerate(graph.secondary.cliques) if len([x for x in row if x >= 0 and x not in q]) >= 2]
    k = centres[data.draw(st.integers(0, len(centres) - 1), label="centre")]
    x, y = [int(v) for v in graph.secondary.cliques[k] if v >= 0 and v not in q][:2]
    codes[[x, y, len(b) + k]] = 5
    expected = crowded_reference(codes, graph)
    assert expected >= Fraction(1, b.interior_size(1))
    assert flow_audit_doubled(codes, graph).induced_crowded_fraction == expected


def test_doubled_csv(tmp_path):
    b = ball(F2, 5)
    config = sample(b, RandomSource(2))
    base = greedy_base_colouring(b)
    graph = doubled_graph(config, base, 1)
    path = tmp_path / "doubled.csv"
    with open(path, "w") as fh:
        graph.write_csv(fh)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "family,from,to"
    families = {line.split(",")[0] for line in lines[1:]}
    assert families <= {"secondary", "cross", "copy2"}
    assert "secondary" in families


def reference_conflicts(graph, codes, seconds):
    """Cross and copy2 conflicts one word at a time, each word's image read
    from its own `left_table`: the loop the blocked kernel replaced."""
    b = graph.ball
    n = len(b)
    base = graph.base.codes
    lengths = word_lengths(b)
    firsts = np.array([x for x in np.flatnonzero(lengths < b.radius) if not graph.q[x]], dtype=np.int64)
    pairs = np.stack(candidate_arrays(graph.config, firsts), axis=1)
    out = []
    for g in range(1, sum(b.sphere_sizes[: graph.odd_limit + 1])):
        if lengths[g] % 2 == 1:
            z = b.left_table(b.words[g])[firsts]
            keep = (z >= 0) & (base[z] != base[pairs[:, 0]]) & (base[z] != base[pairs[:, 1]])
            for x, y in zip(firsts[keep], z[keep]):
                if codes[x] >= 0 and codes[x] == codes[n + y]:
                    out.append(("cross", int(x), int(n + y)))
    for g in range(1, sum(b.sphere_sizes[: graph.even_limit + 1])):
        if lengths[g] % 2 == 0:
            y = b.left_table(b.words[g])[seconds]
            keep = (y >= 0) & (base[y] != base[seconds])
            for u, v in zip(seconds[keep], y[keep]):
                if codes[n + u] >= 0 and codes[n + u] == codes[n + v]:
                    out.append(("copy2", int(n + u), int(n + v)))
    return out


def test_check_proper_reports_planted_cross_and_copy2_conflicts():
    b, config, base = setup_r6()
    n = len(b)
    graph = doubled_graph(config, base, 3)
    proper_codes = canonical_doubled_colouring(graph, constructive_solve(config))
    seconds = np.arange(n)
    assert check_proper(graph, proper_codes, copy2_sample=None).satisfied
    assert reference_conflicts(graph, proper_codes, seconds) == []

    # Two cross edges listed in the reverse of their vertex order: the last
    # of the first word and the first of the last word.
    senders = graph.senders
    cross = sorted(
        (int(g), int(j), int(senders[j]), int(z))
        for group in _kept(graph.cross_edges())
        for g, j, z in zip(*_expand(group))
    )
    last_of_first = max(edge for edge in cross if edge[0] == cross[0][0])
    first_of_last = min(edge for edge in cross if edge[0] == cross[-1][0])
    assert first_of_last[2] < last_of_first[2]
    planted = proper_codes.copy()
    for _, _, x, z in (last_of_first, first_of_last):
        planted[n + z] = planted[x]
    us, vs = _in_order(_kept(graph.copy2_edges(seconds)), seconds)
    u, v = int(us[len(us) // 3]), int(vs[len(vs) // 3])
    planted[n + v] = planted[n + u]

    report = check_proper(graph, planted, copy2_sample=None)
    expected = reference_conflicts(graph, planted, seconds)
    assert report.conflicts == tuple(expected)
    with patch.object(proper, "_BLOCK_ENTRIES", 1000):  # a few columns per block
        assert check_proper(graph, planted, copy2_sample=None) == report
    for _, _, x, z in (last_of_first, first_of_last):
        assert ("cross", x, n + z) in report.conflicts
    assert ("copy2", n + u, n + v) in report.conflicts
    families = [family for family, _, _ in report.conflicts]
    assert families.count("cross") >= 2 and families.count("copy2") >= 2
    assert "secondary" not in families
    assert not report.satisfied and report.to_record()["n_conflicts"] == len(expected)

    # One equal colour on a secondary edge is a listed conflict, and the
    # audit still reads the colouring: properness is check_proper's verdict.
    xs, ys, _ = graph.secondary.edges()
    sx, sy = int(xs[0]), int(ys[0])
    codes = proper_codes.copy()
    codes[sy] = codes[sx]
    assert check_proper(graph, codes, copy2_sample=None).conflicts[0] == ("secondary", sx, sy)
    flow_audit_doubled(codes, graph)


def test_cross_conflicts_listed_by_word_then_vertex_in_merged_and_separate_groups():
    """Cross conflicts planted on two words, the later word's at an
    earlier vertex, are listed in (word, position) order both when the
    walk merges the two words into one group and when a small
    _BLOCK_ENTRIES keeps them in separate groups."""
    b, config, base = setup_r6()
    n = len(b)
    graph = doubled_graph(config, base, 3)
    codes = canonical_doubled_colouring(graph, constructive_solve(config))
    senders = graph.senders

    def kept_groups(budget):
        with patch.object(proper, "_BLOCK_ENTRIES", budget):
            return list(_kept(graph.cross_edges()))

    merged = next(group for group in kept_groups(proper._BLOCK_ENTRIES) if len(group[0]) >= 2)
    g1, g2 = sorted(merged[0][:2].tolist())
    word, position, z = _expand(merged)
    edges = {g: sorted(zip(position[word == g].tolist(), z[word == g].tolist())) for g in (g1, g2)}
    (j1, z1), (j2, z2) = edges[g1][-1], edges[g2][0]
    assert senders[j2] < senders[j1]
    small = 64
    assert not any({g1, g2} <= set(group[0].tolist()) for group in kept_groups(small))

    planted = codes.copy()
    planted[n + z1] = planted[senders[j1]]
    planted[n + z2] = planted[senders[j2]]
    report = check_proper(graph, planted, copy2_sample=None)
    with patch.object(proper, "_BLOCK_ENTRIES", small):
        assert check_proper(graph, planted, copy2_sample=None) == report
    cross = [conflict for conflict in report.conflicts if conflict[0] == "cross"]
    assert cross == [c for c in reference_conflicts(graph, planted, np.arange(n)) if c[0] == "cross"]
    first, second = ("cross", int(senders[j1]), n + z1), ("cross", int(senders[j2]), n + z2)
    assert cross.index(first) < cross.index(second)


def secondary_reference(config):
    """Centres and tuple cliques one centre at a time: the form the padded
    array replaced."""
    b = config.ball
    t1, u1, t2, u2 = neighbour_tables(b)
    v = config.values
    centers, cliques = [], []
    for z in np.flatnonzero(word_lengths(b) <= b.radius - 2).tolist():
        slots = ((t1[z], -1), (u1[z], 1), (t2[z], -1), (u2[z], 1))
        centers.append(z)
        cliques.append(tuple(int(nb) for nb, need in slots if nb >= 0 and v[nb] == need))
    return centers, cliques


def edges_reference(centers, cliques):
    return [(x, y, z) for z, clique in zip(centers, cliques) for x, y in combinations(sorted(clique), 2)]


def check_proper_list_reference(centers, cliques, lists, colouring):
    """The adjacency-dict loop `check_proper_list` replaced."""
    adj = {m: set() for clique in cliques for m in clique}
    for x, y, _ in edges_reference(centers, cliques):
        adj[x].add(y)
        adj[y].add(x)
    violations = []
    for x in sorted(adj):
        assigned = colouring.colour_at(x)
        allowed = frozenset(lists[x]) - {colouring.colour_at(y) for y in adj[x]}
        if assigned is None or assigned not in allowed:
            violations.append((x, assigned or "", allowed))
    return ViolationReport(interior_size=len(adj), violations=tuple(violations))


SECONDARY_BALLS = {r: ball(F2, r) for r in range(3, 8)}


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_secondary_family_matches_reference_loops(data):
    """Edges, members, lists, the list check, off-Q conflicts and the touch
    fraction against the tuple cliques and per-vertex loops, on random
    configurations, base colourings, colourings and Q sets."""
    b = SECONDARY_BALLS[data.draw(st.integers(3, 7), label="radius")]
    config = sample(b, RandomSource(data.draw(st.integers(0, 2**16), label="config seed")))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="colour seed"))
    k = data.draw(st.integers(2, 17), label="colours")

    graph = secondary_graph(config)
    centers, cliques = secondary_reference(config)
    assert centers == list(range(len(graph.cliques)))
    assert graph.cliques.shape == (len(centers), 4)
    assert [tuple(row[row >= 0].tolist()) for row in graph.cliques] == cliques
    x, y, z = graph.edges()
    edges = edges_reference(centers, cliques)
    assert list(zip(x.tolist(), y.tolist(), z.tolist())) == edges
    members = graph.members()
    assert members.tolist() == sorted({m for clique in cliques for m in clique})

    base = Colouring(b, PALETTE17, rng.integers(0, k, size=len(b)))
    lists = list_assignments(config, base, members)
    assert lists.shape == (len(members), 2)
    for w, pair in zip(members.tolist(), lists.tolist()):
        z1, z2 = candidate_pair(config, w)
        assert pair == [base.codes[z1], base.codes[z2]] == list_assignments(config, base, [w])[0].tolist()
    names = {w: (PALETTE17[c1], PALETTE17[c2]) for w, (c1, c2) in zip(members.tolist(), lists.tolist())}
    colouring = Colouring(b, PALETTE17, rng.integers(-1, k, size=len(b)))
    report = check_proper_list(graph, base, colouring)
    assert report == check_proper_list_reference(centers, cliques, names, colouring)

    q = frozenset(rng.choice(len(b), size=data.draw(st.integers(0, 40), label="|Q|")).tolist())
    doubled = doubled_graph(config, base, 1, q_proxy=q)
    assert doubled.senders.tolist() == [v for v in np.flatnonzero(word_lengths(b) < b.radius).tolist() if v not in q]
    codes = np.concatenate([colouring.codes, base.codes])
    off_q = [(x, y) for x, y, _ in edges if x not in q and y not in q]
    conflicts = [("secondary", x, y) for x, y in off_q if codes[x] >= 0 and codes[x] == codes[y]]
    report = check_proper(doubled, codes, copy2_sample=0)
    assert report.edges_checked["secondary"] == len(off_q)
    assert [c for c in report.conflicts if c[0] == "secondary"] == conflicts
    blank = np.full(2 * len(b), -1, dtype=np.int16)
    touches = sum(1 for clique in cliques if not q.isdisjoint(clique))
    expected = Fraction(touches, len(cliques)) if cliques else Fraction(0)
    assert flow_audit_doubled(blank, doubled).clique_touches_q_fraction == expected



def greedy_reference(b, choice, seed):
    """The vertex-by-vertex greedy the layered one replaced."""
    tables = [b.left_table(g) for g in offsets16(b.presentation)]
    codes = np.full(len(b), -1, dtype=np.int16)
    rng = np.random.default_rng(seed)
    for w in range(len(b)):
        used = {int(codes[t[w]]) for t in tables if t[w] >= 0}
        free = [c for c in range(len(PALETTE17)) if c not in used]
        codes[w] = free[0] if choice == "min" else int(rng.choice(free))
    return codes


GREEDY_BALLS = {r: ball(F2, r) for r in range(5, 9)}


@settings(max_examples=30, deadline=None)
@given(
    radius=st.integers(5, 8),
    choice=st.sampled_from(GREEDY_CHOICES),
    seed=st.integers(0, 2**63),
)
def test_layered_greedy_matches_reference_loop(radius, choice, seed):
    b = GREEDY_BALLS[radius]
    codes = greedy_base_colouring(b, choice, seed).codes
    assert codes.dtype == np.int16
    assert np.array_equal(codes, greedy_reference(b, choice, seed))


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 80), lists=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_depths_is_the_longest_earlier_chain(n, lists, seed):
    # Random pair lists, each holding a target at most once (as an offset
    # table does), every pair from an earlier to a later vertex.
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(lists):
        dst = rng.permutation(n)[: rng.integers(0, n + 1)]
        dst = dst[dst > 0].astype(np.int32)
        src = (rng.random(len(dst)) * dst).astype(np.int32)
        pairs.append((src, dst))
    expected = np.zeros(n, dtype=np.int32)
    for v in range(n):  # every source precedes its target
        expected[v] = np.concatenate([expected[src[dst == v]] + 1 for src, dst in pairs]).max(initial=0)
    assert np.array_equal(proper._depths(pairs, n), expected)


@pytest.mark.parametrize("seed", [0, 1, 29, 2**40 + 3])
def test_choice_words_replay_generator_choice(seed):
    """The random fast path replays `Generator.choice` from the raw stream:
    one word per draw, (u * k) >> 32, and no word when k == 1.  A numpy
    release that draws differently fails here, not in an artifact."""
    for k in range(1, len(PALETTE17) + 1):
        rng = np.random.default_rng(seed)
        drawn = [int(rng.choice(list(range(k)))) for _ in range(300)]
        if k == 1:
            assert drawn == [0] * 300
            assert _choice_draws(np.zeros(1, dtype=np.uint32), np.array([1])) is None
            assert rng.bit_generator.random_raw() == np.random.default_rng(seed).bit_generator.random_raw()
        else:
            assert _choice_draws(_choice_words(seed, 300), np.full(300, k)).tolist() == drawn
    # Mixed list sizes, as the greedy meets them: k == 1 reads no word.
    ks = np.random.default_rng(seed + 1).integers(1, len(PALETTE17) + 1, size=2000)
    rng = np.random.default_rng(seed)
    drawn = np.array([rng.choice(list(range(k))) for k in ks.tolist()])
    reads = ks > 1
    assert not drawn[~reads].any()
    assert np.array_equal(_choice_draws(_choice_words(seed, int(reads.sum())), ks[reads]), drawn[reads])


PCG64_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341


def zero_start_generator(seed=None):
    """A PCG64 generator whose first 64-bit output is 0.  PCG64 steps its
    state to s * M + inc before mixing the two halves of the new state, and
    the mix of a zero state is 0, so start from the preimage of zero."""
    bits = np.random.PCG64(seed)
    inc = bits.state["state"]["inc"]
    start = -inc * pow(PCG64_MULTIPLIER, -1, 1 << 128) % (1 << 128)
    bits.state = {"bit_generator": "PCG64", "state": {"state": start, "inc": inc}, "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bits)


def test_lemire_rejection_matches_generator_choice():
    """2**32 % 3 == 1, so the word 0 is rejected for k = 3 (and accepted
    for k = 2): `choice` then reads on, past both zero halves of the first
    output, to the low half of the second."""
    assert _choice_draws(np.zeros(1, dtype=np.uint32), np.array([3])) is None
    assert _choice_draws(np.zeros(1, dtype=np.uint32), np.array([2])).tolist() == [0]
    first, second = zero_start_generator(4).bit_generator.random_raw(2)
    assert first == 0
    settled = _choice_draws(np.array([second & 0xFFFFFFFF], dtype=np.uint32), np.array([3]))
    assert int(zero_start_generator(4).choice([0, 1, 2])) == int(settled[0])


def test_random_greedy_falls_back_to_loop_when_a_word_is_rejected(monkeypatch):
    """Vertex 0 draws from all 17 colours, and 2**32 % 17 == 1 rejects the
    word 0: the stream shifts, so the loop must produce the colouring."""
    b = GREEDY_BALLS[6]
    monkeypatch.setattr(np.random, "default_rng", zero_start_generator)
    with patch.object(proper, "_random_greedy_loop", wraps=proper._random_greedy_loop) as loop:
        codes = greedy_base_colouring(b, "random", 3).codes
    loop.assert_called_once()
    assert np.array_equal(codes, greedy_reference(b, "random", 3))
    assert offset_conflicts(Colouring(b, PALETTE17, codes)) == 0


def test_random_greedy_default_path_runs_no_loop():
    with patch.object(proper, "_random_greedy_loop", wraps=proper._random_greedy_loop) as loop:
        greedy_base_colouring(GREEDY_BALLS[8], "random", 0)
    loop.assert_not_called()


@settings(max_examples=200, deadline=None)
@given(mask=st.integers(1, 2 ** len(PALETTE17) - 1), data=st.data())
def test_nth_set_bit_matches_list_of_free_colours(mask, data):
    free = [c for c in range(len(PALETTE17)) if mask >> c & 1]
    n = data.draw(st.integers(0, len(free) - 1))
    assert _nth_set_bit(np.array([mask], dtype=np.int32), np.array([n])).tolist() == [free[n]]
