import functools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cayleycolour.groups import (
    Ball,
    Presentation,
    ReducedWord,
    _compose,
    ball,
    free_group,
    reduce_letters,
    z2_z3,
)
from cayleycolour.hausdorff import hausdorff_solve, six_piece_doubling
from cayleycolour.proper import greedy_base_colouring, offset_conflicts

from helpers import word_lengths


def test_free_group_sphere_sizes():
    # |S(l)| = 2k * (2k-1)^(l-1) for F_k; k=2 gives 4 * 3^(l-1).
    b = ball(free_group(2), 6)
    assert b.sphere_sizes[0] == 1
    for ell in range(1, 7):
        assert b.sphere_sizes[ell] == 4 * 3 ** (ell - 1)


def test_free_group_ball_sizes():
    b = ball(free_group(2), 3)
    assert len(b) == 53
    assert sum(b.sphere_sizes[:2]) == 5
    assert sum(b.sphere_sizes[:3]) == 17


def test_z2_z3_sphere_sizes():
    # Alternating normal form: counts follow c(l+1) = 2*c(l-1) once both
    # letter types are in play.
    b = ball(z2_z3(), 9)
    assert b.sphere_sizes == [1, 3, 4, 6, 8, 12, 16, 24, 32, 48]


def test_z2_z3_words_alternate():
    b = ball(z2_z3(), 6)
    for w in b.words:
        gens = [g for g, _ in w.letters]
        for a, b2 in zip(gens, gens[1:]):
            assert a != b2
        for g, e in w.letters:
            order = w.presentation.order(g)
            assert 1 <= e < order


def test_identity_parse_and_render():
    p = free_group(2)
    assert p.word("1").is_identity
    assert p.word("").is_identity
    assert p.identity().to_string() == "1"


def test_word_round_trip():
    p = free_group(3)
    for text in ["a", "A", "ab", "aBc", "aaB", "abA", "Abba"]:
        w = p.word(text)
        assert p.word(w.to_string()) == w


def test_mixed_word_length():
    p = free_group(2)
    w = p.word("aB") * p.word("aB")
    assert w.length == 4
    assert w.to_string() == "aBaB"


def test_cancellation():
    p = free_group(2)
    assert (p.word("ab") * p.word("Ba")).to_string() == "aa"
    assert (p.word("ab") * p.word("BA")).is_identity


def test_torsion_normalisation():
    p = z2_z3()
    t = p.word("t")
    assert (t * t * t).is_identity
    assert (t * t) == p.word("T")
    assert (t * t).length == 1
    s = p.word("s")
    assert (s * s).is_identity
    assert p.word("S") == s


def test_inverse():
    p = free_group(2)
    for text in ["a", "ab", "aBa", "abAB"]:
        w = p.word(text)
        assert (w * w.inverse()).is_identity
        assert (w.inverse() * w).is_identity


def test_reduce_idempotent_on_random_raw():
    p = free_group(2)
    rng = random.Random(7)
    for _ in range(200):
        raw = [(rng.randrange(2), rng.choice([-2, -1, 1, 2])) for _ in range(rng.randrange(12))]
        w = reduce_letters(raw, p)
        assert reduce_letters(list(w.letters), p) == w


def test_associativity_exhaustive_small():
    p = z2_z3()
    words = ball(p, 2).words
    for u in words:
        for v in words:
            for w in words:
                assert (u * v) * w == u * (v * w)


def test_each_vertex_has_one_shorter_neighbour():
    # Geodesics are unique in a free product: stripping the first letter is
    # the only length-decreasing left step.
    for p in (free_group(2), z2_z3()):
        b = ball(p, 4)
        for w in b.words:
            if w.is_identity:
                continue
            shorter = 0
            for g, e in p.adjacency_letters():
                u = p.generator(g, e) * w
                if u.length < w.length:
                    shorter += 1
            assert shorter == 1, str(w)


def test_prefix_closed():
    p = free_group(2)
    b = ball(p, 4)
    for w in b.words:
        units = w.unit_letters()
        for cut in range(len(units)):
            suffix = reduce_letters(units[cut:], p)
            assert suffix in b.words


def test_left_table_matches_mul():
    p = free_group(2)
    b = ball(p, 3)
    g = p.word("aB")
    table = b.left_table(g)
    for i, w in enumerate(b.words):
        u = g * w
        if u in b.words:
            assert table[i] == b.words.index(u)
        else:
            assert table[i] == -1


def test_right_table_matches_mul():
    p = z2_z3()
    b = ball(p, 4)
    g = p.word("ts")
    table = b.right_table(g)
    for i, w in enumerate(b.words):
        u = w * g
        if u in b.words:
            assert table[i] == b.words.index(u)
        else:
            assert table[i] == -1


def test_composed_table_no_false_dropout():
    # Per-letter composition may only report -1 when the product truly
    # leaves the ball, never because an intermediate step grazed the rim.
    p = free_group(2)
    b = ball(p, 3)
    for text in ["ab", "AB", "aBa", "bbA"]:
        g = p.word(text)
        table = b.left_table(g)
        for i, w in enumerate(b.words):
            assert (table[i] >= 0) == ((g * w) in b.words)


INTERIOR_PRESENTATIONS = {"f1": free_group(1), "f2": free_group(2), "f3": free_group(3), "st": free_group(2, "st"), "z2z3": z2_z3()}


@functools.cache
def interior_ball(name: str, radius: int) -> Ball:
    return ball(INTERIOR_PRESENTATIONS[name], radius)


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(INTERIOR_PRESENTATIONS)), radius=st.integers(0, 8), data=st.data())
def test_interior_size(name, radius, data):
    # The vertices whose depth-neighbourhood stays inside are those of
    # length at most radius - depth, and they come first in vertex order.
    b = interior_ball(name, radius)
    depth = data.draw(st.integers(0, radius + 1), label="depth")
    n = b.interior_size(depth)
    lengths = word_lengths(b)
    assert n == np.count_nonzero(lengths <= radius - depth)
    assert np.all(lengths[:n] <= radius - depth)
    if depth > radius:
        assert n == 0


def test_sphere_order_is_deterministic():
    w1 = [w.to_string() for w in ball(free_group(2), 2).words]
    w2 = [w.to_string() for w in ball(free_group(2), 2).words]
    assert w1 == w2
    assert w1[0] == "1"


def test_ball_rejects_bad_radius():
    with pytest.raises(ValueError):
        Ball(free_group(2), -1)


def test_lengths_array():
    b = ball(free_group(2), 2)
    assert list(word_lengths(b)[:5]) == [0, 1, 1, 1, 1]


def test_lengths_past_one_byte():
    """Word lengths come from the sphere sizes, with no per-vertex array
    whose type could wrap a long radius: a one-byte array would wrap 300 to
    44."""
    b = ball(free_group(1), 300)
    assert len(b) == 601
    assert b.sphere_sizes == [1] + [2] * 300
    assert int(word_lengths(b).max()) == 300
    assert word_lengths(b).tolist() == [0] + [ell for ell in range(1, 301) for _ in range(2)]


# ---------------------------------------------------------------------------
# Property tests against an object-per-vertex reference.


def reference_ball(p: Presentation, radius: int) -> tuple[list[ReducedWord], dict]:
    """Breadth-first search by left multiplication with unit letters, each
    sphere sorted by sort_key: the word-object oracle for the array Ball."""
    words = [p.identity()]
    index = {(): 0}
    letter_words = [p.generator(g, e) for g, e in p.adjacency_letters()]
    frontier = [p.identity()]
    for ell in range(1, radius + 1):
        found = {}
        for w in frontier:
            for lw in letter_words:
                u = reduce_letters(list(lw.letters) + list(w.letters), p)
                if u.length == ell and u.letters not in index:
                    found[u.letters] = u
        frontier = sorted(found.values(), key=ReducedWord.sort_key)
        for u in frontier:
            index[u.letters] = len(words)
            words.append(u)
    return words, index


def reference_table(words, index, g: ReducedWord, side: str) -> np.ndarray:
    products = (g * w if side == "left" else w * g for w in words)
    return np.array([index.get(u.letters, -1) for u in products], dtype=np.int32)


ORDERS = st.sampled_from([None, 2, 3, 4, 5])
PRESENTATIONS = st.lists(ORDERS, min_size=1, max_size=3).map(
    lambda orders: Presentation(tuple(zip("abc", orders)))
)
NAMED = {
    "F1": free_group(1),
    "F2": free_group(2),
    "F3": free_group(3),
    "Z2*Z3": z2_z3(),
    "Z4*Z5": Presentation((("a", 4), ("b", 5))),
    "<a, s^2>": Presentation((("a", None), ("s", 2))),
}


ANY_PRESENTATION = st.one_of(PRESENTATIONS, st.sampled_from(list(NAMED.values())))


def raw_words(p: Presentation, max_size: int = 8):
    letters = st.tuples(st.integers(0, p.n_generators - 1), st.integers(-7, 7))
    return st.lists(letters, max_size=max_size).map(lambda raw: reduce_letters(raw, p))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), p=PRESENTATIONS)
def test_reduced_word_group_laws(data, p):
    u, v, w = (data.draw(raw_words(p)) for _ in range(3))
    assert (u * v) * w == u * (v * w)
    assert (u * u.inverse()).is_identity and (u.inverse() * u).is_identity
    assert u.inverse().inverse() == u
    assert (u * v).inverse() == v.inverse() * u.inverse()


@settings(max_examples=40, deadline=None)
@given(data=st.data(), p=PRESENTATIONS, radius=st.integers(0, 4))
def test_tables_compose_inside_the_ball(data, p, radius):
    b = ball(p, radius)
    g, h = data.draw(raw_words(p, 4)), data.draw(raw_words(p, 4))
    inner = b.left_table(h)
    stays = inner >= 0
    assert np.array_equal(b.left_table(g * h)[stays], b.left_table(g)[inner[stays]])
    first = b.right_table(g)
    stays = first >= 0
    assert np.array_equal(b.right_table(g * h)[stays], b.right_table(h)[first[stays]])


@settings(max_examples=40, deadline=None)
@given(p=PRESENTATIONS, radius=st.integers(0, 4))
@example(p=NAMED["F1"], radius=6)
@example(p=NAMED["F2"], radius=5)
@example(p=NAMED["F3"], radius=3)
@example(p=NAMED["Z2*Z3"], radius=9)
@example(p=NAMED["Z4*Z5"], radius=6)
@example(p=NAMED["<a, s^2>"], radius=6)
def test_array_ball_matches_reference(p, radius):
    words, index = reference_ball(p, radius)
    b = ball(p, radius)
    assert list(b.words) == words
    assert [b.words[i] for i in range(len(b))] == words
    names = b.names()
    assert names == [w.to_string() for w in words]
    assert [index[p.word(name).letters] for name in names] == list(range(len(words)))
    assert list(word_lengths(b)) == [w.length for w in words]
    assert sum(b.sphere_sizes) == len(words)
    # The tree: each vertex's first unit letter, one byte each, and the
    # vertex left when it is removed.
    letters = p.adjacency_letters()
    units = [w.unit_letters() for w in words]
    assert b.first.dtype == np.int8
    assert b.first.tolist() == [-1] + [letters.index(u[0]) for u in units[1:]]
    assert b.parent.tolist() == [-1] + [index[reduce_letters(u[1:], p).letters] for u in units[1:]]
    for gen, exp in letters:
        unit = p.generator(gen, exp)
        for side in ("left", "right"):
            table = b.left_table(unit) if side == "left" else b.right_table(unit)
            assert np.array_equal(table, reference_table(words, index, unit, side)), (unit, side)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), p=PRESENTATIONS, radius=st.integers(0, 4))
def test_word_tables_match_reference(data, p, radius):
    # Exponents run past the radius and past every order, so block tables
    # meet blocks that leave the ball or wrap around.  A product comes after
    # its factors, so its table may be one gather of theirs.
    words, index = reference_ball(p, radius)
    b = ball(p, radius)
    g, h = data.draw(raw_words(p, 4)), data.draw(raw_words(p, 4))
    for w in (g, h, g * h):
        assert np.array_equal(b.left_table(w), reference_table(words, index, w, "left")), w
        assert np.array_equal(b.right_table(w), reference_table(words, index, w, "right")), w


@settings(max_examples=30, deadline=None)
@given(p=PRESENTATIONS, radius=st.integers(0, 4))
@example(p=NAMED["F1"], radius=6)
@example(p=NAMED["F2"], radius=4)
@example(p=NAMED["F3"], radius=2)
@example(p=NAMED["Z2*Z3"], radius=7)
@example(p=NAMED["Z4*Z5"], radius=5)
@example(p=NAMED["<a, s^2>"], radius=5)
def test_block_and_inverse_tables_match_reference(p, radius):
    # Every block's table is filled from the part layout, whichever of a
    # block and its inverse is built first; each must give the oracle's
    # table.  Exponents run past the radius and, unreduced, past every
    # order.
    words, index = reference_ball(p, radius)
    for gen in range(p.n_generators):
        for exp in range(-radius - 2, radius + 3):
            if p.generator(gen, exp).is_identity:
                continue
            expected = {e: reference_table(words, index, p.generator(gen, e), "left") for e in (exp, -exp)}
            for order in ((exp, -exp), (-exp, exp)):
                b = ball(p, radius)
                for e in order:
                    assert np.array_equal(b._block_table((gen, e)), expected[e]), (gen, e, order)


@settings(max_examples=40, deadline=None)
@given(p=ANY_PRESENTATION, radius=st.integers(0, 4))
def test_inverse_matches_reference(p, radius):
    # The inverse permutation reads the unit tables, so it caches those
    # and no other table.
    words, index = reference_ball(p, radius)
    b = ball(p, radius)
    assert b._inverses().tolist() == [index[w.inverse().letters] for w in words]
    assert sorted(b._left) == sorted(p.generator(gen, exp).letters for gen, exp in p.adjacency_letters())


def test_words_index_must_be_an_integer():
    b = ball(free_group(2), 2)
    assert b.words[np.int64(1)] == b.words[1] == b.words[-16] == free_group(2).word("a")
    for index in (1.5, 1.0, "1"):
        with pytest.raises(TypeError):
            b.words[index]
    with pytest.raises(IndexError):
        b.words[17]


def test_ball_build_peak_traced_memory_at_radius_12():
    """F2 at radius 12 (1,062,881 vertices) and its four unit tables under
    tracemalloc, which numpy reports its buffers to: 84.2 MiB when each unit
    table binary-searched a 64-bit key per vertex."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        b = ball(free_group(2), 12)
        assert len(b) == 1_062_881
        b.unit_tables()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 45 * 2**20, peak / 2**20


def test_offsets_peak_traced_memory_at_radius_12():
    """Ball, greedy base colouring and conflict count of F2 at radius 12
    under tracemalloc, which numpy reports its buffers to.  With the 8
    offset tables of one per inverse pair, this peaked at 103.0 MiB while
    the ball's unit tables binary-searched a 64-bit key per vertex, at
    94.9 MiB once they were filled from the ball's part layout, and at
    70.6 MiB once the block tables that only compose the offset tables were
    no longer cached, 66.5 MiB with the 8 offset tables still cached, and
    33.7 MiB once one uncached pass turned them into the pair lists that
    greedy and count read, and the ball's first and lengths took a byte."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        assert offset_conflicts(greedy_base_colouring(ball(free_group(2), 12))) == 0
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 37 * 2**20, peak / 2**20


def test_compose_reads_minus_one_through():
    outer = np.array([2, -1, 0, 1], dtype=np.int32)
    inner = np.array([-1, 3, 1, -1], dtype=np.int32)
    out = _compose(outer, inner)
    assert out.dtype == np.int32
    assert out.tolist() == [-1, 1, -1, -1]
    assert _compose(outer, np.full(4, -1, dtype=np.int32)).tolist() == [-1, -1, -1, -1]
    assert _compose(np.array([-1], dtype=np.int32), np.array([0], dtype=np.int32)).tolist() == [-1]
    assert _compose(np.array([0], dtype=np.int32), np.array([-1], dtype=np.int32)).tolist() == [-1]


def test_radius_zero_ball_tables():
    for p in (free_group(2), z2_z3()):
        b = ball(p, 0)
        assert len(b) == 1
        assert b.left_table(p.identity()).tolist() == [0]
        for text in ("ab", "A", "aab") if p.order(0) is None else ("s", "tt", "st"):
            g = p.word(text)
            assert b.left_table(g).tolist() == [-1]
            assert b.right_table(g).tolist() == [-1]


def test_one_block_table_per_element_after_hausdorff_audit():
    # The unit tables are those of s, t and T = t^2, which the audit's
    # movers read; the audit leaves the cache as it found it.  Tables are
    # cached under their element's canonical letters, so the one-letter
    # tables are those three, and reading T again, spelt either way, or the
    # names adds no entry.
    p = z2_z3()
    b = ball(p, 10)
    b.unit_tables()
    tables = set(b._left)
    assert six_piece_doubling(hausdorff_solve(b)).all_verified
    assert set(b._left) == tables
    assert all(reduce_letters(list(key), p).letters == key for key in tables)
    assert sorted(key for key in tables if len(key) == 1) == [((0, 1),), ((1, 1),), ((1, 2),)]
    b.names()
    b.left_table(p.word("T"))
    b.left_table(p.word("tt"))
    assert set(b._left) == tables
