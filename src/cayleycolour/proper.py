"""Offset-proper base partition and the colourings built on top of it.

A 17-colour partition proper for 16 fixed offsets gives every vertex a
two-colour list (the colours of its two arrow candidates).  Proper list
colourings of the secondary graph correspond to uncrowded arrow fields,
and a doubled construction turns any proper colouring back into an arrow
field whose mass accounting is exactly infeasible.

Each function reads the ball and sign bits from the objects it is given:
the graphs from their configuration, the calibration from the base
colouring, the list transport from the arrow colouring.  Lists are held
as base-colour codes; palette names appear only in reported violations.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from . import _lazy
from .configs import Configuration
from .groups import Ball, Presentation, ReducedWord, check_rank_two_free, free_group
from .rules import Colouring, ViolationReport

# The greedy partition and its offset count read neither.
arrows = _lazy("arrows")
measures = _lazy("measures")

PALETTE17 = tuple(f"c{i}" for i in range(17))
GREEDY_CHOICES = ("min", "random")

OUTFLOW_BOUND = Fraction(511, 512)
INFLOW_BOUND = Fraction(31, 32)
EPSILON = Fraction(1, 512)


def offsets16(presentation: Presentation | None = None) -> tuple[ReducedWord, ...]:
    """The 16 offsets: the mixed-sign length-2 words aB, Ab, bA, Ba, then
    the twelve length-4 products g*h of two of them with h != g^-1, in that
    order.  They are spelled by generator index, so every rank-two free
    presentation has them."""
    p = free_group(2) if presentation is None else presentation
    check_rank_two_free(p, "offsets live on the rank-two free group")
    short = tuple(ReducedWord(p, ((i, e), (1 - i, -e))) for i, e in ((0, 1), (0, -1), (1, 1), (1, -1)))
    return short + tuple(g * h for g in short for h in short if not (g * h).is_identity)


def representatives(offsets: Sequence[ReducedWord]) -> tuple[ReducedWord, ...]:
    """The first element of each inverse pair {g, g^-1}, in the order given."""
    return tuple(g for i, g in enumerate(offsets) if g.inverse() not in offsets[:i])


def greedy_base_colouring(b: Ball, choice: str = "min", seed: int = 0) -> Colouring:
    """17 colours, proper for all 16 offsets; each vertex has at most 16
    offset-neighbours so a free colour always exists.

    Vertices are coloured one by one in vertex order, each with the
    smallest colour its earlier offset-neighbours left free (`min`) or with
    `rng.choice` of those colours (`random`).  That greedy is computed layer
    by layer over the DAG of earlier neighbours: a vertex's colour depends
    only on vertices in lower layers, so each layer is one array pass.

    The DAG is read from the pair lists of the offset pass
    (`offset_pairs`): one left table per inverse pair {g, g^-1} gives the
    edges of both, each table is dropped once read, and the lists are kept
    for `offset_conflicts` to read."""
    if choice not in GREEDY_CHOICES:
        raise ValueError(f"unknown choice {choice!r}: use one of {GREEDY_CHOICES}")
    pairs = offset_pairs(b)
    codes = _layered_greedy(pairs, len(b), choice, seed)
    if codes is None:
        codes = _random_greedy_loop(pairs, len(b), seed)
    return Colouring(b, PALETTE17, codes)


_CHUNK = 1 << 13
_ALL_COLOURS = np.int32((1 << len(PALETTE17)) - 1)


@functools.lru_cache(maxsize=1)
def offset_pairs(b: Ball) -> list[tuple[np.ndarray, np.ndarray]]:
    """The earlier-neighbour pair lists (`_earlier_pairs`) of the left
    table of each inverse pair {g, g^-1} of the offsets
    (`representatives`): v = g*w exactly when w = g^-1*v, so the table of
    g gives the edges of both.

    One pass builds the 8 tables through `Ball.left_table`, one at a time,
    and turns each into its two lists at once.  A length-4 table is then
    forgotten.  The two length-2 tables live while the four products of
    two of them (aBaB = aB * aB) are composed from them, one gather each,
    and are forgotten after; the other two (aB^2a) are composed by blocks,
    before the length-2 tables are built.  So no offset table stays
    cached.  The lists of the last ball passed in are kept instead, for
    the greedy and the conflict count of one run to read, until
    `forget_offset_pairs()`; `_layered_greedy` reorders them, which
    neither depends on."""
    reps = representatives(offsets16(b.presentation))
    if b.radius < 5:
        raise ValueError("need radius at least 5 so the offsets act inside the ball")
    short = [g for g in reps if g.length == 2]
    halves = {g.letters for g in short}
    products = [g for g in reps if g.length > 2 and g.letters[:2] in halves and g.letters[2:] in halves]
    by_blocks = [g for g in reps if g not in short and g not in products]
    pairs = {}
    for g in by_blocks + short + products:
        pairs[g] = _table_pairs(b, g)
        if g not in short:
            b.forget(g)
    for g in short:
        b.forget(g)
    # In representative order: how many passes the depth fixpoint takes
    # depends on the order of the lists.
    return [pair for g in reps for pair in pairs[g]]


_OFFSET_PAIRS = offset_pairs


def forget_offset_pairs() -> None:
    """Drops the pair lists `offset_pairs` keeps, through the cache itself:
    a profiler may rebind that name."""
    _OFFSET_PAIRS.cache_clear()


def _table_pairs(b: Ball, g: ReducedWord) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """The two `_earlier_pairs` lists of g's left table, which lives only
    for this call.  No offset fixes a vertex, since F2 has no torsion, so
    each defined entry of the table lands in exactly one of the two lists;
    raises if their lengths do not add up to the defined entries."""
    t = b.left_table(g)
    earlier, later = _earlier_pairs(t)
    defined = int(np.count_nonzero(t >= 0))
    if len(earlier[0]) + len(later[0]) != defined:
        raise RuntimeError(f"offset {g}: {len(earlier[0])} + {len(later[0])} pairs for {defined} defined table entries")
    return earlier, later


def _earlier_pairs(t: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """The two (src, dst) int32 lists of the earlier-neighbour DAG that the
    table t of g gives, each with src < dst: src = g*dst for g, then dst =
    g*src for g^-1.  A table is one-to-one where it is defined, so a list
    holds each dst at most once.  Read as unsigned, the -1 entries exceed
    every vertex, so one comparison finds the defined entries below it."""
    vertex = np.arange(len(t), dtype=np.int32)
    dst = vertex[t.view(np.uint32) < vertex.view(np.uint32)]
    src = vertex[t > vertex]
    return (t[dst], dst), (src, t[src])


def _layered_greedy(
    pairs: Sequence[tuple[np.ndarray, np.ndarray]], n: int, choice: str, seed: int
) -> np.ndarray | None:
    """Greedy codes computed one DAG layer at a time; None when the random
    draws cannot be replayed from the word stream (see _choice_draws).
    Sorts each pair list in place by the layer of its dst."""
    depth = _depths(pairs, n)
    n_layers = int(depth.max()) + 1
    if n_layers <= 256:  # one byte a vertex for the scans below
        depth = depth.astype(np.uint8)
    bounds = []
    for src, dst in pairs:
        key = depth[dst]
        by_key = np.argsort(key, kind="stable")
        src[:] = src[by_key]
        dst[:] = dst[by_key]
        bounds.append(np.searchsorted(key[by_key], np.arange(n_layers + 1)))
    words = _choice_words(seed, n) if choice == "random" else None
    codes = np.full(n, -1, dtype=np.int16)
    used = np.zeros(n, dtype=np.int32)
    for layer in range(n_layers):
        for (src, dst), bound in zip(pairs, bounds):
            lo, hi = bound[layer], bound[layer + 1]
            used[dst[lo:hi]] |= np.int32(1) << codes[src[lo:hi]]
        # Each layer's vertices are found when it is coloured and freed after.
        if not _colour_layer(np.flatnonzero(depth == layer), used, codes, words):
            return None
    return codes


def _colour_layer(members: np.ndarray, used: np.ndarray, codes: np.ndarray, words: np.ndarray | None) -> bool:
    """Codes of one layer's vertices (ascending) from their used-colour
    masks; False when the random draws cannot be replayed.  Chunks bound
    the temporaries on the two large bottom layers."""
    for lo in range(0, len(members), _CHUNK):
        part = members[lo : lo + _CHUNK]
        free = ~used[part] & _ALL_COLOURS
        if words is None:
            codes[part] = np.bitwise_count((free & -free) - 1)
            continue
        picks = _choice_draws(words[part], np.bitwise_count(free))
        if picks is None:
            return False
        codes[part] = _nth_set_bit(free, picks)
    return True


def _depths(pairs: Sequence[tuple[np.ndarray, np.ndarray]], n: int) -> np.ndarray:
    """Layer of each vertex: the longest chain of earlier neighbours ending
    at it, as the fixpoint of depth[dst] >= depth[src] + 1 over the (src,
    dst) pair lists, each of which holds a dst at most once.

    The lists are relaxed in turn, one pass each, round after round.  After
    the first round a list rereads only the pairs whose source grew since
    its own previous pass: no other pair can raise its target.  Once k
    passes in a row (one per list) raise nothing, the fixpoint is reached."""
    k = len(pairs)
    depth = np.zeros(n, dtype=np.int32)
    # The pass, mod 256, in which each depth last grew.  A stale stamp can
    # only look recent, which rereads a pair for nothing but skips none.
    stamp = np.zeros(n, dtype=np.uint8)
    p = quiet = 0
    while quiet < k:
        src, dst = pairs[p % k]
        if p >= k:
            # Sources stamped in passes p - k .. p - 1: since this list's
            # previous pass, which read its sources before raising them.
            hit = np.uint8((p - 1) % 256) - stamp[src] < k
            src, dst = src[hit], dst[hit]
        step = depth[src]
        step += 1
        up = step > depth[dst]
        raised = dst[up]
        depth[raised] = step[up]
        stamp[raised] = p % 256
        quiet = 0 if len(raised) else quiet + 1
        p += 1
    return depth


def _choice_words(seed: int, n: int) -> np.ndarray:
    """The first n 32-bit words that bounded draws of
    `np.random.default_rng(seed)` read: the low half of each 64-bit output,
    then its high half."""
    raw = np.random.default_rng(seed).bit_generator.random_raw((n + 1) // 2)
    return raw.astype("<u8", copy=False).view("<u4")[:n]


def _choice_draws(words: np.ndarray, k: np.ndarray) -> np.ndarray | None:
    """Index that `Generator.choice` of k items returns when it reads each
    word u: Lemire's (u * k) >> 32.  None if some draw reads no word
    (k == 1) or rejects its word (low half of u * k below 2**32 mod k),
    since the stream then shifts."""
    k = k.astype(np.uint64)
    product = words.astype(np.uint64) * k
    if (k == 1).any() or ((product & np.uint64(0xFFFFFFFF)) < np.uint64(1 << 32) % k).any():
        return None
    return product >> np.uint64(32)


def _nth_set_bit(masks: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Position of the n-th (0-based) set bit of each 17-bit mask: the
    number of shorter prefixes holding at most n set bits."""
    position = np.zeros(len(masks), dtype=np.int16)
    for width in range(1, len(PALETTE17)):
        position += np.bitwise_count(masks & ((1 << width) - 1)) <= n
    return position


def _random_greedy_loop(pairs: Sequence[tuple[np.ndarray, np.ndarray]], n: int, seed: int) -> np.ndarray:
    """Vertex-by-vertex `random` greedy, for streams _choice_draws cannot
    replay: each vertex's earlier neighbours are gathered from the pair
    lists, grouped by dst."""
    src, dst = (np.concatenate(column) for column in zip(*pairs))
    by_dst = np.argsort(dst, kind="stable")
    sources = src[by_dst].tolist()
    bounds = np.searchsorted(dst[by_dst], np.arange(n + 1)).tolist()
    codes = [-1] * n
    rng = np.random.default_rng(seed)
    for w in range(n):
        used = {codes[v] for v in sources[bounds[w] : bounds[w + 1]]}
        free = [c for c in range(len(PALETTE17)) if c not in used]
        codes[w] = int(rng.choice(free))
    return np.array(codes, dtype=np.int16)


def offset_conflicts(colouring: Colouring) -> int:
    """Pairs (g, w), g one of the 16 offsets, with g*w in the ball and
    coloured as w (two blanks count as equal).  w -> g*w maps {w : g*w in
    the ball} one-to-one onto {v : g^-1*v in the ball}, and equal colour is
    symmetric, so g^-1 has exactly as many as g: the count reads one table
    per inverse pair (`representatives`) and doubles.  Each defined entry
    of those tables is one pair of the offset pass (`offset_pairs`), so
    the count compares the codes of every pair, reusing the lists the
    greedy read when it coloured the same ball."""
    codes = colouring.codes
    total = sum(int(np.count_nonzero(codes[src] == codes[dst])) for src, dst in offset_pairs(colouring.ball))
    return 2 * total


def list_assignments(config: Configuration, base: Colouring, vertices: Sequence[int]) -> np.ndarray:
    """(m, 2) base-colour codes of each vertex's two arrow candidates;
    distinct whenever the base colouring is offset-proper (the candidates
    differ by a short offset)."""
    vertices = np.asarray(vertices, dtype=np.int64)
    lists = np.stack([base.codes[z] for z in arrows.candidate_arrays(config, vertices)], axis=1)
    blank = (lists < 0).any(axis=1)
    if blank.any():
        raise ValueError(f"candidate of vertex {int(vertices[blank][0])} is uncoloured")
    return lists


@dataclass(frozen=True)
class SecondaryGraph:
    """Cliques of potential in-pointers, one per centre vertex.

    Row k of `cliques` lists the T1, T1^-1, T2, T2^-1 neighbours of
    centre vertex k, with -1 in the slot of each neighbour whose sign bit in
    `config` cannot aim at it.
    """

    config: Configuration
    cliques: np.ndarray

    @property
    def ball(self) -> Ball:
        return self.config.ball

    def members(self) -> np.ndarray:
        """Every vertex of some clique, ascending."""
        seen = np.zeros(len(self.ball), dtype=bool)
        seen[self.cliques[self.cliques >= 0]] = True
        return np.flatnonzero(seen)

    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x, y, centre) arrays, x < y, one entry per pair of clique-mates:
        centre by centre, each clique's pairs in sorted lexicographic order."""
        pad = len(self.ball)
        rows = np.sort(np.where(self.cliques >= 0, self.cliques, pad), axis=1)
        i, j = np.triu_indices(4, 1)
        x, y = rows[:, i], rows[:, j]
        both = y < pad
        return x[both], y[both], np.nonzero(both)[0]


def secondary_graph(config: Configuration) -> SecondaryGraph:
    """Clique at z: the neighbours whose own sign bit lets them aim at z.
    Centres are the vertices two steps from the boundary, so every
    neighbour is inside the ball."""
    n = config.ball.interior_size(2)
    neighbours = np.stack([table[:n] for table in arrows.neighbour_tables(config.ball)], axis=1)
    aims = config.values[neighbours] == arrows.IN_SIGNS
    return SecondaryGraph(config, np.where(aims, neighbours, -1))


def arrows_to_list_colouring(arrow_colouring: Colouring, base: Colouring) -> Colouring:
    """Colour each vertex by the base colour of its arrow target; the
    result carries the arrow colouring's configuration."""
    b = arrow_colouring.ball
    if base.ball is not b:
        raise ValueError("base colouring lives on a different ball")
    targets = arrows.arrow_field(arrow_colouring)
    incoming = arrows.incoming_counts(targets)
    crowded = np.flatnonzero(incoming[: b.interior_size(2)] >= 2)
    if len(crowded):
        raise ValueError(f"crowded interior vertex {int(crowded[0])}: list transport needs one arrow per target")
    codes = np.where(targets >= 0, base.codes[targets], -1).astype(np.int16)
    return Colouring(b, base.palette, codes, configuration=arrow_colouring.configuration)


def check_proper_list(graph: SecondaryGraph, base: Colouring, colouring: Colouring) -> ViolationReport:
    """A vertex passes iff its colour is on its list (the base colours of
    its two arrow candidates) and avoids all clique-mates.  Members are
    judged in ascending order; a violation carries the vertex's list less
    its clique-mates' colours."""
    if colouring.palette != base.palette:
        raise ValueError("colouring and base colouring use different palettes")
    members = graph.members()
    lists = list_assignments(graph.config, base, members)
    codes = colouring.codes
    x, y, _ = graph.edges()
    same = (codes[x] >= 0) & (codes[x] == codes[y])
    clash = np.isin(members, np.concatenate([x[same], y[same]]))
    on_list = (lists == codes[members][:, None]).any(axis=1)  # list codes are never -1
    bad_rows = np.flatnonzero(clash | ~on_list)
    bad = members[bad_rows]

    # The colours each bad vertex's clique-mates take.
    ends, mates = np.concatenate([x, y]), np.concatenate([y, x])
    keep = np.isin(ends, bad) & (codes[mates] >= 0)
    taken = np.zeros((len(bad), len(base.palette)), dtype=bool)
    taken[np.searchsorted(bad, ends[keep]), codes[mates[keep]]] = True
    violations = [
        (v, colouring.colour_at(v) or "", frozenset(base.palette[c] for c in pair if not row[c]))
        for v, pair, row in zip(bad.tolist(), lists[bad_rows].tolist(), taken)
    ]
    return ViolationReport(interior_size=len(members), violations=tuple(violations))


_BLOCK_ENTRIES = 1 << 13

# A group of the word-image walk: its distinct words (int32), how many
# consecutive entries each word owns, and the entries' int32 (position,
# image) arrays, image = word * vertices[position].
Group = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _start(vertices: np.ndarray | int) -> Iterator[Group]:
    """The walk's entries for the empty word, (position j, image
    vertices[j]), one group of at most _BLOCK_ENTRIES at a time; an int n
    stands for the vertices 0 .. n - 1."""
    n = vertices if isinstance(vertices, int) else len(vertices)
    for lo in range(0, n, _BLOCK_ENTRIES):
        position = np.arange(lo, min(lo + _BLOCK_ENTRIES, n), dtype=np.int32)
        image = position if isinstance(vertices, int) else vertices[lo : lo + _BLOCK_ENTRIES].astype(np.int32)
        yield np.zeros(1, dtype=np.int32), np.array([len(position)]), position, image


def _select(group: Group, keep: np.ndarray) -> Group:
    """The entries of a group that keep marks, each word's kept ones
    counted by one `np.add.reduceat` over its range; words with none go."""
    words, counts, position, image = group
    kept = np.add.reduceat(keep, np.cumsum(counts) - counts)
    on = kept > 0
    return words[on], kept[on], np.compress(keep, position), np.compress(keep, image)


def _expand(group: Group) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A group's (word, position, image) entries, one word per entry."""
    words, counts, position, image = group
    return np.repeat(words, counts), position, image


def _walk(b: Ball, groups: Iterable[Group], length: int, limit: int) -> Iterator[tuple[int, Group]]:
    """Extends groups of entries whose words have the given length to
    every word of length <= limit, depth first, one given group at a time;
    yields each new group once, with its words' length.

    A word of length k + 1 is l * parent, l its first unit letter
    (`Ball.first`) and the parent one sphere shorter (`Ball.parent`), so a
    word's children are unit_l[word] for each unit letter l with
    first[unit_l[word]] = l, tested once per word: every word is reached
    once, from its parent, a torsion word such as a^2 = A^2 in an order-4
    generator too.  A child's image is unit_l[image], kept only inside the
    ball, so the walk follows the suffixes of each word and drops an entry
    once a suffix times the vertex leaves the ball.  In a free group the
    lengths along that walk fall and then rise, so this happens exactly
    when word * vertex is outside.  No -1 entry, no (words x vertices)
    block and no word per entry is ever held.

    A group's children form one group while they fit in _BLOCK_ENTRIES,
    else one group per letter, each no larger than its parent.  `take`
    and `compress` are about twice as fast as fancy indexing here.
    """
    units = b.unit_tables()
    for group in groups:
        stack = [(length, group)]
        while stack:
            depth, (words, counts, position, image) = stack.pop()
            if depth >= limit:
                continue
            children = []
            for letter, unit in enumerate(units):
                child = unit[words]
                valid = b.first[child] == letter
                if not valid.any():
                    continue
                moved = unit.take(image)
                keep = np.repeat(valid, counts)
                keep &= moved >= 0
                children.append(_select((child, counts, position, moved), keep))
            if children and sum(len(child[2]) for child in children) <= _BLOCK_ENTRIES:
                children = [tuple(np.concatenate(column) for column in zip(*children))]
            children = [child for child in children if len(child[0])]
            for child in children:
                yield depth + 1, child
            stack.extend((depth + 1, child) for child in reversed(children))


def _edges(
    b: Ball,
    limit: int,
    parity: int,
    vertices: np.ndarray,
    codes: np.ndarray,
    forbidden: Sequence[np.ndarray],
) -> Iterator[tuple[Group, np.ndarray]]:
    """Per group of `_walk` from `vertices` whose words have the given
    parity, the group and the mask of its edges: the entries (x, gamma *
    x), gamma nonempty of length <= limit, gamma * x in the ball, with
    codes[gamma * x] different from every forbidden[k] at x.

    position indexes `vertices`, so (word, position) is the order of a
    loop over words outside a loop over vertices; each pair comes once.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    for length, group in _walk(b, _start(vertices), 0, limit):
        if length % 2 == parity:
            _, _, position, image = group
            edge = np.ones(len(image), dtype=bool)
            image_codes = codes.take(image)
            for colours in forbidden:
                edge &= image_codes != colours.take(position)
            yield group, edge


def _kept(edges: Iterable[tuple[Group, np.ndarray]]) -> Iterator[Group]:
    """The edges of masked groups, each group cut down to its mask."""
    return (_select(group, edge) for group, edge in edges)


def _in_order(groups: Iterable[Group], vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) pairs of the groups' (position, y) entries, x =
    vertices[position], sorted by (word, position)."""
    parts = [_expand(group) for group in groups]
    if not parts:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    word, position, y = (np.concatenate(column) for column in zip(*parts))
    order = np.lexsort((position, word))
    return vertices[position[order]], y[order]


@dataclass(frozen=True)
class Calibration:
    epsilon: Fraction
    N: int | None
    failing: tuple[int, ...]
    sample_size: int
    failure_fraction: Fraction
    trace: tuple[tuple[int, int, int], ...]  # (N, sample, failures)

    @property
    def succeeded(self) -> bool:
        return self.N is not None

    def to_record(self) -> dict:
        return {
            "epsilon": str(self.epsilon),
            "N": self.N,
            "sample_size": self.sample_size,
            "failure_fraction": str(self.failure_fraction),
            "q_proxy_size": len(self.failing),
            "trace": [list(t) for t in self.trace],
        }


def calibrate_N(base: Colouring, epsilon: Fraction = EPSILON) -> Calibration:
    """Smallest odd N with: all 17 base colours appear among odd-length
    words of length <= N from all but an epsilon fraction of vertices.

    Only vertices whose whole odd-N neighbourhood stays inside the ball are
    eligible, so the reachable-colour sets are never clipped.  The failing
    vertices are returned as the Q-proxy.

    Vertex order is length-major, so the eligible vertices for N are the
    first ones, and those for N + 2 a prefix of them.  One `_walk` serves
    every N: after sphere N it keeps only the entries of the vertices
    still eligible for N + 2, and goes on from there.  The colours seen
    from each vertex are one bit mask (`np.bitwise_or.at`), and the walk
    starts from one block of vertices at a time.
    """
    b = base.ball
    if not Fraction(0) < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    n_colours = len(base.palette)
    trace = []
    n_eligible, fraction = 0, Fraction(1)
    # Bit c of seen[v] is set once colour c is reached from vertex v.
    bits = np.left_shift(np.uint32(1), np.arange(n_colours, dtype=np.uint32))
    every = bits.sum()
    seen = np.zeros(b.interior_size(1), dtype=np.uint32)
    groups, done = _start(len(seen)), 0
    for n_odd in range(1, b.radius + 1, 2):
        n_eligible = b.interior_size(n_odd)
        n_next = b.interior_size(n_odd + 2)
        held = []
        for length, group in _walk(b, groups, done, n_odd):
            if length == n_odd:
                _, _, position, image = group
                np.bitwise_or.at(seen, position, bits.take(base.codes.take(image)))
                held.append(_select(group, position < n_next))
        groups, done = held, n_odd
        n_failing = int(np.count_nonzero(seen[:n_eligible] != every))
        fraction = Fraction(n_failing, n_eligible)
        trace.append((n_odd, n_eligible, n_failing))
        if fraction <= epsilon:
            break
    else:
        n_odd = None
    failing = np.flatnonzero(seen[:n_eligible] != every)
    return Calibration(epsilon, n_odd, tuple(failing.tolist()), n_eligible, fraction, tuple(trace))


@dataclass(frozen=True)
class DoubledGraph:
    """Two copies of the ball: secondary edges on the first, even-distance
    differently-base-coloured edges on the second, and cross edges gated by
    the base colours of each vertex's candidate pair.  Vertices v < n are
    the first copy; rho(v) = v + n mirrors into the second.

    `q` marks the Q-proxy's vertices, and `senders` lists the first copy's
    1-interior less Q, ascending: the vertices that send cross edges and
    arrows.  Cross edges come from the nonempty odd words of length <=
    odd_limit, copy2 edges from the nonempty even words of length <=
    even_limit; both limits are clipped at the radius.  The edges are not
    stored: they are generated from the words by `_walk`, one group at a
    time: its distinct words, how many entries each owns and the entries'
    (vertex, image) arrays, each image inside the ball.
    """

    config: Configuration
    base: Colouring
    q: np.ndarray
    senders: np.ndarray
    secondary: SecondaryGraph
    odd_limit: int
    even_limit: int

    @property
    def ball(self) -> Ball:
        return self.config.ball

    @property
    def n_first(self) -> int:
        return len(self.ball)

    def rho(self, v: int) -> int:
        return (v + self.n_first) % (2 * self.n_first)

    def cross_edges(self) -> Iterator[tuple[Group, np.ndarray]]:
        """Groups of (position, z) entries, each with the mask of those
        with x ~ rho(z), x = senders[position]:
        odd distance, z's base colour on neither of x's candidates."""
        z1, z2 = arrows.candidate_arrays(self.config, self.senders)
        codes = self.base.codes
        return _edges(self.ball, self.odd_limit, 1, self.senders, codes, (codes[z1], codes[z2]))

    def copy2_edges(self, vertices: np.ndarray) -> Iterator[tuple[Group, np.ndarray]]:
        """Groups of (position, y) entries, each with the mask of those
        with rho(x) ~ rho(y), x = vertices[position]:
        even distance, different base colours."""
        codes = self.base.codes
        return _edges(self.ball, self.even_limit, 0, vertices, codes, (codes[vertices],))

    def write_csv(self, fileobj: IO[str]) -> None:
        """`family,from,to` rows: the secondary edges off Q, then the cross
        and copy2 edges from the interior, each family in (word, vertex) order."""
        names = self.ball.names()
        interior = np.arange(self.ball.interior_size(1), dtype=np.int32)
        writer = csv.writer(fileobj)
        writer.writerow(("family", "from", "to"))
        writer.writerows(("secondary", names[x], names[y]) for x, y in _int_pairs(_secondary_off_q(self)))
        cross = _in_order(_kept(self.cross_edges()), self.senders)
        writer.writerows(("cross", names[x], f"rho({names[z]})") for x, z in _int_pairs(cross))
        copy2 = _in_order(_kept(self.copy2_edges(interior)), interior)
        writer.writerows(("copy2", f"rho({names[x]})", f"rho({names[y]})") for x, y in _int_pairs(copy2))


def _int_pairs(ends: tuple[np.ndarray, np.ndarray]) -> Iterator[tuple[int, int]]:
    """The pairs of two end arrays as Python ints, _BLOCK_ENTRIES at a time:
    a whole family as int lists would be most of `doubled --csv`'s memory."""
    x, y = ends
    for lo in range(0, len(x), _BLOCK_ENTRIES):
        yield from zip(x[lo : lo + _BLOCK_ENTRIES].tolist(), y[lo : lo + _BLOCK_ENTRIES].tolist())


def doubled_graph(
    config: Configuration,
    base: Colouring,
    N: int,
    q_proxy: Iterable[int] = (),
) -> DoubledGraph:
    """The paired-copy graph on the configuration's ball, with the vertex
    ids of `q_proxy` as Q.  Word reach is clipped at the boundary: the full
    edge families need radius >= 2N+12."""
    b = config.ball
    if base.ball is not b:
        raise ValueError("base colouring and configuration must live on the same ball")
    if N < 1 or N % 2 == 0:
        raise ValueError("N must be odd and positive")
    q = np.zeros(len(b), dtype=bool)
    q[list(q_proxy)] = True
    return DoubledGraph(
        config=config,
        base=base,
        q=q,
        senders=np.flatnonzero(~q[: b.interior_size(1)]),
        secondary=secondary_graph(config),
        odd_limit=min(N, b.radius),
        even_limit=min(2 * N + 10, b.radius),
    )


def canonical_doubled_colouring(graph: DoubledGraph, arrow_colouring: Colouring) -> np.ndarray:
    """Codes in `graph.base.palette`, first copy the base colour of each
    arrow target, second copy the base.  Copy t of vertex i is code
    t*|ball| + i, as `DoubledGraph.rho` mirrors."""
    first = arrows_to_list_colouring(arrow_colouring, graph.base)
    return np.concatenate([first.codes, graph.base.codes])


@dataclass(frozen=True)
class ProperReport:
    edges_checked: dict[str, int]
    conflicts: tuple[tuple[str, int, int], ...]
    uncoloured: int

    @property
    def satisfied(self) -> bool:
        return not self.conflicts and not self.uncoloured

    def to_record(self) -> dict:
        return {
            "edges_checked": dict(self.edges_checked),
            "n_conflicts": len(self.conflicts),
            "conflicts": [list(c) for c in self.conflicts[:100]],
        }


def _secondary_off_q(graph: DoubledGraph) -> tuple[np.ndarray, np.ndarray]:
    """The (x, y) ends of the secondary edges with neither end in Q."""
    x, y, _ = graph.secondary.edges()
    off_q = ~(graph.q[x] | graph.q[y])
    return x[off_q], y[off_q]


def _block_conflicts(
    vertices: np.ndarray,
    edges: Iterable[tuple[Group, np.ndarray]],
    x_codes: np.ndarray,
    y_codes: np.ndarray,
) -> tuple[int, np.ndarray, np.ndarray]:
    """Edges of a family's masked groups from `vertices`, counted, and the
    (x, y) among them with x_codes[x] = y_codes[y] >= 0, in (word,
    position) order; only those are gathered into arrays."""
    at = x_codes[vertices]
    count = 0
    found = []
    for group, edge in edges:
        _, _, position, image = group
        count += int(np.count_nonzero(edge))
        cx = at.take(position)
        bad = edge & (cx >= 0) & (cx == y_codes.take(image))
        if bad.any():
            found.append(_select(group, bad))
    return (count, *_in_order(found, vertices))


def check_proper(
    graph: DoubledGraph,
    codes: np.ndarray,
    copy2_sample: int | None = 64,
    seed: int = 0,
) -> ProperReport:
    """Adjacent equal colours of the doubled colouring `codes` (laid out as
    `canonical_doubled_colouring` returns it) across all three edge families.

    Uncoloured endpoints are skipped, so the report also counts the
    uncoloured vertices among those judged: the whole second copy and the
    first copy's 1-interior.  copy2 edges are checked from a seeded vertex
    sample by default since that family is the dense one.  Cross and copy2
    edges are counted and checked one group of the word walk at a time,
    never as one list; each family's conflicts are listed in the order
    (word, vertex), words in canonical order outside vertices in ascending
    order.
    """
    n = graph.n_first
    sx, sy = _secondary_off_q(graph)
    same = (codes[sx] >= 0) & (codes[sx] == codes[sy])
    conflicts = [("secondary", x, y) for x, y in zip(sx[same].tolist(), sy[same].tolist())]

    n_cross, xs, zs = _block_conflicts(graph.senders, graph.cross_edges(), codes[:n], codes[n:])
    conflicts += [("cross", x, graph.rho(z)) for x, z in zip(xs.tolist(), zs.tolist())]

    all_seconds = np.arange(n)
    if copy2_sample is not None and copy2_sample < n:
        rng = np.random.default_rng(seed)
        all_seconds = np.sort(rng.choice(all_seconds, size=copy2_sample, replace=False))
    n_copy2, xs, ys = _block_conflicts(all_seconds, graph.copy2_edges(all_seconds), codes[n:], codes[n:])
    conflicts += [("copy2", graph.rho(x), graph.rho(y)) for x, y in zip(xs.tolist(), ys.tolist())]

    uncoloured = int(np.count_nonzero(codes[: graph.ball.interior_size(1)] < 0) + np.count_nonzero(codes[n:] < 0))
    checked = {"secondary": len(sx), "cross": n_cross, "copy2": n_copy2}
    return ProperReport(checked, tuple(conflicts), uncoloured)


@dataclass(frozen=True)
class DoubledAudit:
    n_eligible: int
    q_fraction: Fraction
    outflow_fraction: Fraction
    induced_crowded_fraction: Fraction
    clique_touches_q_fraction: Fraction
    outflow_bound: Fraction
    inflow_bound: Fraction
    program: measures.DensityProgram
    feasibility: measures.FeasibilityResult

    def to_record(self) -> dict:
        return {
            "n_eligible": self.n_eligible,
            "q_fraction": str(self.q_fraction),
            "outflow_fraction": str(self.outflow_fraction),
            "induced_crowded_fraction": str(self.induced_crowded_fraction),
            "clique_touches_q_fraction": str(self.clique_touches_q_fraction),
            "outflow_bound": str(self.outflow_bound),
            "inflow_bound": str(self.inflow_bound),
            "gap": str(self.outflow_bound - self.inflow_bound),
            "feasibility": self.feasibility.to_record(),
        }


def doubled_flow_program() -> measures.DensityProgram:
    mass = "arrow mass"
    constraints = (
        measures.le([], [(1, mass)], "nonnegativity of arrow mass"),
        measures.le([], [(1, mass)], "outflow at least 511/512", lhs_const=OUTFLOW_BOUND),
        measures.le([(1, mass)], [], "inflow capacity at most 31/32", rhs_const=INFLOW_BOUND),
    )
    return measures.DensityProgram((mass,), constraints)


def _crowded(landings: np.ndarray, limit: int) -> int:
    """How many vertices below `limit` occur twice or more in `landings`.
    Sorted, each such vertex is one run of equal neighbours: the equal
    neighbour pairs less those that continue a run."""
    landings = np.sort(landings[landings < limit])
    repeats = landings[1:] == landings[:-1]
    return int(np.count_nonzero(repeats) - np.count_nonzero(repeats[1:] & repeats[:-1]))


def flow_audit_doubled(codes: np.ndarray, graph: DoubledGraph) -> DoubledAudit:
    """Read induced arrows off the doubled colouring and account for them.

    Every first-copy vertex outside Q whose colour matches a mirrored
    candidate sends one arrow; receiving capacity cannot cover the exact
    outflow and inflow bounds simultaneously, and the translated program
    certifies the 15/512 gap.  Whether the colouring is proper is
    `check_proper`'s verdict, not this audit's.
    """
    n = graph.n_first
    n_eligible = graph.ball.interior_size(1)
    senders = graph.senders
    z1, z2 = arrows.candidate_arrays(graph.config, senders)
    cx = codes[senders]
    to_first = (cx >= 0) & (cx == codes[n + z1])
    to_second = ~to_first & (cx >= 0) & (cx == codes[n + z2])
    with_arrow = int(np.count_nonzero(to_first) + np.count_nonzero(to_second))
    outflow = Fraction(with_arrow, n_eligible) if n_eligible else Fraction(0)
    q_fraction = Fraction(n_eligible - len(senders), n_eligible) if n_eligible else Fraction(0)

    landings = np.concatenate([z1[to_first], z2[to_second]])
    crowded = Fraction(_crowded(landings, n_eligible), n_eligible) if n_eligible else Fraction(0)

    cliques = graph.secondary.cliques
    # Cliques are padded with -1, which must not read the last vertex's flag.
    touches = int(np.count_nonzero(((cliques >= 0) & graph.q[cliques]).any(axis=1)))
    touch_fraction = Fraction(touches, len(cliques)) if len(cliques) else Fraction(0)

    program = doubled_flow_program()
    return DoubledAudit(
        n_eligible=n_eligible,
        q_fraction=q_fraction,
        outflow_fraction=outflow,
        induced_crowded_fraction=crowded,
        clique_touches_q_fraction=touch_fraction,
        outflow_bound=OUTFLOW_BOUND,
        inflow_bound=INFLOW_BOUND,
        program=program,
        feasibility=measures.feasible(program),
    )
