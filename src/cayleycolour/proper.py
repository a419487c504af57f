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
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .arrows import IN_SIGNS, arrow_field, candidate_arrays, incoming_counts, neighbour_tables
from .configs import Configuration
from .groups import Ball, Presentation, ReducedWord, check_rank_two_free, free_group
from .measures import DensityProgram, FeasibilityResult, feasible, le
from .rules import Colouring, ViolationReport

PALETTE17 = tuple(f"c{i}" for i in range(17))
GREEDY_CHOICES = ("min", "random")

OUTFLOW_BOUND = Fraction(511, 512)
INFLOW_BOUND = Fraction(31, 32)
EPSILON = Fraction(1, 512)


@dataclass(frozen=True)
class OffsetFamily:
    presentation: Presentation
    short: tuple[ReducedWord, ...]
    long: tuple[ReducedWord, ...]

    @property
    def elements(self) -> tuple[ReducedWord, ...]:
        return self.short + self.long

    def closed_under_inverse(self) -> bool:
        seen = {g.letters for g in self.elements}
        return all(g.inverse().letters in seen for g in self.elements)

    def representatives(self) -> tuple[ReducedWord, ...]:
        """The first element of each inverse pair {g, g^-1}, in `elements`
        order.  No offset may be its own inverse (in a free group only the
        identity is), or the pairs would not split the family in two."""
        if not self.closed_under_inverse():
            raise ValueError("offset family is not closed under inverse")
        reps: list[ReducedWord] = []
        taken: set[tuple] = set()
        for g in self.elements:
            inverse = g.inverse().letters
            if inverse == g.letters:
                raise ValueError(f"offset {g} is its own inverse")
            if g.letters not in taken:
                reps.append(g)
                taken.update((g.letters, inverse))
        return tuple(reps)


def offsets16(presentation: Presentation | None = None) -> OffsetFamily:
    """Four mixed-sign length-2 elements and their twelve length-4 products."""
    p = free_group(2) if presentation is None else presentation
    check_rank_two_free(p, "offsets live on the rank-two free group")
    short = tuple(p.word(text) for text in ("aB", "Ab", "bA", "Ba"))
    long: list[ReducedWord] = []
    dropped = 0
    for g in short:
        for h in short:
            prod = g * h
            if prod.is_identity:
                dropped += 1
            elif prod.length == 4:
                long.append(prod)
            else:
                raise ValueError("unexpected offset product length")
    if dropped != 4 or len({w.letters for w in long}) != 12:
        raise ValueError("offset family failed its own accounting")
    return OffsetFamily(p, short, tuple(long))


def greedy_base_colouring(b: Ball, choice: str = "min", seed: int = 0) -> Colouring:
    """17 colours, proper for all 16 offsets; each vertex has at most 16
    offset-neighbours so a free colour always exists.

    Vertices are coloured one by one in vertex order, each with the
    smallest colour its earlier offset-neighbours left free (`min`) or with
    `rng.choice` of those colours (`random`).  That greedy is computed layer
    by layer over the DAG of earlier neighbours: a vertex's colour depends
    only on vertices in lower layers, so each layer is one array pass.

    The DAG is read from one left table per inverse pair {g, g^-1} of the
    family (`OffsetFamily.representatives`): v = g*w exactly when
    w = g^-1*v, so the table t of g gives both the edges of g, (t[w], w)
    where t[w] < w, and those of g^-1, (w, t[w]) where t[w] > w."""
    if choice not in GREEDY_CHOICES:
        raise ValueError(f"unknown choice {choice!r}: use one of {GREEDY_CHOICES}")
    if b.radius < 5:
        raise ValueError("need radius at least 5 so the offsets act inside the ball")
    pairs = _earlier_pairs([b.left_table(g) for g in offsets16(b.presentation).representatives()])
    codes = _layered_greedy(pairs, len(b), choice, seed)
    if codes is None:
        codes = _random_greedy_loop(pairs, len(b), seed)
    return Colouring(b, PALETTE17, codes)


_CHUNK = 1 << 13
_ALL_COLOURS = np.int32((1 << len(PALETTE17)) - 1)


def _earlier_pairs(tables: Sequence[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """(src, dst) int32 lists of the earlier-neighbour DAG, two per table t
    of g: src = g*dst for g, dst = g*src for g^-1, each with src < dst.
    A table is one-to-one where it is defined, so a list holds each dst at
    most once."""
    vertex = np.arange(len(tables[0]), dtype=np.int32)
    pairs = []
    for t in tables:
        dst = np.flatnonzero((t >= 0) & (t < vertex)).astype(np.int32)
        pairs.append((t[dst], dst))
        src = np.flatnonzero(t > vertex).astype(np.int32)
        pairs.append((src, t[src]))
    return pairs


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


def offset_conflicts(colouring: Colouring, fam: OffsetFamily | None = None) -> int:
    """Pairs (g, w), g in the family, with g*w in the ball and coloured as w
    (two blanks count as equal).  w -> g*w maps {w : g*w in the ball}
    one-to-one onto {v : g^-1*v in the ball}, and equal colour is
    symmetric, so g^-1 has exactly as many as g: the count reads one table
    per inverse pair (`OffsetFamily.representatives`) and doubles."""
    b = colouring.ball
    fam = offsets16(b.presentation) if fam is None else fam
    codes = colouring.codes
    total = 0
    for g in fam.representatives():
        table = b.left_table(g)
        mask = table >= 0
        total += int(np.count_nonzero(codes[mask] == codes[table[mask]]))
    return 2 * total


def list_assignments(config: Configuration, base: Colouring, vertices: Sequence[int]) -> np.ndarray:
    """(m, 2) base-colour codes of each vertex's two arrow candidates;
    distinct whenever the base colouring is offset-proper (the candidates
    differ by a short offset)."""
    vertices = np.asarray(vertices, dtype=np.int64)
    lists = np.stack([base.codes[z] for z in candidate_arrays(config, vertices)], axis=1)
    blank = (lists < 0).any(axis=1)
    if blank.any():
        raise ValueError(f"candidate of vertex {int(vertices[blank][0])} is uncoloured")
    return lists


@dataclass(frozen=True)
class SecondaryGraph:
    """Cliques of potential in-pointers, one per centre vertex.

    Row k of `cliques` lists the T1, T1^-1, T2, T2^-1 neighbours of
    centers[k], with -1 in the slot of each neighbour whose sign bit in
    `config` cannot aim at it.
    """

    config: Configuration
    centers: np.ndarray
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
        centre = np.broadcast_to(self.centers[:, None], both.shape)
        return x[both], y[both], centre[both]


def secondary_graph(config: Configuration) -> SecondaryGraph:
    """Clique at z: the neighbours whose own sign bit lets them aim at z.
    Centres are the vertices two steps from the boundary, so every
    neighbour is inside the ball."""
    centers = config.ball.interior_indices(2)
    neighbours = np.stack([table[centers] for table in neighbour_tables(config.ball)], axis=1)
    aims = config.values[neighbours] == IN_SIGNS
    return SecondaryGraph(config, centers, np.where(aims, neighbours, -1))


def arrows_to_list_colouring(arrow_colouring: Colouring, base: Colouring) -> Colouring:
    """Colour each vertex by the base colour of its arrow target; the
    result carries the arrow colouring's configuration."""
    b = arrow_colouring.ball
    if base.ball is not b:
        raise ValueError("base colouring lives on a different ball")
    targets = arrow_field(arrow_colouring)
    incoming = incoming_counts(targets)
    interior = b.interior_indices(2)
    crowded = np.flatnonzero(incoming[interior] >= 2)
    if len(crowded):
        raise ValueError(f"crowded interior vertex {int(interior[crowded[0]])}: list transport needs one arrow per target")
    codes = np.where(
        (targets >= 0) & (base.codes[np.maximum(targets, 0)] >= 0),
        base.codes[np.maximum(targets, 0)],
        -1,
    ).astype(np.int16)
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

# A chunk of the word-image walk: parallel int32 arrays (word, position,
# image) with image = word * vertices[position].
Chunk = tuple[np.ndarray, np.ndarray, np.ndarray]


def _start(vertices: np.ndarray) -> list[Chunk]:
    """The walk's entries for the empty word, (0, j, vertices[j]), in
    chunks of at most _BLOCK_ENTRIES."""
    n = len(vertices)
    word, position, image = np.zeros(n, dtype=np.int32), np.arange(n, dtype=np.int32), vertices.astype(np.int32)
    return [
        (word[lo : lo + _BLOCK_ENTRIES], position[lo : lo + _BLOCK_ENTRIES], image[lo : lo + _BLOCK_ENTRIES])
        for lo in range(0, n, _BLOCK_ENTRIES)
    ]


def _walk(b: Ball, chunks: list[Chunk], length: int, limit: int) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Extends chunks of entries whose words have the given length to every
    word of length <= limit, depth first; yields each new chunk once, as
    (length, word, position, image).

    A word of length k + 1 is l * parent, l its first unit letter and the
    parent one sphere shorter (`Ball.first_steps`), so an entry's children
    are unit_l[word] for each unit letter l with first[unit_l[word]] = l:
    every word is reached once, from its parent, a torsion word such as
    a^2 = A^2 in an order-4 generator too.  A child's image is
    unit_l[image], kept only inside the ball, so the walk follows the
    suffixes of each word and drops an entry once a suffix times the
    vertex leaves the ball.  In a free group the lengths along that walk
    fall and then rise, so this happens exactly when word * vertex is
    outside.  No -1 entry and no (words x vertices) block is ever held.

    A chunk's children form one chunk while they fit in _BLOCK_ENTRIES,
    else one chunk per letter, each no larger than its parent: chunks stay
    near that size, and the walk holds a few of them per sphere.
    """
    units = b.unit_tables()
    first, _ = b.first_steps()
    stack = [(length, chunk) for chunk in reversed(chunks)]
    while stack:
        length, (word, position, image) = stack.pop()
        if length >= limit:
            continue
        children = []
        for letter, unit in enumerate(units):
            child, moved = unit[word], unit[image]
            keep = (first[child] == letter) & (moved >= 0)
            children.append((child[keep], position[keep], moved[keep]))
        if sum(len(child) for child, _, _ in children) <= _BLOCK_ENTRIES:
            children = [tuple(np.concatenate(column) for column in zip(*children))]
        children = [child for child in children if len(child[0])]
        for child in children:
            yield length + 1, *child
        stack.extend((length + 1, child) for child in reversed(children))


def _edge_blocks(
    b: Ball,
    limit: int,
    parity: int,
    vertices: np.ndarray,
    codes: np.ndarray,
    forbidden: Sequence[np.ndarray] = (),
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Per chunk of `_walk` from `vertices`, the pairs (x, gamma * x) for
    nonempty words gamma of length <= limit with the given parity and
    gamma * x in the ball, as (word, position, image, keep) arrays: keep
    marks the images with codes[gamma * x] different from every
    forbidden[k] at x.

    position indexes `vertices`, so (word, position) is the order of a
    loop over words outside a loop over vertices; each pair comes once.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    for length, word, position, image in _walk(b, _start(vertices), 0, limit):
        if length % 2 == parity:
            keep = np.ones(len(image), dtype=bool)
            image_codes = codes[image]
            for colours in forbidden:
                keep &= image_codes != colours[position]
            yield word, position, image, keep


def _kept(blocks: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]) -> Iterator[Chunk]:
    """The (word, position, image) entries each block keeps."""
    for word, position, image, keep in blocks:
        yield word[keep], position[keep], image[keep]


def _in_order(parts: Iterable[Chunk], vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) pairs of (word, position, y) entries, x = vertices[position],
    sorted by (word, position)."""
    parts = list(parts)
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
    still eligible for N + 2, and goes on from there.
    """
    b = base.ball
    if not Fraction(0) < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    n_colours = len(base.palette)
    within = np.cumsum(b.sphere_sizes)  # within[k]: vertices of length <= k
    trace = []
    last = (None, (), 0, Fraction(1))
    seen = np.zeros((within[b.radius - 1] if b.radius else 0, n_colours), dtype=bool)
    chunks, done = _start(np.arange(len(seen))), 0
    for n_odd in range(1, b.radius + 1, 2):
        n_eligible = int(within[b.radius - n_odd])
        n_next = int(within[b.radius - n_odd - 2]) if n_odd + 2 <= b.radius else 0
        held = []
        for length, word, position, image in _walk(b, chunks, done, n_odd):
            if length == n_odd:
                seen[position, base.codes[image]] = True
                on = position < n_next
                held.append((word[on], position[on], image[on]))
        chunks, done = held, n_odd
        failing = np.flatnonzero(~seen[:n_eligible].all(axis=1))
        fraction = Fraction(len(failing), n_eligible)
        trace.append((n_odd, n_eligible, len(failing)))
        last = (n_odd, tuple(failing.tolist()), n_eligible, fraction)
        if fraction <= epsilon:
            return Calibration(epsilon, n_odd, last[1], last[2], fraction, tuple(trace))
    return Calibration(epsilon, None, last[1], last[2], last[3], tuple(trace))


@dataclass(frozen=True)
class DoubledGraph:
    """Two copies of the ball: secondary edges on the first, even-distance
    differently-base-coloured edges on the second, and cross edges gated by
    the base colours of each vertex's candidate pair.  Vertices v < n are
    the first copy; rho(v) = v + n mirrors into the second.

    Cross edges come from the nonempty odd words of length <= odd_limit,
    copy2 edges from the nonempty even words of length <= even_limit; both
    limits are clipped at the radius.  The edges are not stored: they are
    generated from the words by `_walk`, one chunk of (word, vertex,
    image) entries at a time, each image inside the ball.
    """

    config: Configuration
    base: Colouring
    N: int
    q_proxy: frozenset[int]
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

    def _cross_blocks(self, vertices: np.ndarray) -> tuple[np.ndarray, Iterator]:
        """The vertices that send cross edges, `vertices` less Q and the last
        sphere in their order, and their `_edge_blocks`."""
        vertices = np.asarray(vertices, dtype=np.int64)
        inside = self.ball.lengths[vertices] <= self.ball.radius - 1
        eligible = vertices[inside & ~np.isin(vertices, list(self.q_proxy))]
        z1, z2 = candidate_arrays(self.config, eligible)
        codes = self.base.codes
        return eligible, _edge_blocks(self.ball, self.odd_limit, 1, eligible, codes, (codes[z1], codes[z2]))

    def _copy2_blocks(self, vertices: np.ndarray) -> tuple[np.ndarray, Iterator]:
        vertices = np.asarray(vertices, dtype=np.int64)
        codes = self.base.codes
        return vertices, _edge_blocks(self.ball, self.even_limit, 0, vertices, codes, (codes[vertices],))

    def cross_pairs(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Arrays (x, z) with x in the first copy, rho(z) its cross neighbour,
        in the order (word, x's position in `vertices`)."""
        eligible, blocks = self._cross_blocks(vertices)
        return _in_order(_kept(blocks), eligible)

    def copy2_pairs(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Arrays (x, y) with rho(x) ~ rho(y): even distance, different base colours."""
        vertices, blocks = self._copy2_blocks(vertices)
        return _in_order(_kept(blocks), vertices)

    def write_csv(self, fileobj: IO[str]) -> None:
        """`family,from,to` rows: the secondary edges off Q, then the cross
        and copy2 edges from the interior, each family in (word, vertex) order."""
        names = self.ball.names()
        interior = self.ball.interior_indices(1)
        writer = csv.writer(fileobj)
        writer.writerow(("family", "from", "to"))
        writer.writerows(("secondary", names[x], names[y]) for x, y in _int_pairs(_secondary_off_q(self)))
        writer.writerows(("cross", names[x], f"rho({names[z]})") for x, z in _int_pairs(self.cross_pairs(interior)))
        writer.writerows(
            ("copy2", f"rho({names[x]})", f"rho({names[y]})") for x, y in _int_pairs(self.copy2_pairs(interior))
        )


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
    q_proxy: frozenset[int] = frozenset(),
) -> DoubledGraph:
    """The paired-copy graph on the configuration's ball.  Word reach is
    clipped at the boundary: the full edge families need radius >= 2N+12."""
    b = config.ball
    if base.ball is not b:
        raise ValueError("base colouring and configuration must live on the same ball")
    if N < 1 or N % 2 == 0:
        raise ValueError("N must be odd and positive")
    return DoubledGraph(
        config=config,
        base=base,
        N=N,
        q_proxy=q_proxy,
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

    @property
    def satisfied(self) -> bool:
        return not self.conflicts

    def to_record(self) -> dict:
        return {
            "edges_checked": dict(self.edges_checked),
            "n_conflicts": len(self.conflicts),
            "conflicts": [list(c) for c in self.conflicts[:100]],
        }


def _secondary_off_q(graph: DoubledGraph) -> tuple[np.ndarray, np.ndarray]:
    """The (x, y) ends of the secondary edges with neither end in Q."""
    x, y, _ = graph.secondary.edges()
    q = list(graph.q_proxy)
    off_q = ~(np.isin(x, q) | np.isin(y, q))
    return x[off_q], y[off_q]


def _block_conflicts(
    family: tuple[np.ndarray, Iterable[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]],
    x_codes: np.ndarray,
    y_codes: np.ndarray,
) -> tuple[int, np.ndarray, np.ndarray]:
    """Edges a family's blocks keep, counted, and the (x, y) among them with
    x_codes[x] = y_codes[y] >= 0, in (word, position) order; only those
    are gathered into arrays."""
    vertices, blocks = family
    at = x_codes[vertices]
    count = 0
    found = []
    for word, position, image, keep in blocks:
        count += int(np.count_nonzero(keep))
        cx = at[position]
        bad = keep & (cx >= 0) & (cx == y_codes[image])
        found.append((word[bad], position[bad], image[bad]))
    return (count, *_in_order(found, vertices))


def check_proper(
    graph: DoubledGraph,
    codes: np.ndarray,
    copy2_sample: int | None = 64,
    seed: int = 0,
) -> ProperReport:
    """Adjacent equal colours of the doubled colouring `codes` (laid out as
    `canonical_doubled_colouring` returns it) across all three edge families.

    Uncoloured endpoints are skipped; copy2 edges are checked from a seeded
    vertex sample by default since that family is the dense one.  Cross
    and copy2 edges are counted and checked one chunk of the word walk at
    a time, never as one list; each family's conflicts are listed in
    the order (word, vertex), words in canonical order outside vertices
    in ascending order.
    """
    n = graph.n_first
    sx, sy = _secondary_off_q(graph)
    same = (codes[sx] >= 0) & (codes[sx] == codes[sy])
    conflicts = [("secondary", x, y) for x, y in zip(sx[same].tolist(), sy[same].tolist())]

    n_cross, xs, zs = _block_conflicts(graph._cross_blocks(graph.ball.interior_indices(1)), codes[:n], codes[n:])
    conflicts += [("cross", x, graph.rho(z)) for x, z in zip(xs.tolist(), zs.tolist())]

    all_seconds = np.arange(n)
    if copy2_sample is not None and copy2_sample < n:
        rng = np.random.default_rng(seed)
        all_seconds = np.sort(rng.choice(all_seconds, size=copy2_sample, replace=False))
    n_copy2, xs, ys = _block_conflicts(graph._copy2_blocks(all_seconds), codes[n:], codes[n:])
    conflicts += [("copy2", graph.rho(x), graph.rho(y)) for x, y in zip(xs.tolist(), ys.tolist())]

    checked = {"secondary": len(sx), "cross": n_cross, "copy2": n_copy2}
    return ProperReport(checked, tuple(conflicts))


@dataclass(frozen=True)
class DoubledAudit:
    n_eligible: int
    q_fraction: Fraction
    outflow_fraction: Fraction
    induced_crowded_fraction: Fraction
    clique_touches_q_fraction: Fraction
    outflow_bound: Fraction
    inflow_bound: Fraction
    program: DensityProgram
    feasibility: FeasibilityResult

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


def doubled_flow_program() -> DensityProgram:
    mass = "arrow mass"
    constraints = (
        le([], [(1, mass)], "nonnegativity of arrow mass"),
        le([], [(1, mass)], "outflow at least 511/512", lhs_const=OUTFLOW_BOUND),
        le([(1, mass)], [], "inflow capacity at most 31/32", rhs_const=INFLOW_BOUND),
    )
    return DensityProgram((mass,), constraints)


def flow_audit_doubled(codes: np.ndarray, graph: DoubledGraph) -> DoubledAudit:
    """Read induced arrows off the doubled colouring and account for them.

    Every first-copy vertex outside Q whose colour matches a mirrored
    candidate sends one arrow; receiving capacity cannot cover the exact
    outflow and inflow bounds simultaneously, and the translated program
    certifies the 15/512 gap.  Whether the colouring is proper is
    `check_proper`'s verdict, not this audit's.
    """
    n = graph.n_first
    eligible = graph.ball.interior_indices(1)
    q = graph.q_proxy
    senders = eligible[~np.isin(eligible, list(q))]
    z1, z2 = candidate_arrays(graph.config, senders)
    cx = codes[senders]
    to_first = (cx >= 0) & (cx == codes[n + z1])
    to_second = ~to_first & (cx >= 0) & (cx == codes[n + z2])
    with_arrow = int(np.count_nonzero(to_first) + np.count_nonzero(to_second))
    outflow = Fraction(with_arrow, len(eligible)) if len(eligible) else Fraction(0)
    q_fraction = Fraction(len(eligible) - len(senders), len(eligible)) if len(eligible) else Fraction(0)

    landed = np.bincount(np.concatenate([z1[to_first], z2[to_second]]), minlength=n)
    crowded = Fraction(int((landed[eligible] >= 2).sum()), len(eligible)) if len(eligible) else Fraction(0)

    cliques = graph.secondary.cliques
    touches = int(np.count_nonzero(np.isin(cliques, list(q)).any(axis=1)))
    touch_fraction = Fraction(touches, len(cliques)) if len(cliques) else Fraction(0)

    program = doubled_flow_program()
    return DoubledAudit(
        n_eligible=len(eligible),
        q_fraction=q_fraction,
        outflow_fraction=outflow,
        induced_crowded_fraction=crowded,
        clique_touches_q_fraction=touch_fraction,
        outflow_bound=OUTFLOW_BOUND,
        inflow_bound=INFLOW_BOUND,
        program=program,
        feasibility=feasible(program),
    )
