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

from .arrows import arrow_field, candidate_arrays, incoming_counts, neighbour_tables
from .configs import Configuration
from .groups import Ball, Presentation, ReducedWord, check_rank_two_free, free_group
from .measures import DensityProgram, FeasibilityResult, feasible, le
from .rules import Colouring, ViolationReport, doubled_colouring

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
    only on vertices in lower layers, so each layer is one array pass."""
    if choice not in GREEDY_CHOICES:
        raise ValueError(f"unknown choice {choice!r}: use one of {GREEDY_CHOICES}")
    if b.radius < 5:
        raise ValueError("need radius at least 5 so the offsets act inside the ball")
    tables = [b.left_table(g) for g in offsets16(b.presentation).elements]
    codes = _layered_greedy(tables, choice, seed)
    if codes is None:
        codes = _random_greedy_loop(tables, seed)
    return Colouring(b, PALETTE17, codes)


_CHUNK = 1 << 13
_ALL_COLOURS = np.int32((1 << len(PALETTE17)) - 1)


def _layered_greedy(tables: Sequence[np.ndarray], choice: str, seed: int) -> np.ndarray | None:
    """Greedy codes computed one DAG layer at a time; None when the random
    draws cannot be replayed from the word stream (see _choice_draws)."""
    n = len(tables[0])
    # Per offset table t, the vertices whose neighbour through t is coloured first.
    vertex = np.arange(n, dtype=np.int32)
    dsts = [np.flatnonzero((t >= 0) & (t < vertex)).astype(np.int32) for t in tables]
    del vertex
    depth = _depths([(t[dst], dst) for t, dst in zip(tables, dsts)], n)
    n_layers = int(depth.max()) + 1
    for i, dst in enumerate(dsts):
        key = depth[dst]
        by_key = np.argsort(key, kind="stable")
        dsts[i] = (dst[by_key], np.searchsorted(key[by_key], np.arange(n_layers + 1)))
    by_layer = np.argsort(depth, kind="stable").astype(np.int32)
    layer_starts = np.concatenate(([0], np.cumsum(np.bincount(depth))))
    del depth
    words = _choice_words(seed, n) if choice == "random" else None
    codes = np.full(n, -1, dtype=np.int16)
    used = np.zeros(n, dtype=np.int32)
    for layer in range(n_layers):
        for t, (dst, bounds) in zip(tables, dsts):
            into = dst[bounds[layer] : bounds[layer + 1]]
            used[into] |= np.int32(1) << codes[t[into]]
        # Chunks bound the temporaries on the two large bottom layers.
        end = layer_starts[layer + 1]
        for lo in range(layer_starts[layer], end, _CHUNK):
            part = by_layer[lo : min(lo + _CHUNK, end)]
            free = ~used[part] & _ALL_COLOURS
            if words is None:
                codes[part] = np.bitwise_count((free & -free) - 1)
                continue
            picks = _choice_draws(words[part], np.bitwise_count(free))
            if picks is None:
                return None
            codes[part] = _nth_set_bit(free, picks)
    return codes


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
            hit = np.flatnonzero(np.uint8((p - 1) % 256) - stamp[src] < k)
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


def _random_greedy_loop(tables: Sequence[np.ndarray], seed: int) -> np.ndarray:
    """Vertex-by-vertex `random` greedy, for streams _choice_draws cannot replay."""
    codes = np.full(len(tables[0]), -1, dtype=np.int16)
    rng = np.random.default_rng(seed)
    for w in range(len(codes)):
        used = {int(codes[t[w]]) for t in tables if t[w] >= 0}
        free = [c for c in range(len(PALETTE17)) if c not in used]
        codes[w] = int(rng.choice(free))
    return codes


def offset_conflicts(colouring: Colouring, fam: OffsetFamily | None = None) -> int:
    b = colouring.ball
    fam = offsets16(b.presentation) if fam is None else fam
    codes = colouring.codes
    total = 0
    for g in fam.elements:
        table = b.left_table(g)
        mask = table >= 0
        total += int(np.count_nonzero(codes[mask] == codes[table[mask]]))
    return total


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
    aims = config.values[neighbours] == np.array([-1, 1, -1, 1])
    return SecondaryGraph(config, centers, np.where(aims, neighbours, -1))


def arrows_to_list_colouring(arrow_colouring: Colouring, base: Colouring) -> Colouring:
    """Colour each vertex by the base colour of its arrow target; the
    result carries the arrow colouring's configuration."""
    b = arrow_colouring.ball
    if base.ball is not b:
        raise ValueError("base colouring lives on a different ball")
    field = arrow_field(arrow_colouring)
    incoming = incoming_counts(field)
    interior = b.interior_indices(2)
    crowded = np.flatnonzero(incoming[interior] >= 2)
    if len(crowded):
        raise ValueError(f"crowded interior vertex {int(interior[crowded[0]])}: list transport undefined")
    targets = field.targets
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


_BLOCK_ENTRIES = 1 << 16


def _word_images(b: Ball, limit: int, vertices: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """gamma * x for every word gamma of length <= limit and every x in
    `vertices`, one block of columns at a time.

    Those words are a length-prefix of the ball's vertices, and each is its
    first unit letter times its parent (`Ball.first_steps`), one sphere
    shorter, so one gather per sphere fills a block:
    image[gamma] = unit[first[gamma]][image[parent[gamma]]].  That walks
    the suffixes of gamma, so an entry is -1 once a suffix times x leaves
    the ball; in a free group the lengths along that walk fall and then
    rise, so this happens exactly when gamma * x is outside.  Yields
    (start, images) with images[gamma, j] = gamma * vertices[start + j];
    a block holds about _BLOCK_ENTRIES entries, and at least one column.
    """
    bounds = np.cumsum([0, *b.sphere_sizes[: limit + 1]])
    first, parent = b.first_steps()
    units = np.full((len(b.presentation.adjacency_letters()), len(b) + 1), -1, dtype=np.int32)
    units[:, :-1] = b.unit_tables()  # column -1 sends -1 to -1
    spheres = [(lo, hi, first[lo:hi, None], parent[lo:hi]) for lo, hi in zip(bounds[1:-1], bounds[2:])]
    step = max(1, _BLOCK_ENTRIES // int(bounds[-1]))
    for start in range(0, len(vertices), step):
        chunk = vertices[start : start + step]
        images = np.empty((bounds[-1], len(chunk)), dtype=np.int32)
        images[0] = chunk
        for lo, hi, letters, parents in spheres:
            images[lo:hi] = units[letters, images[parents]]
        yield start, images


def _edge_blocks(
    b: Ball,
    limit: int,
    parity: int,
    vertices: np.ndarray,
    codes: np.ndarray,
    forbidden: Sequence[np.ndarray] = (),
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Per block of `_word_images`, the pairs (x, gamma * x) for nonempty
    words gamma of length <= limit with the given parity, gamma * x in the
    ball and codes[gamma * x] different from every forbidden[k] at x.

    Yields (word, position, x, image) arrays, word-major within a block;
    position indexes `vertices`, so (word, position) is the order of a
    loop over words outside a loop over vertices.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    lengths = b.lengths[: sum(b.sphere_sizes[: limit + 1])]
    rows = np.flatnonzero((lengths % 2 == parity) & (lengths > 0))
    for start, images in _word_images(b, limit, vertices):
        images = images[rows]
        keep = images >= 0
        image_codes = codes[images]
        for colours in forbidden:
            keep &= image_codes != colours[start : start + images.shape[1]]
        word, column = np.nonzero(keep)
        position = start + column
        yield rows[word], position, vertices[position], images[word, column]


def _in_order(
    blocks: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) pairs of all blocks, sorted by (word, position)."""
    parts = list(blocks)
    if not parts:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    word, position, x, y = (np.concatenate(column) for column in zip(*parts))
    order = np.lexsort((position, word))
    return x[order], y[order]


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
    """
    b = base.ball
    if not Fraction(0) < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    n_colours = len(base.palette)
    trace = []
    last = (None, (), 0, Fraction(1))
    for n_odd in range(1, b.radius + 1, 2):
        eligible = np.flatnonzero(b.lengths <= b.radius - n_odd)
        seen = np.zeros((len(eligible), n_colours), dtype=bool)
        for _, position, _, images in _edge_blocks(b, n_odd, 1, eligible, base.codes):
            seen[position, base.codes[images]] = True
        failing = eligible[~seen.all(axis=1)]
        fraction = Fraction(len(failing), len(eligible)) if len(eligible) else Fraction(1)
        trace.append((n_odd, len(eligible), len(failing)))
        last = (n_odd, tuple(int(x) for x in failing), len(eligible), fraction)
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
    generated from the words, one block of `_word_images` at a time.
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

    def degree_bound(self) -> int:
        sizes = self.ball.sphere_sizes
        odd = sum(sizes[1 : self.odd_limit + 1 : 2])
        even = sum(sizes[2 : self.even_limit + 1 : 2])
        return 6 + odd + even

    def _cross_blocks(self, vertices: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """`_edge_blocks` of the cross family; positions index `vertices`
        after dropping Q and the last sphere, which keeps their order."""
        vertices = np.asarray(vertices, dtype=np.int64)
        inside = self.ball.lengths[vertices] <= self.ball.radius - 1
        eligible = vertices[inside & ~np.isin(vertices, list(self.q_proxy))]
        z1, z2 = candidate_arrays(self.config, eligible)
        codes = self.base.codes
        return _edge_blocks(self.ball, self.odd_limit, 1, eligible, codes, (codes[z1], codes[z2]))

    def _copy2_blocks(self, vertices: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        vertices = np.asarray(vertices, dtype=np.int64)
        codes = self.base.codes
        return _edge_blocks(self.ball, self.even_limit, 0, vertices, codes, (codes[vertices],))

    def cross_pairs(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Arrays (x, z) with x in the first copy, rho(z) its cross neighbour,
        in the order (word, x's position in `vertices`)."""
        return _in_order(self._cross_blocks(vertices))

    def copy2_pairs(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Arrays (x, y) with rho(x) ~ rho(y): even distance, different base colours."""
        return _in_order(self._copy2_blocks(vertices))

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


def canonical_doubled_colouring(graph: DoubledGraph, arrow_colouring: Colouring) -> Colouring:
    """First copy: base colour of each arrow target.  Second copy: the base.
    Copy t of vertex i is vertex t*|ball| + i, as `DoubledGraph.rho` mirrors."""
    first = arrows_to_list_colouring(arrow_colouring, graph.base)
    return doubled_colouring(graph.ball, graph.base.palette, first.codes, graph.base.codes)


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


def _secondary_conflicts(graph: DoubledGraph, codes: np.ndarray) -> tuple[int, list[tuple[str, int, int]]]:
    """Secondary edges off Q checked, and those whose ends share a colour."""
    x, y = _secondary_off_q(graph)
    same = (codes[x] >= 0) & (codes[x] == codes[y])
    return len(x), [("secondary", a, b) for a, b in zip(x[same].tolist(), y[same].tolist())]


def _block_conflicts(
    blocks: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
    x_codes: np.ndarray,
    y_codes: np.ndarray,
) -> tuple[int, np.ndarray, np.ndarray]:
    """Edges counted over the blocks, and the (x, y) with x_codes[x] =
    y_codes[y] >= 0, in (word, position) order."""
    count = 0
    found = []
    for word, position, x, y in blocks:
        count += len(x)
        cx = x_codes[x]
        bad = (cx >= 0) & (cx == y_codes[y])
        found.append((word[bad], position[bad], x[bad], y[bad]))
    return (count, *_in_order(found))


def check_proper(
    graph: DoubledGraph,
    colouring: Colouring,
    copy2_sample: int | None = 64,
    seed: int = 0,
) -> ProperReport:
    """Adjacent equal colours across all three edge families.

    Uncoloured endpoints are skipped; copy2 edges are checked from a seeded
    vertex sample by default since that family is the dense one.  Cross
    and copy2 edges are counted and checked one block of words x vertices
    at a time, never as one list; each family's conflicts are listed in
    the order (word, vertex), words in canonical order outside vertices
    in ascending order.
    """
    n = graph.n_first
    codes = colouring.codes
    n_secondary, conflicts = _secondary_conflicts(graph, codes)

    n_cross, xs, zs = _block_conflicts(graph._cross_blocks(graph.ball.interior_indices(1)), codes[:n], codes[n:])
    conflicts += [("cross", x, graph.rho(z)) for x, z in zip(xs.tolist(), zs.tolist())]

    all_seconds = np.arange(n)
    if copy2_sample is not None and copy2_sample < n:
        rng = np.random.default_rng(seed)
        all_seconds = np.sort(rng.choice(all_seconds, size=copy2_sample, replace=False))
    n_copy2, xs, ys = _block_conflicts(graph._copy2_blocks(all_seconds), codes[n:], codes[n:])
    conflicts += [("copy2", graph.rho(x), graph.rho(y)) for x, y in zip(xs.tolist(), ys.tolist())]

    checked = {"secondary": n_secondary, "cross": n_cross, "copy2": n_copy2}
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


def flow_audit_doubled(colouring: Colouring, graph: DoubledGraph) -> DoubledAudit:
    """Read induced arrows off the doubled colouring and account for them.

    Every first-copy vertex outside Q whose colour matches a mirrored
    candidate sends one arrow; receiving capacity cannot cover the exact
    outflow and inflow bounds simultaneously, and the translated program
    certifies the 15/512 gap.
    """
    n = graph.n_first
    codes = colouring.codes
    _, conflicts = _secondary_conflicts(graph, codes)
    if conflicts:
        raise ValueError("colouring is not proper on the secondary edges")

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
