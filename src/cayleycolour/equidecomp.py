"""Finite-scale type arithmetic: bounded level-sets over a group orbit,
addition by disjoint-level union, equidecomposability as bipartite
matching, cancellation experiments, and exact prefix-set identities on
the rank-two free group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .groups import Ball, ReducedWord, check_rank_two_free

Element = tuple[ReducedWord, int]


@dataclass(frozen=True)
class LevelSet:
    """Finitely many (point, level) pairs; levels are natural numbers."""

    elements: frozenset[Element]

    def __post_init__(self) -> None:
        for _, level in self.elements:
            if level < 0:
                raise ValueError("levels must be nonnegative")

    @classmethod
    def from_words(cls, words: Iterable[ReducedWord], level: int = 0) -> "LevelSet":
        return cls(frozenset((w, level) for w in words))

    @property
    def levels(self) -> frozenset[int]:
        return frozenset(level for _, level in self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def shift_levels(self, offset: int) -> "LevelSet":
        return LevelSet(frozenset((w, level + offset) for w, level in self.elements))

    def to_record(self) -> dict:
        items = sorted(((w.to_string(), level) for w, level in self.elements))
        return {"elements": [list(item) for item in items], "levels": sorted(self.levels)}


def type_add(a: LevelSet, b: LevelSet) -> LevelSet:
    """Union after relabelling b's levels above a's; the empty set is the
    identity and cardinalities add."""
    if not b.elements:
        return LevelSet(a.elements)
    if not a.elements:
        return LevelSet(b.elements)
    offset = max(a.levels) + 1 - min(b.levels)
    return LevelSet(a.elements | b.shift_levels(offset).elements)


def n_fold(n: int, a: LevelSet) -> LevelSet:
    if n < 0:
        raise ValueError("need n >= 0")
    out = LevelSet(frozenset())
    for _ in range(n):
        out = type_add(out, a)
    return out


@dataclass(frozen=True)
class Decomposition:
    """A matched injection, one (source, mover, target) triple per element.

    Pieces are the triples grouped by (mover, source level, target level);
    each group moves by one group element and one level relabel.
    """

    pairs: tuple[tuple[Element, ReducedWord, Element], ...]

    def pieces(self) -> dict[tuple[ReducedWord, int, int], tuple[Element, ...]]:
        grouped: dict[tuple[ReducedWord, int, int], list[Element]] = {}
        for (src, mover, tgt) in self.pairs:
            grouped.setdefault((mover, src[1], tgt[1]), []).append(src)
        return {k: tuple(v) for k, v in grouped.items()}

    def n_pieces(self) -> int:
        return len(self.pieces())

    def to_record(self) -> dict:
        rows = sorted(
            (src[0].to_string(), src[1], mover.to_string(), tgt[0].to_string(), tgt[1])
            for src, mover, tgt in self.pairs
        )
        return {"pairs": [list(r) for r in rows], "n_pieces": self.n_pieces()}


def _sorted_elements(s: LevelSet) -> list[Element]:
    return sorted(s.elements, key=lambda e: (e[1],) + e[0].sort_key())


def _kuhn_matching(n_left: int, adjacency: list[list[int]], n_right: int) -> list[int]:
    """Maximum bipartite matching; returns per-left matched right index or -1."""
    match_left = [-1] * n_left
    match_right = [-1] * n_right

    def try_augment(start: int) -> bool:
        stack = [(start, iter(adjacency[start]))]
        parent: dict[int, tuple[int, int]] = {}
        visited = set()
        while stack:
            u, it = stack[-1]
            advanced = False
            for v in it:
                if v in visited:
                    continue
                visited.add(v)
                parent[v] = (u, v)
                w = match_right[v]
                if w == -1:
                    # augmenting path found; walk back
                    while True:
                        u2, v2 = parent[v]
                        old = match_left[u2]
                        match_left[u2] = v2
                        match_right[v2] = u2
                        if u2 == start:
                            return True
                        v = old
                else:
                    stack.append((w, iter(adjacency[w])))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
        return False

    for u in range(n_left):
        try_augment(u)
    return match_left


def equidecomposable(
    a: LevelSet,
    b: LevelSet,
    movers: Sequence[ReducedWord],
) -> Decomposition | None:
    """Witness that a maps injectively into b by elements of `movers` with
    free level relabelling, or None.  Complete for the given mover set:
    reduces to maximum matching on the compatibility graph.  The number of
    pieces of the witness is not minimised."""
    left = _sorted_elements(a)
    right = _sorted_elements(b)
    right_at: dict[ReducedWord, list[int]] = {}
    for j, (point, _) in enumerate(right):
        right_at.setdefault(point, []).append(j)
    movers = sorted(movers, key=ReducedWord.sort_key)
    adjacency: list[list[int]] = []
    labels: list[dict[int, ReducedWord]] = []
    for point, _ in left:
        row: list[int] = []
        row_labels: dict[int, ReducedWord] = {}
        seen: set[int] = set()
        for g in movers:
            for j in right_at.get(g * point, ()):
                if j not in seen:
                    seen.add(j)
                    row.append(j)
                    row_labels[j] = g
        adjacency.append(row)
        labels.append(row_labels)
    match = _kuhn_matching(len(left), adjacency, len(right))
    if any(m == -1 for m in match):
        return None
    pairs = tuple(
        (left[i], labels[i][match[i]], right[match[i]]) for i in range(len(left))
    )
    return Decomposition(pairs)


def verify_decomposition(
    witness: Decomposition,
    source: LevelSet,
    target: LevelSet,
    movers: Sequence[ReducedWord] | None = None,
    bijection: bool = False,
) -> bool:
    """Check a supplied witness: sources partition `source`, images are
    pairwise disjoint inside `target` (and exhaust it when bijection)."""
    srcs = [src for src, _, _ in witness.pairs]
    tgts = [tgt for _, _, tgt in witness.pairs]
    if len(set(srcs)) != len(srcs) or set(srcs) != source.elements:
        return False
    if len(set(tgts)) != len(tgts) or not set(tgts) <= target.elements:
        return False
    if bijection and set(tgts) != target.elements:
        return False
    allowed = None if movers is None else {g.letters for g in movers}
    for (point, _), mover, (image, _) in witness.pairs:
        if allowed is not None and mover.letters not in allowed:
            return False
        if (mover * point).letters != image.letters:
            return False
    return True


def weakly_paradoxical(
    e: LevelSet,
    witness: Decomposition,
    n: int,
    movers: Sequence[ReducedWord] | None = None,
) -> bool:
    """(n+1) copies map bijectively onto n copies."""
    return verify_decomposition(witness, n_fold(n + 1, e), n_fold(n, e), movers, bijection=True)


def strongly_paradoxical(
    e: LevelSet,
    witness: Decomposition,
    movers: Sequence[ReducedWord] | None = None,
) -> bool:
    """Two copies map bijectively onto one."""
    return verify_decomposition(witness, n_fold(2, e), e, movers, bijection=True)


@dataclass(frozen=True)
class CancellationReport:
    n: int
    trials: int
    witnessed: int
    recovered: int
    skipped: int
    failures: int

    def to_record(self) -> dict:
        return {
            "n": self.n,
            "trials": self.trials,
            "witnessed": self.witnessed,
            "recovered": self.recovered,
            "skipped": self.skipped,
            "failures": self.failures,
        }


def cancellation_check(
    n: int,
    a: LevelSet,
    b: LevelSet,
    movers: Sequence[ReducedWord],
) -> tuple[Decomposition | None, Decomposition | None]:
    """(witness for n copies into n copies, witness for one into one)."""
    lifted = equidecomposable(n_fold(n, a), n_fold(n, b), movers)
    base = equidecomposable(a, b, movers) if lifted is not None else None
    return lifted, base


def cancellation_experiment(
    n: int,
    pool: Sequence[ReducedWord],
    movers: Sequence[ReducedWord],
    trials: int,
    seed: int = 0,
    max_size: int = 12,
    forced: bool = True,
) -> CancellationReport:
    """Random instances of n-fold domination checked against the base
    relation.  Forced instances build b to contain a mover-translate of
    every a-point, so the n-fold witness exists by construction; free
    instances may be skipped when n copies already fail to embed.
    A nonzero failure count would indict the matching oracle."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = np.random.default_rng(seed)
    pool = list(pool)
    movers = list(movers)
    witnessed = recovered = skipped = failures = 0
    for _ in range(trials):
        size_a = int(rng.integers(1, max_size + 1))
        idx = rng.choice(len(pool), size=size_a, replace=False)
        a = LevelSet.from_words([pool[i] for i in idx])
        if forced:
            # One common mover keeps the translate injective, so the n-fold
            # witness exists by construction; extras give the matching room
            # to route differently.
            g = movers[int(rng.integers(0, len(movers)))]
            points = [g * w for w, _ in a.elements]
            extra = int(rng.integers(0, max(1, max_size - size_a + 1)))
            for i in rng.choice(len(pool), size=extra, replace=False):
                points.append(pool[i])
            b = LevelSet.from_words(points)
        else:
            size_b = int(rng.integers(1, max_size + 1))
            idx_b = rng.choice(len(pool), size=size_b, replace=False)
            b = LevelSet.from_words([pool[i] for i in idx_b])
        lifted, base = cancellation_check(n, a, b, movers)
        if lifted is None:
            skipped += 1
            continue
        witnessed += 1
        if base is None:
            failures += 1
        else:
            recovered += 1
    return CancellationReport(n, trials, witnessed, recovered, skipped, failures)


# ---------------------------------------------------------------------------
# Prefix sets on the rank-two free group.

_RANK_TWO_FREE = "prefix sets live on the rank-two free group"


def _prefix_masks(b: Ball) -> list[np.ndarray]:
    """Per unit letter of `adjacency_letters()` (s, S, t, T on the rank-two
    free group), the vertices whose reduced word starts with it."""
    first, _ = b.first_steps()
    return [first == i for i in range(len(b.presentation.adjacency_letters()))]


def prefix_set(letter: str, b: Ball) -> frozenset[ReducedWord]:
    """All ball words starting (on the left) with the given unit letter,
    written in the presentation's own alphabet (uppercase for inverses)."""
    p = b.presentation
    check_rank_two_free(p, _RANK_TWO_FREE)
    unit = p.word(letter)
    if unit.length != 1 or abs(unit.letters[0][1]) != 1:
        raise ValueError(f"not a unit letter: {letter!r}")
    mask = _prefix_masks(b)[p.adjacency_letters().index(unit.letters[0])]
    return frozenset(b.words[int(i)] for i in np.flatnonzero(mask))


@dataclass(frozen=True)
class PrefixReport:
    radius: int
    star_exact: tuple[bool, bool]
    star_literal_gap: tuple[tuple[str, ...], tuple[str, ...]]
    chain_exact: tuple[bool, ...]
    chain_literal_gap_sizes: tuple[int, ...]
    intersection_tail_sizes: tuple[int, ...]
    partition_exact: bool

    @property
    def all_verified(self) -> bool:
        return all(self.star_exact) and all(self.chain_exact) and self.partition_exact

    def to_record(self) -> dict:
        return {
            "radius": self.radius,
            "star_exact": list(self.star_exact),
            "star_literal_gap": [list(g) for g in self.star_literal_gap],
            "chain_exact": list(self.chain_exact),
            "chain_literal_gap_sizes": list(self.chain_literal_gap_sizes),
            "intersection_tail_sizes": list(self.intersection_tail_sizes),
            "partition_exact": self.partition_exact,
            "all_verified": self.all_verified,
        }


def verify_prefix_identities(b: Ball) -> PrefixReport:
    """Exact prefix-set identities, truncation-aware.

    The left-translation identities hold with the identity element included
    on the right-hand side; the report carries the literal reading's gap
    (always exactly the identity element) separately.  The chain sets
    accumulate the powers of the second generator, and the running
    intersections stabilize toward the inverse-prefix set plus that power
    core, with the tail shrinking at every step.

    Sets are boolean masks over the ball's vertices, translated with
    `Ball.left_table`.  Products that leave the ball are dropped: every
    comparison is restricted to length <= radius - 1 first (radius - n at
    chain step n), and a word of length > radius stays longer than that
    under the n or fewer left multiplications by t that follow.
    """
    p = b.presentation
    check_rank_two_free(p, _RANK_TWO_FREE)
    if b.radius < 3:
        raise ValueError("need radius at least 3")
    ws, ws_inv, wt, wt_inv = _prefix_masks(b)
    one = np.arange(len(b)) == 0
    s, t = p.generator(0), p.generator(1)

    def translate(g: ReducedWord, mask: np.ndarray) -> np.ndarray:
        images = b.left_table(g)[mask]
        out = np.zeros(len(b), dtype=bool)
        out[images[images >= 0]] = True
        return out

    parts = (one, ws, ws_inv, wt, wt_inv)
    partition_exact = bool(np.all(np.logical_or.reduce(parts))) and sum(int(np.count_nonzero(m)) for m in parts) == len(b)

    star_exact = []
    star_gap = []
    for g, src, others in (
        (s, ws_inv, (ws_inv, wt, wt_inv)),
        (t, wt_inv, (wt_inv, ws, ws_inv)),
    ):
        inner = b.lengths <= b.radius - 1
        lhs = translate(g, src) & inner
        literal = (others[0] | others[1] | others[2]) & inner
        star_exact.append(bool(np.array_equal(lhs, one | literal)))
        star_gap.append(tuple(sorted(b.words[int(i)].to_string() for i in np.flatnonzero(lhs & ~literal))))

    # Chain: j0 is everything off the s-axis including the identity; each
    # step multiplies by t and removes the s-prefixed words.  Closed form
    # at step n: the powers t^0..t^n, the t-inverse prefixes, and the words
    # with at least n+1 leading t's.
    remove = ws | ws_inv
    t_table = b.left_table(t)
    chain_exact = []
    chain_gap_sizes = []
    tail_sizes = []
    current = one | wt | wt_inv
    powers = one.copy()
    power = 0  # the vertex t^n
    running: np.ndarray | None = None
    for n in range(1, b.radius - 1):
        inner = b.lengths <= b.radius - n
        current = translate(t, current) & ~remove
        power = int(t_table[power])
        powers[power] = True
        shifted = translate(t**n, wt)
        closed = (powers | wt_inv | shifted) & inner
        computed = current & inner
        chain_exact.append(bool(np.array_equal(computed, closed)))
        literal = ((np.arange(len(b)) == power) | wt_inv | shifted) & inner
        chain_gap_sizes.append(int(np.count_nonzero(computed & ~literal)))
        running = computed if running is None else (running & inner & computed)
        tail_sizes.append(int(np.count_nonzero(running & ~(wt_inv & inner))))

    return PrefixReport(
        radius=b.radius,
        star_exact=tuple(star_exact),
        star_literal_gap=tuple(star_gap),
        chain_exact=tuple(chain_exact),
        chain_literal_gap_sizes=tuple(chain_gap_sizes),
        intersection_tail_sizes=tuple(tail_sizes),
        partition_exact=partition_exact,
    )
