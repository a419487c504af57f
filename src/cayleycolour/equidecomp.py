"""Exact prefix-set identities on the rank-two free group.

The prefix sets W(s), W(S), W(t), W(T) (words starting with s, s^-1, t,
t^-1) and the identity partition the group, and s * W(S) is everything
outside W(s): the classical paradoxical decomposition of F2.  On a finite
ball these identities hold only away from the boundary;
`verify_prefix_identities` checks them there, with the chain identities
that t accumulates, as boolean masks over the ball's vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import Ball, ReducedWord, check_rank_two_free

_RANK_TWO_FREE = "prefix sets live on the rank-two free group"


def _prefix_masks(b: Ball) -> list[np.ndarray]:
    """Per unit letter of `adjacency_letters()` (s, S, t, T on the rank-two
    free group), the vertices whose reduced word starts with it."""
    return [b.first == i for i in range(len(b.presentation.adjacency_letters()))]


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
    under the n or fewer left multiplications by t that follow.  t^n W(t)
    is one t-translate of t^(n-1) W(t), never a t^n table: a word of W(t)
    starts with t, so t^(n-1) w is in the ball whenever t^n w is.
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
    shifted = wt  # t^n W(t), carried one t at a time
    running: np.ndarray | None = None
    for n in range(1, b.radius - 1):
        inner = b.lengths <= b.radius - n
        current = translate(t, current) & ~remove
        power = int(t_table[power])
        powers[power] = True
        shifted = translate(t, shifted)
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
