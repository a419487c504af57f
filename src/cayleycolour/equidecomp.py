"""Paradoxical decompositions on a Cayley ball, checked exactly.

A decomposition splits the judged vertices into numbered pieces and moves
each piece, bar the left-over ones, by one group element on the left into
one of two copies.  Each moved piece must land in its target set, every
judged target vertex must come from that piece, the targets of each copy
must cover the judged vertices, and the pieces of one copy must never land
on the same vertex.  `check_decomposition` counts all of this on vertex
arrays translated by `Ball.left_table_once`; what a mover carries past the
radius is counted apart, as the boundary remainder.

`free_group_decomposition` is the classical one of the rank-two free group:
with W(x) the words starting with x, F2 = 1 u W(s) u W(S) u W(t) u W(T),
and W(s) u s W(S) and W(t) u t W(T) are each the whole group.  The identity
is the piece left over.  The six-piece doubling of Z2 * Z3 lives in
`hausdorff`.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .groups import Ball, ReducedWord, check_rank_two_free


# pieces[v] is the number (1-based, in `names` order) of vertex v's piece,
# 0 where v is not judged.  movers, copies and targets map each moved
# piece's name to its mover word, its copy index and a whole-ball target
# mask; a left-over piece has no entry.
Decomposition = namedtuple("Decomposition", "pieces names movers copies targets")


@dataclass(frozen=True)
class DecompositionReport:
    interior_size: int
    piece_sizes: dict[str, int]
    partition_exact: bool
    mover_words: dict[str, str]
    into_checks: dict[str, tuple[int, int]]
    onto_checks: dict[str, tuple[int, int]]
    boundary_remainder: int
    copies_disjoint: bool
    # Whether each copy's targets cover the judged vertices; read only by
    # `all_verified`, so the record keeps its keys.
    copies_cover: bool

    @property
    def all_verified(self) -> bool:
        return (
            self.interior_size > 0
            and self.partition_exact
            and self.copies_disjoint
            and self.copies_cover
            and all(p == t for p, t in self.into_checks.values())
            and all(p == t for p, t in self.onto_checks.values())
        )

    def to_record(self) -> dict:
        return {
            "interior_size": self.interior_size,
            "piece_sizes": self.piece_sizes,
            "partition_exact": self.partition_exact,
            "movers": self.mover_words,
            "into_checks": {k: list(v) for k, v in self.into_checks.items()},
            "onto_checks": {k: list(v) for k, v in self.onto_checks.items()},
            "boundary_remainder": self.boundary_remainder,
            "copies_disjoint": self.copies_disjoint,
            "all_verified": self.all_verified,
        }


def check_decomposition(ball: Ball, decomposition: Decomposition, judged: int) -> DecompositionReport:
    """Check that the pieces tile the first `judged` vertices and that the
    movers rebuild each copy.

    Per moved piece, the into check counts its images inside the ball that
    land in the target; the onto check counts the judged target vertices
    whose preimage lies in some piece, and those whose preimage lies in
    this one.  Images and preimages outside the ball, and preimages in no
    piece, make up the boundary remainder.  The onto checks reach only
    judged vertices in some target, so each copy's targets must also
    cover every judged vertex.

    Each distinct word among the movers and their inverses has its table
    built once, by `Ball.left_table_once`, and dropped before the next:
    it serves the into check of every piece it moves and the onto check
    of every piece whose mover is its inverse.
    """
    piece = decomposition.pieces
    piece_sizes = {name: int(np.count_nonzero(piece == k + 1)) for k, name in enumerate(decomposition.names)}
    partition_exact = bool(np.all(piece[:judged] > 0)) and sum(piece_sizes.values()) == judged

    number = {name: k + 1 for k, name in enumerate(decomposition.names)}
    moved_names = [name for name in decomposition.names if name in decomposition.movers]
    # Per distinct word, in first use: the pieces it moves, and the pieces
    # whose mover is its inverse.
    reads: dict[tuple, tuple[ReducedWord, list[str], list[str]]] = {}
    for name in moved_names:
        mover = ball.presentation.word(decomposition.movers[name])
        reads.setdefault(mover.letters, (mover, [], []))[1].append(name)
        inverse = mover.inverse()
        reads.setdefault(inverse.letters, (inverse, [], []))[2].append(name)

    into: dict[str, tuple[int, int]] = {}
    onto: dict[str, tuple[int, int]] = {}
    hits: dict[int, np.ndarray] = {}
    covered: dict[int, np.ndarray] = {}
    disjoint = True
    remainder = 0
    for word, forward, backward in reads.values():
        table = ball.left_table_once(word)
        for name in forward:
            target, copy = decomposition.targets[name], decomposition.copies[name]
            if copy not in hits:
                hits[copy], covered[copy] = np.zeros(len(ball), dtype=bool), np.zeros(judged, dtype=bool)
            dropped, into[name], overlap = _into(table[piece == number[name]], target, hits[copy])
            remainder += dropped
            disjoint = disjoint and not overlap
            covered[copy] |= target[:judged]
        for name in backward:
            dropped, onto[name] = _onto(table[:judged][decomposition.targets[name][:judged]], piece, number[name])
            remainder += dropped
        # Dropped before the next word's table is built.
        del table

    return DecompositionReport(
        interior_size=judged,
        piece_sizes=piece_sizes,
        partition_exact=partition_exact,
        mover_words=decomposition.movers,
        into_checks={name: into[name] for name in moved_names},
        onto_checks={name: onto[name] for name in moved_names},
        boundary_remainder=remainder,
        copies_disjoint=disjoint,
        copies_cover=all(c.all() for c in covered.values()),
    )


def _into(moved: np.ndarray, target: np.ndarray, hit: np.ndarray) -> tuple[int, tuple[int, int], bool]:
    """A piece's images: how many leave the ball, (in the target, inside
    the ball), and whether one lands on a vertex its copy's hit mask marks;
    marks them.  A table is one-to-one where it is defined, so the pieces
    of a copy overlap exactly when one lands on a vertex another hit."""
    inside = moved[moved >= 0]
    overlap = bool(hit[inside].any())
    hit[inside] = True
    return len(moved) - len(inside), (int(np.count_nonzero(target[inside])), len(inside)), overlap


def _onto(sources: np.ndarray, piece: np.ndarray, k: int) -> tuple[int, tuple[int, int]]:
    """Judged target vertices' preimages: how many lie outside the ball or
    in no piece, and (in piece k, in some piece)."""
    landed = piece[sources[sources >= 0]]
    found = int(np.count_nonzero(landed))
    return len(sources) - found, (int(np.count_nonzero(landed == k)), found)


def free_group_decomposition(b: Ball) -> Decomposition:
    """The pieces 1, W(s), W(S), W(t), W(T), read off `Ball.first`, judged
    on the whole ball: copy 1 is W(s) by 1 plus W(S) by s, onto W(s) and
    its complement, copy 2 likewise with t.  Pieces are named by their
    first letter, as `ReducedWord.to_string` spells it."""
    p = b.presentation
    check_rank_two_free(p, "prefix sets live on the rank-two free group")
    s, t = p.name(0), p.name(1)
    S, T = s.upper(), t.upper()
    # `first` is -1 at the identity and 0..3 for s, S, t, T.
    ws, wt = b.first == 0, b.first == 2
    return Decomposition(
        pieces=b.first + 2,
        names=("1", s, S, t, T),
        movers={s: "1", S: s, t: "1", T: t},
        copies={s: 1, S: 1, t: 2, T: 2},
        targets={s: ws, S: ~ws, t: wt, T: ~wt},
    )
