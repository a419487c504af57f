"""Three-class congruence rules and their constructive solutions.

Two rules live here.  The classic three-class rule on Z2 * Z3 demands
sigma(A) = B u C, sigma(B u C) = A, and tau cycling A -> B -> C -> A; its
allowed sets can be empty, so it is not rank one.  The mod-3 cycling rule
(three colours A1, A2, A3 with a counting clause over k+1 descendants) is
rank one, and any colouring satisfying it makes the A1 class simultaneously
too big and too small for any invariant finitely additive measure.

Both solvers walk the ball outward from the identity, each vertex coloured
from its unique shorter neighbour; torsion triangles close consistently.
Each returns a plain `Colouring`, and the six-piece functions take it.
The six-piece report rebuilds two full copies of the space from pieces of
one, with every set membership and every moved vertex checked exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .groups import Ball, Letter, Presentation, free_group, z2_z3
from .measures import DensityProgram, TransportCertificate, certify_transport, translate
from .rules import Colouring, ColouringRule, check

E1_COLOURS = ("A1", "A2", "A3")
H_COLOURS = ("A", "B", "C")


def _bfs_colour(ball: Ball, root: int, child_colour: Callable[[Letter, int], int]) -> np.ndarray:
    """Colour each vertex from its unique shorter neighbour, identity first.

    child_colour(letter, parent_code) gives the code of l*parent.  Ball
    order is by length, so each sphere's parents are coloured before it,
    and child_colour is called once per (letter, parent code) in a sphere.
    """
    letters = ball.presentation.adjacency_letters()
    first, parent = ball.first_steps()
    codes = np.full(len(ball), -1, dtype=np.int16)
    codes[0] = root
    for lo, size in zip(np.cumsum(ball.sphere_sizes[:-1]), ball.sphere_sizes[1:]):
        for i, letter in enumerate(letters):
            mine = lo + np.flatnonzero(first[lo : lo + size] == i)
            parent_codes = codes[parent[mine]]
            for code in np.flatnonzero(np.bincount(parent_codes)):
                codes[mine[parent_codes == code]] = child_colour(letter, int(code))
    return codes


# ---------------------------------------------------------------------------
# The mod-3 cycling rule (rank one).


def _check_example1_presentation(p: Presentation, k: int) -> None:
    if k < 2:
        raise ValueError("need k >= 2")
    if p.n_generators != k:
        raise ValueError(f"presentation must have {k} generators (tau plus k-1 sigmas)")
    tau_order = p.order(0)
    if tau_order is not None and tau_order % 3 != 0:
        raise ValueError("tau's order must be infinite or divisible by 3")
    for j in range(1, k):
        order = p.order(j)
        if order is not None and order % 2 != 0:
            raise ValueError("every sigma's order must be infinite or divisible by 2")


def example1_rule(k: int = 2, presentation: Presentation | None = None) -> ColouringRule:
    """Three colours cycling forward along tau, with a counting clause.

    If tau^-1(x) wears A_i and tau(x) wears A_i or A_{i+1}, x gets A_{i+1}.
    If tau(x) wears A_{i-1}, count the A1's among all k+1 descendants: a
    count strictly between 0 and k copies tau(x)'s colour, anything else
    gives A_{i+1}.  The first generator is tau, the rest are the sigmas.
    """
    p = presentation if presentation is not None else free_group(k)
    _check_example1_presentation(p, k)
    tau = p.generator(0, 1)
    descendants = (tau, tau.inverse()) + tuple(p.generator(j, 1) for j in range(1, k))

    def allowed(_window: tuple[int, ...], desc: tuple[str, ...]) -> frozenset[str]:
        tau_x, tau_inv_x = desc[0], desc[1]
        i = E1_COLOURS.index(tau_inv_x)
        succ = E1_COLOURS[(i + 1) % 3]
        pred = E1_COLOURS[(i - 1) % 3]
        if tau_x in (tau_inv_x, succ):
            return frozenset({succ})
        assert tau_x == pred
        count = sum(1 for c in desc if c == "A1")
        if 0 < count < k:
            return frozenset({tau_x})
        return frozenset({succ})

    return ColouringRule(
        name=f"mod3-cycling-k{k}",
        colours=E1_COLOURS,
        descendants=descendants,
        allowed_fn=allowed,
        dependency_radius=1,
    )


def example1_solve(ball: Ball) -> Colouring:
    """Root gets A1; tau steps cycle forward; a sigma step leaves A1 for A2
    and returns to A1 from anywhere else."""

    def child_colour(letter: Letter, parent: int) -> int:
        gen, exp = letter
        if gen == 0:
            return (parent + exp) % 3
        return 1 if parent == 0 else 0

    codes = _bfs_colour(ball, root=0, child_colour=child_colour)
    return Colouring(ball, E1_COLOURS, codes)


def example1_certificates(colouring: Colouring) -> list[TransportCertificate]:
    """Transport facts implied by a satisfying colouring, verified exactly.

    tau moves each class onto the next one; the first sigma sends the two
    non-A1 classes into A1.  A certificate whose check fails is returned
    unverified, with its first failing vertex.
    """
    p = colouring.ball.presentation
    tau = p.generator(0, 1)
    sigma = p.generator(1, 1)
    certs = []
    for i in range(3):
        certs.append(
            certify_transport(
                colouring, tau, (E1_COLOURS[i],), (E1_COLOURS[(i + 1) % 3],), kind="bijection"
            )
        )
    certs.append(certify_transport(colouring, sigma, ("A2", "A3"), ("A1",), kind="maps-into"))
    return certs


def example1_program(certificates: list[TransportCertificate]) -> DensityProgram:
    return translate(certificates, E1_COLOURS)


# ---------------------------------------------------------------------------
# The sigma/tau congruence rule on Z2 * Z3 (not rank one).


def _check_z2_z3(p: Presentation) -> tuple[int, int]:
    """Return (sigma index, tau index) or raise."""
    orders = [p.order(i) for i in range(p.n_generators)]
    if p.n_generators != 2 or sorted(x for x in orders if x) != [2, 3] or None in orders:
        raise ValueError("this rule lives on the free product of orders 2 and 3")
    return orders.index(2), orders.index(3)


def hausdorff_rule(presentation: Presentation | None = None) -> ColouringRule:
    """sigma swaps A with B u C; tau cycles A -> B -> C -> A.

    Descendants are tau^-1 and sigma; the allowed set intersects the two
    requirements and can be empty, so the rule is not rank one.
    """
    p = presentation if presentation is not None else z2_z3()
    s_idx, t_idx = _check_z2_z3(p)
    tau_inv = p.generator(t_idx, 1).inverse()
    sigma = p.generator(s_idx, 1)

    def allowed(_window: tuple[int, ...], desc: tuple[str, ...]) -> frozenset[str]:
        tau_part = frozenset({H_COLOURS[(H_COLOURS.index(desc[0]) + 1) % 3]})
        sigma_part = frozenset({"B", "C"}) if desc[1] == "A" else frozenset({"A"})
        return tau_part & sigma_part

    return ColouringRule(
        name="three-class-congruence",
        colours=H_COLOURS,
        descendants=(tau_inv, sigma),
        allowed_fn=allowed,
        dependency_radius=1,
    )


def hausdorff_solve(ball: Ball) -> Colouring:
    """A/B/C classes on a Z2 * Z3 ball: identity in A; tau steps cycle
    forward, sigma swaps A with B."""
    s_idx, t_idx = _check_z2_z3(ball.presentation)

    def child_colour(letter: Letter, parent: int) -> int:
        gen, exp = letter
        if gen == t_idx:
            return (parent + exp) % 3
        return 1 if parent == 0 else 0

    codes = _bfs_colour(ball, root=0, child_colour=child_colour)
    return Colouring(ball, H_COLOURS, codes)


# ---------------------------------------------------------------------------
# Six pieces of one space, rearranged into two copies.

PIECES = ("P1", "P2", "P3", "P4", "P5", "P6")

# piece -> (mover word, target class, copy index); the mover acts on the
# left, letters applied right to left.
MOVERS = {
    "P1": ("tts", "A", 1),
    "P3": ("stt", "B", 1),
    "P5": ("tst", "C", 1),
    "P2": ("ts", "A", 2),
    "P4": ("ttstt", "B", 2),
    "P6": ("st", "C", 2),
}


@dataclass(frozen=True)
class DoublingReport:
    interior_size: int
    piece_sizes: dict[str, int]
    partition_exact: bool
    mover_words: dict[str, str]
    into_checks: dict[str, tuple[int, int]]
    onto_checks: dict[str, tuple[int, int]]
    boundary_remainder: int
    copies_disjoint: bool

    @property
    def all_verified(self) -> bool:
        return (
            self.partition_exact
            and self.copies_disjoint
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


def six_piece_pieces(classes: Colouring) -> np.ndarray:
    """Piece number 1..6 per vertex (0 where the reads leave the ball).

    A vertex in A splits by where sigma sends it (to B: piece 1, to C:
    piece 2); B vertices follow their tau-preimage's split one step on
    (pieces 3, 4), C vertices two steps on (pieces 5, 6).
    """
    ball = classes.ball
    s_idx, t_idx = _check_z2_z3(ball.presentation)
    sigma = ball.presentation.generator(s_idx, 1)
    tau = ball.presentation.generator(t_idx, 1)
    cls = classes.codes
    t_s = ball.left_table(sigma)
    t_t = ball.left_table(tau)
    inner = ball.interior_indices(2)
    c = cls[inner] % 3  # an uncoloured vertex (-1) splits like C
    # tau^-1 x = tau^2 x in this torsion group; walk two tau steps.
    back = np.where(c == 0, inner, np.where(c == 1, t_t[t_t[inner]], t_t[inner]))
    piece = np.zeros(len(ball), dtype=np.int8)
    piece[inner] = 2 * c + np.where(cls[t_s[back]] == 1, 1, 2)
    return piece


def six_piece_doubling(classes: Colouring) -> DoublingReport:
    """Check that the six pieces tile the interior and that the designated
    movers rebuild two disjoint copies of the A/B/C partition."""
    ball = classes.ball
    rule = hausdorff_rule(ball.presentation)
    report = check(rule, classes)
    if report.interior_size > 0 and not report.satisfied:
        raise ValueError("classes do not satisfy the congruence rule on the interior")
    piece = six_piece_pieces(classes)
    inner = ball.interior_indices(2)
    piece_sizes = {name: int(np.sum(piece == k + 1)) for k, name in enumerate(PIECES)}
    partition_exact = bool(np.all(piece[inner] > 0)) and sum(piece_sizes.values()) == len(inner)

    cls = classes.codes
    into_checks: dict[str, tuple[int, int]] = {}
    onto_checks: dict[str, tuple[int, int]] = {}
    mover_words: dict[str, str] = {}
    images: dict[int, list[np.ndarray]] = {1: [], 2: []}
    remainder = 0
    for k, name in enumerate(PIECES):
        word_text, target, copy = MOVERS[name]
        mover = ball.presentation.word(word_text)
        mover_words[name] = word_text
        table = ball.left_table(mover)
        target_code = H_COLOURS.index(target)
        moved = table[piece == k + 1]
        remainder += int(np.count_nonzero(moved < 0))
        moved = moved[moved >= 0]
        images[copy].append(moved)
        into_checks[name] = (int(np.count_nonzero(cls[moved] == target_code)), len(moved))
        sources = ball.left_table(mover.inverse())[inner[cls[inner] == target_code]]
        inside = sources >= 0
        landed = piece[sources[inside]]
        remainder += len(sources) - int(np.count_nonzero(landed))
        onto_checks[name] = (int(np.count_nonzero(landed == k + 1)), int(np.count_nonzero(landed)))

    # A copy is disjoint when its three pieces never move onto the same vertex.
    hits = [np.concatenate(parts) for parts in images.values()]
    copies_disjoint = not any(np.any(np.diff(np.sort(h)) == 0) for h in hits)
    return DoublingReport(
        interior_size=len(inner),
        piece_sizes=piece_sizes,
        partition_exact=partition_exact,
        mover_words=mover_words,
        into_checks=into_checks,
        onto_checks=onto_checks,
        boundary_remainder=remainder,
        copies_disjoint=copies_disjoint,
    )
