"""Three-class congruence rules and their constructive solutions.

Two rules live here.  The classic three-class rule on Z2 * Z3 demands
sigma(A) = B u C, sigma(B u C) = A, and tau cycling A -> B -> C -> A; its
allowed sets can be empty, so it is not rank one.  The mod-3 cycling rule
(three colours A1, A2, A3 with a counting clause over k+1 descendants) is
rank one, and any colouring satisfying it makes the A1 class simultaneously
too big and too small for any invariant finitely additive measure.

Both solvers are automaton colourings: a table delta[colour, letter] and a
root colour, read outward from the identity, each vertex coloured from its
unique shorter neighbour's colour and the letter that joins them; torsion
triangles close consistently.  Each returns a plain `Colouring`, and the
six-piece functions take it.
The six pieces of the A/B/C classes, moved by their `MOVERS`, rebuild two
full copies of the space; `six_piece_doubling` checks this with
`equidecomp.check_decomposition`, every set membership and every moved
vertex exactly.
"""

from __future__ import annotations

import numpy as np

from . import _lazy
from .equidecomp import Decomposition, DecompositionReport, check_decomposition
from .groups import Ball, Presentation, free_group, z2_z3
from .rules import Colouring, ColouringRule, check

measures = _lazy("measures")  # read by the example1 audit alone

E1_COLOURS = ("A1", "A2", "A3")
H_COLOURS = ("A", "B", "C")


def automaton_colouring(ball: Ball, delta: np.ndarray, root: int) -> np.ndarray:
    """Codes of the automaton colouring (delta, root): the identity gets
    root and each other vertex delta[c, a], where c is its parent's code and
    a its first unit letter (`Ball.parent`, `Ball.first`), so delta has one
    column per `adjacency_letters()` entry.  Ball order is by length, so each
    sphere's parents are coloured before it: one gather per sphere.
    """
    codes = np.empty(len(ball), dtype=np.int16)
    codes[0] = root
    bounds = np.cumsum(ball.sphere_sizes).tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        codes[lo:hi] = delta[codes[ball.parent[lo:hi]], ball.first[lo:hi]]
    return codes


def _cycle_delta(p: Presentation, tau: int) -> np.ndarray:
    """delta over codes 0/1/2 and `p.adjacency_letters()`: a tau^e letter
    adds e mod 3, any other letter sends 0 to 1 and everything else to 0."""
    codes = np.arange(3, dtype=np.int16)
    letters = p.adjacency_letters()
    return np.stack([(codes + exp) % 3 if gen == tau else codes == 0 for gen, exp in letters], axis=1, dtype=np.int16)


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
    and returns to A1 from anywhere else.  The ball's presentation must be
    one `example1_rule(2, ...)` accepts, as for `hausdorff_solve`."""
    _check_example1_presentation(ball.presentation, 2)
    return Colouring(ball, E1_COLOURS, automaton_colouring(ball, _cycle_delta(ball.presentation, 0), 0))


def example1_certificates(colouring: Colouring) -> list[measures.TransportCertificate]:
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
            measures.certify_transport(
                colouring, tau, (E1_COLOURS[i],), (E1_COLOURS[(i + 1) % 3],), kind="bijection"
            )
        )
    certs.append(measures.certify_transport(colouring, sigma, ("A2", "A3"), ("A1",), kind="maps-into"))
    return certs


def example1_program(certificates: list[measures.TransportCertificate]) -> measures.DensityProgram:
    return measures.translate(certificates, E1_COLOURS)


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
    _, t_idx = _check_z2_z3(ball.presentation)
    return Colouring(ball, H_COLOURS, automaton_colouring(ball, _cycle_delta(ball.presentation, t_idx), 0))


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
    n = ball.interior_size(2)
    c = cls[:n] % 3  # an uncoloured vertex (-1) splits like C
    # tau^-1 x = tau^2 x in this torsion group; walk two tau steps.
    t_t = ball.left_table_once(tau)
    back = np.where(c == 1, t_t[t_t[:n]], t_t[:n])
    del t_t
    t_s = ball.left_table_once(sigma)
    to_b = cls[np.where(c == 0, t_s[:n], t_s[back])] == 1
    piece = np.zeros(len(ball), dtype=np.int8)
    piece[:n] = 2 * c + 2 - to_b
    return piece


def six_piece_doubling(classes: Colouring) -> DecompositionReport:
    """Check that the six pieces tile the interior and that the designated
    movers rebuild two disjoint copies of the A/B/C partition."""
    ball = classes.ball
    if check(hausdorff_rule(ball.presentation), classes).violations:
        raise ValueError("classes do not satisfy the congruence rule on the interior")
    decomposition = Decomposition(
        pieces=six_piece_pieces(classes),
        names=PIECES,
        movers={name: word for name, (word, _, _) in MOVERS.items()},
        copies={name: copy for name, (_, _, copy) in MOVERS.items()},
        targets={name: classes.codes == H_COLOURS.index(target) for name, (_, target, _) in MOVERS.items()},
    )
    return check_decomposition(ball, decomposition, ball.interior_size(2))
