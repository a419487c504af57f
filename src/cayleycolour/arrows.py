"""Arrow orientation on the rank-two free shift and its mass accounting.

Every vertex must direct an arrow at one of two neighbours selected by its
own sign bit; the passive half of each colour records whether two or more
arrows land on the vertex.  A satisfying colouring exists at every finite
radius (point all arrows outward), yet the arrow mass cannot balance under
any invariant density: outflow is exactly 1 per vertex while receiving
capacity is at most 15/16.  Crowding cannot persist either: an infinite
crowded chain survives with a probability p = (3p^2 - p^3)/4, and after
dividing by p the residual p^2 - 3p + 4 has discriminant -7, so p = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _lazy
from .configs import Configuration, RandomSource, histogram
from .groups import Ball, Presentation, check_rank_two_free, free_group
from .rules import Colouring, ColouringRule

measures = _lazy("measures")  # read by the mass audit alone

ARROW_COLOURS = ("a1u", "a1c", "a2u", "a2c")

IN_CAPACITY = Fraction(15, 16)

# The sign bit with which the T1, T1^-1, T2, T2^-1 neighbour of w can aim
# at w: w is in the inverse pair of T1 w and in the forward pair of T1^-1 w.
IN_SIGNS = np.array([-1, 1, -1, 1], dtype=np.int8)
IN_SIGNS.setflags(write=False)


def active_part(colour: str) -> int:
    return int(colour[1])


def passive_part(colour: str) -> str:
    return colour[2]


_RANK_TWO_FREE = "the arrow rule lives on the rank-two free group"


def arrow_rule(presentation: Presentation | None = None) -> ColouringRule:
    """Four colours: active half 1/2 picks the arrow, passive half u/c.

    The sign bit at the vertex selects the candidate pair (forward pair on
    +1, inverse pair on -1).  If exactly one candidate is crowded, the
    arrow must avoid it.  The passive half must read c exactly when two or
    more neighbours aim their own arrows here.
    """
    p = free_group(2) if presentation is None else presentation
    check_rank_two_free(p, _RANK_TWO_FREE)
    t1, t2 = p.generator(0), p.generator(1)
    u1, u2 = p.generator(0, -1), p.generator(1, -1)
    window = (p.identity(), t1, u1, t2, u2)
    descendants = (t1, u1, t2, u2)
    in_t1, in_u1, in_t2, in_u2 = (int(s) for s in IN_SIGNS)

    def allowed(window_values: tuple[int, ...], desc: tuple[str, ...]) -> frozenset[str]:
        sign, via_t1, via_u1, via_t2, via_u2 = window_values
        incoming = (
            int(via_t1 == in_t1 and active_part(desc[0]) == 1)
            + int(via_u1 == in_u1 and active_part(desc[1]) == 1)
            + int(via_t2 == in_t2 and active_part(desc[2]) == 2)
            + int(via_u2 == in_u2 and active_part(desc[3]) == 2)
        )
        passive = "c" if incoming >= 2 else "u"
        first, second = (desc[0], desc[2]) if sign == 1 else (desc[1], desc[3])
        if passive_part(first) == passive_part(second):
            actives: tuple[int, ...] = (1, 2)
        elif passive_part(first) == "u":
            actives = (1,)
        else:
            actives = (2,)
        return frozenset(f"a{i}{passive}" for i in actives)

    return ColouringRule(
        name="arrow-orientation",
        colours=ARROW_COLOURS,
        descendants=descendants,
        allowed_fn=allowed,
        window=window,
        dependency_radius=2,
        stationary=False,
    )


def neighbour_tables(ball: Ball) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Left-translation tables for T1, T1^-1, T2, T2^-1."""
    check_rank_two_free(ball.presentation, _RANK_TWO_FREE)
    t1, u1, t2, u2 = ball.unit_tables()
    return t1, u1, t2, u2


def _candidates(config: Configuration, vertices: np.ndarray | slice) -> tuple[np.ndarray, np.ndarray]:
    """The two vertices the arrow at each vertex may target, per its sign
    bit: its T1 and T2 neighbours on +1, its T1^-1 and T2^-1 neighbours on
    -1; -1 outside the ball.  `vertices` is an index array, or a slice of
    the ball's vertices."""
    t1, u1, t2, u2 = (table[vertices] for table in neighbour_tables(config.ball))
    up = config.values[vertices] == 1
    return np.where(up, t1, u1), np.where(up, t2, u2)


def candidate_arrays(config: Configuration, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_candidates` of vertices whose candidates all lie in the ball."""
    vertices = np.asarray(vertices, dtype=np.int64)
    z1, z2 = _candidates(config, vertices)
    outside = np.minimum(z1, z2) < 0
    if outside.any():
        raise ValueError(f"vertex {int(vertices[outside][0])} has a neighbour outside the ball")
    return z1, z2


def _pdegrees(signs: np.ndarray) -> np.ndarray:
    """How many of the neighbour signs (last axis: T1, T1^-1, T2, T2^-1)
    aim back."""
    # Tiled to the same shape, the compare runs as one flat loop (broadcast,
    # it steps four bytes at a time, ten times slower); a row's four match
    # flags, read as one uint32, are counted by its popcount.
    matches = signs == np.tile(IN_SIGNS, (*signs.shape[:-1], 1))
    return np.bitwise_count(np.ascontiguousarray(matches).view(np.uint32)[..., 0])


def pdegree_profile(ball: Ball, values: np.ndarray, vertices: np.ndarray | slice) -> np.ndarray:
    """p-degrees for a batch: values (B, |ball|) against interior vertices (m,)."""
    neighbours = np.stack([table[vertices] for table in neighbour_tables(ball)], axis=-1)
    return _pdegrees(values[:, neighbours]).astype(np.int8)


@dataclass(frozen=True)
class PdegreeReport:
    samples: int
    histogram: tuple[int, int, int, int, int]
    seed: int
    conditioned_on: str | None = None

    def fraction(self, degree: int) -> Fraction:
        return Fraction(self.histogram[degree], self.samples)

    def to_record(self) -> dict:
        rec = {
            "samples": self.samples,
            "histogram": list(self.histogram),
            "fractions": [str(self.fraction(d)) for d in range(5)],
            "seed": self.seed,
        }
        if self.conditioned_on is not None:
            rec["conditioned_on"] = self.conditioned_on
        return rec


def _root_neighbours(ball: Ball) -> np.ndarray:
    """The columns of the root's T1, T1^-1, T2, T2^-1 neighbours: all that
    the root p-degree reads of a sample."""
    return np.array([table[0] for table in neighbour_tables(ball)])


def pdegree_histogram(
    ball: Ball, source: RandomSource, n: int, conditional: bool = False, workers: int = 1
) -> PdegreeReport:
    """Root p-degree counts over n sampled configurations.

    With ``conditional``, over n samples conditioned on one fixed
    in-pointer: the T1-neighbour's sign bit orients its own candidate pair
    toward the root.  Sampling continues until n conditioned samples have
    been collected.
    """
    keep = (lambda signs: signs[:, 0] == IN_SIGNS[0]) if conditional else None  # column 0: the T1 neighbour
    counts = histogram(ball, source, n, _pdegrees, 5, keep, workers, _root_neighbours(ball))
    conditioned_on = "T1-neighbour sign bit -1" if conditional else None
    return PdegreeReport(n, tuple(int(c) for c in counts), source.seed, conditioned_on)


def arrow_field(colouring: Colouring) -> np.ndarray:
    """Arrow target per vertex (int32, in ball order), read off its active
    colour and sign bit; -1 where no arrow is defined."""
    if colouring.palette != ARROW_COLOURS:
        raise ValueError("not an arrow colouring")
    if colouring.configuration is None:
        raise ValueError("arrow targets need the underlying sign bits")
    z1, z2 = _candidates(colouring.configuration, slice(None))
    codes = colouring.codes
    # palette order: a1u, a1c, a2u, a2c
    return np.where(codes >= 0, np.where(codes >= 2, z2, z1), -1).astype(np.int32)


def incoming_counts(targets: np.ndarray) -> np.ndarray:
    """How many arrows land on each vertex, given ``arrow_field`` targets."""
    return np.bincount(targets[targets >= 0], minlength=len(targets))


def constructive_solve(config: Configuration) -> Colouring:
    """Aim every arrow at a strictly longer vertex; everything stays uncrowded.

    Sweeping by increasing length, at most one candidate is shorter (the two
    candidates start with different letters), so a longer target exists.  A
    target can only be hit by its unique shorter neighbour, so no vertex
    collects two arrows and the all-u passive assignment is consistent.
    """
    ball = config.ball
    check_rank_two_free(ball.presentation, _RANK_TWO_FREE)
    if ball.radius < 3:
        raise ValueError("need radius at least 3")
    n = ball.interior_size(1)
    # The first candidate, T1 x on sign +1 and T1^-1 x on -1, is longer than
    # x unless x starts with that letter's inverse, so no table is read (the
    # identity's first letter, -1, is no letter).
    letters = ball.presentation.adjacency_letters()
    inverse = np.where(config.values[:n] == 1, np.int8(letters.index((0, -1))), np.int8(letters.index((0, 1))))
    longer = ball.first[:n] != inverse
    codes = np.full(len(ball), -1, dtype=np.int16)
    codes[:n] = ARROW_COLOURS.index("a2u")
    codes[:n][longer] = ARROW_COLOURS.index("a1u")
    return Colouring(ball, ARROW_COLOURS, codes, config)


@dataclass(frozen=True)
class MassAudit:
    """Per-configuration arrow accounting on the interior."""

    interior_size: int
    outflow_per_vertex: int
    outflow_total: int
    pdegree_histogram: tuple[int, int, int, int, int]
    in_capacity_estimate: Fraction
    crowded_fraction: Fraction
    certificate: measures.TransportCertificate
    program: measures.DensityProgram | None
    feasibility: measures.FeasibilityResult | None
    seed: int | None = None

    def to_record(self) -> dict:
        rec = {
            "interior_size": self.interior_size,
            "outflow": self.outflow_per_vertex,
            "outflow_total": self.outflow_total,
            "inflow_capacity": str(self.in_capacity_estimate),
            "crowded_fraction": str(self.crowded_fraction),
            "pdegree_histogram": list(self.pdegree_histogram),
            "certificate": self.certificate.to_record(),
            "seed": self.seed,
        }
        if self.feasibility is not None:
            rec["feasibility"] = self.feasibility.to_record()
        return rec


def flow_constraint():
    return measures.le([], [], "outflow 1 against in-capacity 15/16", lhs_const=1, rhs_const=IN_CAPACITY)


def mass_audit(colouring: Colouring, seed: int | None = None) -> MassAudit:
    """Outflow-vs-capacity accounting for a rule-satisfying arrow colouring,
    read off its ball and the configuration it carries.

    Every interior vertex must send exactly one arrow; arrows can only land
    on vertices some neighbour aims at, and crowd-free landings are
    injective.  The certified constraint 1 <= 15/16 is then handed to the
    density pipeline, which rejects it.
    """
    config, ball = colouring.configuration, colouring.ball
    if config is None:
        raise ValueError("mass audit needs the underlying sign bits")
    n = ball.interior_size(2)
    targets = arrow_field(colouring)
    incoming = incoming_counts(targets)

    has_arrow = targets[:n] >= 0
    crowded = incoming[:n] >= 2
    crowded_fraction = Fraction(int(crowded.sum()), n) if n else Fraction(0)

    deg = pdegree_profile(ball, config.values[None, :], slice(n))[0]
    hist = np.bincount(deg, minlength=5)
    in_capacity = Fraction(int((deg >= 1).sum()), n) if n else Fraction(0)

    vertex_ok = has_arrow & ~crowded
    failures = np.flatnonzero(~vertex_ok)
    certificate = measures.TransportCertificate(
        kind="flow",
        element="arrow field",
        source=("one arrow out of every vertex",),
        target=("vertices of p-degree >= 1",),
        checks_passed=int(vertex_ok.sum()),
        checks_total=n,
        constraint=flow_constraint(),
        first_failure=int(failures[0]) if len(failures) else None,
    )
    program = feasibility = None
    if certificate.verified:
        program = measures.translate([certificate], ARROW_COLOURS)
        feasibility = measures.feasible(program)
    return MassAudit(
        interior_size=n,
        outflow_per_vertex=1,
        outflow_total=int(has_arrow.sum()),
        pdegree_histogram=tuple(int(c) for c in hist),
        in_capacity_estimate=in_capacity,
        crowded_fraction=crowded_fraction,
        certificate=certificate,
        program=program,
        feasibility=feasibility,
        seed=seed,
    )
