"""Offset-proper base partition and the colourings built on top of it.

A 17-colour partition proper for 16 fixed offsets gives every vertex a
two-colour list (the colours of its two arrow candidates).  Proper list
colourings of the secondary graph correspond to uncrowded arrow fields,
and a doubled construction turns any proper colouring back into an arrow
field whose mass accounting is exactly infeasible.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .arrows import arrow_field, candidates, incoming_counts, neighbour_tables
from .configs import Configuration
from .groups import Ball, Presentation, ReducedWord, free_group
from .measures import DensityProgram, FeasibilityResult, feasible, le
from .rules import Colouring, ViolationReport

PALETTE17 = tuple(f"c{i}" for i in range(17))

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
    if p.n_generators != 2 or p.order(0) is not None or p.order(1) is not None:
        raise ValueError("offsets live on the rank-two free group")
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


def greedy_base_colouring(
    b: Ball,
    choice: str = "min",
    seed: int = 0,
    order: Sequence[int] | None = None,
) -> Colouring:
    """17 colours, proper for all 16 offsets; each vertex has at most 16
    offset-neighbours so a free colour always exists."""
    if b.radius < 5:
        raise ValueError("need radius at least 5 so the offsets act inside the ball")
    fam = offsets16(b.presentation)
    tables = [b.left_table(g) for g in fam.elements]
    codes = np.full(len(b), -1, dtype=np.int16)
    rng = np.random.default_rng(seed)
    sequence: Iterable[int] = range(len(b)) if order is None else order
    for w in sequence:
        used = {int(codes[t[w]]) for t in tables if t[w] >= 0}
        free = [c for c in range(len(PALETTE17)) if c not in used]
        codes[w] = free[0] if choice == "min" else int(rng.choice(free))
    return Colouring(b, PALETTE17, codes)


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


def list_assignment(config: Configuration, base: Colouring, w: int) -> tuple[str, str]:
    """The base colours of w's two arrow candidates; distinct whenever the
    base colouring is offset-proper (the candidates differ by a short offset)."""
    z1, z2 = candidates(config, w)
    c1, c2 = base.colour_at(z1), base.colour_at(z2)
    if c1 is None or c2 is None:
        raise ValueError(f"candidate of vertex {w} is uncoloured")
    return c1, c2


def list_assignments(config: Configuration, base: Colouring, vertices: Iterable[int]) -> dict[int, tuple[str, str]]:
    return {int(w): list_assignment(config, base, int(w)) for w in vertices}


@dataclass(frozen=True)
class SecondaryGraph:
    """Cliques of potential in-pointers, one per centre vertex."""

    ball: Ball
    centers: tuple[int, ...]
    cliques: tuple[tuple[int, ...], ...]

    def members(self) -> frozenset[int]:
        return frozenset(m for clique in self.cliques for m in clique)

    def edges(self) -> Iterable[tuple[int, int, int]]:
        """(x, y, centre) triples, x < y, one per shared clique."""
        for z, clique in zip(self.centers, self.cliques):
            for x, y in combinations(sorted(clique), 2):
                yield x, y, z

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {m: set() for m in self.members()}
        for x, y, _ in self.edges():
            adj[x].add(y)
            adj[y].add(x)
        return adj

    def write_csv(self, fileobj: IO[str]) -> None:
        writer = csv.writer(fileobj)
        writer.writerow(("family", "from", "to"))
        words = self.ball.words
        for x, y, _ in self.edges():
            writer.writerow(("secondary", words[x].to_string(), words[y].to_string()))


def secondary_graph(config: Configuration, b: Ball | None = None, depth: int = 2) -> SecondaryGraph:
    """Clique at z: the neighbours whose own sign bit lets them aim at z."""
    b = config.ball if b is None else b
    t1, u1, t2, u2 = neighbour_tables(b)
    v = config.values
    centers = []
    cliques = []
    for z in b.interior_indices(depth):
        z = int(z)
        members = []
        for nb, need in ((t1[z], -1), (u1[z], 1), (t2[z], -1), (u2[z], 1)):
            if nb >= 0 and v[nb] == need:
                members.append(int(nb))
        centers.append(z)
        cliques.append(tuple(members))
    return SecondaryGraph(b, tuple(centers), tuple(cliques))


def arrows_to_list_colouring(
    arrow_colouring: Colouring,
    base: Colouring,
    config: Configuration | None = None,
    b: Ball | None = None,
) -> Colouring:
    """Colour each vertex by the base colour of its arrow target."""
    b = arrow_colouring.ball if b is None else b
    config = arrow_colouring.configuration if config is None else config
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
    return Colouring(b, base.palette, codes, configuration=config)


def check_proper_list(
    graph: SecondaryGraph,
    lists: Mapping[int, tuple[str, str]],
    colouring: Colouring,
) -> ViolationReport:
    """A vertex passes iff its colour is on its list and avoids all clique-mates."""
    adj = graph.adjacency()
    violations = []
    for x in sorted(adj):
        if x not in lists:
            raise ValueError(f"vertex {x} has no list")
        assigned = colouring.colour_at(x)
        taken = {colouring.colour_at(y) for y in adj[x]}
        allowed = frozenset(lists[x]) - taken
        if assigned is None or assigned not in allowed:
            violations.append((x, assigned or "", allowed))
    return ViolationReport(interior_size=len(adj), violations=tuple(violations))


def apply_left_word(b: Ball, gamma: ReducedWord, indices: np.ndarray) -> np.ndarray:
    """gamma * (each vertex), walking unit letters through cached tables.

    Suffixes of a reduced word never overshoot both endpoints in a free
    group, so intermediate steps cannot leave the ball spuriously.
    """
    out = np.asarray(indices)
    for gen, exp in reversed(gamma.unit_letters()):
        table = b.left_table(b.presentation.generator(gen, exp))
        out = np.where(out >= 0, table[np.maximum(out, 0)], -1)
    return out


def _words_by_parity(b: Ball, limit: int, parity: int) -> list[ReducedWord]:
    """Nonempty words of length <= limit and the given parity, in canonical
    order: a length-prefix of the ball, since the ball is ordered by length."""
    prefix = b.lengths[: sum(b.sphere_sizes[: limit + 1])]
    return [b.words[i] for i in np.flatnonzero((prefix % 2 == parity) & (prefix > 0))]


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


def calibrate_N(
    base: Colouring,
    b: Ball | None = None,
    epsilon: Fraction = EPSILON,
    samples: int | None = None,
    seed: int = 0,
) -> Calibration:
    """Smallest odd N with: all 17 base colours appear among odd-length
    words of length <= N from all but an epsilon fraction of vertices.

    Only vertices whose whole odd-N neighbourhood stays inside the ball are
    eligible, so the reachable-colour sets are never clipped.  The failing
    vertices are returned as the Q-proxy.
    """
    b = base.ball if b is None else b
    if not Fraction(0) < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    n_colours = len(base.palette)
    rng = np.random.default_rng(seed)
    trace = []
    last = (None, (), 0, Fraction(1))
    for n_odd in range(1, b.radius + 1, 2):
        eligible = np.flatnonzero(b.lengths <= b.radius - n_odd)
        if samples is not None and samples < len(eligible):
            eligible = np.sort(rng.choice(eligible, size=samples, replace=False))
        seen = np.zeros((len(eligible), n_colours), dtype=bool)
        for gamma in _words_by_parity(b, n_odd, 1):
            images = apply_left_word(b, gamma, eligible)
            ok = images >= 0
            seen[np.flatnonzero(ok), base.codes[images[ok]]] = True
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
    """

    ball: Ball
    config: Configuration
    base: Colouring
    N: int
    q_proxy: frozenset[int]
    strict: bool
    secondary: SecondaryGraph
    odd_words: tuple[ReducedWord, ...]
    even_words: tuple[ReducedWord, ...]

    @property
    def n_first(self) -> int:
        return len(self.ball)

    def rho(self, v: int) -> int:
        return (v + self.n_first) % (2 * self.n_first)

    def degree_bound(self) -> int:
        return 6 + len(self.odd_words) + len(self.even_words)

    def cross_pairs(self, vertices: np.ndarray) -> Iterable[tuple[int, int]]:
        """(x, z) with x in the first copy, rho(z) its cross neighbour."""
        eligible = np.array(
            [v for v in vertices if int(self.ball.lengths[v]) <= self.ball.radius - 1 and int(v) not in self.q_proxy],
            dtype=np.int64,
        )
        if not len(eligible):
            return
        cand_codes = np.stack(
            [self.base.codes[list(candidates(self.config, int(x)))] for x in eligible]
        )
        for gamma in self.odd_words:
            if gamma.length > self.N:
                continue
            images = apply_left_word(self.ball, gamma, eligible)
            ok = images >= 0
            z_codes = self.base.codes[np.maximum(images, 0)]
            keep = ok & (z_codes != cand_codes[:, 0]) & (z_codes != cand_codes[:, 1])
            for i in np.flatnonzero(keep):
                yield int(eligible[i]), int(images[i])

    def copy2_pairs(self, vertices: np.ndarray) -> Iterable[tuple[int, int]]:
        """(x, y) with rho(x) ~ rho(y): even distance, different base colours."""
        vertices = np.asarray(vertices, dtype=np.int64)
        if not len(vertices):
            return
        own = self.base.codes[vertices]
        for gamma in self.even_words:
            images = apply_left_word(self.ball, gamma, vertices)
            keep = (images >= 0) & (self.base.codes[np.maximum(images, 0)] != own)
            for i in np.flatnonzero(keep):
                yield int(vertices[i]), int(images[i])

    def write_csv(
        self,
        fileobj: IO[str],
        first_vertices: np.ndarray | None = None,
        second_vertices: np.ndarray | None = None,
    ) -> None:
        writer = csv.writer(fileobj)
        writer.writerow(("family", "from", "to"))
        words = self.ball.words
        q = self.q_proxy
        for x, y, _ in self.secondary.edges():
            if x not in q and y not in q:
                writer.writerow(("secondary", words[x].to_string(), words[y].to_string()))
        firsts = self.ball.interior_indices(1) if first_vertices is None else first_vertices
        for x, z in self.cross_pairs(firsts):
            writer.writerow(("cross", words[x].to_string(), f"rho({words[z].to_string()})"))
        seconds = firsts if second_vertices is None else second_vertices
        for x, y in self.copy2_pairs(seconds):
            writer.writerow(("copy2", f"rho({words[x].to_string()})", f"rho({words[y].to_string()})"))


def doubled_graph(
    config: Configuration,
    base: Colouring,
    N: int,
    b: Ball | None = None,
    q_proxy: frozenset[int] = frozenset(),
    strict: bool = True,
) -> DoubledGraph:
    """The paired-copy graph; strict mode insists the ball can hold every
    edge family (radius >= 2N+12), otherwise word reach is clipped at the
    boundary and the truncation is the caller's stated choice."""
    b = config.ball if b is None else b
    if base.ball is not b or config.ball is not b:
        raise ValueError("base colouring, configuration and ball must agree")
    if N < 1 or N % 2 == 0:
        raise ValueError("N must be odd and positive")
    if strict and b.radius < 2 * N + 12:
        raise ValueError(
            f"radius {b.radius} cannot hold the edge families for N={N}; "
            "need radius >= 2N+12 or strict=False"
        )
    odd = tuple(_words_by_parity(b, min(N, b.radius), 1))
    even = tuple(_words_by_parity(b, min(2 * N + 10, b.radius), 0))
    return DoubledGraph(
        ball=b,
        config=config,
        base=base,
        N=N,
        q_proxy=q_proxy,
        strict=strict,
        secondary=secondary_graph(config, b, depth=2),
        odd_words=odd,
        even_words=even,
    )


@dataclass(frozen=True)
class DoubledColouring:
    palette: tuple[str, ...]
    codes: np.ndarray

    def colour_at(self, v: int) -> str | None:
        code = int(self.codes[v])
        return None if code < 0 else self.palette[code]


def canonical_doubled_colouring(graph: DoubledGraph, arrow_colouring: Colouring) -> DoubledColouring:
    """First copy: base colour of each arrow target.  Second copy: the base."""
    first = arrows_to_list_colouring(arrow_colouring, graph.base)
    codes = np.concatenate([first.codes, graph.base.codes]).astype(np.int16)
    return DoubledColouring(graph.base.palette, codes)


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


def check_proper(
    graph: DoubledGraph,
    colouring: DoubledColouring,
    copy2_sample: int | None = 64,
    seed: int = 0,
) -> ProperReport:
    """Adjacent equal colours across all three edge families.

    Uncoloured endpoints are skipped; copy2 edges are checked from a seeded
    vertex sample by default since that family is the dense one.
    """
    n = graph.n_first
    codes = colouring.codes
    q = graph.q_proxy
    checked = {"secondary": 0, "cross": 0, "copy2": 0}
    conflicts: list[tuple[str, int, int]] = []

    for x, y, _ in graph.secondary.edges():
        if x in q or y in q:
            continue
        checked["secondary"] += 1
        if codes[x] >= 0 and codes[x] == codes[y]:
            conflicts.append(("secondary", x, y))

    firsts = graph.ball.interior_indices(1)
    for x, z in graph.cross_pairs(firsts):
        checked["cross"] += 1
        if codes[x] >= 0 and codes[x] == codes[n + z]:
            conflicts.append(("cross", x, graph.rho(z)))

    all_seconds = np.arange(n)
    if copy2_sample is not None and copy2_sample < n:
        rng = np.random.default_rng(seed)
        all_seconds = np.sort(rng.choice(all_seconds, size=copy2_sample, replace=False))
    for x, y in graph.copy2_pairs(all_seconds):
        checked["copy2"] += 1
        if codes[n + x] >= 0 and codes[n + x] == codes[n + y]:
            conflicts.append(("copy2", graph.rho(x), graph.rho(y)))

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


def flow_audit_doubled(
    colouring: DoubledColouring,
    graph: DoubledGraph,
    config: Configuration | None = None,
) -> DoubledAudit:
    """Read induced arrows off the doubled colouring and account for them.

    Every first-copy vertex outside Q whose colour matches a mirrored
    candidate sends one arrow; receiving capacity cannot cover the exact
    outflow and inflow bounds simultaneously, and the translated program
    certifies the 15/512 gap.
    """
    config = graph.config if config is None else config
    spot = check_proper(graph, colouring, copy2_sample=0)
    if any(family == "secondary" for family, _, _ in spot.conflicts):
        raise ValueError("colouring is not proper on the secondary edges")

    n = graph.n_first
    codes = colouring.codes
    eligible = graph.ball.interior_indices(1)
    q = graph.q_proxy
    arrows = []
    with_arrow = 0
    for x in eligible:
        x = int(x)
        if x in q:
            continue
        z1, z2 = candidates(config, x)
        cx = codes[x]
        if cx >= 0 and cx == codes[n + z1]:
            arrows.append(z1)
            with_arrow += 1
        elif cx >= 0 and cx == codes[n + z2]:
            arrows.append(z2)
            with_arrow += 1
    outflow = Fraction(with_arrow, len(eligible)) if len(eligible) else Fraction(0)
    q_fraction = Fraction(sum(1 for x in eligible if int(x) in q), len(eligible)) if len(eligible) else Fraction(0)

    landed = np.bincount(np.array(arrows, dtype=np.int64), minlength=n) if arrows else np.zeros(n, dtype=np.int64)
    crowded = Fraction(int((landed[eligible] >= 2).sum()), len(eligible)) if len(eligible) else Fraction(0)

    touches = 0
    for clique in graph.secondary.cliques:
        if any(m in q for m in clique):
            touches += 1
    touch_fraction = Fraction(touches, len(graph.secondary.cliques)) if graph.secondary.cliques else Fraction(0)

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
