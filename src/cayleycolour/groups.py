"""Words, presentations, and Cayley balls for free products of cyclic groups.

Elements are kept in one canonical reduced form so that set identities on
balls can be checked exactly.  Supported groups are free groups F_k and
free products of finite cyclic groups (for example Z2 * Z3).  Adjacency in
a ball is by left multiplication with generator letters.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# A letter is (generator index, exponent).  In canonical form adjacent
# letters never share a generator; torsion exponents sit in 1..order-1 and
# infinite-order exponents are nonzero.
Letter = tuple[int, int]


@dataclass(frozen=True)
class Presentation:
    """Generators with orders; order None means infinite."""

    generators: tuple[tuple[str, int | None], ...]

    def __post_init__(self) -> None:
        if not self.generators:
            raise ValueError("need at least one generator")
        seen = set()
        for name, order in self.generators:
            if len(name) != 1 or not name.isalpha() or not name.islower():
                raise ValueError(f"generator name must be one lowercase letter: {name!r}")
            if name in seen:
                raise ValueError(f"duplicate generator name {name!r}")
            seen.add(name)
            if order is not None and order < 2:
                raise ValueError(f"order of {name!r} must be None or at least 2")

    @property
    def n_generators(self) -> int:
        return len(self.generators)

    def order(self, gen: int) -> int | None:
        return self.generators[gen][1]

    def name(self, gen: int) -> str:
        return self.generators[gen][0]

    def identity(self) -> "ReducedWord":
        return ReducedWord(self, ())

    def generator(self, gen: int, exp: int = 1) -> "ReducedWord":
        return reduce_letters([(gen, exp)], self)

    def adjacency_letters(self) -> tuple[Letter, ...]:
        """Unit letters giving Cayley adjacency; order-2 generators self-invert."""
        out: list[Letter] = []
        for i, (_, order) in enumerate(self.generators):
            out.append((i, 1))
            if order != 2:
                out.append((i, -1))
        return tuple(out)

    def word(self, text: str) -> "ReducedWord":
        """Parse a word string; lowercase is a generator, uppercase its inverse.

        "1" (or the empty string) denotes the identity.
        """
        if text in ("", "1"):
            return self.identity()
        names = [name for name, _ in self.generators]
        raw: list[Letter] = []
        for ch in text:
            low = ch.lower()
            if low not in names:
                raise KeyError(f"no generator named {low!r}")
            raw.append((names.index(low), 1 if ch == low else -1))
        return reduce_letters(raw, self)

    def __str__(self) -> str:
        parts = [n if o is None else f"{n}^{o}" for n, o in self.generators]
        return "<" + ", ".join(parts) + ">"


def free_group(rank: int, names: str = "abcdefgh") -> Presentation:
    if rank < 1 or rank > len(names):
        raise ValueError(f"rank must be in 1..{len(names)}")
    return Presentation(tuple((names[i], None) for i in range(rank)))


def z2_z3() -> Presentation:
    """The free product Z2 * Z3 with s of order 2 and t of order 3."""
    return Presentation((("s", 2), ("t", 3)))


def check_rank_two_free(p: Presentation, message: str) -> None:
    """Raise ValueError(message) unless p has two generators, both of infinite order."""
    if p.n_generators != 2 or p.order(0) is not None or p.order(1) is not None:
        raise ValueError(message)


def _block_length(gen: int, exp: int, p: Presentation) -> int:
    order = p.order(gen)
    if order is None:
        return abs(exp)
    return min(exp, order - exp)


def _block_key(gen: int, exp: int, p: Presentation) -> tuple[int, int, int]:
    """Order of blocks within canonical order: generator, sign, size."""
    if p.order(gen) is None:
        return (gen, 0 if exp > 0 else 1, abs(exp))
    return (gen, 0, exp)


def reduce_letters(raw: Sequence[Letter], p: Presentation) -> "ReducedWord":
    """Left-to-right greedy cancellation into the canonical form."""
    stack: list[Letter] = []
    for gen, exp in raw:
        if not 0 <= gen < p.n_generators:
            raise ValueError(f"generator index {gen} out of range")
        if stack and stack[-1][0] == gen:
            _, prev = stack.pop()
            exp = prev + exp
        order = p.order(gen)
        if order is not None:
            exp %= order
        if exp != 0:
            stack.append((gen, exp))
    return ReducedWord(p, tuple(stack))


@dataclass(frozen=True)
class ReducedWord:
    """A group element in canonical reduced form."""

    presentation: Presentation
    letters: tuple[Letter, ...]

    def __post_init__(self) -> None:
        length = sum(_block_length(g, e, self.presentation) for g, e in self.letters)
        object.__setattr__(self, "length", length)

    length: int = 0

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __mul__(self, other: "ReducedWord") -> "ReducedWord":
        if self.presentation != other.presentation:
            raise ValueError("presentation mismatch")
        return reduce_letters(list(self.letters) + list(other.letters), self.presentation)

    def inverse(self) -> "ReducedWord":
        p = self.presentation
        raw = [(g, -e) for g, e in reversed(self.letters)]
        return reduce_letters(raw, p)

    def unit_letters(self) -> list[Letter]:
        """Expand into single-step letters, shortest spelling per block."""
        units: list[Letter] = []
        for gen, exp in self.letters:
            order = self.presentation.order(gen)
            if order is None:
                units.extend([(gen, 1 if exp > 0 else -1)] * abs(exp))
            elif exp <= order - exp:
                units.extend([(gen, 1)] * exp)
            else:
                units.extend([(gen, -1)] * (order - exp))
        return units

    def sort_key(self) -> tuple:
        return (self.length, tuple(_block_key(g, e, self.presentation) for g, e in self.letters))

    def to_string(self) -> str:
        if not self.letters:
            return "1"
        parts = []
        for gen, exp in self.letters:
            name = self.presentation.name(gen)
            order = self.presentation.order(gen)
            if order is None:
                parts.append((name if exp > 0 else name.upper()) * abs(exp))
            elif exp <= order - exp:
                parts.append(name * exp)
            else:
                parts.append(name.upper() * (order - exp))
        return "".join(parts)

    def __str__(self) -> str:
        return self.to_string()


_CHUNK = 1 << 16
# Vertex ids, table entries and part offsets are int32.
_MAX_VERTICES = np.iinfo(np.int32).max


def compose(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """outer[inner] as an int32 table, -1 wherever inner is -1: one gather
    from outer, where index -1 reads its last entry, then each entry or-ed
    with inner >> 31, which is -1 there and 0 elsewhere; by chunks, so no
    temporary is as long as the table."""
    table = outer[inner]
    for lo in range(0, len(table), _CHUNK):
        table[lo : lo + _CHUNK] |= inner[lo : lo + _CHUNK] >> 31
    return table


def _blocks(p: Presentation, radius: int) -> list[list[tuple[int, int]]]:
    """Per generator, its blocks (exp, block length) of length 1..radius, by _block_key."""
    out = []
    for gen in range(p.n_generators):
        order = p.order(gen)
        exps = range(1, order) if order is not None else [*range(1, radius + 1), *range(-1, -radius - 1, -1)]
        blocks = [(e, _block_length(gen, e, p)) for e in exps]
        blocks = [blk for blk in blocks if blk[1] <= radius]
        blocks.sort(key=lambda blk: _block_key(gen, blk[0], p))
        out.append(blocks)
    return out


class _Words(SequenceABC):
    """A ball's words in vertex order, each built from the arrays when read."""

    def __init__(self, ball: "Ball"):
        self._ball = ball

    def __len__(self) -> int:
        return len(self._ball)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = operator.index(i)
        n = len(self)
        if not -n <= i < n:
            raise IndexError("vertex index out of range")
        i %= n
        b = self._ball
        units = b.presentation.adjacency_letters()
        letters = []
        while i > 0:
            letters.append(units[b.first[i]])
            i = int(b.parent[i])
        return reduce_letters(letters, b.presentation)


class Ball:
    """All reduced words of length at most `radius`, in a fixed canonical order.

    Vertices are stored as integer arrays, not word objects: the tree that
    grows the ball outward from the identity, each vertex from its unique
    shorter neighbour.  first[i] is the index in `adjacency_letters()` of
    vertex i's first unit letter (the first of `ReducedWord.unit_letters`)
    and parent[i] the vertex that removing it leaves; both are -1 at the
    identity, vertex 0.  They are the only per-vertex arrays a ball holds
    besides its cached unit tables: first is int8 (a presentation has at
    most 26 generators) and parent int32.  A ball with more vertices than
    int32 ids can number is refused before any array is allocated.  A
    word's length is the sphere that holds it, and `sphere_sizes` lists
    the spheres' sizes in vertex order.  `words` builds `ReducedWord`
    objects only when read, and `names()` spells every word at once
    without them.  An automaton colouring
    (`hausdorff.automaton_colouring`) reads the same tree.

    The order is `ReducedWord.sort_key`: by length, then by the blocks'
    keys (gen, sign, |exp|) from the left.  Words of one length that share
    a first block have rests of one shorter length, already in key order,
    so each sphere is a run of parts, one per block in key order: part
    (ell, gen, exp) holds (gen, exp) * r, in vertex order, for each r of
    length ell - |(gen, exp)| (the block's length) not starting with gen.
    A generator's parts are adjacent, so those rests are their sphere less
    its gen run, two ranges of vertices.  A vertex's parent is the same
    offset in the part of its block less one letter, or its rest when the
    block is one letter long.  `_parts` keeps each part's (start, count);
    every array and table is written from them by slices, with no search.

    Left tables are built lazily, with -1 for entries falling outside the
    ball.  Only the unit tables, those of the adjacency letters, are
    cached (`unit_tables`, keyed by their canonical letters), since the
    word walks and the inverse permutation read them over and over; every
    other table, and every unit table read before `unit_tables` is first
    called, is built on each `left_table` call and belongs to its caller,
    which drops it once read.

    The table of a block l = (g, e) sends the vertices of sphere ell not
    starting with g, in order, to part (ell + |l|, g, e); part (ell, g,
    e') to part (ell - |e'| + |e' + e|, g, e' + e), which has the same
    rests, or to those rests when e' + e cancels; and every other vertex,
    whose target part lies past the radius, to -1.

    Tables of other words are composed block by block, one gather each
    (`compose`; a block's cached unit table is read where there is one).
    A caller that holds the tables of two words composes their product
    with one gather of its own (the offsets aBaB = aB * aB in `proper`).
    Composing by blocks, not unit letters, never drops an entry
    spuriously: along the blocks of g, the length of the partial product
    falls while blocks cancel, changes once where a block merges, then
    only grows, so no partial product is longer than both w and g*w.
    A unit spelling of one torsion block can overshoot: in Z4 at radius 1,
    a^2 * a = a^3 = A is inside, but a * (a * a) passes through a^2, which
    is not.

    A right table is the left table of g^-1 read through the inverse
    permutation, w*g = (g^-1 * w^-1)^-1; both are built on each call.  A
    word and its inverse have the same length, so one leaves the ball
    exactly when the other does.
    """

    def __init__(self, presentation: Presentation, radius: int):
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        self.presentation = presentation
        self.radius = radius

        # The identity is a part of its own; sphere 0 has an empty run of
        # each generator, after the identity.
        parts = {(0, -1, 0): (0, 1)}
        starts = [0, 1]
        runs = [[(1, 1)] * presentation.n_generators]
        blocks = _blocks(presentation, radius)
        for ell in range(1, radius + 1):
            start = starts[-1]
            runs.append([])
            for gen, gen_blocks in enumerate(blocks):
                lo = start
                for exp, size in gen_blocks:
                    if size <= ell:
                        below = ell - size
                        run_lo, run_hi = runs[below][gen]
                        count = starts[below + 1] - starts[below] - (run_hi - run_lo)
                        parts[ell, gen, exp] = (start, count)
                        start += count
                runs[ell].append((lo, start))
            starts.append(start)
        if starts[-1] > _MAX_VERTICES:
            raise ValueError(f"a ball of {starts[-1]} vertices overflows int32 vertex ids (at most {_MAX_VERTICES})")
        self._parts = parts
        self._starts = np.array(starts, dtype=np.int32)
        self._runs = np.array(runs, dtype=np.int32)
        self.sphere_sizes: list[int] = np.diff(starts).tolist()

        letters = presentation.adjacency_letters()
        self.first = np.full(len(self), -1, dtype=np.int8)
        self.parent = np.full(len(self), -1, dtype=np.int32)
        for (ell, gen, exp), (start, count) in parts.items():
            if gen < 0:
                continue
            order = presentation.order(gen)
            unit = 1 if (exp > 0 if order is None else exp <= order - exp) else -1
            self.first[start : start + count] = letters.index((gen, unit))
            if _block_length(gen, exp, presentation) > 1:
                below = parts[ell - 1, gen, exp - unit][0]
                self.parent[start : start + count] = np.arange(below, below + count, dtype=np.int32)
            else:
                self._write_rests(self.parent, start, ell - 1, gen)

        self._left: dict[tuple[Letter, ...], np.ndarray] = {}

    def __len__(self) -> int:
        return int(self._starts[-1])

    @property
    def words(self) -> _Words:
        return _Words(self)

    def _others(self, length: int, gen: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """The two vertex ranges [lo, hi) of the sphere of this length that
        hold its words not starting with gen, in order."""
        run_lo, run_hi = self._runs[length, gen]
        return (self._starts[length], run_lo), (run_hi, self._starts[length + 1])

    def _write_rests(self, out: np.ndarray, start: int, length: int, gen: int) -> None:
        """Writes the vertices of `_others(length, gen)`, in order, to out
        from start on: the rests of a part of gen with that rest length."""
        for lo, hi in self._others(length, gen):
            out[start : start + hi - lo] = np.arange(lo, hi, dtype=np.int32)
            start += hi - lo

    def _inverses(self) -> np.ndarray:
        """Vertex index of each vertex's inverse.

        With w = prefix * m, m its last unit letter, w^-1 = m^-1 * prefix^-1.
        m is the parent's last letter, or w's first when the parent is the
        identity, and prefix is first * (the parent's prefix).  Parents,
        prefixes and their inverses are shorter than w, so one pass over
        the spheres in order fills all three, by unit-table reads.
        """
        p = self.presentation
        letters = p.adjacency_letters()
        flip = np.array([letters.index((g, e if p.order(g) == 2 else -e)) for g, e in letters], dtype=np.int32)
        units = np.stack(self.unit_tables())
        last = self.first.copy()
        prefix = np.zeros(len(self), dtype=np.int32)
        inverse = np.zeros(len(self), dtype=np.int32)
        for ell in range(1, self.radius + 1):
            lo, hi = self._starts[ell], self._starts[ell + 1]
            if ell > 1:
                up = self.parent[lo:hi]
                last[lo:hi] = last[up]
                prefix[lo:hi] = units[self.first[lo:hi], prefix[up]]
            inverse[lo:hi] = units[flip[last[lo:hi]], inverse[prefix[lo:hi]]]
        return inverse

    def _block_table(self, block: Letter) -> np.ndarray:
        """Left table of one block, filled part by part (see `Ball`); built
        on every call, with its exponent reduced modulo the generator's
        order."""
        gen, exp = block
        order = self.presentation.order(gen)
        if order is not None:
            exp %= order
        size = _block_length(gen, exp, self.presentation)
        table = np.full(len(self), -1, dtype=np.int32)
        for ell in range(self.radius + 1 - size):
            start, _ = self._parts[ell + size, gen, exp]
            for lo, hi in self._others(ell, gen):
                table[lo:hi] = np.arange(start, start + hi - lo, dtype=np.int32)
                start += hi - lo
        for (ell, g, e), (start, count) in self._parts.items():
            if g != gen:
                continue
            merged = e + exp if order is None else (e + exp) % order
            below = ell - _block_length(gen, e, self.presentation)
            if merged == 0:
                self._write_rests(table, start, below, gen)
                continue
            target = self._parts.get((below + _block_length(gen, merged, self.presentation), gen, merged))
            if target is not None:
                table[start : start + count] = np.arange(target[0], target[0] + count, dtype=np.int32)
        return table

    def names(self) -> list[str]:
        """Each vertex's word as `ReducedWord.to_string` spells it, in vertex
        order: its first unit letter (`first`), then its parent's name."""
        p = self.presentation
        labels = [p.name(gen) if exp > 0 else p.name(gen).upper() for gen, exp in p.adjacency_letters()]
        names = [""]
        for letter, up in zip(self.first[1:].tolist(), self.parent[1:].tolist()):
            names.append(labels[letter] + names[up])
        names[0] = "1"
        return names

    def unit_tables(self) -> list[np.ndarray]:
        """Left tables of the `adjacency_letters()`, in that order, which is
        the order `first` indexes; the only tables a ball caches, each under
        its one block's canonical letters."""
        if not self._left:
            p = self.presentation
            for gen, exp in p.adjacency_letters():
                g = p.generator(gen, exp)
                self._left[g.letters] = self.left_table(g)
        return list(self._left.values())

    def left_table(self, g: ReducedWord) -> np.ndarray:
        """Vertex index of g*w per vertex w; -1 where g*w leaves the ball.
        A cached unit table is returned as is; any other table is composed
        by blocks and left to the caller."""
        letters = g.letters
        table = self._left.get(letters)
        if table is None:
            # Applies the last block first and the first block last; a
            # block that repeats (aB^2a) is built once.
            built = {block: self._left.get((block,)) for block in letters}
            for block, cached in built.items():
                if cached is None:
                    built[block] = self._block_table(block)
            blocks = [built[block] for block in letters]
            table = functools.reduce(compose, blocks) if blocks else np.arange(len(self), dtype=np.int32)
        return table

    def right_table(self, g: ReducedWord) -> np.ndarray:
        """Vertex index of w*g per vertex w; -1 where w*g leaves the ball."""
        inverse = self._inverses()
        return compose(inverse, self.left_table(g.inverse())[inverse])

    def interior_size(self, depth: int) -> int:
        """How many vertices keep their depth-neighbourhood in the ball: those
        of length at most radius - depth, a prefix of vertex order."""
        return int(self._starts[max(self.radius - depth + 1, 0)])


def ball(presentation: Presentation, radius: int) -> Ball:
    return Ball(presentation, radius)
