"""Words, presentations, and Cayley balls for free products of cyclic groups.

Elements are kept in one canonical reduced form so that set identities on
balls can be checked exactly.  Supported groups are free groups F_k and
free products of finite cyclic groups (for example Z2 * Z3).  Adjacency in
a ball is by left multiplication with generator letters.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Iterator, Sequence

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

    def index_of(self, name: str) -> int:
        for i, (n, _) in enumerate(self.generators):
            if n == name:
                return i
        raise KeyError(f"no generator named {name!r}")

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
        raw: list[Letter] = []
        for ch in text:
            low = ch.lower()
            gen = self.index_of(low)
            raw.append((gen, 1 if ch == low else -1))
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

    def __pow__(self, n: int) -> "ReducedWord":
        base = self if n >= 0 else self.inverse()
        out = self.presentation.identity()
        for _ in range(abs(n)):
            out = out * base
        return out

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


def _compose(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    out = np.where(inner >= 0, outer[np.maximum(inner, 0)], -1)
    return out.astype(np.int32)


def _blocks(p: Presentation, radius: int) -> list[tuple[int, int, int]]:
    """Every block (gen, exp, block length) of length 1..radius, by _block_key."""
    out = []
    for gen in range(p.n_generators):
        order = p.order(gen)
        exps = range(1, order) if order is not None else [*range(1, radius + 1), *range(-1, -radius - 1, -1)]
        out.extend((gen, e, _block_length(gen, e, p)) for e in exps)
    out = [blk for blk in out if blk[2] <= radius]
    out.sort(key=lambda blk: _block_key(blk[0], blk[1], p))
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
        n = len(self)
        if not -n <= i < n:
            raise IndexError("vertex index out of range")
        i = int(i) % n
        b = self._ball
        letters = []
        while i > 0:
            letters.append((int(b.first_gen[i]), int(b.first_exp[i])))
            i = int(b.rest[i])
        return ReducedWord(b.presentation, tuple(letters))

    def __iter__(self) -> Iterator[ReducedWord]:
        b = self._ball
        p = b.presentation
        gens, exps, rests = b.first_gen.tolist(), b.first_exp.tolist(), b.rest.tolist()
        letters: list[tuple[Letter, ...]] = [()]
        yield ReducedWord(p, ())
        for i in range(1, len(gens)):
            letters.append(((gens[i], exps[i]),) + letters[rests[i]])
            yield ReducedWord(p, letters[i])


class Ball:
    """All reduced words of length at most `radius`, in a fixed canonical order.

    Vertices are stored as integer arrays, not word objects.  Vertex i is
    the word (first_gen[i], first_exp[i]) * rest[i]: its first block, then
    the vertex index of what is left after removing that block.  The
    identity is vertex 0, with first_gen -1 and rest -1.  `lengths` holds
    word lengths; `words` builds `ReducedWord` objects only when read, and
    `names()` spells every word at once without them.

    The order is `ReducedWord.sort_key`: by length, then by the blocks'
    keys (gen, sign, |exp|) from the left.  Words of one length that share
    a first block have rests of one shorter length, and within a length the
    rests are already in key order, so the rest's vertex index settles every
    tie.  Each sphere is therefore written out block by block, each block
    followed by the shorter sphere's vertices that do not start with its
    generator, already in order and with no sort.

    The same argument makes the integer key (length, block code, rest) of
    each vertex strictly increasing in vertex index, so the vertex of any
    (block, rest) pair is one `searchsorted` away.  The left unit tables
    are built that way during construction.  Tables of other words are
    composed block by block, lazily, and cached; entries falling outside
    the ball are -1.  Composing by blocks, not unit letters, never drops an
    entry spuriously: along the blocks of g, the length of the partial
    product falls while blocks cancel, changes once where a block merges,
    then only grows.  A unit spelling of one block can overshoot: in Z4 at
    radius 1, a^2 * a = a^3 = A is inside, but a * (a * a) passes through
    a^2, which is not.

    A right table is the left table of g^-1 read through the inverse
    permutation, w*g = (g^-1 * w^-1)^-1.  A word and its inverse have the
    same length, so one leaves the ball exactly when the other does.
    """

    def __init__(self, presentation: Presentation, radius: int):
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        self.presentation = presentation
        self.radius = radius
        orders = [presentation.order(g) for g in range(presentation.n_generators)]
        self._modulus = np.array([o or 0 for o in orders], dtype=np.int64)
        self._exp_span = max([radius, *(o for o in orders if o is not None)]) + 1

        # Per sphere: first generators, first exponents, rests.
        spheres = [(np.array([-1]), np.array([0]), np.array([-1]))]
        starts = [0, 1]
        rests_for: dict[tuple[int, int], np.ndarray] = {}  # (length, gen) -> vertices not starting with gen
        blocks = _blocks(presentation, radius)
        for ell in range(1, radius + 1):
            parts = []
            for gen, exp, size in blocks:
                if size > ell:
                    continue
                key = (ell - size, gen)
                if key not in rests_for:
                    rests_for[key] = starts[ell - size] + np.flatnonzero(spheres[ell - size][0] != gen)
                tail = rests_for[key]
                parts.append((np.full(len(tail), gen), np.full(len(tail), exp), tail))
            spheres.append(tuple(np.concatenate(column) for column in zip(*parts)))
            starts.append(starts[-1] + len(spheres[-1][0]))
        columns = (np.concatenate(column).astype(np.int32) for column in zip(*spheres))
        self.first_gen, self.first_exp, self.rest = columns
        self.sphere_sizes: list[int] = [len(sphere[0]) for sphere in spheres]
        self.lengths = np.repeat(np.arange(radius + 1, dtype=np.int32), self.sphere_sizes)
        self._starts = starts

        n = len(self.lengths)
        if (radius + 1) * 2 * presentation.n_generators * self._exp_span * n >= 2**63:
            raise OverflowError("ball too large for 64-bit vertex keys")
        self._keys = np.zeros(n, dtype=np.int64)
        self._keys[1:] = self._key(self.first_gen[1:], self.first_exp[1:], self.rest[1:], self.lengths[1:])

        self._left_block: dict[Letter, np.ndarray] = {}
        for letter in presentation.adjacency_letters():
            self._block_table(letter)
        self._inverse: np.ndarray | None = None
        self._left: dict[tuple[Letter, ...], np.ndarray] = {}
        self._right: dict[tuple[Letter, ...], np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.lengths)

    @property
    def words(self) -> _Words:
        return _Words(self)

    def _key(self, gen, exp, rest, length) -> np.ndarray:
        code = (2 * np.asarray(gen, dtype=np.int64) + (exp < 0)) * self._exp_span + np.abs(exp)
        per_length = 2 * self.presentation.n_generators * self._exp_span
        return (np.asarray(length, dtype=np.int64) * per_length + code) * len(self) + rest

    def _normalise(self, gen, exp) -> np.ndarray:
        """Exponents reduced modulo each generator's order; 0 means cancelled."""
        m = self._modulus[gen]
        return np.where(m > 0, np.mod(exp, np.maximum(m, 1)), exp)

    def _block_lengths(self, gen, exp) -> np.ndarray:
        m = self._modulus[gen]
        return np.where(m > 0, np.minimum(exp, m - exp), np.abs(exp))

    def _find(self, gen, exp, rest) -> np.ndarray:
        """Vertex of the word (gen, exp) * rest, -1 where it is not in the ball.

        exp is normalised.  A zero exp or a rest starting with gen matches no
        vertex, since no vertex has such a block and rest.  An exponent too
        large for its field of the key carries into the length field, which
        is then already past the radius, so it matches no vertex either.
        """
        length = self.lengths[rest] + self._block_lengths(gen, exp)
        key = self._key(gen, exp, rest, length)
        pos = np.minimum(np.searchsorted(self._keys, key), len(self) - 1)
        return np.where(self._keys[pos] == key, pos, -1)

    def _left_block_table(self, gen: int, exp: int) -> np.ndarray:
        """l*w for the block l = (gen, exp): l merges into w's first block
        when the generators agree, otherwise it is prepended."""
        merge = self.first_gen == gen
        rest = np.where(merge, self.rest, np.arange(len(self)))
        new_exp = self._normalise(gen, np.where(merge, self.first_exp + exp, exp))
        table = np.where(merge & (new_exp == 0), self.rest, self._find(gen, new_exp, rest))
        return table.astype(np.int32)

    def _inverses(self) -> np.ndarray:
        """Vertex index of each vertex's inverse.

        With w = head * last (last its final block), w^-1 = last^-1 * head^-1;
        head = (first block) * head(rest), and both head and head^-1 are
        shorter than w, so one pass over the spheres in order fills all three.
        """
        if self._inverse is None:
            n = len(self)
            head = np.zeros(n, dtype=np.int64)
            last_gen, last_exp = self.first_gen.copy(), self.first_exp.copy()
            inverse = np.zeros(n, dtype=np.int64)
            for lo, hi in zip(self._starts[1:-1], self._starts[2:]):
                gen, exp, rest = self.first_gen[lo:hi], self.first_exp[lo:hi], self.rest[lo:hi]
                inner = rest > 0
                last_gen[lo:hi] = np.where(inner, last_gen[rest], gen)
                last_exp[lo:hi] = np.where(inner, last_exp[rest], exp)
                head[lo:hi] = np.where(inner, self._find(gen, exp, head[rest]), 0)
                lg = last_gen[lo:hi]
                inverse[lo:hi] = self._find(lg, self._normalise(lg, -last_exp[lo:hi]), inverse[head[lo:hi]])
            self._inverse = inverse.astype(np.int32)
        return self._inverse

    def _index(self, w: ReducedWord) -> int:
        if w.presentation != self.presentation:
            return -1
        v = 0
        for gen, exp in reversed(w.letters):
            v = int(self._find(gen, exp, v))
            if v < 0:
                break
        return v

    def __contains__(self, w: ReducedWord) -> bool:
        return self._index(w) >= 0

    def index_of(self, w: ReducedWord) -> int:
        i = self._index(w)
        if i < 0:
            raise KeyError(f"word {w} not in ball of radius {self.radius}")
        return i

    def _block_table(self, block: Letter) -> np.ndarray:
        """Left table of one block, cached."""
        table = self._left_block.get(block)
        if table is None:
            table = self._left_block[block] = self._left_block_table(*block)
        return table

    def first_steps(self) -> tuple[np.ndarray, np.ndarray]:
        """Per vertex, the index into `adjacency_letters()` of its first unit
        letter (the first of `ReducedWord.unit_letters`) and the vertex,
        one step shorter, that removing it leaves; -1 at the identity."""
        first = np.full(len(self), -1, dtype=np.int32)
        parent = np.full(len(self), -1, dtype=np.int32)
        for i, (gen, exp) in enumerate(self.presentation.adjacency_letters()):
            order = self.presentation.order(gen)
            e = self.first_exp
            sign = np.sign(e) if order is None else np.where(e <= order - e, 1, -1)
            mine = (self.first_gen == gen) & (sign == exp)
            first[mine] = i
            parent[mine] = self._block_table((gen, -exp))[mine]
        return first, parent

    def names(self) -> list[str]:
        """Each vertex's word as `ReducedWord.to_string` spells it, in vertex
        order: its first unit letter (`first_steps`), then its parent's name."""
        p = self.presentation
        labels = [p.name(gen) if exp > 0 else p.name(gen).upper() for gen, exp in p.adjacency_letters()]
        first, parent = self.first_steps()
        names = [""]
        for letter, rest in zip(first[1:].tolist(), parent[1:].tolist()):
            names.append(labels[letter] + names[rest])
        names[0] = "1"
        return names

    def unit_tables(self) -> list[np.ndarray]:
        """Left tables of the `adjacency_letters()`, in that order, which is
        the order `first_steps` indexes."""
        return [self._block_table(letter) for letter in self.presentation.adjacency_letters()]

    def left_table(self, g: ReducedWord) -> np.ndarray:
        """Vertex index of g*w per vertex w; -1 where g*w leaves the ball."""
        table = self._left.get(g.letters)
        if table is None:
            # Applies the last block first and the first block last.
            blocks = [self._block_table(block) for block in g.letters]
            table = functools.reduce(_compose, blocks) if blocks else np.arange(len(self), dtype=np.int32)
            self._left[g.letters] = table
        return table

    def right_table(self, g: ReducedWord) -> np.ndarray:
        """Vertex index of w*g per vertex w; -1 where w*g leaves the ball."""
        table = self._right.get(g.letters)
        if table is None:
            inverse = self._inverses()
            table = self._right[g.letters] = _compose(inverse, self.left_table(g.inverse())[inverse])
        return table

    def interior_indices(self, depth: int) -> np.ndarray:
        """Vertices whose whole depth-neighbourhood stays inside the ball."""
        return np.nonzero(self.lengths <= self.radius - depth)[0]


def ball(presentation: Presentation, radius: int) -> Ball:
    return Ball(presentation, radius)
