"""Colouring rules on truncated group actions.

A rule lists descendant group elements and, per point, an allowed set of
colours computed from the point's local ±1 window and the descendants'
colours.  The inputs are finite, so a rule is compiled once, when built,
into a read-only boolean table ``allowed[input, colour]``; inputs run in
``itertools.product`` order over the window signs (-1 first), then the
descendants' colour codes.  Checking, iteration, rank and JSON export all
read that table, and a rule whose table exceeds ``MAX_TABLE_CELLS`` cells
is refused.  Rank one means no input has an empty allowed set.  Checking
is exact on the interior of a ball; boundary vertices are never judged.
Every read stays inside: a read at w from a vertex v with |v| <= radius -
dependency_radius lands on wv, and |wv| <= |w| + |v| <= radius.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass, field
from typing import IO, Callable, Iterator

import numpy as np

from .configs import Configuration
from .groups import Ball

RANK_ONE = "rank-one"
RANK_TWO_OR_HIGHER = "rank-two-or-higher"

# In (input, colour) cells.  The largest shipped table, the arrow rule's, has
# 8,192 inputs x 4 colours = 32,768; the cap guards rules read from JSON.
MAX_TABLE_CELLS = 2**20


class EmptyAllowedSetError(ValueError):
    """Raised when an update hits an empty allowed set (rule not rank one)."""


def _inputs(rule: "ColouringRule") -> Iterator[tuple[tuple[int, ...], tuple[str, ...]]]:
    """Every (window values, descendant colours) input, in table row order."""
    return itertools.product(
        itertools.product((-1, 1), repeat=len(rule.window)),
        itertools.product(rule.colours, repeat=len(rule.descendants)),
    )


@dataclass(frozen=True)
class ColouringRule:
    """Descendant-driven local constraint with an optional position window.

    `allowed_fn` maps (window values, descendant colours) to the set of
    colours permitted at the point; it is called once per input, at
    construction, to compile `table` (row = input, column = colour).
    `window` lists the group elements whose ±1 coordinates the rule reads;
    stationary rules read none.  `dependency_radius` bounds every read the
    rule makes, including any the checker performs on its behalf.
    """

    name: str
    colours: tuple[str, ...]
    descendants: tuple
    allowed_fn: Callable[[tuple[int, ...], tuple[str, ...]], frozenset[str]]
    window: tuple = ()
    dependency_radius: int = 1
    stationary: bool = True
    table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(set(self.colours)) != len(self.colours):
            raise ValueError("colour names must be distinct")
        if len(self.colours) < 2:
            raise ValueError("need at least two colours")
        if self.stationary and self.window:
            raise ValueError("a stationary rule cannot read a window")
        reach = [d.length for d in self.descendants] + [w.length for w in self.window]
        if reach and max(reach) > self.dependency_radius:
            raise ValueError("dependency radius smaller than a declared read")
        k = len(self.colours)
        cells = 2 ** len(self.window) * k ** (len(self.descendants) + 1)
        if cells > MAX_TABLE_CELLS:
            raise ValueError(f"rule {self.name!r} needs {cells} table cells; the cap is {MAX_TABLE_CELLS}")
        known = frozenset(self.colours)
        rows = []
        for window_values, desc in _inputs(self):
            allowed = self.allowed_fn(window_values, desc)
            if not allowed <= known:
                raise ValueError("allowed set contains unknown colours")
            rows.append([c in allowed for c in self.colours])
        table = np.array(rows, dtype=bool)
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    def allowed_set(self, row: int) -> frozenset[str]:
        """The colours allowed on table row `row`."""
        return frozenset(itertools.compress(self.colours, self.table[row]))



def classify_rank(rule: ColouringRule) -> str:
    """Rank one iff no input of the compiled table has an empty allowed set."""
    return RANK_ONE if rule.table.any(axis=1).all() else RANK_TWO_OR_HIGHER


class Colouring:
    """Partial colour assignment on ball vertices; -1 codes mean uncoloured.

    May carry the ±1 configuration that position-dependent rules read; it
    must live on the same ball, so readers take both from the colouring.
    """

    def __init__(
        self,
        ball: Ball,
        palette: tuple[str, ...],
        codes: np.ndarray | None = None,
        configuration: Configuration | None = None,
    ):
        self.ball = ball
        self.palette = palette
        if codes is None:
            codes = np.full(len(ball), -1, dtype=np.int16)
        codes = np.asarray(codes, dtype=np.int16)
        if codes.shape != (len(ball),):
            raise ValueError("codes must cover every ball vertex")
        if codes.max(initial=-1) >= len(palette) or codes.min(initial=0) < -1:
            raise ValueError("colour code out of range")
        if configuration is not None and configuration.ball is not ball:
            raise ValueError("configuration lives on a different ball")
        self.codes = codes
        self.configuration = configuration

    @classmethod
    def uniform(cls, ball: Ball, palette: tuple[str, ...], colour: str) -> "Colouring":
        codes = np.full(len(ball), palette.index(colour), dtype=np.int16)
        return cls(ball, palette, codes)

    def colour_at(self, i: int) -> str | None:
        code = int(self.codes[i])
        return None if code < 0 else self.palette[code]

    def write_csv(self, fileobj: IO[str]) -> None:
        """One `word,colour` row per vertex in ball order; "" if uncoloured."""
        colours = [*self.palette, ""]  # code -1 reads the last entry
        writer = csv.writer(fileobj)
        writer.writerow(("word", "colour"))
        writer.writerows(zip(self.ball.names(), [colours[c] for c in self.codes.tolist()]))

    def copy(self) -> "Colouring":
        return Colouring(self.ball, self.palette, self.codes.copy(), self.configuration)


@dataclass(frozen=True)
class ViolationReport:
    interior_size: int
    violations: tuple[tuple[int, str, frozenset[str]], ...]

    @property
    def n_violations(self) -> int:
        return len(self.violations)

    @property
    def fraction(self) -> float | None:
        if self.interior_size == 0:
            return None
        return self.n_violations / self.interior_size

    @property
    def satisfied(self) -> bool:
        return self.interior_size > 0 and not self.violations

    def to_record(self) -> dict:
        return {
            "interior_size": self.interior_size,
            "n_violations": self.n_violations,
            "fraction": self.fraction,
            "violations": [
                {"vertex": int(v), "assigned": c, "allowed": sorted(a)}
                for v, c, a in self.violations[:100]
            ],
        }


def _window_rows(rule: ColouringRule, colouring: Colouring, n: int) -> np.ndarray:
    """The window bits of the first n vertices' table rows, in int32: no
    table has more than MAX_TABLE_CELLS cells."""
    if rule.window and colouring.configuration is None:
        raise ValueError(f"rule {rule.name!r} reads a window but no configuration is attached")
    if colouring.palette != rule.colours:
        raise ValueError(f"colouring palette differs from the colours of rule {rule.name!r}")
    rows = np.zeros(n, dtype=np.int32)
    for w in rule.window:
        rows <<= 1
        rows |= colouring.configuration.values[colouring.ball.left_table(w)[:n]] > 0
    return rows


def _raise_read_error(rule: ColouringRule, colouring: Colouring, i: int) -> None:
    """Raise for the first descendant of vertex i that is uncoloured."""
    for d in rule.descendants:
        j = int(colouring.ball.left_table(d)[i])
        if colouring.codes[j] < 0:
            raise ValueError(f"descendant at vertex {j} is uncoloured")


def check(rule: ColouringRule, colouring: Colouring) -> ViolationReport:
    """Judge every interior vertex exactly; boundary vertices are skipped."""
    n = colouring.ball.interior_size(rule.dependency_radius)
    rows = _window_rows(rule, colouring, n)
    assigned = colouring.codes[:n]
    unreadable = assigned < 0
    for d in rule.descendants:
        c = colouring.codes[colouring.ball.left_table(d)[:n]]
        unreadable |= c < 0
        rows *= len(rule.colours)
        rows += c
    if unreadable.any():
        i = int(np.argmax(unreadable))
        if colouring.codes[i] < 0:
            raise ValueError(f"interior vertex {i} is uncoloured")
        _raise_read_error(rule, colouring, i)
    bad = np.flatnonzero(~rule.table[rows, assigned])
    violations = tuple(
        (i, rule.colours[a], rule.allowed_set(row))
        for i, a, row in zip(bad.tolist(), assigned[bad].tolist(), rows[bad].tolist())
    )
    return ViolationReport(interior_size=n, violations=violations)


def iterate(rule: ColouringRule, initial: Colouring, max_rounds: int) -> tuple[Colouring, bool, int]:
    """Round-robin sweeps over the interior in vertex order: keep a vertex's
    colour if allowed, else take the first allowed colour in declared order.
    Converged when a sweep is a no-op.  Raises EmptyAllowedSetError for
    rules that are not rank one.
    """
    colouring = initial.copy()
    n = colouring.ball.interior_size(rule.dependency_radius)
    # Window bits stay fixed; descendant codes are read as the sweep goes.
    steps = list(enumerate(_window_rows(rule, colouring, n).tolist()))
    reads = [colouring.ball.left_table(d).tolist() for d in rule.descendants]
    allowed = rule.table.tolist()
    codes = colouring.codes.tolist()
    k = len(rule.colours)
    for round_no in range(1, max_rounds + 1):
        changed = False
        for i, row in steps:
            for table in reads:
                j = table[i]
                row = k * row + codes[j] if row >= 0 and codes[j] >= 0 else -1
            if row < 0:
                _raise_read_error(rule, colouring, i)
            cells = allowed[row]
            if True not in cells:
                raise EmptyAllowedSetError(f"empty allowed set at vertex {i}")
            current = codes[i]
            if current >= 0 and cells[current]:
                continue
            codes[i] = colouring.codes[i] = cells.index(True)
            changed = True
        if not changed:
            return colouring, True, round_no
    return colouring, False, max_rounds


# ---------------------------------------------------------------------------
# JSON rule declarations.

def _json_key(window_values: tuple[int, ...], desc: tuple[str, ...]) -> str:
    return "".join("+" if v > 0 else "-" for v in window_values) + "|" + ",".join(desc)


def rule_to_json(rule: ColouringRule) -> str:
    """Serialize with the allowed table fully enumerated."""
    table = {
        _json_key(window_values, desc): sorted(itertools.compress(rule.colours, cells))
        for (window_values, desc), cells in zip(_inputs(rule), rule.table)
    }
    return json.dumps(
        {
            "name": rule.name,
            "colours": list(rule.colours),
            "descendants": [str(d) for d in rule.descendants],
            "window": [str(w) for w in rule.window],
            "stationary": rule.stationary,
            "dependency_radius": rule.dependency_radius,
            "allowed": table,
        },
        sort_keys=True,
    )


# The keys `rule_to_json` writes, each with the type of its JSON value.
_RULE_KEYS = {
    "name": (str, "string"),
    "colours": (list, "array of strings"),
    "descendants": (list, "array of strings"),
    "window": (list, "array of strings"),
    "stationary": (bool, "boolean"),
    "dependency_radius": (int, "integer"),
    "allowed": (dict, "object"),
}


def rule_from_json(text: str, presentation) -> ColouringRule:
    """The rule a `rule_to_json` declaration describes.  Raises ValueError
    for a file that is not one: a missing or unknown key, a value of the
    wrong JSON type, or an input with no allowed list."""
    doc = json.loads(text)
    if type(doc) is not dict:
        raise ValueError("a rule declaration is a JSON object")
    missing, unknown = sorted(_RULE_KEYS.keys() - doc.keys()), sorted(doc.keys() - _RULE_KEYS.keys())
    if missing or unknown:
        raise ValueError(f"not a rule declaration: missing keys {missing}, unknown keys {unknown}")
    for key, (kind, name) in _RULE_KEYS.items():
        value = doc[key]
        if type(value) is not kind or (kind is list and not all(type(v) is str for v in value)):
            raise ValueError(f"rule key {key!r} must hold a JSON {name}")
    table = doc["allowed"]

    def allowed(window_values: tuple[int, ...], desc: tuple[str, ...]) -> frozenset[str]:
        key = _json_key(window_values, desc)
        if type(table.get(key)) is not list:
            raise ValueError(f"rule declaration has no allowed list for input {key!r}")
        return frozenset(table[key])

    return ColouringRule(
        name=doc["name"],
        colours=tuple(doc["colours"]),
        descendants=tuple(presentation.word(d) for d in doc["descendants"]),
        allowed_fn=allowed,
        window=tuple(presentation.word(w) for w in doc["window"]),
        dependency_radius=doc["dependency_radius"],
        stationary=doc["stationary"],
    )
