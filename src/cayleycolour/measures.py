"""Exact density accounting for colour classes under a measure-preserving action.

Observed transport facts (a generator maps one colour class into or onto
another, or a counting bound on arrow flow) become linear constraints on
the class densities any invariant finitely additive measure would have to
assign.  Feasibility is decided exactly: Gaussian pivoting on the
equalities, then a Phase-I simplex with Bland's rule on the inequalities.
An infeasible program yields a replayable refutation: a nonnegative
combination of the stated constraints (the simplex's Farkas multipliers)
with all variables cancelled and a false constant comparison left over.

No floating point enters any decision here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .groups import ReducedWord
from .rules import Colouring

Terms = tuple[tuple[Fraction, str], ...]


class UnverifiedCertificateError(ValueError):
    """A certificate without a completed empirical record entered translation."""


def _terms(pairs: Iterable[tuple[int | str | Fraction, str]]) -> Terms:
    return tuple((Fraction(c), v) for c, v in pairs)


def _render_side(terms: Terms, const: Fraction) -> str:
    parts = []
    for c, v in terms:
        if c == 1:
            parts.append(v)
        else:
            parts.append(f"{c}*{v}")
    if const != 0 or not parts:
        parts.append(str(const))
    return " + ".join(parts)


@dataclass(frozen=True)
class Constraint:
    """Two-sided affine constraint over class-density variables."""

    lhs: Terms
    lhs_const: Fraction
    relation: str  # "<=" or "=="
    rhs: Terms
    rhs_const: Fraction
    label: str

    def __post_init__(self) -> None:
        if self.relation not in ("<=", "=="):
            raise ValueError(f"unsupported relation {self.relation!r}")

    def canonical(self) -> tuple[dict[str, Fraction], Fraction]:
        """Move everything left: sum(coeffs * x) + const REL 0."""
        coeffs: dict[str, Fraction] = {}
        for c, v in self.lhs:
            coeffs[v] = coeffs.get(v, Fraction(0)) + c
        for c, v in self.rhs:
            coeffs[v] = coeffs.get(v, Fraction(0)) - c
        coeffs = {v: c for v, c in coeffs.items() if c != 0}
        return coeffs, self.lhs_const - self.rhs_const

    def variables(self) -> set[str]:
        return {v for _, v in self.lhs} | {v for _, v in self.rhs}

    def evaluate_sides(self, point: dict[str, Fraction]) -> tuple[Fraction, Fraction]:
        lhs = self.lhs_const + sum((c * point[v] for c, v in self.lhs), Fraction(0))
        rhs = self.rhs_const + sum((c * point[v] for c, v in self.rhs), Fraction(0))
        return lhs, rhs

    def holds_at(self, point: dict[str, Fraction]) -> bool:
        lhs, rhs = self.evaluate_sides(point)
        return lhs == rhs if self.relation == "==" else lhs <= rhs

    def render(self) -> str:
        return (
            f"{_render_side(self.lhs, self.lhs_const)} {self.relation} "
            f"{_render_side(self.rhs, self.rhs_const)}"
        )

    def to_record(self) -> dict:
        return {
            "label": self.label,
            "lhs": [[str(c), v] for c, v in self.lhs],
            "lhs_const": str(self.lhs_const),
            "relation": self.relation,
            "rhs": [[str(c), v] for c, v in self.rhs],
            "rhs_const": str(self.rhs_const),
        }


def le(lhs, rhs, label: str, lhs_const=0, rhs_const=0) -> Constraint:
    return Constraint(_terms(lhs), Fraction(lhs_const), "<=", _terms(rhs), Fraction(rhs_const), label)


def eq(lhs, rhs, label: str, lhs_const=0, rhs_const=0) -> Constraint:
    return Constraint(_terms(lhs), Fraction(lhs_const), "==", _terms(rhs), Fraction(rhs_const), label)


@dataclass(frozen=True)
class TransportCertificate:
    """An observed transport fact with its interior verification record.

    kind "maps-into": the element sends every source-class point into the
    target classes.  kind "bijection": additionally every target point is
    hit (checked through the inverse).  kind "flow": a counting bound,
    carried as an explicit constraint.
    """

    kind: str
    element: str
    source: tuple[str, ...]
    target: tuple[str, ...]
    checks_passed: int
    checks_total: int
    constraint: Constraint | None = None
    first_failure: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("maps-into", "bijection", "flow"):
            raise ValueError(f"unknown certificate kind {self.kind!r}")
        if self.kind == "flow" and self.constraint is None:
            raise ValueError("flow certificates carry an explicit constraint")

    @property
    def verified(self) -> bool:
        return self.checks_total > 0 and self.checks_passed == self.checks_total

    def describe(self) -> str:
        if self.kind == "flow":
            return f"flow {self.element}: {self.constraint.render()}"
        arrow = "<->" if self.kind == "bijection" else "->"
        return f"{self.kind} {self.element}: {'+'.join(self.source)} {arrow} {'+'.join(self.target)}"

    def to_record(self) -> dict:
        rec = {
            "kind": self.kind,
            "element": self.element,
            "source": list(self.source),
            "target": list(self.target),
            "checks_passed": self.checks_passed,
            "checks_total": self.checks_total,
        }
        if self.constraint is not None:
            rec["constraint"] = self.constraint.to_record()
        if self.first_failure is not None:
            rec["first_failure"] = self.first_failure
        return rec


def certify_transport(
    colouring: Colouring,
    g: ReducedWord,
    classes: Sequence[tuple[Sequence[str], Sequence[str]]],
    kind: str = "maps-into",
) -> list[TransportCertificate]:
    """One certificate per (source, target) pair of classes: g(source) ⊆
    target on the interior; bijections also check g^-1(target) ⊆ source.
    first_failure is the first failing interior vertex, forward check first.
    Every pair's forward check reads one table of g, and every backward
    check one table of g^-1, built after the first is dropped."""
    ball = colouring.ball
    codes = colouring.codes

    def failures(word: ReducedWord, pairs) -> list[tuple[int, np.ndarray]]:
        table = ball.left_table(word)
        n = ball.interior_size(word.length)
        out = []
        for src, tgt in pairs:
            src_codes = [i for i, c in enumerate(colouring.palette) if c in src]
            tgt_codes = [i for i, c in enumerate(colouring.palette) if c in tgt]
            mine = np.flatnonzero(np.isin(codes[:n], src_codes))
            out.append((len(mine), mine[~np.isin(codes[table[mine]], tgt_codes)]))
        return out

    checks = failures(g, classes)
    if kind == "bijection":
        backward = failures(g.inverse(), [(tgt, src) for src, tgt in classes])
        checks = [(t1 + t2, np.concatenate([f1, f2])) for (t1, f1), (t2, f2) in zip(checks, backward)]
    return [
        TransportCertificate(
            kind=kind,
            element=str(g),
            source=tuple(source),
            target=tuple(target),
            checks_passed=total - len(failed),
            checks_total=total,
            first_failure=int(failed[0]) if len(failed) else None,
        )
        for (source, target), (total, failed) in zip(classes, checks)
    ]


@dataclass(frozen=True)
class DensityProgram:
    variables: tuple[str, ...]
    constraints: tuple[Constraint, ...]

    def __post_init__(self) -> None:
        declared = set(self.variables)
        for c in self.constraints:
            extra = c.variables() - declared
            if extra:
                raise ValueError(f"constraint {c.label!r} uses undeclared classes {sorted(extra)}")

    def to_record(self) -> dict:
        return {"variables": list(self.variables), "constraints": [c.to_record() for c in self.constraints]}


def simplex_constraints(classes: Sequence[str]) -> list[Constraint]:
    out = [eq([(1, c) for c in classes], [], "total mass", rhs_const=1)]
    for c in classes:
        out.append(le([], [(1, c)], f"nonnegativity of {c}"))
    return out


def translate(certificates: Sequence[TransportCertificate], classes: Sequence[str]) -> DensityProgram:
    """One density constraint per verified certificate, plus the simplex."""
    constraints = simplex_constraints(classes)
    declared = set(classes)
    for cert in certificates:
        if not cert.verified:
            raise UnverifiedCertificateError(cert.describe())
        if cert.kind == "flow":
            constraints.append(cert.constraint)
            continue
        if not (set(cert.source) <= declared and set(cert.target) <= declared):
            raise ValueError(f"certificate {cert.describe()!r} references undeclared classes")
        src = [(1, c) for c in cert.source]
        tgt = [(1, c) for c in cert.target]
        if cert.kind == "maps-into":
            constraints.append(le(src, tgt, cert.describe()))
        else:
            constraints.append(eq(src, tgt, cert.describe()))
    return DensityProgram(tuple(classes), tuple(constraints))


# ---------------------------------------------------------------------------
# Exact feasibility by Gaussian elimination on equalities, then Phase-I simplex.


@dataclass(frozen=True)
class RefutationStep:
    operation: str
    labels: tuple[str, ...]
    detail: str

    def to_record(self) -> dict:
        return {"operation": self.operation, "labels": list(self.labels), "detail": self.detail}


@dataclass(frozen=True)
class Refutation:
    """A false comparison plus the exact combination of constraints behind it.

    `multipliers` lists (constraint index, coefficient); recombining the
    canonical rows with these coefficients cancels every variable and
    leaves a positive number on the small side.
    """

    steps: tuple[RefutationStep, ...]
    multipliers: tuple[tuple[int, Fraction], ...]
    display: str
    lhs_value: Fraction
    rhs_value: Fraction

    @property
    def gap(self) -> Fraction:
        return self.lhs_value - self.rhs_value

    def to_record(self) -> dict:
        return {
            "display": self.display,
            "gap": str(self.gap),
            "lhs": str(self.lhs_value),
            "rhs": str(self.rhs_value),
            "multipliers": [[i, str(m)] for i, m in self.multipliers],
            "steps": [s.to_record() for s in self.steps],
        }


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: dict[str, Fraction] | None = None
    refutation: Refutation | None = None

    def to_record(self) -> dict:
        rec: dict = {"feasible": self.feasible}
        if self.witness is not None:
            rec["witness"] = {v: str(x) for v, x in self.witness.items()}
        if self.refutation is not None:
            rec["refutation"] = self.refutation.to_record()
        return rec


@dataclass
class _Row:
    coeffs: dict[str, Fraction]
    const: Fraction
    relation: str
    prov: dict[int, Fraction] = field(default_factory=dict)

    def scaled(self, s: Fraction) -> "_Row":
        if self.relation == "<=" and s < 0:
            raise ValueError("cannot scale an inequality by a negative factor")
        return _Row(
            {v: c * s for v, c in self.coeffs.items()},
            self.const * s,
            self.relation,
            {i: m * s for i, m in self.prov.items()},
        )

    def plus(self, other: "_Row") -> "_Row":
        coeffs = dict(self.coeffs)
        for v, c in other.coeffs.items():
            coeffs[v] = coeffs.get(v, Fraction(0)) + c
            if coeffs[v] == 0:
                del coeffs[v]
        prov = dict(self.prov)
        for i, m in other.prov.items():
            prov[i] = prov.get(i, Fraction(0)) + m
            if prov[i] == 0:
                del prov[i]
        relation = "==" if self.relation == other.relation == "==" else "<="
        return _Row(coeffs, self.const + other.const, relation, prov)

    def subtract_multiple(self, other: "_Row", factor: Fraction) -> "_Row":
        # other must be an equality row; any sign of factor is sound.
        assert other.relation == "=="
        merged = self.plus(other.scaled(-factor))
        return _Row(merged.coeffs, merged.const, self.relation, merged.prov)


def _row_of(constraint: Constraint, index: int) -> _Row:
    coeffs, const = constraint.canonical()
    return _Row(dict(coeffs), const, constraint.relation, {index: Fraction(1)})


def _render_row(row: _Row) -> str:
    if not row.coeffs:
        return f"0 {row.relation} {-row.const}"
    body = " + ".join(f"{c}*{v}" for v, c in sorted(row.coeffs.items()))
    return f"{body} {row.relation} {-row.const}"


def _refute(
    program: DensityProgram, row: _Row, steps: list[RefutationStep], source: Constraint | None,
    point: dict[str, Fraction] | None,
) -> Refutation:
    display = None
    lhs_value = rhs_value = None
    if source is not None and point is not None and source.variables() <= set(point):
        lhs_value, rhs_value = source.evaluate_sides(point)
        display = f"{lhs_value} <= {rhs_value}" if source.relation == "<=" else f"{lhs_value} == {rhs_value}"
    if display is None:
        # Canonical fallback: the combined row reads const REL 0 and is false.
        lhs_value, rhs_value = row.const, Fraction(0)
        display = f"{lhs_value} {row.relation} {rhs_value}"
    steps = steps + [
        RefutationStep(
            operation="contradiction",
            labels=tuple(program.constraints[i].label for i in sorted(row.prov)),
            detail=display,
        )
    ]
    return Refutation(
        steps=tuple(steps),
        multipliers=tuple(sorted(row.prov.items())),
        display=display,
        lhs_value=lhs_value,
        rhs_value=rhs_value,
    )


def replay_refutation(program: DensityProgram, refutation: Refutation) -> bool:
    """Re-derive the contradiction from the multipliers by exact arithmetic."""
    coeffs: dict[str, Fraction] = {}
    const = Fraction(0)
    relation = "=="
    for index, mult in refutation.multipliers:
        constraint = program.constraints[index]
        if constraint.relation == "<=":
            if mult < 0:
                return False
            relation = "<="
        row_coeffs, row_const = constraint.canonical()
        for v, c in row_coeffs.items():
            coeffs[v] = coeffs.get(v, Fraction(0)) + mult * c
        const += mult * row_const
    if any(c != 0 for c in coeffs.values()):
        return False
    # Combined row says const REL 0 for the canonical expression; it must be false.
    return const != 0 if relation == "==" else const > 0


def _contradiction(program: DensityProgram, row: _Row, steps: list[RefutationStep]) -> FeasibilityResult:
    """Refute a combined row with no variables left and a false constant."""
    labels = tuple(program.constraints[j].label for j in sorted(row.prov))
    steps.append(RefutationStep("combine", labels, _render_row(row)))
    return FeasibilityResult(feasible=False, refutation=_refute(program, row, steps, None, None))


def _phase_one(rows: list[_Row], names: list[str]) -> dict[str, Fraction] | _Row:
    """Phase-I simplex with Bland's rule on the rows a.x + c <= 0, x free.

    Columns: x+ and x- per variable, one slack per row, and one artificial
    per row with b = -c < 0 (that row is negated); the artificials cost 1.
    Returns the basic solution's x, or the Farkas combination: the slack
    columns' reduced costs y >= 0 give sum(y_i * row_i) with no variables
    left and the positive Phase-I optimum as its constant.
    """
    n, m = len(names), len(rows)
    negated = [i for i, r in enumerate(rows) if r.const > 0]
    width = 2 * n + m + len(negated)
    table: list[list[Fraction]] = []
    for i, r in enumerate(rows):
        sign = -1 if r.const > 0 else 1
        line = [Fraction(0)] * (width + 1)
        for j, v in enumerate(names):
            line[2 * j] = sign * r.coeffs.get(v, Fraction(0))
            line[2 * j + 1] = -line[2 * j]
        line[2 * n + i] = Fraction(sign)
        line[width] = -sign * r.const
        table.append(line)
    basis = list(range(2 * n, 2 * n + m))
    cost = [Fraction(0)] * (2 * n + m) + [Fraction(1)] * len(negated) + [Fraction(0)]
    for k, i in enumerate(negated):
        table[i][2 * n + m + k] = Fraction(1)
        basis[i] = 2 * n + m + k
        cost = [c - t for c, t in zip(cost, table[i])]
    # cost holds the reduced costs, then minus the sum of the artificials.
    while (enter := next((j for j in range(width) if cost[j] < 0), None)) is not None:
        # Phase I is bounded below by 0, so some entry of the column is positive.
        leave = min(
            (i for i in range(m) if table[i][enter] > 0),
            key=lambda i: (table[i][width] / table[i][enter], basis[i]),
        )
        pivot = table[leave][enter]
        table[leave] = [t / pivot for t in table[leave]]
        nonzero = [(j, t) for j, t in enumerate(table[leave]) if t]
        for line in table[:leave] + table[leave + 1:] + [cost]:
            f = line[enter]
            if f:
                for j, t in nonzero:
                    line[j] -= f * t
        basis[leave] = enter
    if cost[width] == 0:
        value = [Fraction(0)] * width
        for i, col in enumerate(basis):
            value[col] = table[i][width]
        return {v: value[2 * j] - value[2 * j + 1] for j, v in enumerate(names)}
    combined = _Row({}, Fraction(0), "<=")
    for i, r in enumerate(rows):
        if cost[2 * n + i]:
            combined = combined.plus(r.scaled(cost[2 * n + i]))
    assert not combined.coeffs and combined.const > 0, "Farkas multipliers do not refute"
    return combined


def feasible(program: DensityProgram) -> FeasibilityResult:
    """Exact feasibility: witness point or replayable refutation.

    Tries the barycentre first (it decides the plain simplex in one step),
    then eliminates equalities by Gaussian pivoting, substitutes them into
    the inequalities, and decides those by an exact Phase-I simplex whose
    Farkas multipliers refute an infeasible remainder.
    """
    n = len(program.variables)
    if n > 0:
        barycentre = {v: Fraction(1, n) for v in program.variables}
        if all(c.holds_at(barycentre) for c in program.constraints):
            return FeasibilityResult(feasible=True, witness=barycentre)

    rows = [_row_of(c, i) for i, c in enumerate(program.constraints)]
    steps: list[RefutationStep] = []

    # Constant rows need no elimination at all.
    for i, row in enumerate(rows):
        if not row.coeffs:
            bad = row.const > 0 if row.relation == "<=" else row.const != 0
            if bad:
                c = program.constraints[i]
                steps.append(
                    RefutationStep("evaluate", (c.label,), c.render())
                )
                return FeasibilityResult(
                    feasible=False, refutation=_refute(program, row, steps, c, {})
                )

    # Gaussian elimination on equality rows, kept fully reduced.
    pivots: dict[str, _Row] = {}
    pivot_order: list[str] = []
    for i, row in enumerate(rows):
        if row.relation != "==":
            continue
        for v in pivot_order:
            c = row.coeffs.get(v)
            if c:
                row = row.subtract_multiple(pivots[v], c)
        target = next((v for v in program.variables if row.coeffs.get(v)), None)
        if target is None:
            if row.const != 0:
                return _contradiction(program, row, steps)
            continue
        row = row.scaled(Fraction(1) / row.coeffs[target])
        for v in pivot_order:
            c = pivots[v].coeffs.get(target)
            if c:
                pivots[v] = pivots[v].subtract_multiple(row, c)
        pivots[target] = row
        pivot_order.append(target)
        steps.append(
            RefutationStep(
                "pivot",
                tuple(program.constraints[j].label for j in sorted(row.prov)),
                f"{target} solved: {_render_row(row)}",
            )
        )

    free_vars = [v for v in program.variables if v not in pivots]

    # Substitute the solved variables into every inequality.
    ineqs: list[_Row] = []
    for i, row in enumerate(rows):
        if row.relation != "<=":
            continue
        reduced = row
        for v in pivot_order:
            c = reduced.coeffs.get(v)
            if c:
                reduced = reduced.subtract_multiple(pivots[v], c)
        if not reduced.coeffs and reduced.const > 0:
            source = program.constraints[i]
            point: dict[str, Fraction] = {}
            for v in pivot_order:
                if not any(u in free_vars for u in pivots[v].coeffs if u != v):
                    point[v] = -pivots[v].const
            steps.append(
                RefutationStep(
                    "substitute",
                    (source.label,),
                    f"substituted equality solution into: {source.render()}",
                )
            )
            return FeasibilityResult(
                feasible=False, refutation=_refute(program, reduced, steps, source, point)
            )
        if reduced.coeffs or reduced.const > 0:
            ineqs.append(reduced)

    found = _phase_one(ineqs, free_vars)
    if isinstance(found, _Row):
        return _contradiction(program, found, steps)
    witness = found
    for v in reversed(pivot_order):
        row = pivots[v]
        witness[v] = -row.const - sum(row.coeffs[u] * witness[u] for u in row.coeffs if u != v)
    witness = {v: witness[v] for v in program.variables}
    for c in program.constraints:
        if not c.holds_at(witness):
            raise AssertionError(f"witness fails {c.label!r}; elimination is buggy")
    return FeasibilityResult(feasible=True, witness=witness)
