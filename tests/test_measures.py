import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleycolour.groups import ball, free_group, z2_z3
from cayleycolour.measures import (
    Constraint,
    DensityProgram,
    FeasibilityResult,
    RefutationStep,
    TransportCertificate,
    UnverifiedCertificateError,
    certify_transport,
    eq,
    feasible,
    le,
    replay_refutation,
    simplex_constraints,
    translate,
)
from cayleycolour.measures import _render_row, _refute, _row_of, _Row
from cayleycolour.rules import Colouring

from helpers import word_lengths

F2 = free_group(2)


def example1_style_program() -> DensityProgram:
    # Equal class masses, yet the union of two classes fits inside the third.
    certs = [
        TransportCertificate("bijection", "t", ("A1",), ("A2",), 10, 10),
        TransportCertificate("bijection", "t", ("A2",), ("A3",), 10, 10),
        TransportCertificate("maps-into", "s1", ("A2", "A3"), ("A1",), 10, 10),
    ]
    return translate(certs, ("A1", "A2", "A3"))


def test_simplex_only_feasible_barycentre():
    names = ("A1", "A2", "A3")
    result = feasible(DensityProgram(names, tuple(simplex_constraints(names))))
    assert result.feasible
    assert result.witness == {c: Fraction(1, 3) for c in ("A1", "A2", "A3")}


def test_infeasible_with_exact_display():
    result = feasible(example1_style_program())
    assert not result.feasible
    ref = result.refutation
    assert ref.display == "2/3 <= 1/3"
    assert ref.gap == Fraction(1, 3)


def test_refutation_replays():
    program = example1_style_program()
    result = feasible(program)
    assert replay_refutation(program, result.refutation)


def test_constant_false_flow():
    flow = TransportCertificate(
        "flow",
        "arrow mass",
        (),
        (),
        10,
        10,
        constraint=le([], [], "out mass 1 fits in capacity 15/16", lhs_const=1, rhs_const="15/16"),
    )
    program = translate([flow], ("active1", "active2"))
    result = feasible(program)
    assert not result.feasible
    assert result.refutation.display == "1 <= 15/16"
    assert result.refutation.gap == Fraction(1, 16)
    assert replay_refutation(program, result.refutation)


def test_unverified_certificate_rejected():
    cert = TransportCertificate("maps-into", "t", ("A1",), ("A2",), 9, 10)
    with pytest.raises(UnverifiedCertificateError):
        translate([cert], ("A1", "A2"))


def test_undeclared_class_rejected():
    cert = TransportCertificate("maps-into", "t", ("A1",), ("ZZ",), 10, 10)
    with pytest.raises(ValueError):
        translate([cert], ("A1", "A2"))


def chain_program(closing: Constraint) -> DensityProgram:
    # Forty densities of mass 1 with c0 <= c1 <= ... <= c39, then one closing row.
    names = tuple(f"c{i}" for i in range(40))
    chain = tuple(le([(1, u)], [(1, v)], f"{u} fits in {v}") for u, v in zip(names, names[1:]))
    return DensityProgram(names, tuple(simplex_constraints(names)) + chain + (closing,))


def test_forty_variables_decided_both_ways():
    wide = chain_program(le([(1, "c0"), (1, "c1")], [(1, "c39")], "c0 + c1 fits in c39"))
    result = feasible(wide)
    assert result.feasible
    assert all(c.holds_at(result.witness) for c in wide.constraints)

    # c39 <= c0 / 2 forces every density to 0 against the total mass of 1.
    tight = chain_program(le([(1, "c39")], [("1/2", "c0")], "c39 at most half of c0"))
    result = feasible(tight)
    assert not result.feasible
    assert result.refutation.steps[-2].operation == "combine"
    assert replay_refutation(tight, result.refutation)


@pytest.mark.parametrize("extra, expect", [((), True), ((le([], [(1, "b")], "b at least 1/4", lhs_const="1/4"),), False)])
def test_degenerate_program_terminates(extra, expect):
    # Repeated rows: the first entering column ties five rows in the ratio test.
    rows = [le([(1, "a"), (1, "b")], [], f"mass {k}", rhs_const=1) for k in range(3)]
    rows += [le([], [(1, v)], f"{v} nonneg {k}") for v in ("a", "b") for k in range(2)]
    rows += [le([], [(1, "a")], f"a at least 1 {k}", lhs_const=1) for k in range(2)]
    program = DensityProgram(("a", "b"), tuple(rows) + extra * 2)
    result = feasible(program)
    assert result.feasible == expect == feasible_reference(program).feasible
    if expect:
        assert result.witness == {"a": 1, "b": 0}
    else:
        assert replay_refutation(program, result.refutation)


def test_witness_satisfies_all_constraints():
    # A feasible program whose barycentre fails, forcing the elimination path.
    constraints = (
        eq([(1, "a"), (1, "b")], [], "mass", rhs_const=1),
        le([], [(1, "a")], "a nonneg"),
        le([], [(1, "b")], "b nonneg"),
        le([(1, "b")], [], "b small", rhs_const="1/4"),
    )
    program = DensityProgram(("a", "b"), constraints)
    result = feasible(program)
    assert result.feasible
    w = result.witness
    assert w["a"] + w["b"] == 1
    assert 0 <= w["b"] <= Fraction(1, 4)
    for c in constraints:
        assert c.holds_at(w)


def test_projection_contradiction_replays():
    # Infeasible purely through inequalities: a >= 3/4 and a <= 1/4.
    constraints = (
        le([], [(1, "a")], "a nonneg"),
        le([("3/4", "ONE")], [(1, "a")], "a at least 3/4"),
        le([(1, "a")], [("1/4", "ONE")], "a at most 1/4"),
        eq([(1, "ONE")], [], "unit", rhs_const=1),
    )
    program = DensityProgram(("a", "ONE"), constraints)
    result = feasible(program)
    assert not result.feasible
    assert result.refutation.gap > 0
    assert replay_refutation(program, result.refutation)


def test_equality_contradiction():
    constraints = (
        eq([(1, "a")], [], "a is half", rhs_const="1/2"),
        eq([(1, "a")], [], "a is third", rhs_const="1/3"),
    )
    program = DensityProgram(("a",), constraints)
    result = feasible(program)
    assert not result.feasible
    assert replay_refutation(program, result.refutation)


def test_program_json_uses_rational_strings():
    program = example1_style_program()
    text = json.dumps(program.to_record(), sort_keys=True)
    assert '"1"' in text or '"1/1"' in text
    assert "constraints" in text


def test_certify_transport_on_ball():
    b = ball(F2, 4)
    # Colour by word length parity; left a-step flips parity, so parity-0
    # maps into parity-1 under a.
    codes = np.array([w.length % 2 for w in b.words], dtype=np.int16)
    col = Colouring(b, ("even", "odd"), codes)
    [cert] = certify_transport(col, F2.word("a"), [(("even",), ("odd",))], kind="maps-into")
    assert cert.verified
    assert cert.checks_total > 0
    [bad] = certify_transport(col, F2.word("a"), [(("even",), ("even",))], kind="maps-into")
    assert not bad.verified


def test_certify_bijection_counts_both_directions():
    b = ball(F2, 4)
    codes = np.array([w.length % 2 for w in b.words], dtype=np.int16)
    col = Colouring(b, ("even", "odd"), codes)
    [one_way] = certify_transport(col, F2.word("a"), [(("even",), ("odd",))], kind="maps-into")
    [both] = certify_transport(col, F2.word("a"), [(("even",), ("odd",))], kind="bijection")
    assert both.checks_total > one_way.checks_total
    assert both.verified


def certify_reference(colouring, g, source, target, kind):
    """(passed, total, first_failure) one interior vertex at a time, by
    colour name: the loop the code masks replaced."""
    ball = colouring.ball
    failure = [None]

    def count(word, src, tgt):
        table = ball.left_table(word)
        p = t = 0
        for i in np.flatnonzero(word_lengths(ball) <= ball.radius - word.length):
            if colouring.colour_at(int(i)) in src:
                t += 1
                if colouring.colour_at(int(table[i])) in tgt:
                    p += 1
                elif failure[0] is None:
                    failure[0] = int(i)
        return p, t

    passed, total = count(g, source, target)
    if kind == "bijection":
        p2, t2 = count(g.inverse(), target, source)
        passed, total = passed + p2, total + t2
    return passed, total, failure[0]


CERT_BALLS = {(name, r): ball(p, r) for name, p in (("f2", F2), ("z2z3", z2_z3())) for r in range(2, 6)}


def test_certificate_masks_match_reference_loop():
    """Random colourings with uncoloured vertices, names outside the palette,
    words of length 1-3 and both kinds; some draws must fail."""
    outcomes = []

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def compare(data):
        b = data.draw(st.sampled_from(sorted(CERT_BALLS)).map(CERT_BALLS.get))
        palette = ("A", "B", "C", "D")[: data.draw(st.integers(2, 4))]
        seed = data.draw(st.integers(0, 2**32 - 1))
        codes = np.random.default_rng(seed).integers(-1, len(palette), size=len(b))
        colouring = Colouring(b, palette, codes)
        lengths = word_lengths(b)
        g = b.words[data.draw(st.sampled_from(np.flatnonzero((lengths >= 1) & (lengths <= 3)).tolist()))]
        names = st.sampled_from(palette + ("Z",))
        classes = data.draw(st.lists(st.tuples(*[st.lists(names, min_size=1, max_size=3).map(tuple)] * 2),
                                     min_size=1, max_size=3))
        kind = data.draw(st.sampled_from(["maps-into", "bijection"]))
        certs = certify_transport(colouring, g, classes, kind=kind)
        assert len(certs) == len(classes)
        for cert, (source, target) in zip(certs, classes):
            assert (cert.source, cert.target, cert.kind, cert.element) == (source, target, kind, str(g))
            assert (cert.checks_passed, cert.checks_total, cert.first_failure) == certify_reference(
                colouring, g, source, target, kind
            )
            outcomes.append(cert.checks_passed < cert.checks_total)

    compare()
    assert any(outcomes) and not all(outcomes)


def test_flow_requires_constraint():
    with pytest.raises(ValueError):
        TransportCertificate("flow", "x", (), (), 1, 1)


def test_constraint_relation_validation():
    with pytest.raises(ValueError):
        Constraint((), Fraction(0), "<", (), Fraction(0), "bad")


def feasible_reference(program: DensityProgram) -> FeasibilityResult:
    """The Fourier-Motzkin eliminator that `feasible` used before its
    Phase-I simplex: Gaussian pivoting, then pairwise projection of the
    remaining variables (exponential; small programs only).
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
                steps.append(
                    RefutationStep(
                        "combine",
                        tuple(program.constraints[j].label for j in sorted(row.prov)),
                        _render_row(row),
                    )
                )
                return FeasibilityResult(
                    feasible=False, refutation=_refute(program, row, steps, None, None)
                )
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

    # Pairwise projection of the remaining variables, recording bounds for
    # the witness walk-back.
    bounds_stack: list[tuple[str, list[_Row], list[_Row]]] = []
    for v in free_vars:
        pos = [r for r in ineqs if r.coeffs.get(v, 0) > 0]
        neg = [r for r in ineqs if r.coeffs.get(v, 0) < 0]
        rest = [r for r in ineqs if not r.coeffs.get(v)]
        new_rows: list[_Row] = []
        for p in pos:
            for q in neg:
                combined = p.scaled(Fraction(1) / p.coeffs[v]).plus(
                    q.scaled(Fraction(1) / -q.coeffs[v])
                )
                if not combined.coeffs:
                    if combined.const > 0:
                        steps.append(
                            RefutationStep(
                                "combine",
                                tuple(program.constraints[j].label for j in sorted(combined.prov)),
                                _render_row(combined),
                            )
                        )
                        return FeasibilityResult(
                            feasible=False,
                            refutation=_refute(program, combined, steps, None, None),
                        )
                    continue
                new_rows.append(combined)
        bounds_stack.append((v, pos, neg))
        ineqs = rest + new_rows

    # Feasible: constant leftovers were checked as they appeared.
    witness: dict[str, Fraction] = {}
    for v, pos, neg in reversed(bounds_stack):
        uppers = []
        for r in pos:
            c = r.coeffs[v]
            value = -r.const - sum(r.coeffs[u] * witness[u] for u in r.coeffs if u != v)
            uppers.append(value / c)
        lowers = []
        for r in neg:
            c = r.coeffs[v]
            value = -r.const - sum(r.coeffs[u] * witness[u] for u in r.coeffs if u != v)
            lowers.append(value / c)
        if uppers and lowers:
            witness[v] = (max(lowers) + min(uppers)) / 2
        elif uppers:
            witness[v] = min(uppers)
        elif lowers:
            witness[v] = max(lowers)
        else:
            witness[v] = Fraction(0)
    for v in reversed(pivot_order):
        row = pivots[v]
        witness[v] = -row.const - sum(row.coeffs[u] * witness[u] for u in row.coeffs if u != v)
    witness = {v: witness[v] for v in program.variables}
    for c in program.constraints:
        if not c.holds_at(witness):
            raise AssertionError(f"witness fails {c.label!r}; elimination is buggy")
    return FeasibilityResult(feasible=True, witness=witness)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n_vars=st.integers(1, 4), with_simplex=st.booleans())
def test_feasible_gives_witness_or_replayable_refutation(data, n_vars, with_simplex):
    names = tuple(f"x{i}" for i in range(n_vars))
    side = st.lists(st.tuples(st.integers(-3, 3).filter(bool), st.sampled_from(names)), max_size=3)
    const = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    rows = data.draw(
        st.lists(st.tuples(st.sampled_from([le, eq]), side, side, const, const), min_size=1, max_size=6)
    )
    constraints = [
        relation(lhs, rhs, f"c{k}", lhs_const=lc, rhs_const=rc)
        for k, (relation, lhs, rhs, lc, rc) in enumerate(rows)
    ]
    if with_simplex:
        constraints += simplex_constraints(names)
    program = DensityProgram(names, tuple(constraints))
    result = feasible(program)
    assert result.feasible == feasible_reference(program).feasible
    if result.feasible:
        assert set(result.witness) == set(names)
        assert all(c.holds_at(result.witness) for c in program.constraints)
    else:
        assert replay_refutation(program, result.refutation)
