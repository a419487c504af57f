from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleycolour.groups import ball, free_group
from cayleycolour.measures import (
    Constraint,
    DensityProgram,
    TransportCertificate,
    UnverifiedCertificateError,
    VariableBudgetError,
    certify_transport,
    eq,
    feasible,
    le,
    render_refutation,
    replay_refutation,
    simplex_program,
    translate,
)
from cayleycolour.rules import Colouring

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
    result = feasible(simplex_program(("A1", "A2", "A3")))
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


def test_refutation_rendering():
    program = example1_style_program()
    text = render_refutation(feasible(program).refutation)
    assert "2/3 <= 1/3" in text
    assert "infeasible" in text


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


def test_variable_budget():
    names = tuple(f"c{i}" for i in range(33))
    with pytest.raises(VariableBudgetError):
        feasible(simplex_program(names))


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
    text = program.to_json()
    assert '"1"' in text or '"1/1"' in text
    assert "constraints" in text


def test_certify_transport_on_ball():
    b = ball(F2, 4)
    # Colour by word length parity; left a-step flips parity, so parity-0
    # maps into parity-1 under a.
    codes = np.array([w.length % 2 for w in b.words], dtype=np.int16)
    col = Colouring(b, ("even", "odd"), codes)
    cert = certify_transport(col, F2.word("a"), ("even",), ("odd",), kind="maps-into")
    assert cert.verified
    assert cert.checks_total > 0
    bad = certify_transport(col, F2.word("a"), ("even",), ("even",), kind="maps-into")
    assert not bad.verified


def test_certify_bijection_counts_both_directions():
    b = ball(F2, 4)
    codes = np.array([w.length % 2 for w in b.words], dtype=np.int16)
    col = Colouring(b, ("even", "odd"), codes)
    one_way = certify_transport(col, F2.word("a"), ("even",), ("odd",), kind="maps-into")
    both = certify_transport(col, F2.word("a"), ("even",), ("odd",), kind="bijection")
    assert both.checks_total > one_way.checks_total
    assert both.verified


def test_flow_requires_constraint():
    with pytest.raises(ValueError):
        TransportCertificate("flow", "x", (), (), 1, 1)


def test_constraint_relation_validation():
    with pytest.raises(ValueError):
        Constraint((), Fraction(0), "<", (), Fraction(0), "bad")


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
        constraints += simplex_program(names).constraints
    program = DensityProgram(names, tuple(constraints))
    result = feasible(program)
    if result.feasible:
        assert set(result.witness) == set(names)
        assert all(c.holds_at(result.witness) for c in program.constraints)
    else:
        assert replay_refutation(program, result.refutation)
