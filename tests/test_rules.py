import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleycolour.configs import Configuration
from cayleycolour.groups import ball, free_group, z2_z3
from cayleycolour.rules import (
    RANK_ONE,
    RANK_TWO_OR_HIGHER,
    Colouring,
    ColouringRule,
    EmptyAllowedSetError,
    check,
    classify_rank,
    iterate,
    rule_from_json,
    rule_to_json,
)

from helpers import word_lengths

F2 = free_group(2)


def differ_rule() -> ColouringRule:
    # Colour must differ from the colour one a-step up; rank one.
    return ColouringRule(
        name="differ-from-a",
        colours=("X", "Y"),
        descendants=(F2.word("a"),),
        allowed_fn=lambda _w, d: frozenset({"Y"} if d[0] == "X" else {"X"}),
    )


def blocked_rule() -> ColouringRule:
    # Empty allowed set when both descendants show X; not rank one.
    def allowed(_w, d):
        if d == ("X", "X"):
            return frozenset()
        return frozenset({"X"})

    return ColouringRule(
        name="blocked",
        colours=("X", "Y"),
        descendants=(F2.word("a"), F2.word("b")),
        allowed_fn=allowed,
    )


def parity_colouring(b) -> Colouring:
    codes = np.array([w.length % 2 for w in b.words], dtype=np.int16)
    return Colouring(b, ("X", "Y"), codes)


def test_classify_rank():
    assert classify_rank(differ_rule()) == RANK_ONE
    assert classify_rank(blocked_rule()) == RANK_TWO_OR_HIGHER


def test_check_satisfying():
    b = ball(F2, 4)
    report = check(differ_rule(), parity_colouring(b))
    assert report.satisfied
    assert report.interior_size == sum(b.sphere_sizes[:4])
    assert report.fraction == 0.0


def test_check_constant_colouring_fails_everywhere():
    b = ball(F2, 3)
    col = Colouring.uniform(b, ("X", "Y"), "X")
    report = check(differ_rule(), col)
    assert report.fraction == 1.0


def test_check_uncoloured_interior_raises():
    b = ball(F2, 2)
    col = Colouring(b, ("X", "Y"))
    with pytest.raises(ValueError):
        check(differ_rule(), col)


def test_colouring_configuration_must_share_the_ball():
    b, other = ball(F2, 2), ball(F2, 2)
    with pytest.raises(ValueError, match="different ball"):
        Colouring(b, ("X", "Y"), configuration=Configuration(other, np.ones(len(other))))
    assert Colouring(b, ("X", "Y"), configuration=Configuration(b, np.ones(len(b)))).configuration.ball is b


def test_check_empty_interior():
    b = ball(F2, 0)
    col = Colouring.uniform(b, ("X", "Y"), "X")
    report = check(differ_rule(), col)
    assert report.interior_size == 0
    assert report.fraction is None
    assert not report.satisfied


def test_check_monotone_in_radius():
    # A vertex interior at the smaller radius keeps its verdict at larger.
    rule = differ_rule()

    def fixed_colouring(b):
        codes = np.array(
            [sum(1 for g, _ in w.letters if g == 0) % 2 for w in b.words], dtype=np.int16
        )
        return Colouring(b, ("X", "Y"), codes)

    small = ball(F2, 3)
    large = ball(F2, 5)
    rep_small = check(rule, fixed_colouring(small))
    rep_large = check(rule, fixed_colouring(large))
    bad_small = {small.words[v].to_string() for v, _, _ in rep_small.violations}
    bad_large = {large.words[v].to_string() for v, _, _ in rep_large.violations}
    inner = {w.to_string() for w in small.words if w.length <= small.radius - 1}
    assert bad_small == bad_large & inner


def test_iterate_fixed_point():
    b = ball(F2, 4)
    col = parity_colouring(b)
    out, converged, rounds = iterate(differ_rule(), col, max_rounds=5)
    assert converged and rounds == 1
    assert np.array_equal(out.codes, col.codes)


def test_iterate_reaches_satisfaction_here():
    b = ball(F2, 4)
    col = Colouring.uniform(b, ("X", "Y"), "X")
    out, converged, _rounds = iterate(differ_rule(), col, max_rounds=50)
    if converged:
        assert check(differ_rule(), out).satisfied


def test_iterate_empty_allowed_raises():
    b = ball(F2, 3)
    col = Colouring.uniform(b, ("X", "Y"), "X")
    with pytest.raises(EmptyAllowedSetError):
        iterate(blocked_rule(), col, max_rounds=3)


def test_rule_validation():
    with pytest.raises(ValueError):
        ColouringRule(
            name="dup",
            colours=("X", "X"),
            descendants=(F2.word("a"),),
            allowed_fn=lambda w, d: frozenset({"X"}),
        )
    with pytest.raises(ValueError):
        ColouringRule(
            name="shallow",
            colours=("X", "Y"),
            descendants=(F2.word("ab"),),
            allowed_fn=lambda w, d: frozenset({"X"}),
            dependency_radius=1,
        )


def test_rule_compiles_once_and_refuses_oversize_tables():
    calls = []

    def counted(w, d):
        calls.append((w, d))
        return frozenset({"Y"} if d[0] == "X" else {"X"})

    rule = ColouringRule(
        name="counted", colours=("X", "Y"), descendants=(F2.word("a"),), allowed_fn=counted
    )
    assert sorted(calls) == [((), ("X",)), ((), ("Y",))]
    b = ball(F2, 3)
    iterate(rule, Colouring.uniform(b, rule.colours, "X"), max_rounds=3)
    check(rule, parity_colouring(b))
    classify_rank(rule)
    rule_to_json(rule)
    assert rule.allowed_set(0) == {"Y"}
    assert len(calls) == 2  # every reader used the compiled table

    def never(w, d):
        raise AssertionError("an oversize rule must be refused before it is enumerated")

    with pytest.raises(ValueError, match="cap"):
        ColouringRule(
            name="huge", colours=("W", "X", "Y", "Z"), descendants=(F2.word("a"),) * 10, allowed_fn=never
        )
    with pytest.raises(ValueError, match="unknown colours"):
        ColouringRule(
            name="stray", colours=("X", "Y"), descendants=(F2.word("a"),),
            allowed_fn=lambda w, d: frozenset({"Q"}),
        )


def test_rule_json_round_trip():
    rule = differ_rule()
    text = rule_to_json(rule)
    back = rule_from_json(text, F2)
    assert back.colours == rule.colours
    assert back.descendants == rule.descendants
    assert np.array_equal(back.table, rule.table)
    assert classify_rank(back) == RANK_ONE


# ---------------------------------------------------------------------------
# The compiled table against a per-vertex reference that calls allowed_fn.


def reference_inputs(rule, colouring, i):
    """Window values and descendant colours at vertex i, read one by one."""
    ball_ = colouring.ball
    window_values = []
    for w in rule.window:
        j = int(ball_.left_table(w)[i])
        assert j >= 0, "an interior read left the ball"
        window_values.append(int(colouring.configuration.values[j]))
    desc_colours = []
    for d in rule.descendants:
        j = int(ball_.left_table(d)[i])
        assert j >= 0, "an interior read left the ball"
        colour = colouring.colour_at(j)
        if colour is None:
            raise ValueError(f"descendant at vertex {j} is uncoloured")
        desc_colours.append(colour)
    return tuple(window_values), tuple(desc_colours)


def reference_check(rule, colouring):
    b = colouring.ball
    interior = np.flatnonzero(word_lengths(b) <= b.radius - rule.dependency_radius)
    if rule.window and colouring.configuration is None:
        raise ValueError(f"rule {rule.name!r} reads a window but no configuration is attached")
    bad = []
    for i in interior.tolist():
        assigned = colouring.colour_at(i)
        if assigned is None:
            raise ValueError(f"interior vertex {i} is uncoloured")
        allowed = rule.allowed_fn(*reference_inputs(rule, colouring, i))
        if assigned not in allowed:
            bad.append((i, assigned, allowed))
    return len(interior), tuple(bad)


def reference_iterate(rule, initial, max_rounds):
    colouring = initial.copy()
    b = colouring.ball
    order = np.flatnonzero(word_lengths(b) <= b.radius - rule.dependency_radius).tolist()
    if rule.window and colouring.configuration is None:
        raise ValueError(f"rule {rule.name!r} reads a window but no configuration is attached")
    for round_no in range(1, max_rounds + 1):
        changed = False
        for i in order:
            allowed = rule.allowed_fn(*reference_inputs(rule, colouring, i))
            if not allowed:
                raise EmptyAllowedSetError(f"empty allowed set at vertex {i}")
            if colouring.colour_at(i) in allowed:
                continue
            colouring.codes[i] = next(k for k, c in enumerate(rule.colours) if c in allowed)
            changed = True
        if not changed:
            return colouring.codes.tobytes(), True, round_no
    return colouring.codes.tobytes(), False, max_rounds


def outcome(fn, *args):
    try:
        return "result", fn(*args)
    except ValueError as err:
        return type(err).__name__, str(err)


SPACES = {"F2": free_group(2), "Z2*Z3": z2_z3()}


def all_inputs(window, colours, descendants):
    return list(
        itertools.product(
            itertools.product((-1, 1), repeat=len(window)),
            itertools.product(colours, repeat=len(descendants)),
        )
    )


@st.composite
def random_rules(draw):
    p = SPACES[draw(st.sampled_from(sorted(SPACES)))]
    near = list(ball(p, 2).words)
    colours = tuple(f"c{i}" for i in range(draw(st.integers(2, 4))))
    window = tuple(draw(st.lists(st.sampled_from(near), max_size=2)))
    descendants = tuple(draw(st.lists(st.sampled_from(near), min_size=1, max_size=3)))
    inputs = all_inputs(window, colours, descendants)
    masks = draw(st.lists(st.integers(0, 2 ** len(colours) - 1), min_size=len(inputs), max_size=len(inputs)))
    sets = {
        key: frozenset(c for bit, c in enumerate(colours) if mask >> bit & 1)
        for key, mask in zip(inputs, masks)
    }
    rule = ColouringRule(
        name="random",
        colours=colours,
        descendants=descendants,
        allowed_fn=lambda w, d: sets[(w, d)],
        window=window,
        dependency_radius=max([1] + [w.length for w in window + descendants]),
        stationary=not window,
    )
    return p, rule


@settings(max_examples=200, deadline=None)
@given(
    drawn=random_rules(),
    radius=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    uncoloured=st.sampled_from([0.0, 0.01, 0.3]),
    attach=st.sampled_from([True, True, True, False]),
)
def test_compiled_rule_matches_reference(drawn, radius, seed, uncoloured, attach):
    p, rule = drawn
    b = ball(p, radius)
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, len(rule.colours), size=len(b)).astype(np.int16)
    codes[rng.random(len(b)) < uncoloured] = -1
    config = None
    if attach:
        config = Configuration(b, rng.choice(np.array([-1, 1], dtype=np.int8), size=len(b)))
    colouring = Colouring(b, rule.colours, codes, config)

    compiled = outcome(check, rule, colouring)
    if compiled[0] == "result":
        compiled = ("result", (compiled[1].interior_size, compiled[1].violations))
    assert compiled == outcome(reference_check, rule, colouring)

    compiled = outcome(iterate, rule, colouring, 4)
    if compiled[0] == "result":
        out, converged, rounds = compiled[1]
        compiled = ("result", (out.codes.tobytes(), converged, rounds))
    assert compiled == outcome(reference_iterate, rule, colouring, 4)

    inputs = all_inputs(rule.window, rule.colours, rule.descendants)
    rank_one = all(rule.allowed_fn(*key) for key in inputs)
    assert classify_rank(rule) == (RANK_ONE if rank_one else RANK_TWO_OR_HIGHER)
    back = rule_from_json(rule_to_json(rule), p)
    assert np.array_equal(back.table, rule.table)


@settings(max_examples=200, deadline=None)
@given(drawn=random_rules(), radius=st.integers(0, 5))
def test_interior_reads_stay_in_the_ball(drawn, radius):
    # |w v| <= |w| + |v| <= dependency_radius + (radius - dependency_radius):
    # no window or descendant read from a judged vertex leaves the ball, so
    # check and iterate have no out-of-ball branch.
    p, rule = drawn
    b = ball(p, radius)
    n = b.interior_size(rule.dependency_radius)
    for w in rule.window + rule.descendants:
        assert np.all(b.left_table(w)[:n] >= 0)
