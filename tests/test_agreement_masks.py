"""Agreement and common knowledge checked against frozenset references.

`reference_agreement_check` and `reference_common_knowledge` are the checks
as first written: posteriors and the profile event from `posterior` at every
ground state, and the meet class of the evaluation state compared with a
state set.  The engine works on the frame's mask view instead; these tests
hold it to the same reports on random frames and on frames built from
agents, and pin its ground checks.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oee import multiagent
from oee.epistemics import agent_state, partition_from_classes
from oee.formula import Atom, Know, atoms, enumerate_sentences, evaluate, is_propositional, \
    parse
from oee.multiagent import (
    AgreementReport,
    FailsAt,
    GroundMismatch,
    Holds,
    Infeasible,
    SharedFrame,
    agreement_check,
    build_shared_frame,
    common_knowledge,
    frame_from_partitions,
    full_cube,
    meet,
    posterior,
    validate_s5,
)
from oee.universe import State, Theory, clause, empty_theory

# --- references --------------------------------------------------------------


def reference_agreement_check(frame, event, at):
    event = frozenset(event)
    if at not in frame.ground or not event <= frame.ground:
        raise GroundMismatch("event and state must lie in the frame ground")
    posteriors = {i: posterior(frame.partition_of(i), event, at) for i in frame.agents}
    profile_event = frozenset(
        w
        for w in frame.ground
        if all(
            posterior(frame.partition_of(i), event, w) == posteriors[i]
            for i in frame.agents
        )
    )
    the_meet = meet(frame.projected_partitions.values())
    ck = the_meet.class_of(at) <= profile_event
    return AgreementReport(posteriors, ck, len(set(posteriors.values())) == 1)


def reference_event(frame, f):
    if not is_propositional(f):
        raise ValueError("event formulas must be propositional")
    return frozenset(s for s in frame.ground if evaluate(f, s.value))


def reference_common_knowledge(frame, f, at):
    if at not in frame.ground:
        raise GroundMismatch("evaluation state must lie in the frame ground")
    missing = atoms(f) - frame.shared_predicates
    if missing:
        return Infeasible(frozenset(missing))
    event = reference_event(frame, f)
    cls = meet(frame.projected_partitions.values()).class_of(at)
    return Holds() if cls <= event else FailsAt(cls - event)


# --- strategies --------------------------------------------------------------


@st.composite
def random_frames(draw):
    """1-8 states of the cube over 1-3 random atoms, 1-3 agents, each with a
    random partition of the ground."""
    domain = frozenset(draw(st.lists(st.integers(0, 15), min_size=1, max_size=3, unique=True)))
    cube = sorted(full_cube(domain), key=State.sort_key)
    ground = frozenset(draw(st.lists(st.sampled_from(cube), min_size=1, max_size=8, unique=True)))
    agents = draw(st.lists(st.integers(1, 63), min_size=1, max_size=3, unique=True))
    partitions = {}
    for i in agents:
        labels = {}
        for w in sorted(ground, key=State.sort_key):
            labels.setdefault(draw(st.integers(0, len(ground) - 1)), set()).add(w)
        partitions[i] = partition_from_classes(ground, labels.values())
    return frame_from_partitions(domain, ground, partitions)


@st.composite
def agent_frames(draw):
    """`build_shared_frame` over 1-3 agents whose languages share a core of
    0-3 predicates, with random consistent theories and observations.  Agent
    1 speaks the core alone, so the ground has at most 8 states; the others
    may add predicates of their own."""
    core = list(range(draw(st.integers(0, 3))))
    agents = []
    for i in range(1, draw(st.integers(1, 3)) + 1):
        extra = st.lists(st.integers(4, 6), unique=True, max_size=0 if i == 1 else 2)
        preds = core + draw(extra)
        if not preds:
            preds = [7]
        literal = st.tuples(st.sampled_from(preds), st.booleans())
        clauses = [clause(*dict(lits).items()) for lits in draw(
            st.lists(st.lists(literal, min_size=1, max_size=2), max_size=3))]
        t = Theory(frozenset(preds), tuple(dict.fromkeys(clauses)))
        if not t.models():
            t = empty_theory(preds)
        actual = draw(st.sampled_from(t.models()))
        observed = draw(st.lists(st.sampled_from(preds), unique=True))
        agents.append(agent_state(i, t, [(p, actual.value(p)) for p in observed]))
    return build_shared_frame(agents)


def every_event(frame):
    ground = sorted(frame.ground, key=State.sort_key)
    for k in range(len(ground) + 1):
        yield from map(frozenset, combinations(ground, k))


def event_formulas(frame):
    """Every depth-1 sentence over at most two shared predicates, one with an
    atom outside the shared language and one that is not propositional."""
    shared = frozenset(sorted(frame.shared_predicates)[:2])
    formulas = list(enumerate_sentences(shared, 1)) if shared else []
    outside = max(frame.shared_predicates, default=0) + 1
    return formulas + [Atom(outside), Know(1, Atom(outside))]


# --- differential ------------------------------------------------------------


def assert_agreement_matches(frame):
    for event in every_event(frame):
        for at in frame.ground:
            assert agreement_check(frame, event, at) == \
                reference_agreement_check(frame, event, at), (event, at)


def assert_common_knowledge_matches(frame):
    view = frame.masks()
    for f in event_formulas(frame):
        if atoms(f) <= frame.shared_predicates:
            assert view.states_of(view.formula_mask(f)) == reference_event(frame, f)
        for at in frame.ground:
            assert common_knowledge(frame, f, at) == \
                reference_common_knowledge(frame, f, at), (f, at)


@settings(max_examples=40, deadline=None)
@given(random_frames())
def test_agreement_matches_reference_on_random_frames(frame):
    assert_agreement_matches(frame)


@settings(max_examples=40, deadline=None)
@given(random_frames())
def test_common_knowledge_matches_reference_on_random_frames(frame):
    assert_common_knowledge_matches(frame)


@settings(max_examples=30, deadline=None)
@given(agent_frames())
def test_agreement_and_common_knowledge_match_reference_on_built_frames(frame):
    assert_agreement_matches(frame)
    assert_common_knowledge_matches(frame)


def test_non_propositional_event_is_rejected():
    frame = frame_from_partitions({0}, full_cube({0}), {
        1: partition_from_classes(full_cube({0}), [full_cube({0})])})
    at = min(frame.ground, key=State.sort_key)
    with pytest.raises(ValueError, match="propositional"):
        common_knowledge(frame, Know(1, Atom(0)), at)
    with pytest.raises(ValueError, match="propositional"):
        frame.masks().formula_mask(Know(1, Atom(0)))


def test_formula_mask_names_an_atom_outside_the_ground_domain():
    """A true-mask reads a predicate it does not assign as false, so the view
    raises KeyError naming the least such atom, as `State.value` does."""
    view = two_agent_frame().masks()
    with pytest.raises(KeyError) as info:
        view.formula_mask(parse("p0 & (p7 | p5)"))
    assert info.value.args == (5,)
    # a predicate that only some ground states assign
    ground = [State(frozenset({0, 1}), frozenset({1})), State(frozenset({0}), frozenset())]
    frame = frame_from_partitions({0}, ground, {1: partition_from_classes(ground, [ground])})
    with pytest.raises(KeyError) as info:
        frame.masks().formula_mask(Atom(1))
    assert info.value.args == (1,)
    assert frame.masks().formula_mask(Atom(0)) == 0


# --- ground checks -----------------------------------------------------------


def two_agent_frame():
    ground = full_cube({0, 1})
    states = sorted(ground, key=State.sort_key)
    p1 = partition_from_classes(ground, [states[:2], states[2:]])
    p2 = partition_from_classes(ground, [states[::2], states[1::2]])
    return frame_from_partitions({0, 1}, ground, {1: p1, 2: p2})


def test_state_or_event_outside_the_ground_raises():
    frame = two_agent_frame()
    inside = min(frame.ground, key=State.sort_key)
    outside = State(frozenset({0, 1, 2}), frozenset({2}))
    with pytest.raises(GroundMismatch):
        agreement_check(frame, {inside}, outside)
    with pytest.raises(GroundMismatch):
        agreement_check(frame, {inside, outside}, inside)
    with pytest.raises(GroundMismatch):
        common_knowledge(frame, Atom(0), outside)


def test_partition_ground_differing_from_the_frame_raises():
    frame = two_agent_frame()
    smaller = frozenset(sorted(frame.ground, key=State.sort_key)[:3])
    part = partition_from_classes(smaller, [smaller])
    with pytest.raises(GroundMismatch):
        frame_from_partitions({0, 1}, frame.ground, {1: frame.partition_of(1), 2: part})
    # a frame assembled by hand is checked when its mask view is built, also
    # when its partitions agree with each other but not with the frame
    bad = SharedFrame((1, 2), frame.shared_predicates, frame.ground,
                      {1: part, 2: part}, dict(frame.agent_predicates))
    at = min(smaller, key=State.sort_key)
    with pytest.raises(GroundMismatch):
        agreement_check(bad, {at}, at)
    with pytest.raises(GroundMismatch):
        common_knowledge(bad, Atom(0), at)
    with pytest.raises(GroundMismatch):
        validate_s5(bad, 1)


# --- one meet per frame, built lazily ----------------------------------------


def test_meet_runs_once_per_frame_and_only_when_needed(monkeypatch):
    calls = []

    def counted(partitions):
        calls.append(1)
        return meet(partitions)

    monkeypatch.setattr(multiagent, "meet", counted)
    frame = two_agent_frame()
    validate_s5(frame, 1)
    assert not calls
    assert frame.masks().states == sorted(frame.ground, key=State.sort_key)
    for event in every_event(frame):
        for at in frame.ground:
            agreement_check(frame, event, at)
            common_knowledge(frame, Atom(0), at)
    assert len(calls) == 1
    assert two_agent_frame() == frame  # the view takes no part in equality
