"""The label view of shared frames checked against frozenset references.

`frame_references` holds the multi-agent operations as first written, on
`Partition`s of states: the posterior, the meet, K(E) and the partitions
that `build_shared_frame` projects.  `reference_agreement_check` and
`reference_common_knowledge` are the checks built from them: posteriors and
the profile event from the posterior at every ground state, and the meet
class of the evaluation state compared with a state set.  The engine keeps
a frame as class labels over a ground of true-masks instead; these tests
hold it to the references on random frames and on frames built from
agents, and pin its ground checks.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frame_references import class_of, knowledge_event, meet, posterior, shared_partitions
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
    _class_masks,
    _knowledge_mask,
    _positions,
    agreement_check,
    build_shared_frame,
    common_knowledge,
    frame_from_partitions,
    full_cube,
    validate_s5,
)
from oee.universe import State, Theory, clause, empty_theory

# --- references --------------------------------------------------------------


def reference_agreement_check(frame, partitions, event, at):
    event = frozenset(event)
    ground = next(iter(partitions.values())).ground
    if at not in ground or not event <= ground:
        raise GroundMismatch("event and state must lie in the frame ground")
    posteriors = {i: posterior(partitions[i], event, at) for i in frame.agents}
    profile_event = frozenset(
        w
        for w in ground
        if all(posterior(partitions[i], event, w) == posteriors[i] for i in frame.agents)
    )
    ck = class_of(meet(partitions.values()), at) <= profile_event
    return AgreementReport(posteriors, ck, len(set(posteriors.values())) == 1)


def reference_event(ground, f):
    if not is_propositional(f):
        raise ValueError("event formulas must be propositional")
    return frozenset(s for s in ground if evaluate(f, s.value))


def reference_common_knowledge(frame, partitions, f, at):
    ground = next(iter(partitions.values())).ground
    if at not in ground:
        raise GroundMismatch("evaluation state must lie in the frame ground")
    missing = atoms(f) - frame.shared_predicates
    if missing:
        return Infeasible(frozenset(missing))
    event = reference_event(ground, f)
    cls = class_of(meet(partitions.values()), at)
    return Holds() if cls <= event else FailsAt(cls - event)


# --- strategies --------------------------------------------------------------


@st.composite
def random_frames(draw):
    """1-8 states of the cube over 1-3 random atoms, 1-3 agents, each with a
    random partition of the ground: the frame and its partitions."""
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
    return frame_from_partitions(domain, ground, partitions), partitions


@st.composite
def agent_frames(draw):
    """`build_shared_frame` over 1-3 agents whose languages share a core of
    0-3 predicates, with random consistent theories and observations, and
    the reference partitions of the agents.  Agent 1 speaks the core alone,
    so the ground has at most 8 states; the others may add predicates of
    their own."""
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
    return build_shared_frame(agents), shared_partitions(agents)


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


def states_of(frame, mask):
    return frozenset(frame.states(_positions(mask, len(frame.trues))))


def mask_of(frame, states):
    return sum(1 << frame.position(w) for w in states)


# --- differential ------------------------------------------------------------


def assert_label_view_matches(frame, partitions):
    """The ground order, each agent's partition, the meet's classes, K_i of
    every event and the posterior of every event at every state."""
    ground = sorted(frame.ground, key=State.sort_key)
    assert frame.states(range(len(frame.trues))) == ground
    assert {i: frame.partition_of(i) for i in frame.agents} == partitions
    the_meet = meet(partitions.values())
    for w, label in zip(ground, frame.meet_labels):
        assert states_of(frame, mask_of(frame, class_of(the_meet, w))) == class_of(the_meet, w)
        assert frozenset(v for v, m in zip(ground, frame.meet_labels) if m == label) == \
            class_of(the_meet, w)
    for event in every_event(frame):
        mask = mask_of(frame, event)
        hits = [ground.index(w) for w in event]
        for i in frame.agents:
            pairs = [(c, c) for c in _class_masks(*frame.classes[i])]
            assert states_of(frame, _knowledge_mask(pairs, mask)) == \
                knowledge_event(partitions[i], event)
            for k, w in enumerate(ground):
                assert multiagent.posterior(frame.classes[i], hits, k) == \
                    posterior(partitions[i], event, w)


def assert_agreement_matches(frame, partitions):
    for event in every_event(frame):
        for at in frame.ground:
            report = agreement_check(frame, event, at)
            assert report == reference_agreement_check(frame, partitions, event, at), (event, at)
            assert agreement_check(frame, mask_of(frame, event), at) == report
            assert agreement_check(frame, [*event, *event], at) == report  # a repeat counts once


def assert_common_knowledge_matches(frame, partitions):
    for f in event_formulas(frame):
        if atoms(f) <= frame.shared_predicates:
            assert states_of(frame, frame.formula_mask(f)) == reference_event(frame.ground, f)
        for at in frame.ground:
            assert common_knowledge(frame, f, at) == \
                reference_common_knowledge(frame, partitions, f, at), (f, at)


@settings(max_examples=60, deadline=None)
@given(random_frames())
def test_label_view_matches_references_on_random_frames(case):
    assert_label_view_matches(*case)


@settings(max_examples=40, deadline=None)
@given(agent_frames())
def test_label_view_matches_references_on_built_frames(case):
    assert_label_view_matches(*case)


@settings(max_examples=40, deadline=None)
@given(random_frames())
def test_agreement_matches_reference_on_random_frames(case):
    assert_agreement_matches(*case)


@settings(max_examples=40, deadline=None)
@given(random_frames())
def test_common_knowledge_matches_reference_on_random_frames(case):
    assert_common_knowledge_matches(*case)


@settings(max_examples=30, deadline=None)
@given(agent_frames())
def test_agreement_and_common_knowledge_match_reference_on_built_frames(case):
    assert_agreement_matches(*case)
    assert_common_knowledge_matches(*case)


def test_non_propositional_event_is_rejected():
    frame = frame_from_partitions({0}, full_cube({0}), {
        1: partition_from_classes(full_cube({0}), [full_cube({0})])})
    at = min(frame.ground, key=State.sort_key)
    with pytest.raises(ValueError, match="propositional"):
        common_knowledge(frame, Know(1, Atom(0)), at)
    with pytest.raises(ValueError, match="propositional"):
        frame.formula_mask(Know(1, Atom(0)))


def test_formula_mask_names_an_atom_outside_the_ground_domain():
    """Every ground state assigns exactly the frame's predicates: the view
    raises KeyError naming the least atom outside them, as `State.value`
    does, and a frame refuses a ground state over other predicates."""
    frame = two_agent_frame()
    with pytest.raises(KeyError) as info:
        frame.formula_mask(parse("p0 & (p7 | p5)"))
    assert info.value.args == (5,)
    ground = [State(frozenset({0, 1}), frozenset({1})), State(frozenset({0}), frozenset())]
    with pytest.raises(GroundMismatch, match="ground state 0 does not assign"):
        frame_from_partitions({0, 1}, ground, {1: partition_from_classes(ground, [ground])})


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
    # a state that differs from a ground state only in its domain
    with pytest.raises(GroundMismatch):
        common_knowledge(frame, Atom(0), State(frozenset({0, 1, 2}), frozenset()))
    # masks with a bit past the four ground positions, or negative
    for mask in (1 << 4, -1):
        with pytest.raises(GroundMismatch):
            agreement_check(frame, mask, inside)


def test_partition_ground_differing_from_the_frame_raises():
    frame = two_agent_frame()
    smaller = frozenset(sorted(frame.ground, key=State.sort_key)[:3])
    part = partition_from_classes(smaller, [smaller])
    with pytest.raises(GroundMismatch):
        frame_from_partitions({0, 1}, frame.ground, {1: frame.partition_of(1), 2: part})
    # a frame assembled by hand is checked when it is built, also when its
    # labellings agree with each other but not with the ground
    three = multiagent._labelling([0, 0, 0])
    with pytest.raises(GroundMismatch):
        SharedFrame((1, 2), frame.shared_predicates, frame.trues, {1: three, 2: three}, True)


# --- one meet per frame ------------------------------------------------------


def test_meet_runs_once_per_frame_at_construction(monkeypatch):
    calls = []
    label_meet = multiagent.meet

    def counted(labellings):
        calls.append(1)
        return label_meet(labellings)

    monkeypatch.setattr(multiagent, "meet", counted)
    frame = two_agent_frame()
    assert len(calls) == 1
    validate_s5(frame, 1)
    for event in every_event(frame):
        for at in frame.ground:
            agreement_check(frame, event, at)
            common_knowledge(frame, Atom(0), at)
    assert len(calls) == 1
    assert two_agent_frame() == frame  # derived fields take no part in equality
