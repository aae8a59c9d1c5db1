"""S5 validation checked against a slow reference.

`reference_validate_schemes` is the scheme check as first written: it builds
`Know`/`Implies` formula trees for every instance, over every enumerated base
formula, and evaluates them to state sets through a formula-keyed cache.  The
engine evaluates the base formulas once per (base predicates, depth) to truth
tables over the cube, projects them onto the ground as bitmasks and applies
the knowledge operator to masks; these tests hold it to the same reports,
counterexamples included.

A correct K never fails distributivity, and the agents of a relation share
one relation, so those checks leave part of the scan unexercised.
`reference_scan` generates every instance's failure mask in scheme order,
with no early exit inside an instance; it and the engine run under planted
K operators that differ per agent and are not monotone, and must give the
same reports.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oee.epistemics import partition_from_classes
from oee import multiagent
from oee.formula import And, Atom, Implies, Know, Not, Or, enumerate_sentences, render
from oee.multiagent import (
    SchemeReport,
    frame_from_partitions,
    full_cube,
    validate_relation,
    validate_s5,
)
from oee.universe import State

# --- reference ---------------------------------------------------------------


def _s5_base_formulas(predicates, depth):
    """The base formulas: every propositional formula of depth <= `depth`
    over the first two predicates, in enumeration order."""
    return enumerate_sentences(frozenset(sorted(predicates)[:2]), depth)


def reference_extension(f, ground, access, cache) -> frozenset:
    """States where f holds, under accessibility maps agent -> state -> set."""
    if f in cache:
        return cache[f]
    if isinstance(f, Atom):
        out = frozenset(w for w in ground if w.value(f.index))
    elif isinstance(f, Not):
        out = ground - reference_extension(f.operand, ground, access, cache)
    elif isinstance(f, And):
        out = reference_extension(f.left, ground, access, cache) & \
            reference_extension(f.right, ground, access, cache)
    elif isinstance(f, Or):
        out = reference_extension(f.left, ground, access, cache) | \
            reference_extension(f.right, ground, access, cache)
    elif isinstance(f, Implies):
        out = (ground - reference_extension(f.left, ground, access, cache)) | \
            reference_extension(f.right, ground, access, cache)
    elif isinstance(f, Know):
        ext = reference_extension(f.operand, ground, access, cache)
        out = frozenset(w for w in ground if access[f.agent][w] <= ext)
    else:
        raise TypeError(f"unsupported in extension semantics: {f!r}")
    cache[f] = out
    return out


def reference_validate_schemes(ground, access, agents, base_formulas):
    cache: dict = {}

    def ext(f):
        return reference_extension(f, ground, access, cache)

    witnesses = {}
    for f in base_formulas:
        witnesses.setdefault(ext(f), f)
    base_formulas = list(witnesses.values())

    reports = []

    def check(name, pairs):
        for f, bad_states in pairs:
            if bad_states:
                state = min(bad_states, key=State.sort_key)
                reports.append(SchemeReport(name, False, (render(f), state)))
                return
        reports.append(SchemeReport(name, True))

    check(
        "reflection",
        ((Know(i, f), ext(Know(i, f)) - ext(f)) for i in agents for f in base_formulas),
    )
    check(
        "positive-introspection",
        (
            (Know(i, f), ext(Know(i, f)) - ext(Know(i, Know(i, f))))
            for i in agents
            for f in base_formulas
        ),
    )
    check(
        "negative-introspection",
        (
            (Know(i, f), (ground - ext(Know(i, f))) - ext(Know(i, Not(Know(i, f)))))
            for i in agents
            for f in base_formulas
        ),
    )
    check(
        "distributivity",
        (
            (
                Implies(f, g),
                (ext(Know(i, Implies(f, g))) & ext(Know(i, f))) - ext(Know(i, g)),
            )
            for i in agents
            for f in base_formulas
            for g in base_formulas
        ),
    )
    necessitation_fail = []
    for i in agents:
        for f in base_formulas:
            if ext(f) == ground and ext(Know(i, f)) != ground:
                necessitation_fail.append((Know(i, f), ground - ext(Know(i, f))))
    check("necessitation", necessitation_fail)
    return reports


def reference_scan(states, pairs, agents, events):
    """Every scheme instance as a (failure mask, agent, f, g) tuple from a
    generator, K of each argument from `multiagent._knowledge_mask` through
    one memo per agent; the first nonzero mask gives the report."""
    full = (1 << len(states)) - 1
    known: dict = {i: {} for i in agents}

    def know(i, event):
        memo = known[i]
        out = memo.get(event)
        if out is None:
            out = memo[event] = multiagent._knowledge_mask(pairs[i], event)
        return out

    reports = []

    def check(name, failures, witness=lambda i, f, g: Know(i, f)):
        for bad, i, f, g in failures:
            if bad:
                state = states[(bad & -bad).bit_length() - 1]
                reports.append(SchemeReport(name, False, (render(witness(i, f, g)), state)))
                return
        reports.append(SchemeReport(name, True))

    check(
        "reflection",
        ((know(i, e) & ~e, i, f, None) for i in agents for e, f in events),
    )
    check(
        "positive-introspection",
        ((know(i, e) & ~know(i, know(i, e)), i, f, None) for i in agents for e, f in events),
    )
    check(
        "negative-introspection",
        (
            (full & ~know(i, e) & ~know(i, full & ~know(i, e)), i, f, None)
            for i in agents
            for e, f in events
        ),
    )
    check(
        "distributivity",
        (
            (know(i, (full & ~e) | d) & know(i, e) & ~know(i, d), i, f, g)
            for i in agents
            for e, f in events
            for d, g in events
        ),
        lambda i, f, g: Implies(f, g),
    )
    check(
        "necessitation",
        (
            (full & ~know(i, e) if e == full else 0, i, f, None)
            for i in agents
            for e, f in events
        ),
    )
    return reports


def reference_validate_s5(frame, depth):
    access = {
        i: {w: cls for cls in frame.partition_of(i).classes for w in cls}
        for i in frame.agents
    }
    base = _s5_base_formulas(frame.shared_predicates, depth)
    return reference_validate_schemes(frame.ground, access, frame.agents, base)


def reference_validate_relation(ground, relation, agents, predicates, depth):
    ground = frozenset(ground)
    access = {i: {w: frozenset(relation[w]) for w in ground} for i in agents}
    base = _s5_base_formulas(frozenset(predicates), depth)
    return reference_validate_schemes(ground, access, tuple(agents), base)


# --- strategies --------------------------------------------------------------


@st.composite
def grounds(draw):
    """1-8 states of the cube over one to three random atoms.  With three,
    states that differ only in the third atom share a code over the two base
    predicates."""
    domain = frozenset(draw(st.lists(st.integers(0, 15), min_size=1, max_size=3, unique=True)))
    cube = sorted(full_cube(domain), key=State.sort_key)
    ground = draw(st.lists(st.sampled_from(cube), min_size=1, max_size=8, unique=True))
    return domain, ground


@st.composite
def frames(draw):
    domain, ground = draw(grounds())
    agents = draw(st.lists(st.integers(1, 63), min_size=1, max_size=3, unique=True))
    partitions = {}
    for agent in agents:
        labels = draw(st.lists(st.integers(0, len(ground) - 1),
                               min_size=len(ground), max_size=len(ground)))
        classes = {}
        for w, label in zip(ground, labels):
            classes.setdefault(label, set()).add(w)
        partitions[agent] = partition_from_classes(frozenset(ground), list(classes.values()))
    return frame_from_partitions(domain, ground, partitions)


@st.composite
def relations(draw):
    """Any relation on the ground, empty successor sets included; half of
    them reflexive, so that introspection failures show past reflection."""
    domain, ground = draw(grounds())
    reflexive = draw(st.booleans())
    relation = {}
    for w in ground:
        picks = draw(st.lists(st.booleans(), min_size=len(ground), max_size=len(ground)))
        relation[w] = {v for v, pick in zip(ground, picks) if pick or (reflexive and v == w)}
    agents = draw(st.lists(st.integers(1, 63), min_size=1, max_size=3))
    return ground, relation, agents, domain


# --- differential ------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(frames(), st.integers(0, 2))
def test_validate_s5_matches_reference(frame, depth):
    assert validate_s5(frame, depth) == reference_validate_s5(frame, depth)


@settings(max_examples=300, deadline=None)
@given(relations(), st.integers(0, 2))
def test_validate_relation_matches_reference(case, depth):
    ground, relation, agents, predicates = case
    assert validate_relation(ground, relation, agents, predicates, depth) == \
        reference_validate_relation(ground, relation, agents, predicates, depth)


@st.composite
def planted(draw):
    """A frame, a depth and, per agent, a planted K: the partition's K with
    the bits of a drawn mask flipped on the events whose residue mod a drawn
    modulus is a drawn value, so that it fails schemes and is not monotone."""
    frame = draw(frames())
    full = (1 << len(frame.trues)) - 1
    plants = {i: (draw(st.integers(0, full)), draw(st.integers(2, 5)), draw(st.integers(0, 4)))
              for i in frame.agents}
    return frame, draw(st.integers(0, 2)), plants


@settings(max_examples=300, deadline=None)
@given(planted())
def test_scheme_scan_matches_reference_scan_with_planted_operators(case):
    """With a different, non-monotone K per agent, the engine's scan and
    `reference_scan` report the same first failure of every scheme."""
    frame, depth, plants = case
    true_knowledge = multiagent._knowledge_mask

    def planted_knowledge(tagged, event):
        i, pairs = tagged
        flips, modulus, residue = plants[i]
        out = true_knowledge(pairs, event)
        return out ^ flips if event % modulus == residue else out

    states = frame.states(range(len(frame.trues)))
    events = multiagent._base_events(frame.trues, frame.shared_predicates, depth)
    pairs = {i: (i, [(c, c) for c in multiagent._class_masks(*frame.classes[i])])
             for i in frame.agents}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(multiagent, "_knowledge_mask", planted_knowledge)
        assert multiagent._validate_schemes(len(states), states.__getitem__, pairs,
                                            frame.agents, events) == \
            reference_scan(states, pairs, frame.agents, events)


def test_validate_s5_builds_states_only_for_counterexamples(monkeypatch):
    """Where every scheme holds, `validate_s5` builds no State; under a
    planted K it builds one per failing scheme, its counterexample."""
    ground = sorted(full_cube({0, 1, 2}), key=State.sort_key)
    frame = frame_from_partitions({0, 1, 2}, ground, {
        1: partition_from_classes(ground, [ground[:3], ground[3:]]),
        2: partition_from_classes(ground, [[w] for w in ground]),
    })
    built = []

    def counted(*args):
        built.append(State(*args))
        return built[-1]

    monkeypatch.setattr(multiagent, "State", counted)
    assert all(r.ok for r in validate_s5(frame, 2)) and built == []
    monkeypatch.setattr(multiagent, "_knowledge_mask", lambda pairs, event: ~event & 0xff)
    reports = validate_s5(frame, 2)
    failing = [r for r in reports if not r.ok]
    assert failing and [r.counterexample[1] for r in failing] == built


def test_validate_s5_evaluates_base_formulas_once(monkeypatch):
    """Many frames with one predicate set and depth: the base formulas are
    evaluated once in total, not once per frame."""
    calls = []
    event_mask = multiagent.event_mask

    def counted(f, states, full, masks):
        calls.append(f)
        return event_mask(f, states, full, masks)

    monkeypatch.setattr(multiagent, "event_mask", counted)
    multiagent._cube_tables.cache_clear()
    predicates = frozenset({3, 9})
    cube = sorted(full_cube(predicates), key=State.sort_key)
    for ground in (cube, cube[:3], cube[1:]):
        for classes in ([ground], [[w] for w in ground]):
            partition = partition_from_classes(ground, classes)
            frame = frame_from_partitions(predicates, ground, {1: partition, 2: partition})
            for depth in (2, 1):
                assert validate_s5(frame, depth) == reference_validate_s5(frame, depth)
    base = len(_s5_base_formulas(predicates, 2)) + len(_s5_base_formulas(predicates, 1))
    assert len(calls) == base


def test_validate_rejects_empty_predicates_and_negative_depth_every_time():
    w = State(frozenset({0}), frozenset())
    frame = frame_from_partitions({0}, [w], {1: partition_from_classes([w], [[w]])})
    for _ in range(2):
        with pytest.raises(ValueError, match="depth must be >= 0"):
            validate_s5(frame, -1)
        with pytest.raises(ValueError, match="depth must be >= 0"):
            validate_relation([w], {w: {w}}, [1], {0}, -1)
        with pytest.raises(ValueError, match="predicate set must be nonempty"):
            validate_relation([w], {w: {w}}, [1], set(), 1)
