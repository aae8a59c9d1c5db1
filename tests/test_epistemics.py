import pytest
from hypothesis import example, given, settings, strategies as st

from frame_references import class_of

from oee.epistemics import (
    DomainError,
    EmptyModel,
    Partition,
    Truth3,
    adjacent_possible,
    agent_state,
    contextual_possible,
    decide,
    information_partition,
    local_knowledge,
    partition_from_classes,
)
from oee.formula import Atom, Know, Not, enumerate_sentences, evaluate, parse
from oee.universe import State, Theory, clause, empty_theory, unit


def theory_of(predicates, *clauses):
    return Theory(frozenset(predicates), tuple(clauses))


def agent(theory, observations=(), agent_id=1):
    return agent_state(agent_id, theory, observations)


def state(predicates, true):
    return State(frozenset(predicates), frozenset(true))


@st.composite
def theories(draw, preds):
    """A theory over `preds` of random clauses, without models in about one
    draw in four."""
    preds = sorted(preds)
    clauses = []
    if preds:
        literal = st.tuples(st.sampled_from(preds), st.booleans())
        for lits in draw(st.lists(st.lists(literal, min_size=1, max_size=2), max_size=3)):
            clauses.append(clause(*dict(lits).items()))  # one polarity per predicate
        if draw(st.integers(0, 3)) == 0:
            p = draw(st.sampled_from(preds))
            clauses += [unit(p, True), unit(p, False)]
    return Theory(frozenset(preds), tuple(dict.fromkeys(clauses)))


# --- decide ------------------------------------------------------------------

def test_decide_entailed_atom():
    # a theory with no models decides every sentence of its language TRUE
    for theory, negated in (
        (theory_of({0}, unit(0, True)), Truth3.FALSE),
        (theory_of({0}, unit(0, True), unit(0, False)), Truth3.TRUE),
    ):
        a = agent(theory)
        assert decide(a, Atom(0)) is Truth3.TRUE
        assert decide(a, Not(Atom(0))) is negated


def test_decide_undecidable_disjunction():
    a = agent(theory_of({0, 1}, clause((0, True), (1, True))))
    assert decide(a, Atom(0)) is Truth3.UNDECIDABLE
    assert decide(a, parse("p0 | p1")) is Truth3.TRUE


def test_decide_not_in_language():
    a = agent(theory_of({0, 1}))
    assert decide(a, Atom(2)) is Truth3.NOT_IN_LANGUAGE


def test_decide_complement_sums_to_one():
    a = agent(theory_of({0, 1}, clause((0, True), (1, True))))
    for text in ("p0", "p0 | p1", "p0 & p1", "p1 -> p0"):
        f = parse(text)
        verdict = decide(a, f)
        if verdict in (Truth3.TRUE, Truth3.FALSE):
            flipped = decide(a, Not(f))
            assert {verdict, flipped} == {Truth3.TRUE, Truth3.FALSE}


def test_decide_rejects_epistemic():
    a = agent(theory_of({0}))
    with pytest.raises(ValueError):
        decide(a, parse("K1 p0"))


# --- contextual possible -----------------------------------------------------

def test_contextual_possible_disjunction():
    a = agent(theory_of({0, 1}, clause((0, True), (1, True))))
    assert sorted(s.bits() for s in contextual_possible(a)) == ["01", "10", "11"]


def test_contextual_possible_empty_theory():
    a = agent(empty_theory({0}))
    assert sorted(s.bits() for s in contextual_possible(a)) == ["0", "1"]


def test_contextual_possible_inconsistent():
    a = agent(theory_of({0}, unit(0, True), unit(0, False)))
    assert contextual_possible(a) == frozenset()


# --- local knowledge ---------------------------------------------------------

def test_local_knowledge_decided_only():
    a = agent(theory_of({0, 1}, unit(0, True)))
    kappa = local_knowledge(a, state({0, 1}, {0}), 0)
    assert kappa == frozenset({Know(1, Atom(0))})


def test_local_knowledge_includes_negation_at_depth1():
    a = agent(theory_of({0, 1}, unit(0, True), unit(1, False)))
    kappa = local_knowledge(a, state({0, 1}, {0}), 1)
    assert Know(1, Atom(0)) in kappa
    assert Know(1, Not(Atom(1))) in kappa


def test_local_knowledge_domain_error():
    a = agent(theory_of({0, 1}, unit(0, True)))
    with pytest.raises(DomainError):
        local_knowledge(a, state({0}, {0}), 0)


def reference_local_knowledge(agent_, omega, depth):
    """κ(ω) as first defined: the sentences decided TRUE that hold at ω."""
    return frozenset(
        Know(agent_.id, f) for f in enumerate_sentences(agent_.predicates, depth)
        if decide(agent_, f) is Truth3.TRUE and evaluate(f, omega.value))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    theories(range(n)), st.frozensets(st.integers(0, n - 1)), st.integers(0, 2 if n < 3 else 1))))
def test_local_knowledge_matches_reference(case):
    theory, true, depth = case
    a = agent(theory)
    omega = state(theory.predicates, true)
    assert local_knowledge(a, omega, depth) == reference_local_knowledge(a, omega, depth)


def test_local_knowledge_coherent():
    # never both a sentence and its negation
    a = agent(theory_of({0, 1}, clause((0, True), (1, True))))
    for omega in contextual_possible(a):
        kappa = local_knowledge(a, omega, 1)
        plain = {f.operand for f in kappa}
        for f in plain:
            assert Not(f) not in plain


# --- partitions --------------------------------------------------------------

def test_partition_validates():
    with pytest.raises(ValueError):
        Partition(frozenset({1, 2}), (frozenset({1}),))
    with pytest.raises(ValueError):
        Partition(frozenset({1, 2}), (frozenset({1, 2}), frozenset({2})))


def test_partition_generic_over_ints():
    p = partition_from_classes({1, 2, 3, 4}, [{1, 2}, {3, 4}])
    assert class_of(p, 3) == frozenset({3, 4})


def class_key(cls: frozenset):
    """The reference class order: each class sorted, compared as a list."""
    return sorted(e.sort_key() if isinstance(e, State) else (e,) for e in cls)


def shuffled_classes(elements):
    """Disjoint classes of `elements`, in a drawn order."""
    return st.lists(st.integers(0, 5), min_size=len(elements), max_size=len(elements)).flatmap(
        lambda labels: st.permutations([
            frozenset(e for e, label in zip(elements, labels) if label == k)
            for k in set(labels)]))


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.sets(st.integers(-50, 50), max_size=12).map(sorted),
    st.sets(st.frozensets(st.integers(0, 3)), max_size=12).map(
        lambda ts: [State(frozenset(range(4)), t) for t in ts]),
).flatmap(lambda ground: st.tuples(st.just(ground), shuffled_classes(ground))))
def test_partition_orders_classes_by_least_element(case):
    ground, classes = case
    p = partition_from_classes(ground, classes)
    assert list(p.classes) == sorted(classes, key=class_key)


def test_information_partition_splits_on_observation():
    a = agent(
        theory_of({0, 1}, clause((0, True), (1, True))),
        observations=[(0, True)],
    )
    p = information_partition(a)
    classes = sorted(sorted(s.bits() for s in cls) for cls in p.classes)
    assert classes == [["01"], ["10", "11"]]


def test_information_partition_no_observations_merges_model():
    # decided sentences hold on the whole model, so without observations the
    # model is one indistinguishability class
    a = agent(empty_theory({0}))
    p = information_partition(a)
    assert len(p.classes) == 1


def test_information_partition_singleton_model():
    a = agent(theory_of({0}, unit(0, True)))
    p = information_partition(a)
    assert [len(c) for c in p.classes] == [1]


def test_information_partition_empty_model():
    a = agent(theory_of({0}, unit(0, True), unit(0, False)))
    with pytest.raises(EmptyModel):
        information_partition(a)


def test_information_partition_sound_random_theories():
    from oee.rng import SplitMix64

    rng = SplitMix64(11)
    preds = [0, 1, 2]
    for _ in range(50):
        clauses = []
        for _ in range(rng.randrange(3)):
            a_, b_ = rng.choice(preds), rng.choice(preds)
            lits = {(a_, bool(rng.next_u64() & 1))}
            if b_ != a_:
                lits.add((b_, bool(rng.next_u64() & 1)))
            clauses.append(clause(*lits))
        t = Theory(frozenset(preds), tuple(dict.fromkeys(clauses)))
        if not t.models():
            continue
        obs = []
        if rng.next_u64() & 1:
            p_ = rng.choice(preds)
            obs.append((p_, t.models()[0].value(p_)))
        ag = agent(t, observations=obs)
        part = information_partition(ag)
        assert part.ground == contextual_possible(ag)


def reference_information_partition(agent_, depth):
    """The partition as first defined: states grouped by observation
    signature and by κ, computed at every model state."""
    model = contextual_possible(agent_)
    obs = sorted(agent_.observations)
    groups = {}
    for omega in model:
        obs_sig = tuple(omega.value(p) == v for p, v in obs)
        kappa_sig = local_knowledge(agent_, omega, depth)
        groups.setdefault((obs_sig, kappa_sig), set()).add(omega)
    return partition_from_classes(model, groups.values())


def test_information_partition_rejects_empty_language_as_reference():
    a = agent(empty_theory(set()))
    for depth in range(3):
        with pytest.raises(ValueError, match="predicate set must be nonempty"):
            reference_information_partition(a, depth)
    with pytest.raises(ValueError, match="predicate set must be nonempty"):
        information_partition(a)


@st.composite
def observed_agents(draw):
    """An agent with a consistent random theory; depth 2 on at most two
    predicates, since the reference enumerates every sentence per state."""
    depth = draw(st.integers(0, 2))
    preds = list(range(draw(st.integers(1, 2 if depth == 2 else 3))))
    literal = st.tuples(st.sampled_from(preds), st.booleans())
    clauses = []
    for lits in draw(st.lists(st.lists(literal, min_size=1, max_size=2), max_size=3)):
        lits = dict(lits)  # one polarity per predicate
        clauses.append(clause(*lits.items()))
    t = Theory(frozenset(preds), tuple(dict.fromkeys(clauses)))
    if not t.models():
        t = empty_theory(preds)
    actual = draw(st.sampled_from(t.models()))
    observed = draw(st.lists(st.sampled_from(preds), unique=True))
    return agent(t, observations=[(p_, actual.value(p_)) for p_ in observed]), depth


@settings(max_examples=40, deadline=None)
@given(observed_agents())
def test_information_partition_matches_kappa_reference(case):
    a, depth = case
    assert information_partition(a) == reference_information_partition(a, depth)


# --- adjacent possible -------------------------------------------------------

def test_adjacent_possible_domain_growth():
    before = agent(theory_of({0}, unit(0, True)))
    after = agent(theory_of({0, 2}, unit(0, True), clause((2, False), (0, True))))
    adj = adjacent_possible(before, after)
    assert sorted(s.bits() for s in adj) == ["10", "11"]


def test_adjacent_possible_no_revision():
    a = agent(theory_of({0}, unit(0, True)))
    assert adjacent_possible(a, a) == frozenset()


def reference_adjacent_possible(before, after):
    """𝒜 as first defined: the set difference of the contextual possibles."""
    return contextual_possible(after) - contextual_possible(before)


@st.composite
def revisions(draw):
    """Two theories of one agent, over one predicate set or over two."""
    before = draw(st.frozensets(st.integers(0, 3)))
    after = before if draw(st.booleans()) else draw(st.frozensets(st.integers(0, 3)))
    return agent(draw(theories(before))), agent(draw(theories(after)))


INCONSISTENT = theory_of({0, 1}, unit(0, True), unit(0, False))


@settings(max_examples=300, deadline=None)
@given(revisions())
@example((agent(INCONSISTENT), agent(theory_of({0, 1}, unit(1, True)))))
@example((agent(theory_of({0, 1}, unit(1, True))), agent(INCONSISTENT)))
@example((agent(INCONSISTENT), agent(theory_of({0, 1, 2}, unit(2, False), unit(2, True)))))
@example((agent(theory_of({0}, unit(0, True))), agent(theory_of({0, 1}, unit(0, True)))))
def test_adjacent_possible_matches_set_difference(case):
    before, after = case
    assert adjacent_possible(before, after) == reference_adjacent_possible(before, after)


def test_adjacent_possible_different_agent_rejected():
    a = agent(theory_of({0}), agent_id=1)
    b = agent(theory_of({0}), agent_id=2)
    with pytest.raises(ValueError):
        adjacent_possible(a, b)


def test_complete_consistent_decides_everything():
    # exhaustive over small unit theories: no Undecidable in-language verdicts
    for v0 in (True, False):
        for v1 in (True, False):
            a = agent(theory_of({0, 1}, unit(0, v0), unit(1, v1)))
            for f in enumerate_sentences({0, 1}, 1):
                assert decide(a, f) in (Truth3.TRUE, Truth3.FALSE)
