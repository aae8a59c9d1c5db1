import time
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from frame_references import class_of, coarsen_onto, knowledge_event, merged, \
    meet as reference_meet, posterior as reference_posterior, shared_partitions
from oee.epistemics import agent_state, partition_from_classes
from oee.formula import parse
from oee.multiagent import (
    MAX_CUBE_PREDICATES,
    FailsAt,
    GroundMismatch,
    Holds,
    Infeasible,
    NotClosedMode,
    agreement_check,
    build_shared_frame,
    common_knowledge,
    frame_from_partitions,
    full_cube,
    meet,
    posterior,
    validate_relation,
    validate_s5,
)
from oee.universe import State, Theory, clause, unit


def ints_partition(ground, classes):
    return partition_from_classes(ground, classes)


def ordered(ground):
    """The ground in the engine's position order."""
    return sorted(ground, key=lambda e: e.sort_key() if isinstance(e, State) else (e,))


def labelled(p):
    """A partition as (labels, class sizes) over its ordered ground: the
    label of each element is the index of its class."""
    labels = array("l", [p.classes.index(class_of(p, e)) for e in ordered(p.ground)])
    return labels, tuple(len(c) for c in p.classes)


def label_meet(partitions):
    """The label `meet` of partitions over one ground, read back as a
    partition."""
    ground = ordered(partitions[0].ground)
    labels = meet([labelled(p)[0] for p in partitions])
    classes = {}
    for e, c in zip(ground, labels):
        classes.setdefault(c, set()).add(e)
    return partition_from_classes(ground, classes.values())


def state(predicates, true):
    return State(frozenset(predicates), frozenset(true))


def states_of(bits_list, predicates=(0, 1)):
    preds = sorted(predicates)
    return frozenset(
        State(frozenset(preds), frozenset(p for p, b in zip(preds, bits) if b == "1"))
        for bits in bits_list
    )


# --- knowledge_event (the frozenset reference) ------------------------------

def test_knowledge_event_basic():
    p = ints_partition({1, 2, 3, 4}, [{1, 2}, {3, 4}])
    assert knowledge_event(p, {1, 2, 3}) == frozenset({1, 2})
    assert knowledge_event(p, {1, 2, 3, 4}) == frozenset({1, 2, 3, 4})
    assert knowledge_event(p, set()) == frozenset()


def test_knowledge_event_ground_mismatch():
    p = ints_partition({1, 2}, [{1, 2}])
    with pytest.raises(GroundMismatch):
        knowledge_event(p, {1, 3})


# --- meet --------------------------------------------------------------------

class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        self.parent[self.find(a)] = self.find(b)


def meet_oracle(partitions):
    """Independent union-find implementation of the finest common coarsening."""
    ground = partitions[0].ground
    uf = UnionFind(ground)
    for p in partitions:
        for cls in p.classes:
            members = sorted(cls) if all(isinstance(x, int) for x in cls) else list(cls)
            first = members[0]
            for other in members[1:]:
                uf.union(first, other)
    groups = {}
    for x in ground:
        groups.setdefault(uf.find(x), set()).add(x)
    return partition_from_classes(ground, groups.values())


def test_meet_example():
    a = ints_partition({1, 2, 3, 4}, [{1, 2}, {3, 4}])
    b = ints_partition({1, 2, 3, 4}, [{1}, {2, 3}, {4}])
    assert label_meet([a, b]).classes == (frozenset({1, 2, 3, 4}),)
    assert meet([labelled(a)[0], labelled(b)[0]]) == array("l", [0, 0, 0, 0])
    assert reference_meet([a, b]).classes == (frozenset({1, 2, 3, 4}),)


def test_meet_idempotent_and_discrete():
    p = ints_partition({1, 2, 3, 4}, [{1, 2}, {3, 4}])
    discrete = ints_partition({1, 2, 3, 4}, [{1}, {2}, {3}, {4}])
    for the_meet in (label_meet, reference_meet):
        assert the_meet([p, p]) == p
        assert the_meet([p, discrete]) == p


def test_meet_ground_mismatch():
    a = ints_partition({1, 2}, [{1, 2}])
    b = ints_partition({1, 3}, [{1, 3}])
    with pytest.raises(GroundMismatch):
        reference_meet([a, b])
    with pytest.raises(GroundMismatch):
        meet([array("l", [0, 0]), array("l", [0, 0, 1])])
    with pytest.raises(ValueError, match="zero"):
        meet([])


def all_partitions(items):
    """All set partitions of a small list."""
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for sub in all_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [sub[i] | {head}] + sub[i + 1 :]
        yield sub + [{head}]


def test_meet_matches_union_find_oracle():
    ground = {1, 2, 3, 4}
    parts = [ints_partition(ground, p) for p in all_partitions(ground)]
    from oee.rng import SplitMix64

    rng = SplitMix64(8)
    for _ in range(200):
        a = parts[rng.randrange(len(parts))]
        b = parts[rng.randrange(len(parts))]
        assert label_meet([a, b]) == meet_oracle([a, b])
        assert reference_meet([a, b]) == meet_oracle([a, b])


def merged_reference(classes):
    """The overlap components as first computed: each class fuses with every
    component built so far that it touches (quadratic in the classes)."""
    merged = []
    for cls in classes:
        touching = [m for m in merged if m & cls]
        fused = set(cls)
        for m in touching:
            fused |= m
            merged.remove(m)
        merged.append(fused)
    return merged


@given(st.lists(st.sets(st.integers(0, 15), min_size=1, max_size=4), max_size=12))
def test_merged_matches_the_fusing_loop(classes):
    assert sorted(map(sorted, merged(classes))) == sorted(map(sorted, merged_reference(classes)))


def coarsen_oracle(ground, classes):
    """Union-find oracle for the reference `coarsen_onto`: the overlap components of
    the classes cut to the ground, plus one class of the uncovered states."""
    uf = UnionFind(ground)
    covered = set()
    for cls in classes:
        members = sorted(set(cls) & ground)
        covered.update(members)
        for other in members[1:]:
            uf.union(members[0], other)
    groups = {}
    for x in covered:
        groups.setdefault(uf.find(x), set()).add(x)
    residual = ground - covered
    return partition_from_classes(ground, [*groups.values(), *([residual] if residual else [])])


@given(st.lists(st.sets(st.integers(0, 9), max_size=3), max_size=6))
def test_coarsen_onto_matches_union_find_oracle(classes):
    ground = frozenset(range(8))
    assert coarsen_onto(ground, classes) == coarsen_oracle(ground, classes)


def test_meet_laws():
    ground = {1, 2, 3, 4}
    parts = [ints_partition(ground, p) for p in all_partitions(ground)]
    from oee.rng import SplitMix64

    rng = SplitMix64(13)
    for _ in range(60):
        a, b, c = (parts[rng.randrange(len(parts))] for _ in range(3))
        assert label_meet([a, b]) == label_meet([b, a])
        assert label_meet([label_meet([a, b]), c]) == label_meet([a, label_meet([b, c])]) \
            == label_meet([a, b, c])
        assert label_meet([a, a]) == a
        e = frozenset({1, 3})
        ke_meet = knowledge_event(label_meet([a, b]), e)
        assert ke_meet <= knowledge_event(a, e)
        assert ke_meet <= knowledge_event(b, e)


# --- shared frames / common knowledge ----------------------------------------

def closed_frame():
    ground = states_of(["00", "01", "10", "11"])
    p1 = partition_from_classes(ground, [states_of(["00", "01"]), states_of(["10", "11"])])
    p2 = partition_from_classes(ground, [states_of(["00", "10"]), states_of(["01", "11"])])
    return frame_from_partitions({0, 1}, ground, {1: p1, 2: p2})


def test_common_knowledge_infeasible():
    frame = closed_frame()
    at = next(iter(states_of(["11"])))
    result = common_knowledge(frame, parse("p5"), at)
    assert isinstance(result, Infeasible) and result.missing == frozenset({5})


def test_common_knowledge_fails_on_crossing_partitions():
    frame = closed_frame()
    at = next(iter(states_of(["11"])))
    result = common_knowledge(frame, parse("p0"), at)
    # the meet of the two crossing partitions is the trivial partition
    assert isinstance(result, FailsAt)
    assert result.states <= frame.ground


def test_common_knowledge_holds_discrete():
    ground = states_of(["00", "01", "10", "11"])
    discrete = partition_from_classes(ground, [{s} for s in ground])
    frame = frame_from_partitions({0, 1}, ground, {1: discrete, 2: discrete})
    at = next(iter(states_of(["11"])))
    assert isinstance(common_knowledge(frame, parse("p0 & p1"), at), Holds)


def test_common_knowledge_ground_mismatch():
    frame = closed_frame()
    outside = state({0, 1, 2}, {0})
    with pytest.raises(GroundMismatch):
        common_knowledge(frame, parse("p0"), outside)


# --- posteriors / agreement --------------------------------------------------

def test_posterior_example():
    p = ints_partition({1, 2, 3, 4}, [{1, 2}, {3, 4}])
    classes = labelled(p)  # positions 0..3 hold 1..4
    assert posterior(classes, [0, 3], 0) == Fraction(1, 2)
    assert posterior(classes, [0, 1, 2, 3], 2) == 1
    assert posterior(classes, [2], 0) == 0
    assert reference_posterior(p, {1, 4}, 1) == Fraction(1, 2)


@st.composite
def partitioned_queries(draw):
    """A random partition of a ground of 1-8 ints, or of the states of a
    3-predicate cube, an event and an evaluation element."""
    if draw(st.booleans()):
        ground = sorted(draw(st.sets(st.integers(-5, 40), min_size=1, max_size=8)))
    else:
        cube = sorted(full_cube({0, 1, 2}), key=State.sort_key)
        ground = draw(st.lists(st.sampled_from(cube), min_size=1, max_size=8, unique=True))
    labels = {}
    for w in ground:
        labels.setdefault(draw(st.integers(0, len(ground) - 1)), set()).add(w)
    p = partition_from_classes(ground, labels.values())
    event = frozenset(draw(st.sets(st.sampled_from(ground))))
    return p, event, draw(st.sampled_from(ground))


@given(partitioned_queries())
def test_posterior_is_the_interned_class_ratio(query):
    p, event, at = query
    ground = ordered(p.ground)
    hits = [ground.index(e) for e in event]
    value = posterior(labelled(p), hits, ground.index(at))
    assert type(value) is Fraction
    assert value == reference_posterior(p, event, at)
    # equal counts share one Fraction
    assert posterior(labelled(p), hits[::-1], ground.index(at)) is value


def test_agreement_reads_every_agent():
    ground = states_of(["00", "01", "10", "11"])
    coarse = partition_from_classes(ground, [ground])
    discrete = partition_from_classes(ground, [{s} for s in ground])
    at = next(iter(states_of(["11"])))
    event = states_of(["11", "00"])
    for partitions in ({1: coarse, 2: discrete}, {1: discrete, 2: coarse},
                       {1: discrete, 2: discrete, 3: coarse}):
        report = agreement_check(frame_from_partitions({0, 1}, ground, partitions), event, at)
        assert set(report.posteriors.values()) == {Fraction(1, 2), 1}
        assert not report.agree


def test_posterior_ground_mismatch():
    p = ints_partition({1, 2}, [{1, 2}])
    with pytest.raises(GroundMismatch):
        reference_posterior(p, {9}, 1)


def test_agreement_discrete_trivial():
    ground = states_of(["00", "01", "10", "11"])
    discrete = partition_from_classes(ground, [{s} for s in ground])
    frame = frame_from_partitions({0, 1}, ground, {1: discrete, 2: discrete})
    at = next(iter(states_of(["11"])))
    report = agreement_check(frame, states_of(["11", "00"]), at)
    assert report.agree and report.common_knowledge_of_posteriors


def test_aumann_agreement_small_exhaustive():
    # common knowledge of the posterior profile forces equal posteriors
    ground = {1, 2, 3, 4}
    parts = [ints_partition(ground, p) for p in all_partitions(ground)]
    events = [
        frozenset(s for i, s in enumerate(sorted(ground)) if mask >> i & 1)
        for mask in range(16)
    ]
    from oee.rng import SplitMix64

    rng = SplitMix64(4)
    for _ in range(300):
        p1 = parts[rng.randrange(len(parts))]
        p2 = parts[rng.randrange(len(parts))]
        event = events[rng.randrange(len(events))]
        at = rng.choice(sorted(ground))
        post = {1: reference_posterior(p1, event, at), 2: reference_posterior(p2, event, at)}
        profile_event = frozenset(
            w
            for w in ground
            if reference_posterior(p1, event, w) == post[1]
            and reference_posterior(p2, event, w) == post[2]
        )
        if class_of(label_meet([p1, p2]), at) <= profile_event:
            assert post[1] == post[2]


# --- S5 ----------------------------------------------------------------------

def test_s5_holds_on_partition_frames():
    frame = closed_frame()
    for report in validate_s5(frame, 2):
        assert report.ok, report


def test_build_shared_frame_merges_overlapping_projections():
    """Agent 2's classes (by its observation of p4) project onto {00, 01}
    and {01}: they share 01, so the projections merge into one class, and
    the shared states no class hits (1x) form the residual class."""
    a = agent_state(1, Theory(frozenset({0, 1}), ()))
    b = agent_state(2, Theory(frozenset({0, 1, 4}), (clause((4, False), (1, True)), unit(0, False))),
                    [(4, True)])
    frame = build_shared_frame([a, b])
    assert not frame.closed
    assert frame.partition_of(2) == shared_partitions([a, b])[2]
    assert sorted(sorted(w.bits() for w in cls) for cls in frame.partition_of(2).classes) == \
        [["00", "01"], ["10", "11"]]


def test_s5_requires_closed_mode():
    a = agent_state(1, Theory(frozenset({0, 1}), (unit(0, True),)))
    b = agent_state(2, Theory(frozenset({0, 2}), (unit(0, True),)))
    frame = build_shared_frame([a, b])
    with pytest.raises(NotClosedMode):
        validate_s5(frame, 1)


def test_s5_negative_control_non_transitive():
    w1, w2, w3 = (state({0, 1}, t) for t in ({0}, {1}, set()))
    ground = {w1, w2, w3}
    relation = {w1: {w1, w2}, w2: {w2, w3}, w3: {w3}}
    reports = {r.name: r for r in validate_relation(ground, relation, [1], {0, 1}, 2)}
    assert not reports["positive-introspection"].ok
    assert reports["positive-introspection"].counterexample == ("K1 (p0 | p1)", w1)
    assert reports["negative-introspection"].counterexample == ("K1 ~p0", w1)
    assert all(reports[name].ok for name in ("reflection", "distributivity", "necessitation"))


def test_validate_relation_missing_ground_state():
    w1, w2 = state({0, 1}, {0}), state({0, 1}, {1})
    with pytest.raises(GroundMismatch, match="01"):
        validate_relation({w1, w2}, {w1: {w1}}, [1], {0, 1}, 1)


def test_validate_relation_outside_ground():
    w1, w2, w3 = state({0, 1}, {0}), state({0, 1}, {1}), state({0, 1}, set())
    with pytest.raises(GroundMismatch, match="10 to 00"):
        validate_relation({w1, w2}, {w1: {w1, w3}, w2: {w2}}, [1], {0, 1}, 1)
    with pytest.raises(GroundMismatch, match="00"):
        validate_relation({w1, w2}, {w1: {w1}, w2: {w2}, w3: {w3}}, [1], {0, 1}, 1)


def test_validate_relation_predicate_outside_domain():
    w1, w2 = state({0, 1}, {0}), state({0, 1}, {1})
    with pytest.raises(GroundMismatch, match="p5"):
        validate_relation({w1, w2}, {w1: {w1}, w2: {w2}}, [1], {5, 6}, 1)
    with pytest.raises(GroundMismatch, match="p2"):
        validate_relation({w1, w2}, {w1: {w1}, w2: {w2}}, [1], {0, 1, 2}, 1)


def test_full_cube_limit(monkeypatch):
    from oee import multiagent

    assert len(full_cube({0, 1, 2})) == 8

    def no_states(*args):
        raise AssertionError("a state was built")

    monkeypatch.setattr(multiagent, "State", no_states)
    with pytest.raises(ValueError, match=f"limit of {MAX_CUBE_PREDICATES} predicates"):
        full_cube(range(MAX_CUBE_PREDICATES + 1))


def test_validate_s5_refuses_more_sentences_than_the_limit():
    """|S_3| over the two base predicates is 1,854,176: the limit fires before
    any sentence is built."""
    ground = states_of(["00", "11"])
    frame = frame_from_partitions({0, 1}, ground, {1: partition_from_classes(ground, [ground])})
    started = time.perf_counter()
    with pytest.raises(ValueError, match="depth 3 over 2 predicates .* limit of 1,000,000"):
        validate_s5(frame, 3)
    assert time.perf_counter() - started < 1


def test_s5_random_partition_frames():
    from oee.rng import SplitMix64

    ground = states_of(["00", "01", "10", "11"])
    parts = [partition_from_classes(ground, p) for p in all_partitions(ground)]
    rng = SplitMix64(17)
    for _ in range(10):
        p1 = parts[rng.randrange(len(parts))]
        p2 = parts[rng.randrange(len(parts))]
        frame = frame_from_partitions({0, 1}, ground, {1: p1, 2: p2})
        assert all(r.ok for r in validate_s5(frame, 2))
