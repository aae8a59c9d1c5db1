"""Repair search and bridging checked against a slow reference.

`reference_propose_revisions` is the search by its definition: it returns
the theory that records the observation when that theory is consistent, and
otherwise builds a `Theory` for every retraction set from the suspect pool, a
whole size level at a time until REPAIR_BREADTH are consistent, decides
consistency by truth table and ranks by (score, age, canonical text).  The
engine decides consistency on clause bitmasks instead, stops the deductive
search early, scores candidates from their retraction sets and breaks ties on
age alone; these tests hold it to the same ranked repairs.  `reference_revise`
likewise builds every bridging candidate with `Theory.with_clause` and decides
it by truth table, where the engine decides bridging clauses on unit masks
first and on clause masks after.  `parent_bridging_candidates` and
`parent_bridge` are the previous engine's bridging, which decided every option
by the kernel and built every option's full (score, canonical text) key; the
engine now scores each option by its delta, the one clause it adds, and holds
to them on theories with and without free predicates.

`Theory.models` runs on the same kernel as the engine's consistency checks,
so no reference here asks it: `consistent_by_sweep` tries every assignment
with `Clause.satisfied_by`.  Likewise the canonical text the ranking hashes
and ties on comes from `reference_text`, not from the engine's builder.
"""

import hashlib
import json
import time
from functools import lru_cache, reduce
from itertools import combinations
from operator import and_

import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oee import harness, revision
from oee.cli import main
from oee.epistemics import agent_state
from oee.revision import (
    REPAIR_BREADTH,
    ContradictoryObservations,
    RepairLimit,
    RevisionStrategy,
    StrategyKind,
    _bridge,
    _bridging_candidates,
    _ranked,
    propose_revisions,
    revise,
    symmetry_score,
)
from oee.rng import mix
from oee.universe import (
    Clause,
    State,
    Theory,
    canonical_texts,
    clause,
    empty_theory,
    extended_texts,
    residues,
    satisfiable,
    text_digest,
    unit,
)

# --- reference ---------------------------------------------------------------


@lru_cache(maxsize=256)
def cube(domain: frozenset) -> tuple[State, ...]:
    """Every assignment over `domain`."""
    preds = sorted(domain)
    return tuple(
        State(domain, frozenset(p for i, p in enumerate(preds) if code >> i & 1))
        for code in range(1 << len(preds))
    )


@lru_cache(maxsize=1 << 14)
def satisfying(c: Clause, domain: frozenset) -> int:
    """The assignments over `domain` that satisfy `c`, as a bit set over
    `cube(domain)`."""
    return sum(1 << k for k, s in enumerate(cube(domain)) if c.satisfied_by(s))


def consistent_by_sweep(theory: Theory) -> bool:
    """Whether some assignment over the theory's predicates satisfies every
    clause, each clause tried on every assignment."""
    every = (1 << len(cube(theory.predicates))) - 1
    return reduce(and_, (satisfying(c, theory.predicates) for c in theory.clauses), every) != 0


def reference_symmetry_score(theory: Theory) -> int:
    """Every transposition tried on the whole clause set."""
    preds = sorted(theory.predicates)
    clause_set = frozenset(theory.clauses)
    count = 0
    for a, b in combinations(preds, 2):
        swap = {a: b, b: a}
        swapped = frozenset(
            Clause(frozenset((swap.get(p, p), pol) for p, pol in c.literals))
            for c in clause_set
        )
        if swapped == clause_set:
            count += 1
    return count


def reference_text(theory: Theory) -> str:
    """The canonical text by its definition: the sorted predicate list, then
    each clause rendered, in `Clause.sort_key` order."""
    body = "; ".join(c.render() for c in sorted(theory.clauses, key=Clause.sort_key))
    return f"[{','.join(str(p) for p in sorted(theory.predicates))}] {body}"


def reference_age(retracted, n_clauses: int):
    return tuple(sorted(n_clauses - 1 - i for i in retracted))


def reference_key(strategy: RevisionStrategy, theory: Theory, retracted, n_clauses: int):
    age = reference_age(retracted, n_clauses)
    text = reference_text(theory)
    if strategy.kind is StrategyKind.DEDUCTIVE:
        primary = (len(retracted), age)
    elif strategy.kind is StrategyKind.RANDOM:
        primary = mix(strategy.seed, int(hashlib.sha256(text.encode()).hexdigest()[:16], 16))
    elif strategy.kind is StrategyKind.HEURISTIC:
        primary = sum(len(c.literals) for c in theory.clauses)
    else:
        primary = -reference_symmetry_score(theory)
    return (primary, age, text)


def suspect_pool(theory: Theory, conflict):
    reach = {p for p, _ in conflict}
    suspects: set[int] = set()
    grown = True
    while grown:
        grown = False
        for i, c in enumerate(theory.clauses):
            if i not in suspects and c.predicates() & reach:
                suspects.add(i)
                reach |= c.predicates()
                grown = True
    return sorted(suspects)


def repair(theory: Theory, conflict, retracted) -> Theory:
    """The theory that retracting `retracted` and recording `conflict` gives."""
    obs_units = [unit(p, v) for p, v in sorted(conflict)]
    kept = tuple(c for i, c in enumerate(theory.clauses) if i not in retracted)
    return Theory(
        theory.predicates | {p for p, _ in conflict},
        kept + tuple(u for u in obs_units if u not in kept),
    )


def reference_propose_revisions(agent, conflict, strategy: RevisionStrategy, budget: int):
    conflict = sorted(frozenset(conflict))
    if any((p, not v) in conflict for p, v in conflict):
        raise ContradictoryObservations("observations give a predicate both values")
    theory = agent.theory
    recorded = repair(theory, conflict, ())
    if consistent_by_sweep(recorded):
        return [recorded]
    n = len(theory.clauses)
    candidates = []
    pool = suspect_pool(theory, conflict)
    for size in range(len(pool) + 1):
        for retracted in combinations(pool, size):
            candidate = repair(theory, conflict, retracted)
            if consistent_by_sweep(candidate):
                candidates.append((retracted, candidate))
        if len(candidates) >= REPAIR_BREADTH:
            break
    if not candidates:
        raise ValueError("no retraction from the suspect pool repairs the theory")
    candidates.sort(key=lambda rc: reference_key(strategy, rc[1], rc[0], n))
    ranked = []
    seen = set()
    for _, candidate in candidates:
        if candidate not in seen:
            seen.add(candidate)
            ranked.append(candidate)
        if len(ranked) == budget:
            break
    return ranked


def reference_bridging_candidates(theory: Theory, new_pred: int, old_preds):
    """Every consistent bridging clause, as the theory it extends."""
    out = []
    for r in sorted(old_preds):
        if r == new_pred:
            continue
        for new_pol in (True, False):
            for old_pol in (True, False):
                c = clause((new_pred, new_pol), (r, old_pol))
                if c in theory.clauses:
                    continue
                candidate = theory.with_clause(c)
                if consistent_by_sweep(candidate):
                    out.append(candidate)
    return out


def reference_revise(agent, observations, strategy: RevisionStrategy) -> Theory:
    """The theory `revise` gives, from the reference repair search and
    bridging, each bridge ranked by (score, canonical text)."""
    obs = frozenset(observations)
    theory = reference_propose_revisions(agent, obs, strategy, 1)[0]
    if strategy.kind is StrategyKind.DEDUCTIVE:
        return theory
    anchors = agent.predicates
    for q in sorted({p for p, _ in obs} - agent.predicates):
        if not anchors:
            anchors = {p for p in theory.predicates if p != q}
            continue
        options = reference_bridging_candidates(theory, q, anchors)
        if options:
            theory = min(options, key=lambda t: reference_key(strategy, t, (), 0))
        anchors = anchors | {q}
    return theory


def parent_bridging_candidates(theory: Theory, new_pred: int, old_preds):
    """The previous `_bridging_candidates`: every option decided by the
    kernel over every clause of the theory."""
    present = set(theory.clauses)
    options = [
        c
        for r in sorted(old_preds)
        if r != new_pred
        for new_pol in (True, False)
        for old_pol in (True, False)
        for c in (clause((new_pred, new_pol), (r, old_pol)),)
        if c not in present
    ]
    held = [c.masks for c in theory.clauses]
    return [c for c in options if satisfiable(held + [c.masks])]


def parent_bridge(theory: Theory, options, strategy: RevisionStrategy) -> Theory:
    """The previous `_bridge`: each option's full (score, canonical text) key,
    its text built from the theory's clauses and every option, the other
    options dropped."""
    clauses = theory.clauses + tuple(options)
    slots = range(len(theory.clauses), len(clauses))
    others = {i: frozenset(slots).difference([i]) for i in slots}
    text = canonical_texts(theory.predicates, clauses)
    texts = {i: text(dropped) for i, dropped in others.items()}
    if strategy.kind is StrategyKind.RANDOM:
        key = lambda i: (mix(strategy.seed, int(text_digest(texts[i]), 16)), texts[i])
    elif strategy.kind is StrategyKind.HEURISTIC:
        sizes = [len(c.literals) for c in clauses]
        total = sum(sizes)
        key = lambda i: (total - sum(sizes[j] for j in others[i]), texts[i])
    else:
        def key(i):
            kept = tuple(k for j, k in enumerate(clauses) if j not in others[i])
            return -symmetry_score(Theory(theory.predicates, kept)), texts[i]
    return theory.with_clause(clauses[min(texts, key=key)])


def parent_revise(agent, observations, strategy: RevisionStrategy) -> Theory:
    """The theory `revise` gives with the previous bridging."""
    obs = frozenset(observations)
    theory = propose_revisions(agent, obs, strategy, 1)[0]
    anchors = agent.predicates
    for q in sorted({p for p, _ in obs} - agent.predicates):
        if not anchors:
            anchors = {p for p in theory.predicates if p != q}
            continue
        options = parent_bridging_candidates(theory, q, anchors)
        if options:
            theory = parent_bridge(theory, options, strategy)
        anchors = anchors | {q}
    return theory


# --- generators ----------------------------------------------------------------

PREDICATES = range(8)

literal_sets = st.dictionaries(
    st.sampled_from(PREDICATES), st.booleans(), min_size=1, max_size=3
).map(lambda d: Clause(frozenset(d.items())))


def true_at(state, clauses):
    """The clauses, each one false at `state` with its least predicate's
    literal flipped, so that every clause is true there."""
    return list(dict.fromkeys(
        c if any(state[p] == pol for p, pol in c.literals)
        else Clause(frozenset((p, state[p] if p == min(c.predicates()) else pol)
                              for p, pol in c.literals))
        for c in clauses
    ))


@st.composite
def theories(draw):
    clauses = draw(st.lists(literal_sets, max_size=10, unique=True))
    if draw(st.booleans()):
        # like an agent's theory: true at some state, so consistent
        state = draw(st.fixed_dictionaries({p: st.booleans() for p in PREDICATES}))
        clauses = true_at(state, clauses)
    extra = draw(st.sets(st.sampled_from(PREDICATES), max_size=2))
    preds = frozenset(extra).union(*(c.predicates() for c in clauses))
    return Theory(preds, tuple(clauses))


@st.composite
def conflicts(draw, theory):
    """Observed literals, mostly ones that falsify a literal of the theory;
    they may name predicates the theory lacks, and may contradict."""
    falsifying = sorted({(p, not pol) for c in theory.clauses for p, pol in c.literals})
    literal = st.tuples(st.integers(0, 9), st.booleans())
    if falsifying:
        literal = st.sampled_from(falsifying) | literal
    return frozenset(draw(st.sets(literal, min_size=1, max_size=5)))


def consistent(literals):
    return frozenset(dict(sorted(literals)).items())


strategies = st.builds(
    RevisionStrategy, st.sampled_from(list(StrategyKind)), st.integers(0, 2**64 - 1)
)

NON_DEDUCTIVE = [k for k in StrategyKind if k is not StrategyKind.DEDUCTIVE]


@st.composite
def bridging_cases(draw):
    """A consistent theory, a new predicate and anchors, as `revise` bridges
    them.  The theory is true at a state and holds the units of that state
    for every predicate 0..8, so none is free, or for some of them only."""
    state = draw(st.fixed_dictionaries({p: st.booleans() for p in range(9)}))
    clauses = tuple(true_at(state, draw(theories()).clauses))
    fixed = draw(st.just(range(9)) | st.sets(st.sampled_from(range(9))))
    clauses = tuple(dict.fromkeys(clauses + tuple(unit(p, state[p]) for p in sorted(fixed))))
    new_pred = draw(st.sampled_from(range(9)))
    old_preds = draw(st.sets(st.sampled_from(range(9))))
    preds = frozenset(old_preds | {new_pred}).union(*(c.predicates() for c in clauses))
    return Theory(preds, clauses), new_pred, old_preds


# --- properties ------------------------------------------------------------------


def outcome(search, *args):
    """The search's repairs, or the type of the error it raises."""
    try:
        return search(*args)
    except ValueError as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(theories().flatmap(lambda t: st.tuples(st.just(t), conflicts(t))),
       strategies, st.integers(1, 16))
def test_propose_revisions_matches_reference(case, strategy, budget):
    # the theory may be inconsistent and the observations may contradict, so
    # both sides may raise
    theory, conflict = case
    a = agent_state(1, theory)
    assert outcome(propose_revisions, a, conflict, strategy, budget) == \
        outcome(reference_propose_revisions, a, conflict, strategy, budget)


@st.composite
def fitting_cases(draw):
    """A theory and observed literals, both true at one state over the
    predicates 0..9, so the observation fits; it may name predicates the
    theory lacks."""
    state = draw(st.fixed_dictionaries({p: st.booleans() for p in range(10)}))
    theory = draw(theories())
    observed = draw(st.sets(st.integers(0, 9), min_size=1, max_size=5))
    return (Theory(theory.predicates, tuple(true_at(state, theory.clauses))),
            frozenset((p, state[p]) for p in observed))


@settings(max_examples=300, deadline=None)
@given(fitting_cases(), st.integers(0, 2**64 - 1))
def test_observation_that_fits_is_recorded_without_retraction(case, seed):
    # every strategy and every budget get the one theory that records it
    theory, conflict = case
    recorded = repair(theory, conflict, ())
    assert consistent_by_sweep(recorded)
    a = agent_state(1, theory)
    for kind in StrategyKind:
        for budget in range(1, 17):
            assert propose_revisions(a, conflict, RevisionStrategy(kind, seed), budget) \
                == [recorded]


@settings(max_examples=300, deadline=None)
@given(theories().flatmap(lambda t: st.tuples(st.just(t), conflicts(t))),
       strategies, st.integers(1, 15), st.integers(1, 16))
def test_budget_only_truncates_the_ranking(case, strategy, budget, more):
    theory, conflict = case
    assume(consistent_by_sweep(theory))
    a = agent_state(1, theory)
    conflict = consistent(conflict)
    wider = propose_revisions(a, conflict, strategy, budget + more)
    assert propose_revisions(a, conflict, strategy, budget) == wider[:budget]


def test_deductive_search_walks_on_to_budget_distinct_theories():
    """Retracting a held observed unit besides a falsified clause records the
    unit again, so a larger retraction set can make a theory that a smaller
    one made already.  A deductive search for more than one theory then counts
    more sets than theories and walks on until it has `budget` distinct ones;
    only a search for one theory stops at its first consistent level."""
    theory = Theory(frozenset(range(4)),
                    (unit(1, True), unit(0, True), unit(2, False), unit(3, False)))
    conflict = {(0, True), (1, True), (2, False), (3, True)}
    agent = agent_state(1, theory)
    strategy = RevisionStrategy(StrategyKind.DEDUCTIVE)
    for budget in range(1, 5):
        repairs = propose_revisions(agent, conflict, strategy, budget)
        assert repairs == reference_propose_revisions(agent, conflict, strategy, budget)
        assert len(set(repairs)) == budget


@settings(max_examples=300, deadline=None)
@given(theories(), st.data())
def test_kernel_verdict_matches_models(theory, data):
    conflict = consistent(data.draw(conflicts(theory)))
    retracted = data.draw(st.sets(st.sampled_from(range(len(theory.clauses)))
                                  if theory.clauses else st.nothing()))
    falsified, residue = residues(theory.clauses, dict(conflict))
    verdict = falsified <= retracted and satisfiable(
        [r for i, r in residue.items() if i not in retracted])
    assert verdict == consistent_by_sweep(repair(theory, conflict, retracted))


@settings(max_examples=300, deadline=None)
@given(theories().flatmap(lambda t: st.tuples(st.just(t), conflicts(t))), strategies)
def test_revise_matches_reference(case, strategy):
    # observations may name predicates the theory lacks, so bridging runs
    theory, observations = case
    assume(consistent_by_sweep(theory))
    a = agent_state(1, theory)
    observations = consistent(observations)
    assert revise(a, observations, strategy).theory == reference_revise(a, observations, strategy)


@settings(max_examples=300, deadline=None)
@given(theories(), st.data())
def test_bridging_verdicts_match_models(theory, data):
    assume(consistent_by_sweep(theory))
    new_pred = data.draw(st.sampled_from(sorted(theory.predicates | {8})))
    old_preds = data.draw(st.sets(st.sampled_from(PREDICATES)))
    theory = Theory(theory.predicates | old_preds | {new_pred}, theory.clauses)
    assert [theory.with_clause(c) for c in _bridging_candidates(theory, new_pred, old_preds)] \
        == reference_bridging_candidates(theory, new_pred, old_preds)


# predicates past 9, where "p10" sorts before "p2" as text
wide_clauses = st.dictionaries(
    st.integers(0, 12), st.booleans(), min_size=1, max_size=3
).map(lambda d: Clause(frozenset(d.items())))


@settings(max_examples=300, deadline=None)
@given(st.lists(wide_clauses, max_size=10, unique=True), st.data())
def test_canonical_texts_match_reference(clauses, data):
    clauses = tuple(clauses)
    extra = data.draw(st.sets(st.integers(0, 14), max_size=2))
    preds = frozenset(extra).union(*(c.predicates() for c in clauses))
    dropped = data.draw(st.sets(st.integers(0, len(clauses))))
    kept = tuple(c for i, c in enumerate(clauses) if i not in dropped)
    assert canonical_texts(preds, clauses)(dropped) == reference_text(Theory(preds, kept))
    assert Theory(preds, clauses).canonical_text() == reference_text(Theory(preds, clauses))
    # the bridging shape: a theory's clauses plus options, all options but one dropped
    options = data.draw(st.lists(wide_clauses.filter(lambda c: c not in clauses),
                                 min_size=1, max_size=4, unique=True))
    preds = preds.union(*(c.predicates() for c in options))
    text = canonical_texts(preds, clauses + tuple(options))
    extended = extended_texts(preds, clauses)
    slots = range(len(clauses), len(clauses) + len(options))
    for i, option in zip(slots, options):
        want = reference_text(Theory(preds, clauses + (option,)))
        assert text(set(slots) - {i}) == want
        assert extended(option) == want


@settings(max_examples=300, deadline=None)
@given(bridging_cases())
def test_bridging_candidates_match_the_parent(case):
    # with every predicate fixed by a unit the kernel is never asked
    theory, new_pred, old_preds = case
    assert _bridging_candidates(theory, new_pred, old_preds) == \
        parent_bridging_candidates(theory, new_pred, old_preds)


@settings(max_examples=300, deadline=None)
@given(bridging_cases(), st.sampled_from(NON_DEDUCTIVE), st.integers(0, 2**64 - 1))
def test_bridge_matches_the_parent(case, kind, seed):
    theory, new_pred, old_preds = case
    options = parent_bridging_candidates(theory, new_pred, old_preds)
    assume(options)
    strategy = RevisionStrategy(kind, seed)
    assert _bridge(theory, options, strategy) == parent_bridge(theory, options, strategy)


def test_bridging_asks_the_kernel_only_where_units_do_not_decide(monkeypatch):
    # p5 is asserted, so every option with p5 holds; of those with ~p5, the
    # anchor's literal is asserted (consistent), denied (inconsistent) or, for
    # the free p4, left to the kernel
    theory = Theory(frozenset(range(6)), (
        unit(0, True), unit(1, False), unit(2, True), unit(3, False), unit(5, True),
        clause((4, True), (0, False), (1, True)),
    ))
    asked = []
    real = revision.satisfiable
    monkeypatch.setattr(revision, "satisfiable", lambda masks: asked.append(masks) or real(masks))
    options = _bridging_candidates(theory, 5, range(5))
    assert len(asked) == 2
    assert options == parent_bridging_candidates(theory, 5, range(5))
    assert len(options) == 10 + 4 + 1  # ~p5 | ~p4 is consistent, ~p5 | p4 is not


@settings(max_examples=100, deadline=None)
@given(theories(), st.lists(literal_sets, min_size=1, max_size=5, unique=True),
       st.sampled_from(NON_DEDUCTIVE))
def test_bridge_builds_each_option_text_once(theory, options, kind):
    """One clause rendering per bridge, and at most one canonical text per
    option: random hashes every option's text and the others build texts only
    among the options of the best score, where the text breaks the tie."""
    options = [c for c in options if c not in theory.clauses]
    assume(options)
    theory = Theory(theory.predicates.union(*(c.predicates() for c in options)), theory.clauses)
    renderings, built = [], []

    def counting(predicates, clauses):
        renderings.append(clauses)
        text = extended_texts(predicates, clauses)
        return lambda c: built.append(c) or text(c)

    revision.extended_texts, real = counting, revision.extended_texts
    try:
        strategy = RevisionStrategy(kind, 5)
        chosen = _bridge(theory, options, strategy)
    finally:
        revision.extended_texts = real
    assert renderings == [theory.clauses]
    assert len(built) == len(set(built))
    if kind is StrategyKind.RANDOM:
        assert sorted(built, key=Clause.sort_key) == sorted(options, key=Clause.sort_key)
    else:
        scores = {c: reference_key(strategy, theory.with_clause(c), (), 0)[0] for c in options}
        best = min(scores.values())
        tied = [c for c in options if scores[c] == best]
        assert built == ([] if len(tied) == 1 else tied)
    assert chosen == parent_bridge(theory, options, strategy)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 3)), st.integers(0, 8))
def test_ranking_computes_ties_only_among_equal_scores(scores, taken):
    """`_ranked` gives the (score, tie) order, and a tie only for a candidate
    whose score another shares, once the ranking reaches its run."""
    candidates = list(range(len(scores)))
    tie = [-c for c in candidates]  # the newest first, as the age ranks
    asked = []
    ranking = _ranked(candidates, scores.__getitem__, lambda c: asked.append(c) or tie[c])
    first = [c for _, c in zip(range(taken), ranking)]
    order = sorted(candidates, key=lambda c: (scores[c], tie[c]))
    assert first == order[:taken]
    runs_reached = {scores[c] for c in first}
    assert sorted(asked) == [c for c in candidates
                             if scores[c] in runs_reached and scores.count(scores[c]) > 1]
    assert list(_ranked(candidates, scores.__getitem__, tie.__getitem__)) == order


def test_sixty_new_predicates_bridge_as_the_parent_does():
    # one first-tick revise in which a heuristic and a random agent observe 60
    # new predicates, 59 bridges over about 236 options each, and an aesthetic
    # agent 40, which the parent bridging scores one whole theory per option
    a = agent_state(1, empty_theory())
    for kind, n in ((StrategyKind.HEURISTIC, 60), (StrategyKind.RANDOM, 60),
                    (StrategyKind.AESTHETIC, 40)):
        observations = frozenset((p, bool(mix(11, p) & 1)) for p in range(n))
        strategy = RevisionStrategy(kind, 5)
        theory = revise(a, observations, strategy).theory
        assert len(theory.clauses) == n + n - 1
        assert theory.digest() == parent_revise(a, observations, strategy).digest()


def transposed(c: Clause, a: int, b: int) -> Clause:
    swap = {a: b, b: a}
    return Clause(frozenset((swap.get(p, p), pol) for p, pol in c.literals))


@st.composite
def symmetric_theories(draw, swaps=1):
    """Theories closed under a transposition, so that some score above 0: the
    clauses are closed under each of `swaps` transpositions in turn."""
    theory = draw(theories())
    clauses, preds = theory.clauses, theory.predicates
    for _ in range(swaps):
        a, b = draw(st.lists(st.sampled_from(PREDICATES), min_size=2, max_size=2, unique=True))
        clauses = tuple(dict.fromkeys(clauses + tuple(transposed(c, a, b) for c in clauses)))
        preds = preds | {a, b}
    return Theory(preds, clauses)


@settings(max_examples=300, deadline=None)
@given(theories() | symmetric_theories() | symmetric_theories(swaps=2))
def test_symmetry_score_matches_brute_force(theory):
    assert symmetry_score(theory) == reference_symmetry_score(theory)


AESTHETIC = RevisionStrategy(StrategyKind.AESTHETIC)


@settings(max_examples=300, deadline=None)
@given(theories() | symmetric_theories() | symmetric_theories(swaps=2), st.data())
def test_aesthetic_bridge_score_matches_symmetry_score(theory, data):
    """The aesthetic key of an added clause, scored by its delta, is minus
    the brute-force symmetry score of the theory plus the clause.  The clauses
    are drawn at random and as transposed images of the theory's clauses, so
    that adding one can complete a symmetry as well as break one."""
    images = [transposed(c, a, b) for c in theory.clauses for a, b in combinations(PREDICATES, 2)]
    added = data.draw(st.lists(
        (st.sampled_from(images) | literal_sets) if images else literal_sets,
        min_size=1, max_size=8, unique=True))
    added = [c for c in added if c not in theory.clauses]
    assume(added)
    preds = theory.predicates.union(*(c.predicates() for c in added))
    key = revision._strategy_key(AESTHETIC, preds, theory.clauses)
    for c in added:
        assert key(c) == -reference_symmetry_score(Theory(preds, theory.clauses + (c,)))


@settings(max_examples=300, deadline=None)
@given(theories() | symmetric_theories() | symmetric_theories(swaps=2), st.data())
def test_aesthetic_repair_score_matches_symmetry_score(theory, data):
    """The aesthetic key of a dropped clause set, scored by its delta, is minus
    the brute-force symmetry score of the kept clauses.  Half the sets drop
    every clause of some predicate, which stays in the theory with no clause."""
    n = len(theory.clauses)
    assume(n)
    mentioned = sorted(set().union(*(c.predicates() for c in theory.clauses)))
    sets = []
    for _ in range(data.draw(st.integers(1, 6))):
        dropped = data.draw(st.sets(st.integers(0, n - 1)))
        if data.draw(st.booleans()):
            p = data.draw(st.sampled_from(mentioned))
            dropped |= {i for i, c in enumerate(theory.clauses) if p in c.predicates()}
        sets.append(frozenset(dropped))
    key = revision._strategy_key(AESTHETIC, theory.predicates, theory.clauses,
                                 dropped=lambda r: r)
    for dropped in sets:
        kept = tuple(c for i, c in enumerate(theory.clauses) if i not in dropped)
        assert key(dropped) == -reference_symmetry_score(Theory(theory.predicates, kept))


def test_aesthetic_repair_score_of_a_broken_square():
    # (a b) and (x z) map each kept clause to a dropped one: with the dropped
    # clauses still counted as present, both would seem to fix the kept set
    a, b, x, z = range(4)
    square = (clause((a, True), (x, True)), clause((b, True), (x, True)),
              clause((a, True), (z, True)), clause((b, True), (z, True)))
    key = revision._strategy_key(AESTHETIC, frozenset(range(4)), square, dropped=lambda r: r)
    kept = Theory(frozenset(range(4)), square[::3])
    assert key(frozenset({1, 2})) == -reference_symmetry_score(kept) == -2


# --- the candidate set ---------------------------------------------------------


def test_candidate_sets_follow_their_definition():
    # p0 is observed true: the unit ~p0 must go, the nine clauses p0 | pi are
    # satisfied whatever is kept, and p20 lies outside the suspect pool
    conflict = {(0, True)}
    theory = Theory(
        frozenset(range(10)) | {20},
        (unit(0, False),) + tuple(clause((0, True), (i, True)) for i in range(1, 10))
        + (unit(20, True),),
    )
    a = agent_state(1, theory)
    n = len(theory.clauses)
    pool = suspect_pool(theory, conflict)
    assert pool == list(range(10))
    consistent = [
        r for size in range(len(pool) + 1) for r in combinations(pool, size)
        if consistent_by_sweep(repair(theory, conflict, r))
    ]
    budget = 8

    # deductive: the first retraction sets in increasing (size, age) order
    consistent.sort(key=lambda r: (len(r), reference_age(r, n)))
    expected = [repair(theory, conflict, r) for r in consistent[:budget]]
    assert propose_revisions(a, conflict, RevisionStrategy(StrategyKind.DEDUCTIVE), budget) \
        == expected
    assert expected[0] == repair(theory, conflict, (0,))
    assert expected[1] == repair(theory, conflict, (0, 9))

    # the others, whatever the budget: every consistent retraction up to the
    # first size level at which the count reaches REPAIR_BREADTH = 128, here
    # 1 + 9 + 36 + 84
    level = next(k for k in range(len(pool) + 1)
                 if sum(len(r) <= k for r in consistent) >= REPAIR_BREADTH)
    assert level == 4
    candidates = [r for r in consistent if len(r) <= level]
    heuristic = RevisionStrategy(StrategyKind.HEURISTIC)
    candidates.sort(key=lambda r: reference_key(
        heuristic, repair(theory, conflict, r), r, n))
    for budget in (1, 8, 20):
        ranked = propose_revisions(a, conflict, heuristic, budget)
        assert ranked == [repair(theory, conflict, r) for r in candidates[:budget]]
    # the fewest literals win, so a search past the breadth would rank the
    # largest retractions first
    for t in ranked:
        assert len(t.clauses) == n - level + 1
        assert unit(20, True) in t.clauses


# --- the repair limit ----------------------------------------------------------


def test_repair_limit_refuses_a_level_before_walking_it(monkeypatch):
    # the heuristic search above walks levels 1..4 of its 9 optional clauses:
    # 1 + 9 + 36 + 84 = 130 retraction sets
    conflict = {(0, True)}
    theory = Theory(
        frozenset(range(10)) | {20},
        (unit(0, False),) + tuple(clause((0, True), (i, True)) for i in range(1, 10))
        + (unit(20, True),),
    )
    a = agent_state(1, theory)
    heuristic = RevisionStrategy(StrategyKind.HEURISTIC)
    want = propose_revisions(a, conflict, heuristic, 1)
    monkeypatch.setattr(revision, "MAX_REPAIR_CHECKS", 130)
    assert propose_revisions(a, conflict, heuristic, 1) == want
    monkeypatch.setattr(revision, "MAX_REPAIR_CHECKS", 129)
    with pytest.raises(RepairLimit, match=r"pool of 10 clauses refused at size level 4: "
                                          r"it would walk 130 .* limit of 129"):
        propose_revisions(a, conflict, heuristic, 1)


LARGE_VOCABULARY_PROBE = {
    # two agents at visibility 1/2: a deductive one with the first half of the
    # predicates as its niche and a heuristic one with the middle half
    "seed": 5, "weights": ["1/2", "1/4", "1/4"], "initial_predicates": 120,
    "agents": [
        {"id": 1, "niche": list(range(60)), "visibility": "1/2", "strategy": "deductive"},
        {"id": 2, "niche": list(range(30, 90)), "visibility": "1/2", "strategy": "heuristic"},
    ],
    "run": {"ticks": 100, "depth": 1, "replicates": 4},
}


def test_large_vocabulary_probe_raises_instead_of_hanging(tmp_path):
    # in replicate 0 an observation falsifies 34 of the heuristic agent's
    # units, and its bridges force the old values, so no retraction of fewer
    # than 37 of the 228 suspects is consistent; walking C(194, 3) sets and
    # more would take minutes
    scenario = harness.scenario_from_dict(LARGE_VOCABULARY_PROBE)
    start = time.perf_counter()
    with pytest.raises(RepairLimit, match="pool of 228 clauses refused at size level 37"):
        harness.run_full(scenario, 0)
    assert time.perf_counter() - start < 30
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(LARGE_VOCABULARY_PROBE))
    out = tmp_path / "trace.jsonl"
    result = CliRunner().invoke(main, ["run", "--scenario", str(path), "--out", str(out)])
    assert result.exit_code == 1
    assert "revision.MAX_REPAIR_CHECKS" in result.output


def test_large_vocabulary_probe_with_an_aesthetic_agent_raises_quickly():
    # the probe with its heuristic agent scoring by symmetry instead: replicate
    # 1 is refused at level 13 of a 254-clause pool, which scoring every
    # bridging option by a whole theory took over 20 s to reach
    data = json.loads(json.dumps(LARGE_VOCABULARY_PROBE))
    data["agents"][1]["strategy"] = "aesthetic"
    scenario = harness.scenario_from_dict(data)
    start = time.perf_counter()
    with pytest.raises(RepairLimit) as refused:
        harness.run_full(scenario, 1)
    assert time.perf_counter() - start < 30
    assert str(refused.value) == (
        "repair search over a pool of 254 clauses refused at size level 13: it would walk "
        "2,421,335 retraction sets, past the limit of 1,000,000 (revision.MAX_REPAIR_CHECKS)"
    )


AESTHETIC_SCENARIO = {
    # the shape of the benchmark's aesthetic repair-search runs: one agent on a
    # closed world of 8 predicates, contradicted on most ticks
    "seed": 11, "weights": ["3/5", "2/5", "0"], "initial_predicates": 8,
    "agents": [{"id": 1, "niche": [0, 1], "visibility": "1/2",
                "strategy": "aesthetic", "strategy_seed": 11}],
    "run": {"ticks": 6, "depth": 1, "replicates": 3},
}
AESTHETIC_TRACE_SHA256 = "fc6f47f09f04c8c462f95e201fad34d3c3b88a18e4d8f44f8f19d92f990c6d23"


def test_aesthetic_scenario_reproduces_its_pinned_digest(tmp_path):
    # the JSONL traces of every replicate, concatenated; pinned from the engine
    # that scored each aesthetic candidate by the whole theory it makes
    scenario = harness.scenario_from_dict(AESTHETIC_SCENARIO)
    h = hashlib.sha256()
    for r in range(scenario.run.replicates):
        path = tmp_path / f"{r}.jsonl"
        harness.export(harness.run(scenario, r), "jsonl", path)
        h.update(path.read_bytes())
    assert h.hexdigest() == AESTHETIC_TRACE_SHA256
