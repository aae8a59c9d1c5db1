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
it by truth table, where the engine decides bridging clauses on masks.

`Theory.models` runs on the same kernel as the engine's consistency checks,
so no reference here asks it: `consistent_by_sweep` tries every assignment
with `Clause.satisfied_by`.  Likewise the canonical text the ranking hashes
and ties on comes from `reference_text`, not from the engine's builder.
"""

import hashlib
from functools import lru_cache, reduce
from itertools import combinations
from operator import and_

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oee import revision
from oee.epistemics import agent_state
from oee.revision import (
    REPAIR_BREADTH,
    ContradictoryObservations,
    RevisionStrategy,
    StrategyKind,
    _bridge,
    _bridging_candidates,
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
    residues,
    satisfiable,
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
    slots = range(len(clauses), len(clauses) + len(options))
    for i, option in zip(slots, options):
        assert text(set(slots) - {i}) == reference_text(Theory(preds, clauses + (option,)))


@settings(max_examples=100, deadline=None)
@given(theories(), st.lists(literal_sets, min_size=1, max_size=5, unique=True),
       st.sampled_from([k for k in StrategyKind if k is not StrategyKind.DEDUCTIVE]))
def test_bridge_builds_each_option_text_once(theory, options, kind):
    """One clause rendering per bridge, and one canonical text per option,
    which random both hashes and ties on."""
    options = [c for c in options if c not in theory.clauses]
    assume(options)
    theory = Theory(theory.predicates.union(*(c.predicates() for c in options)), theory.clauses)
    renderings, built = [], []

    def counting(predicates, clauses):
        renderings.append(clauses)
        text = canonical_texts(predicates, clauses)
        return lambda dropped: built.append(sorted(dropped)) or text(dropped)

    revision.canonical_texts, real = counting, revision.canonical_texts
    try:
        chosen = _bridge(theory, options, RevisionStrategy(kind, 5))
    finally:
        revision.canonical_texts = real
    slots = set(range(len(theory.clauses), len(theory.clauses) + len(options)))
    assert len(renderings) == 1
    assert sorted(built) == sorted(sorted(slots - {i}) for i in slots)
    assert chosen in [theory.with_clause(c) for c in options]


@st.composite
def symmetric_theories(draw):
    """Theories closed under one transposition, so that some score above 0."""
    theory = draw(theories())
    a, b = draw(st.lists(st.sampled_from(PREDICATES), min_size=2, max_size=2, unique=True))
    swap = {a: b, b: a}
    swapped = (Clause(frozenset((swap.get(p, p), pol) for p, pol in c.literals))
               for c in theory.clauses)
    clauses = tuple(dict.fromkeys(theory.clauses + tuple(swapped)))
    return Theory(theory.predicates | {a, b}, clauses)


@settings(max_examples=300, deadline=None)
@given(theories() | symmetric_theories())
def test_symmetry_score_matches_brute_force(theory):
    assert symmetry_score(theory) == reference_symmetry_score(theory)


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
