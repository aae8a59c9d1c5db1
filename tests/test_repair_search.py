"""Repair search and bridging checked against a slow reference.

`reference_propose_revisions` is the search as first written: it builds a
`Theory` for every retraction set, decides whether it is consistent by truth
table and ranks by (score, age, canonical text).  The engine decides
consistency on clause bitmasks instead, stops the deductive search early,
scores candidates from their retraction sets and breaks ties on age alone;
these tests hold it to the same ranked repairs.  `reference_revise` likewise
builds every bridging candidate with `Theory.with_clause` and decides it by
truth table, where the engine decides bridging clauses on masks.

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

from oee.epistemics import agent_state
from oee.revision import (
    RevisionStrategy,
    StrategyKind,
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
    theory = agent.theory
    n = len(theory.clauses)
    candidates = []
    pool_cap = max(budget * 8, 64)
    suspects = suspect_pool(theory, conflict)
    pools = [suspects]
    if len(suspects) < n:
        pools.append(list(range(n)))
    for pool in pools:
        for size in range(len(pool) + 1):
            for retracted in combinations(pool, size):
                candidate = repair(theory, conflict, retracted)
                if consistent_by_sweep(candidate):
                    candidates.append((retracted, candidate))
            if len(candidates) >= pool_cap:
                break
        if candidates:
            break
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
    deductive = strategy.kind is StrategyKind.DEDUCTIVE
    old = agent.theory
    units = tuple(unit(p, v) for p, v in sorted(obs))
    theory = Theory(old.predicates | {p for p, _ in obs},
                    old.clauses + tuple(u for u in units if u not in old.clauses))
    if not consistent_by_sweep(theory):
        theory = reference_propose_revisions(agent, obs, strategy, 1 if deductive else 16)[0]
    if deductive:
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


@st.composite
def theories(draw):
    clauses = draw(st.lists(literal_sets, max_size=10, unique=True))
    if draw(st.booleans()):
        # like an agent's theory: true at some state, so consistent
        state = draw(st.fixed_dictionaries({p: st.booleans() for p in PREDICATES}))
        clauses = list(dict.fromkeys(
            c if any(state[p] == pol for p, pol in c.literals)
            else Clause(frozenset((p, state[p] if p == min(c.predicates()) else pol)
                                  for p, pol in c.literals))
            for c in clauses
        ))
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


@settings(max_examples=300, deadline=None)
@given(theories().flatmap(lambda t: st.tuples(st.just(t), conflicts(t))),
       strategies, st.integers(1, 16))
def test_propose_revisions_matches_reference(case, strategy, budget):
    theory, conflict = case
    a = agent_state(1, theory)
    assert propose_revisions(a, conflict, strategy, budget) == \
        reference_propose_revisions(a, conflict, strategy, budget)


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
    # p0 is observed true: the unit ~p0 must go, the seven clauses p0 | pi are
    # satisfied whatever is kept, and p20 lies outside the suspect pool
    conflict = {(0, True)}
    theory = Theory(
        frozenset(range(8)) | {20},
        (unit(0, False),) + tuple(clause((0, True), (i, True)) for i in range(1, 8))
        + (unit(20, True),),
    )
    a = agent_state(1, theory)
    n = len(theory.clauses)
    pool = suspect_pool(theory, conflict)
    assert pool == list(range(8))
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
    assert expected[1] == repair(theory, conflict, (0, 7))

    # the others: every consistent retraction up to the first size level at
    # which the count reaches max(8 * budget, 64) = 64, here 1 + 7 + 21 + 35
    pool_cap = max(8 * budget, 64)
    level = next(k for k in range(len(pool) + 1)
                 if sum(len(r) <= k for r in consistent) >= pool_cap)
    assert level == 4
    candidates = [r for r in consistent if len(r) <= level]
    heuristic = RevisionStrategy(StrategyKind.HEURISTIC)
    candidates.sort(key=lambda r: reference_key(
        heuristic, repair(theory, conflict, r), r, n))
    ranked = propose_revisions(a, conflict, heuristic, budget)
    assert ranked == [repair(theory, conflict, r) for r in candidates[:budget]]
    # the fewest literals win, so without the cap the largest retractions would
    for t in ranked:
        assert len(t.clauses) == n - level + 1
        assert unit(20, True) in t.clauses
