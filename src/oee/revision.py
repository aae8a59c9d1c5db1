"""Theory revision under novelty.

Two duties: repair a theory contradicted by observation (retract clauses until
the observed literals fit, then record them as units), and extend the language
when observations mention unknown predicates.  Strategies differ in how they
rank repair candidates and in which unforced bridging clauses they adopt when
the language grows; the deductive strategy adopts none.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from itertools import combinations

from .epistemics import AgentState
from .rng import mix
from .universe import (
    Clause,
    Theory,
    canonical_text,
    clause,
    residues,
    satisfiable,
    text_digest,
    unit,
)


class ContradictoryObservations(ValueError):
    """The observed literals give one predicate both truth values."""


class StrategyKind(Enum):
    DEDUCTIVE = "deductive"
    RANDOM = "random"
    HEURISTIC = "heuristic"
    AESTHETIC = "aesthetic"


@dataclass(frozen=True, slots=True)
class RevisionStrategy:
    kind: StrategyKind
    seed: int = 0


class ExtensionClass(Enum):
    ESSENTIAL = "essential"
    INESSENTIAL = "inessential"
    NOT_AN_EXTENSION = "not-an-extension"


def symmetry_score(theory: Theory) -> int:
    """Number of predicate transpositions leaving the clause set fixed."""
    # A transposition (a b) fixing the clause set maps the clauses of a onto
    # those of b, so only predicates with equal signatures, the multiset of
    # (polarity, clause length) over their clauses, are tried.
    signature = {p: [] for p in theory.predicates}
    touching = {p: [] for p in theory.predicates}
    for c in theory.clauses:
        for p, pol in c.literals:
            signature[p].append((pol, len(c.literals)))
            touching[p].append(c.literals)
    groups = defaultdict(list)
    for p in sorted(theory.predicates):
        groups[tuple(sorted(signature[p]))].append(p)
    clause_set = frozenset(c.literals for c in theory.clauses)
    count = 0
    for group in groups.values():
        for a, b in combinations(group, 2):
            swap = {a: b, b: a}
            # the swap is injective and fixes every clause without a or b, so
            # it fixes the set once it maps the clauses of a and b into it
            if all(
                frozenset((swap.get(p, p), pol) for p, pol in literals) in clause_set
                for literals in touching[a] + touching[b]
            ):
                count += 1
    return count


def _contradicted(literals):
    """A predicate that `literals` give both truth values, or None."""
    seen = {}
    for p, v in literals:
        if seen.setdefault(p, v) != v:
            return p
    return None


def _strategy_key(strategy: RevisionStrategy, predicates, clauses, age=()):
    """Sort key of the candidate `Theory(predicates, clauses)`: the strategy's
    score, then `age`, the retracted clauses counted from the newest (empty
    for a bridging clause), then the canonical text.  Distinct repairs differ
    in age, so the deductive key, which scores a repair by the number of
    clauses it retracts, needs no text."""
    if strategy.kind is StrategyKind.DEDUCTIVE:
        return (len(age), age)
    text = canonical_text(predicates, clauses)
    if strategy.kind is StrategyKind.RANDOM:
        primary = mix(strategy.seed, int(text_digest(text), 16))
    elif strategy.kind is StrategyKind.HEURISTIC:
        primary = sum(len(c.literals) for c in clauses)
    else:
        primary = -symmetry_score(Theory(predicates, clauses))
    return (primary, age, text)


def propose_revisions(agent: AgentState, conflict, strategy: RevisionStrategy, budget: int):
    """Ranked consistent repairs of the agent's theory against the observed
    literals: retract some clauses, keep the rest, record the observations as
    unit clauses.  Ranking is strategy-scored, deterministic given seeds.

    The candidates are the consistent retraction sets drawn from the suspect
    pool (the clauses linked to an observed predicate through shared
    predicates), or from all clauses when no retraction from that pool is
    consistent.  They are taken a whole size level at a time by increasing
    size:

    - deductive: up to the first level at which they make `budget` distinct
      theories, so the repairs are the first retraction sets in increasing
      (size, age) order;
    - other strategies: up to the first level at which their count reaches
      max(8 * budget, 64), which also ends a deductive search.

    Returns at most `budget` distinct theories, and none when the observed
    literals contradict each other."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    conflict = sorted(frozenset(conflict))
    if _contradicted(conflict) is not None:
        return []
    observed = dict(conflict)
    theory = agent.theory
    clauses = theory.clauses
    preds = theory.predicates.union(observed)
    n = len(clauses)
    # an observed unit is re-recorded, after the kept clauses, unless the
    # theory holds it at an index that is kept
    unit_slots = [
        (u, clauses.index(u) if u in clauses else None)
        for u in (unit(p, v) for p, v in conflict)
    ]
    pool_cap = max(budget * 8, 64)
    deductive = strategy.kind is StrategyKind.DEDUCTIVE
    # Any unsatisfiable core of theory + observation units is connected (via
    # shared predicates) to an observed predicate, because the theory alone is
    # consistent.  Minimal repairs therefore retract only conflict-connected
    # clauses; the full clause set is the fallback.
    clause_preds = [c.predicates() for c in clauses]
    reach = set(observed)
    suspects: set[int] = set()
    grown = True
    while grown:
        grown = False
        for i, c_preds in enumerate(clause_preds):
            if i not in suspects and c_preds & reach:
                suspects.add(i)
                reach |= c_preds
                grown = True
    pools = [sorted(suspects)]
    if len(suspects) < n:
        pools.append(list(range(n)))
    # every falsified clause mentions only observed predicates, so is a suspect
    falsified, residue = residues(clauses, observed)
    candidates = []
    for pool in pools:
        # the clauses outside the suspect pool share no predicate with it, so
        # they are satisfiable apart or not at all
        inside = set(pool)
        if not satisfiable([r for i, r in residue.items() if i not in inside]):
            continue
        optional = [i for i in pool if i not in falsified]
        pool_residues = frozenset(inside & residue.keys())
        verdicts: dict[frozenset[int], bool] = {}
        for size in range(len(falsified), len(pool) + 1):
            for extra in combinations(optional, size - len(falsified)):
                kept_residues = pool_residues.difference(extra)
                consistent = verdicts.get(kept_residues)
                if consistent is None:
                    consistent = verdicts[kept_residues] = satisfiable(
                        [residue[i] for i in kept_residues]
                    )
                if consistent:
                    retracted = falsified.union(extra)
                    kept = tuple(c for i, c in enumerate(clauses) if i not in retracted)
                    kept += tuple(u for u, j in unit_slots if j is None or j in retracted)
                    candidates.append((retracted, kept))
            if len(candidates) >= pool_cap or (
                deductive and len({kept for _, kept in candidates}) >= budget
            ):
                break
        if candidates:
            break
    def key(candidate):
        retracted, kept = candidate
        age = tuple(sorted(n - 1 - i for i in retracted))
        return _strategy_key(strategy, preds, kept, age)

    candidates.sort(key=key)
    ranked = []
    seen = set()
    for _, kept in candidates:
        if kept not in seen:
            seen.add(kept)
            ranked.append(Theory(preds, kept))
            if len(ranked) == budget:
                break
    return ranked


def _bridging_candidates(theory: Theory, new_pred: int, old_preds):
    """Consistent two-literal implications linking a new predicate to an old
    one, given the theory already contains the observed units."""
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
                if candidate.models():
                    out.append(candidate)
    return out


def revise(agent: AgentState, observations, strategy: RevisionStrategy) -> AgentState:
    """One revision step.  Language extension for unknown predicates (with one
    strategy-chosen bridging clause per new predicate for the nonlogical
    strategies), retraction-based repair for contradictions, observed literals
    recorded as unit clauses.  The result is always consistent; observations
    that give a predicate both values raise ContradictoryObservations."""
    obs = frozenset(observations)
    contradicted = _contradicted(sorted(obs))
    if contradicted is not None:
        raise ContradictoryObservations(
            f"observations give predicate p{contradicted} both values"
        )
    old_theory = agent.theory
    old_preds = agent.predicates
    new_preds = sorted({p for p, _ in obs} - old_preds)

    with_units = Theory(
        old_theory.predicates | {p for p, _ in obs},
        old_theory.clauses
        + tuple(
            u
            for p, v in sorted(obs)
            for u in (unit(p, v),)
            if u not in old_theory.clauses
        ),
    )
    if with_units.models():
        theory = with_units
    else:
        budget = 1 if strategy.kind is StrategyKind.DEDUCTIVE else 16
        theory = propose_revisions(agent, obs, strategy, budget)[0]

    if strategy.kind is not StrategyKind.DEDUCTIVE:
        anchors = old_preds if old_preds else set()
        for q in new_preds:
            if not anchors:
                anchors = {p for p in theory.predicates if p != q}
                continue
            options = _bridging_candidates(theory, q, anchors)
            if options:
                theory = min(
                    options,
                    key=lambda t: _strategy_key(strategy, t.predicates, t.clauses),
                )
            anchors = anchors | {q}

    history = agent.history
    if theory != old_theory:
        history = history + ((theory.digest(), len(theory.predicates)),)
    return replace(agent, theory=theory, observations=obs, history=history)


@lru_cache(maxsize=1 << 16)
def _project(theory: Theory, shared: frozenset[int]):
    return frozenset(s.restrict(shared) for s in theory.models())


@lru_cache(maxsize=1 << 16)
def _entailed_by(c: Clause, theory: Theory) -> bool:
    if not c.predicates() <= theory.predicates:
        return False
    return all(c.satisfied_by(s) for s in theory.models())


def classify_extension(old: Theory, new: Theory) -> ExtensionClass:
    shared = old.predicates & new.predicates
    if not _project(new, shared) <= _project(old, shared):
        return ExtensionClass.NOT_AN_EXTENSION
    if new.predicates != old.predicates:
        return ExtensionClass.ESSENTIAL
    if all(_entailed_by(c, old) for c in new.clauses):
        return ExtensionClass.INESSENTIAL
    return ExtensionClass.ESSENTIAL
