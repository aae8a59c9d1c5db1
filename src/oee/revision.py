"""Theory revision under novelty.

Two duties: repair a theory contradicted by observation (retract clauses until
the observed literals fit, then record them as units), and extend the language
when observations mention unknown predicates.  Strategies differ in how they
rank repair candidates and in which unforced bridging clauses they adopt when
the language grows; the deductive strategy adopts none.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from enum import Enum
from itertools import combinations

from .epistemics import AgentState
from .rng import mix
from .universe import (
    Theory,
    canonical_texts,
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
    # (polarity, clause length) over their clauses, can pair.  Within a
    # signature group, the orbit key of p is its clauses with p replaced by a
    # placeholder.  When a and b share no clause, (a b) fixes the set exactly
    # when their orbit keys are equal, so those pairs are counted per key and
    # only the pairs that share a clause are tried on the clauses (Crawford,
    # Ginsberg, Luks & Roy, KR 1996).
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
        if len(group) < 2:
            continue
        orbit = {
            p: frozenset(
                frozenset((None if q == p else q, pol) for q, pol in literals)
                for literals in touching[p]
            )
            for p in group
        }
        count += sum(k * (k - 1) // 2 for k in Counter(orbit.values()).values())
        members = set(group)
        for a in group:
            for b in {q for literals in touching[a] for q, _ in literals}:
                if b <= a or b not in members:
                    continue
                swap = {a: b, b: a}
                # the swap is injective and fixes every clause without a or b,
                # so it fixes the set once it maps the clauses of a and b into it
                fixes = all(
                    frozenset((swap.get(p, p), pol) for p, pol in literals) in clause_set
                    for literals in touching[a] + touching[b]
                )
                count += fixes - (orbit[a] == orbit[b])
    return count


def _contradicted(literals):
    """A predicate that `literals` give both truth values, or None."""
    seen = {}
    for p, v in literals:
        if seen.setdefault(p, v) != v:
            return p
    return None


def _strategy_key(strategy: RevisionStrategy, predicates, clauses, dropped, tie):
    """Sort key of `strategy` over candidates: the strategy's score (lower
    ranks first), then `tie(c)`, which tells any two candidates apart.

    A candidate `c` is the theory over `predicates` that keeps every clause
    of `clauses` whose index is not in `dropped(c)`.  Each strategy derives
    from that the one view of it that it needs: random hashes its canonical
    text, and is the only strategy that builds texts; heuristic prefers fewer
    literals; aesthetic prefers a higher symmetry score of the kept clause
    set.  Deductive ranks repairs only, with `tie(c)` the retraction age: by
    the number of clauses retracted, then by age."""
    kind = strategy.kind
    if kind is StrategyKind.RANDOM:
        text = canonical_texts(predicates, clauses)
        return lambda c: (mix(strategy.seed, int(text_digest(text(dropped(c))), 16)), tie(c))
    if kind is StrategyKind.HEURISTIC:
        sizes = [len(c.literals) for c in clauses]
        total = sum(sizes)
        return lambda c: (total - sum(sizes[i] for i in dropped(c)), tie(c))
    if kind is StrategyKind.AESTHETIC:
        def aesthetic(c):
            out = dropped(c)
            kept = tuple(k for i, k in enumerate(clauses) if i not in out)
            return -symmetry_score(Theory(predicates, kept)), tie(c)
        return aesthetic

    def deductive(c):
        age = tie(c)
        return len(age), age

    return deductive


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

    Candidates rank by the strategy's score, then by age: the retracted
    clauses counted from the newest, sorted.  Distinct retraction sets have
    distinct ages, so ties never reach the canonical text.  The scores come
    from the retraction set; the aesthetic one scores the kept clauses as an
    unordered set, and only the first `budget` distinct theories of the
    ranking are built, in clause order.

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

    def kept(retracted):
        return tuple(c for i, c in enumerate(clauses) if i not in retracted) + tuple(
            u for u, j in unit_slots if j is None or j in retracted
        )

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
                    candidates.append(falsified.union(extra))
            if len(candidates) >= pool_cap or (
                deductive
                and len(candidates) >= budget
                and len({kept(r) for r in candidates}) >= budget
            ):
                break
        if candidates:
            break

    # As a clause set, a candidate is the theory less its retracted clauses,
    # except the observed units among them, which are recorded again, plus
    # the observed units the theory lacks.
    recorded = {j for _, j in unit_slots if j is not None}
    fresh = tuple(u for u, j in unit_slots if j is None)
    candidates.sort(key=_strategy_key(
        strategy, preds, clauses + fresh, lambda r: r - recorded,
        lambda r: tuple(sorted(n - 1 - i for i in r)),  # the age
    ))
    ranked = []
    seen = set()
    for retracted in candidates:
        candidate = kept(retracted)
        if candidate not in seen:
            seen.add(candidate)
            ranked.append(Theory(preds, candidate))
            if len(ranked) == budget:
                break
    return ranked


def _bridging_candidates(theory: Theory, new_pred: int, old_preds):
    """Consistent two-literal implications linking a new predicate to an old
    one, given the theory already contains the observed units: the clauses
    not in the theory that it stays satisfiable with, decided on clause
    masks without building the extended theory."""
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


def _bridge(theory: Theory, options, strategy: RevisionStrategy) -> Theory:
    """The theory extended by the strategy's choice among the bridging
    clauses `options`, ranked by score and then canonical text."""
    # `revise` offers only options over predicates already in the theory (the
    # new predicate and its anchors): one predicate prefix is exact for them all
    clauses = theory.clauses + tuple(options)
    slots = range(len(theory.clauses), len(clauses))
    others = {i: frozenset(slots).difference([i]) for i in slots}
    text = canonical_texts(theory.predicates, clauses)
    best = min(others, key=_strategy_key(
        strategy, theory.predicates, clauses, others.__getitem__, lambda i: text(others[i])
    ))
    return theory.with_clause(clauses[best])


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
                theory = _bridge(theory, options, strategy)
            anchors = anchors | {q}

    history = agent.history
    if theory != old_theory:
        history = history + ((theory.digest(), len(theory.predicates)),)
    return replace(agent, theory=theory, observations=obs, history=history)


def classify_extension(old: Theory, new: Theory) -> ExtensionClass:
    shared = old.predicates & new.predicates
    # a model restricted to `shared` has the domain `shared`, so its true set names it
    if not {s.true & shared for s in new.models()} <= {s.true & shared for s in old.models()}:
        return ExtensionClass.NOT_AN_EXTENSION
    if new.predicates != old.predicates:
        return ExtensionClass.ESSENTIAL
    # over one language, a clause of `new` is entailed when every model of
    # `old` satisfies it
    models = old.models()
    if all(c.satisfied_by(s) for c in new.clauses for s in models):
        return ExtensionClass.INESSENTIAL
    return ExtensionClass.ESSENTIAL
