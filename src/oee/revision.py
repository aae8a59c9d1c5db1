"""Theory revision under novelty.

Two duties: record observations, retracting clauses first when they
contradict the theory (`propose_revisions`, the one path every observation
takes), and extend the language when observations mention unknown predicates.
Strategies differ in how they rank repair candidates and in which unforced
bridging clauses they adopt when the language grows; the deductive strategy
adopts none.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from enum import Enum
from itertools import combinations
from math import comb

from .epistemics import AgentState
from .rng import fold, mix
from .universe import (
    Theory,
    _models,
    canonical_texts,
    clause,
    extended_texts,
    literal_masks,
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


def _strategy_key(strategy: RevisionStrategy, predicates, base, dropped=None, text=None):
    """The score of `strategy` for each candidate, lower first.  Candidates
    rank by score, then by a tie that tells any two apart and that `_ranked`
    computes only among equal scores: a repair's retraction age, a bridge's
    canonical text.

    A candidate `c` is described by its delta against the theory over
    `predicates` with the clause list `base`: a repair drops the clauses
    indexed in `dropped(c)`; without `dropped`, `c` is a bridge, the one
    clause it adds.  Each strategy scores the delta through the one view it
    needs: random hashes the candidate's canonical text `text(c)`, built here
    from one rendering of `base` unless the caller has it, and is the only
    strategy that builds texts; heuristic prefers fewer literals, counted over
    the delta alone since the base is common; aesthetic prefers a higher
    symmetry score of the candidate's clause set.  Deductive ranks repairs
    only, each `c` its retraction set: by the number of clauses retracted."""
    kind = strategy.kind
    if kind is StrategyKind.DEDUCTIVE:
        return len
    if kind is StrategyKind.RANDOM:
        if text is None:
            texts = canonical_texts(predicates, base)
            text = lambda c: texts(dropped(c))
        seed = mix(strategy.seed)  # fold(mix(seed), h) == mix(seed, h)
        return lambda c: fold(seed, int(text_digest(text(c)), 16))
    if kind is StrategyKind.HEURISTIC:
        if dropped is None:
            return lambda c: len(c.literals)
        sizes = [len(c.literals) for c in base]
        return lambda c: -sum(sizes[i] for i in dropped(c))
    if dropped is None:
        return lambda c: -symmetry_score(Theory(predicates, base + (c,)))

    def aesthetic(c):
        out = dropped(c)
        kept = tuple(k for i, k in enumerate(base) if i not in out)
        return -symmetry_score(Theory(predicates, kept))

    return aesthetic


def _ranked(candidates, score, tie):
    """The candidates in increasing (score, tie) order, lazily: every score is
    computed first, and `tie` only inside a run of equal scores, when the
    ranking reaches it."""
    runs = defaultdict(list)
    for c in candidates:
        runs[score(c)].append(c)
    for s in sorted(runs):
        run = runs[s]
        if len(run) > 1:
            run.sort(key=tie)
        yield from run


REPAIR_BREADTH = 128
"""The number of consistent retraction sets at which a repair search stops
taking further size levels, whatever the budget."""

MAX_REPAIR_CHECKS = 1_000_000
"""The most retraction sets one repair search walks: a size level that would
take the count past it is refused before it starts.  The tests, the fixtures
and the benchmark workloads walk at most 1,093."""


class RepairLimit(ValueError):
    """A repair search would walk more than MAX_REPAIR_CHECKS retraction sets."""


def propose_revisions(agent: AgentState, conflict, strategy: RevisionStrategy, budget: int):
    """Ranked consistent repairs of the agent's theory against the observed
    literals: retract some clauses, keep the rest, record the observations as
    unit clauses.  Ranking is strategy-scored, deterministic given seeds.

    An observation that fits needs no retraction: when it falsifies no clause
    and the clauses it reduces stay satisfiable, the one theory that records
    it is returned, whatever the strategy and budget.  A consistent theory
    whose unit clauses already assert every observed literal is that theory
    itself, returned as it is.  Otherwise the
    candidates are the consistent retraction sets drawn from the suspect pool,
    the clauses linked to an observed predicate through shared predicates.
    They are taken a whole size level at a time by increasing size:

    - deductive: up to the first level at which they make `budget` distinct
      theories, so the repairs are the first retraction sets in increasing
      (size, age) order;
    - other strategies: up to the first level at which their count reaches
      REPAIR_BREADTH, which also ends a deductive search.

    Candidates rank by the strategy's score, then by age: the retracted
    clauses counted from the newest, sorted.  Distinct retraction sets have
    distinct ages, so ties never reach the canonical text.  The scores come
    from the retraction set; the aesthetic one scores the kept clauses as an
    unordered set.  Every candidate is scored first, the age is computed only
    among equal scores, and only the first `budget` distinct theories of the
    ranking are built, in clause order.

    Returns the first `budget` distinct theories of a ranking that does not
    depend on `budget`.  Observed literals that give a predicate both values
    raise ContradictoryObservations; a theory that is inconsistent apart from
    the suspect pool, which no retraction from the pool repairs, raises
    ValueError; a size level that would take the retraction sets walked past
    MAX_REPAIR_CHECKS raises RepairLimit before it starts."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    conflict = frozenset(conflict)
    true, false = literal_masks(conflict)
    if true & false:
        p = (true & false & -(true & false)).bit_length() - 1
        raise ContradictoryObservations(f"observations give predicate p{p} both values")
    theory = agent.theory
    held_true, held_false = theory.units
    if not (true & ~held_true or false & ~held_false) and theory.consistent():
        return [theory]
    conflict = sorted(conflict)
    observed = dict(conflict)
    clauses = theory.clauses
    preds = theory.predicates.union(observed)
    n = len(clauses)
    # an observed unit is re-recorded, after the kept clauses, unless the
    # theory holds it at an index that is kept
    index = {c: i for i, c in enumerate(clauses)}
    unit_slots = [(u, index.get(u)) for u in (unit(p, v) for p, v in conflict)]

    def kept(retracted):
        return tuple(c for i, c in enumerate(clauses) if i not in retracted) + tuple(
            u for u, j in unit_slots if j is None or j in retracted
        )

    falsified, residue = residues(clauses, observed)
    if not falsified and satisfiable(residue.values()):
        return [Theory(preds, kept(()))]

    deductive = strategy.kind is StrategyKind.DEDUCTIVE
    # Any unsatisfiable core of a consistent theory plus the observation units
    # is connected (via shared predicates) to an observed predicate, so
    # minimal repairs retract only conflict-connected clauses.
    reach = true | false
    suspects: set[int] = set()
    grown = True
    while grown:
        grown = False
        for i, c in enumerate(clauses):
            if i not in suspects and c.mask & reach:
                suspects.add(i)
                reach |= c.mask
                grown = True
    # every falsified clause mentions only observed predicates, so is a
    # suspect; the clauses outside the suspect pool share no predicate with
    # it, so they are satisfiable apart or not at all, and retracting the
    # whole pool repairs the theory exactly when they are
    if not satisfiable([r for i, r in residue.items() if i not in suspects]):
        raise ValueError("the theory is inconsistent apart from the clauses the observation reaches")
    optional = sorted(suspects - falsified)
    pool_residues = frozenset(suspects & residue.keys())
    verdicts: dict[frozenset[int], bool] = {}
    candidates = []
    checks = 0
    for size in range(len(falsified), len(suspects) + 1):
        checks += comb(len(optional), size - len(falsified))
        if checks > MAX_REPAIR_CHECKS:
            raise RepairLimit(
                f"repair search over a pool of {len(suspects)} clauses refused at size level "
                f"{size}: it would walk {checks:,} retraction sets, past the limit of "
                f"{MAX_REPAIR_CHECKS:,} (revision.MAX_REPAIR_CHECKS)"
            )
        for extra in combinations(optional, size - len(falsified)):
            kept_residues = pool_residues.difference(extra)
            consistent = verdicts.get(kept_residues)
            if consistent is None:
                consistent = verdicts[kept_residues] = satisfiable(
                    [residue[i] for i in kept_residues]
                )
            if consistent:
                candidates.append(falsified.union(extra))
        if len(candidates) >= REPAIR_BREADTH or (
            deductive
            and len(candidates) >= budget
            and len({kept(r) for r in candidates}) >= budget
        ):
            break

    # As a clause set, a candidate is the theory less its retracted clauses,
    # except the observed units among them, which are recorded again, plus
    # the observed units the theory lacks.
    recorded = {j for _, j in unit_slots if j is not None}
    fresh = tuple(u for u, j in unit_slots if j is None)
    score = _strategy_key(strategy, preds, clauses + fresh, dropped=lambda r: r - recorded)
    age = lambda r: tuple(sorted(n - 1 - i for i in r))
    ranked = []
    seen = set()
    for retracted in _ranked(candidates, score, age):
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
    not in the theory that it stays satisfiable with.  The theory is
    consistent, as `revise` keeps it, so each option is first read against
    its unit masks: one with a literal that a unit asserts is consistent, one
    whose literals units both deny is not, and only the rest are decided on
    clause masks without building the extended theory."""
    present = set(theory.clauses)
    held_true, held_false = theory.units
    held = None
    out = []
    for r in sorted(old_preds):
        if r == new_pred:
            continue
        for new_pol in (True, False):
            for old_pol in (True, False):
                c = clause((new_pred, new_pol), (r, old_pol))
                if c in present:
                    continue
                pos, neg = c.masks
                if pos & held_true or neg & held_false:
                    out.append(c)
                elif pos & ~held_false or neg & ~held_true:
                    if held is None:
                        held = [k.masks for k in theory.clauses]
                    if satisfiable(held + [c.masks]):
                        out.append(c)
    return out


def _bridge(theory: Theory, options, strategy: RevisionStrategy) -> Theory:
    """The theory extended by the strategy's choice among the bridging
    clauses `options`, each scored by its delta, the one clause it adds, with
    ties broken by canonical text.  The theory's clauses are rendered and
    sorted once; an option's text is that rendering with the option inserted
    at its sort position, built only where random hashes it or scores tie."""
    # `revise` offers only options over predicates already in the theory (the
    # new predicate and its anchors): one predicate prefix is exact for them all
    text = extended_texts(theory.predicates, theory.clauses)
    score = _strategy_key(strategy, theory.predicates, theory.clauses, text=text)
    return theory.with_clause(next(_ranked(options, score, text)))


def revise(agent: AgentState, observations, strategy: RevisionStrategy) -> AgentState:
    """One revision step: `propose_revisions` records the observed literals
    as unit clauses, repaired first if they contradict the theory, then each
    unknown predicate gains one strategy-chosen bridging clause (none for the
    deductive strategy).  The result is always consistent; observations that
    give a predicate both values raise ContradictoryObservations."""
    obs = frozenset(observations)
    old_theory = agent.theory
    old_preds = agent.predicates
    new_preds = sorted({p for p, _ in obs} - old_preds)
    theory = propose_revisions(agent, obs, strategy, 1)[0]

    if strategy.kind is not StrategyKind.DEDUCTIVE:
        anchors = old_preds
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
    old_models, new_models = _models(old), _models(new)
    shared = old.mask & new.mask
    # a model restricted to `shared` is named by its true-mask there
    if not {m & shared for m in new_models} <= {m & shared for m in old_models}:
        return ExtensionClass.NOT_AN_EXTENSION
    if new.mask != old.mask:
        return ExtensionClass.ESSENTIAL
    # over one language, `new` is entailed when every model of `old` is one of `new`
    if set(old_models) <= set(new_models):
        return ExtensionClass.INESSENTIAL
    return ExtensionClass.ESSENTIAL
