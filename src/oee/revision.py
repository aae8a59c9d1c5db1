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
from dataclasses import dataclass
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
    mask_bits,
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
    return _symmetry_delta(theory.predicates, theory.clauses)()


def _fixes(a, b, clauses, member) -> bool:
    """Whether the transposition (a b) maps each of `clauses`, every clause of
    a and of b, to a clause for which `member` holds: whether it fixes that
    clause set, since it is injective and fixes every clause without a or b."""
    swap = {a: b, b: a}
    return all(member(frozenset((swap.get(p, p), pol) for p, pol in k)) for k in clauses)


def _symmetry_delta(predicates, base):
    """`score(added=None, dropped=())`: the number of transpositions of two of
    `predicates` that fix the clause set `base` with the clause literals
    `added` (absent from `base`) or without the clauses indexed in `dropped`;
    with an empty delta, the symmetry score of `base` (Crawford, Ginsberg,
    Luks & Roy, KR 1996).  Structures are built once for `base`.

    A transposition (a b) fixing a clause set maps the clauses of a onto those
    of b, so a and b have equal signatures, the sorted (polarity, clause
    length) over their clauses.  Two predicates that share a clause never have
    equal orbit keys (each clause with the predicate replaced by a
    placeholder): none of a's faces mentions a, and b's face of the shared
    clause does.  Partners sharing no clause fix the set exactly when their
    keys are equal, and are counted per key; only those sharing a clause are
    tried.  So `fixing[a]` counts each of a's fixing partners once, and the
    base score is half the sum over all a.

    The delta's predicates are those of the added or dropped clauses.  A
    transposition that moves none of them fixes each delta clause, so it fixes
    the new set exactly when it fixes `base`: a bijection of clause sets that
    fixes `base` and the delta fixes their union and their difference, and one
    that fixes the union or the difference and the delta fixes `base`.  So
    only the delta's predicates, whose clause lists it changes, are
    re-examined: the base score, less the base's fixing pairs that touch the
    delta, plus those of the new set.  A predicate outside the delta keeps its
    clauses, so it shares a clause with a delta predicate in the new set
    exactly when it does in `base`."""
    lits = [c.literals for c in base]
    index = {k: i for i, k in enumerate(lits)}
    touching = dict.fromkeys(predicates, 0)  # p -> bit i for each clause i of p
    for i, c in enumerate(base):
        for p, _ in c.literals:
            touching[p] |= 1 << i
    views = {}

    def view(a, mask):
        """a's clauses among those of `mask`, its orbit key (each clause with
        a replaced by a placeholder) and its signature (the sorted (polarity,
        length) of each); the same few subsets recur across candidates."""
        v = views.get((a, mask))
        if v is None:
            clauses = [lits[i] for i in mask_bits(mask)]
            v = views[a, mask] = (
                clauses,
                frozenset([_orbit_face(k, a) for k in clauses]),
                tuple(sorted([(pol, len(k)) for k in clauses for p, pol in k if p == a])),
            )
        return v

    old = {p: view(p, m) for p, m in touching.items()}
    partners = {a: {q for k in clauses for q, _ in k if q != a}
                for a, (clauses, _, _) in old.items()}
    count = Counter(key for _, key, _ in old.values())
    member = index.__contains__
    # the partners sharing a clause with a that fix `base`
    sharing = {
        a: {b for b in partners[a]
            if old[b][2] == sig and _fixes(a, b, clauses + old[b][0], member)}
        for a, (clauses, _, sig) in old.items()
    }
    fixing = {a: count[key] - 1 + len(sharing[a]) for a, (_, key, _) in old.items()}
    whole = sum(fixing.values()) // 2

    def score(added=None, dropped=()):
        if added is None:
            gone = 0
            for i in dropped:
                gone |= 1 << i
            new = {a: view(a, touching[a] & ~gone)
                   for i in dropped for a, _ in lits[i]}

            def new_member(k):
                i = index.get(k)
                return i is not None and not gone >> i & 1
        else:
            new = {}
            for a, pol in added:
                clauses, key, sig = old[a]
                new[a] = (clauses + [added], key | {_orbit_face(added, a)},
                          tuple(sorted(sig + ((pol, len(added)),))))
            new_member = lambda k: k == added or k in index
        # the base's fixing pairs within the delta, counted twice in `fixing`:
        # those with equal keys and those sharing a clause
        total = whole
        inside = {}
        shared = 0
        for a in new:
            key = old[a][1]
            total += inside.get(key, 0) - fixing[a]
            inside[key] = inside.get(key, 0) + 1
            if sharing[a]:
                shared += len(sharing[a].intersection(new))
        total += shared // 2
        # the new set's fixing pairs: within the delta, tried; outside it,
        # partners keep their view, so those with a's new key share no clause
        # with a and the others are tried
        total += _fixing_pairs(new, new_member)
        for a, (clauses, key, sig) in new.items():
            total += count[key] - inside.get(key, 0)
            for b in partners[a]:
                if b not in new and old[b][2] == sig and _fixes(
                    a, b, clauses + old[b][0], new_member
                ):
                    total += 1
        return total

    return score


def _orbit_face(k, p):
    """The clause literals `k` with the predicate p replaced by a placeholder."""
    return frozenset((None if q == p else q, pol) for q, pol in k)


def _fixing_pairs(views, member) -> int:
    """The transpositions of two predicates of `views` (predicate -> (clauses,
    orbit key, signature)) that fix the clause set `member` tells, tried
    within each signature."""
    groups = defaultdict(list)
    for a, (clauses, _, sig) in views.items():
        groups[sig].append((a, clauses))
    return sum(
        _fixes(a, b, ka + kb, member)
        for group in groups.values()
        for (a, ka), (b, kb) in combinations(group, 2)
    )


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
    symmetry score of the candidate's clause set, the base's score corrected
    for the transpositions that move a predicate of the delta
    (`_symmetry_delta`), with no theory built per candidate.  Deductive ranks
    repairs only, each `c` its retraction set: by the number of clauses
    retracted."""
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
    score = _symmetry_delta(predicates, base)
    if dropped is None:
        return lambda c: -score(added=c.literals)
    return lambda c: -score(dropped=dropped(c))


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
    from the retraction set; the aesthetic one from the symmetry score of the
    theory plus the observed units it lacks, computed once per search, with
    only the predicates of the retracted clauses re-examined.  Every
    candidate is scored first, the age is computed only among equal scores,
    and only the first `budget` distinct theories of the ranking are built,
    in clause order.

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
        # one candidate makes one theory, so a search for one stops at its
        # first consistent level without building any
        if len(candidates) >= REPAIR_BREADTH or (
            deductive
            and len(candidates) >= budget
            and (budget == 1 or len({kept(r) for r in candidates}) >= budget)
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
    give a predicate both values raise ContradictoryObservations.  No digest
    is taken here: the run loop digests each theory it puts in the trace."""
    obs = frozenset(observations)
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

    return AgentState(agent.id, theory, obs)


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
