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
from hashlib import sha256
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


# the views one aesthetic ranking keeps: where each candidate drops another
# subset of a predicate's clauses, there would be one per candidate
_VIEWS = 1 << 12


def _symmetry_delta(predicates, base, gone=0):
    """`score(added=None, dropped=0)`: the number of transpositions of two of
    `predicates` that fix the clause set `base` with the clause literals
    `added` (absent from `base`) or without the clauses whose bits are set in
    the mask `dropped`;
    with an empty delta, the symmetry score of `base` (Crawford, Ginsberg,
    Luks & Roy, KR 1996).  Structures are built once for `base`.  The clauses
    whose bits are set in the mask `gone` are out of `base` and of every delta:
    the score is that of the clause set without them.

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
    index = {k: i for i, k in enumerate(lits) if not gone >> i & 1}
    touching = dict.fromkeys(predicates, 0)  # p -> bit i for each clause i of p
    for i in index.values():
        for p, _ in lits[i]:
            touching[p] |= 1 << i
    views = {}
    faces = {}  # (i, a) -> the face of clause i for a, and a's (polarity, length) in it

    def face(i, a):
        f = faces.get((i, a))
        if f is None:
            k = lits[i]
            f = faces[i, a] = (_orbit_face(k, a), (dict(k)[a], len(k)))
        return f

    def view(a, mask):
        """a's clauses among those of `mask`, its orbit key (each clause with
        a replaced by a placeholder) and its signature (the sorted (polarity,
        length) of each); the same few subsets recur across candidates, and
        each clause's face is built once."""
        v = views.get((a, mask))
        if v is None:
            if len(views) == _VIEWS:
                views.clear()
            bits = mask_bits(mask)
            parts = [face(i, a) for i in bits]
            v = views[a, mask] = (
                [lits[i] for i in bits],
                frozenset([f for f, _ in parts]),
                tuple(sorted([s for _, s in parts])),
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

    def score(added=None, dropped=0):
        if added is None:
            dropped &= ~gone
            new = {a: view(a, touching[a] & ~dropped)
                   for i in mask_bits(dropped) for a, _ in lits[i]}

            def new_member(k):
                i = index.get(k)
                return i is not None and not dropped >> i & 1
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
    orbit key, signature)) that fix the clause set `member` tells.  As in
    `_symmetry_delta`, two predicates with equal orbit keys share no clause
    and fix the set, and of the others only those sharing a clause can: they
    are tried, each pair once."""
    total = sum(k * (k - 1) // 2 for k in Counter(key for _, key, _ in views.values()).values())
    for a, (clauses, _, sig) in views.items():
        for b in {q for k in clauses for q, _ in k if q > a and q in views}:
            kb, _, sig_b = views[b]
            if sig_b == sig and _fixes(a, b, clauses + kb, member):
                total += 1
    return total


def _strategy_key(strategy: RevisionStrategy, predicates, base, dropped=None, text=None,
                  common=0):
    """The score of `strategy` for each candidate, lower first.  Candidates
    rank by score, then by a tie that tells any two apart and that `_ranked`
    computes only among equal scores: a repair's retraction age, a bridge's
    canonical text.

    A candidate `c` is described by its delta against the theory over
    `predicates` with the clause list `base`: a repair drops the clauses
    whose bits are set in the mask `dropped(c)` (bit i for `base[i]`); without
    `dropped`, `c` is a bridge, the one clause it adds.  Each strategy scores
    the delta through the one view it needs: random hashes the candidate's
    canonical text `text(c)`, built here from one rendering of `base` unless
    the caller has it, and is the only strategy that builds texts; heuristic
    prefers fewer literals, counted over the delta alone since the base is
    common, one popcount per literal count; aesthetic prefers a higher
    symmetry score of the candidate's clause set, the base's score corrected
    for the transpositions that move a predicate of the delta
    (`_symmetry_delta`), with no theory built per candidate; the clauses of
    the mask `common`, which every repair drops, are taken out of its base
    once, so that only the rest of each delta is re-examined.  Deductive
    ranks repairs only, each `c` its retraction mask: by the number of
    clauses retracted."""
    kind = strategy.kind
    if kind is StrategyKind.DEDUCTIVE:
        return int.bit_count
    if kind is StrategyKind.RANDOM:
        if text is None:
            texts = canonical_texts(predicates, base)
            text = lambda c: texts(dropped(c))
        seed = mix(strategy.seed)  # fold(mix(seed), h) == mix(seed, h)
        # the first 8 digest bytes: int(text_digest(t), 16) without the hex
        return lambda c: fold(seed, int.from_bytes(sha256(text(c).encode()).digest()[:8], "big"))
    if kind is StrategyKind.HEURISTIC:
        if dropped is None:
            return lambda c: len(c.literals)
        classes = defaultdict(int)  # literal count -> mask of the base clauses with it
        for i, c in enumerate(base):
            classes[len(c.literals)] |= 1 << i
        classes = list(classes.items())

        def literals_dropped(c):
            d = dropped(c)
            return -sum(size * (d & m).bit_count() for size, m in classes)

        return literals_dropped
    score = _symmetry_delta(predicates, base, common)
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
"""The most sets one repair search takes on: its exact pool of candidates
plus the subsets it walks inside unsatisfiable components.  Both are counted
before they are built or walked, and a search that would pass the limit is
refused.  The fixtures take on at most 506 and the benchmark workloads at
most 470; the tests take on at most 6,075, in the large-vocabulary probe
that a walk of every subset level by level would face 7.1 * 10^10 sets for."""


class RepairLimit(ValueError):
    """A repair search would take on more than MAX_REPAIR_CHECKS candidates
    and component subsets."""


def _suspects(clauses, reach: int) -> int:
    """The mask of the clauses linked to the predicates of the mask `reach`
    through shared predicates (bit i for `clauses[i]`)."""
    suspects = 0
    grown = True
    while grown:
        grown = False
        for i, c in enumerate(clauses):
            if not suspects >> i & 1 and c.mask & reach:
                suspects |= 1 << i
                reach |= c.mask
                grown = True
    return suspects


def _components(residue, indices):
    """The clause indices `indices`, each with a residue (index -> (pos_mask,
    neg_mask)), split into connected components: two clauses connect when
    their residues share a predicate.  Each component is a sorted list."""
    groups = []  # (predicate mask, indices) of the components so far
    for i in indices:
        pos, neg = residue[i]
        mask = pos | neg
        members = [i]
        rest = []
        for m, g in groups:
            if m & mask:
                mask |= m
                members += g
            else:
                rest.append((m, g))
        rest.append((mask, members))
        groups = rest
    return [sorted(g) for _, g in groups]


def propose_revisions(agent: AgentState, conflict, strategy: RevisionStrategy, budget: int):
    """Ranked consistent repairs of the agent's theory against the observed
    literals: retract some clauses, keep the rest, record the observations as
    unit clauses.  Ranking is strategy-scored, deterministic given seeds.

    An observation that fits needs no retraction: when it falsifies no clause
    and the clauses it reduces stay satisfiable, the one theory that records
    it is returned, whatever the strategy and budget.  A consistent theory
    whose unit clauses already assert every observed literal is that theory
    itself, returned as it is.  Otherwise the candidates are the consistent
    retraction sets drawn from the suspect pool, the clauses linked to an
    observed predicate through shared predicates, each a mask over clause
    indices.  Every one retracts the falsified clauses.  They are taken a
    whole size level at a time by increasing size:

    - deductive: up to the first level at which they make `budget` distinct
      theories, so the repairs are the first retraction sets in increasing
      (size, age) order;
    - other strategies: up to the first level at which their count reaches
      REPAIR_BREADTH, which also ends a deductive search.

    The levels are counted, not walked.  When the residues of
    the optional suspects are satisfiable together, every retraction set is
    consistent, and a level of k optional clauses holds C(optional, k) sets.
    Otherwise each unsatisfiable component has its consistent deletions
    listed by size, and a level's count is the coefficient of the product of
    (1 + x) per loose clause and each component's counting polynomial.  The
    last level and the exact pool size are known before any candidate is
    built, and the pool is enumerated as that product: one deletion per
    component, any loose clauses.

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
    ValueError; a search whose pool plus the subsets walked inside its
    components would pass MAX_REPAIR_CHECKS raises RepairLimit before it
    builds or walks them."""
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

    def kept(retracted: int):
        return tuple(c for i, c in enumerate(clauses) if not retracted >> i & 1) + tuple(
            u for u, j in unit_slots if j is None or retracted >> j & 1
        )

    falsified, residue = residues(clauses, observed)
    if not falsified and satisfiable(residue.values()):
        return [Theory(preds, kept(0))]

    deductive = strategy.kind is StrategyKind.DEDUCTIVE
    # Any unsatisfiable core of a consistent theory plus the observation units
    # is connected (via shared predicates) to an observed predicate, so
    # minimal repairs retract only conflict-connected clauses.
    suspects = _suspects(clauses, true | false)
    # every falsified clause mentions only observed predicates, so is a
    # suspect; the clauses outside the suspect pool share no predicate with
    # it, so they are satisfiable apart or not at all, and retracting the
    # whole pool repairs the theory exactly when they are
    if not satisfiable([r for i, r in residue.items() if not suspects >> i & 1]):
        raise ValueError("the theory is inconsistent apart from the clauses the observation reaches")
    base = sum(1 << i for i in falsified)
    optional = [i for i in mask_bits(suspects) if i not in falsified]
    # A kept set is consistent exactly when its part of each component of the
    # residues is.  Loose clauses keep every kept set as consistent as it was:
    # those the observation satisfies, and those of satisfiable components.
    # Knots are the unsatisfiable components.
    open_ = [i for i in optional if i in residue]
    loose, knots = optional, []
    if not satisfiable([residue[i] for i in open_]):
        loose = [i for i in optional if i not in residue]
        for component in _components(residue, open_):
            if satisfiable([residue[i] for i in component]):
                loose += component
            else:
                knots.append(component)
    loose_bits = [1 << i for i in loose]
    # deletions[t][j]: the masks of the j-clause deletions that leave knot t
    # satisfiable, walked a size at a time as the levels need them; none of 0
    deletions = [[[]] for _ in knots]
    walked = total = 0

    def refuse(k, walking):
        return RepairLimit(
            f"repair search over a pool of {suspects.bit_count()} clauses refused at size level "
            f"{len(falsified) + k}: it would walk {total + walking:,} sets ({total:,} candidates "
            f"and {walking:,} subsets inside {len(knots)} unsatisfiable components), past the "
            f"limit of {MAX_REPAIR_CHECKS:,} (revision.MAX_REPAIR_CHECKS)"
        )

    def level(k):
        """The consistent retraction sets with k optional clauses: one
        deletion per knot, then loose clauses to make up k."""
        choices = [(base, 0)]
        for found in deletions:
            choices = [(m | d, s + j) for m, s in choices
                       for j in range(1, min(len(found), k - s + 1)) for d in found[j]]
        for m, s in choices:
            for extra in combinations(loose_bits, k - s):
                yield m | sum(extra)

    candidates = []
    built = 0  # the levels whose candidates are in `candidates`
    for k in range(len(optional) + 1):
        if knots and k:
            step = sum(comb(len(knot), k) for knot in knots)
            if total + walked + step > MAX_REPAIR_CHECKS:
                raise refuse(k, walked + step)
            walked += step
            for knot, found in zip(knots, deletions):
                if k <= len(knot):
                    found.append([sum(1 << i for i in gone) for gone in combinations(knot, k)
                                  if satisfiable([residue[i] for i in knot if i not in gone])])
        # the coefficient of x^k: the knots' deletions by total size s, each
        # with k - s loose clauses
        ways = [1]
        for found in deletions:
            counts = [len(f) for f in found]
            ways = [sum(ways[s - j] * counts[j] for j in range(len(counts)) if 0 <= s - j < len(ways))
                    for s in range(min(k, len(ways) + len(counts) - 2) + 1)]
        total += sum(w * comb(len(loose), k - s) for s, w in enumerate(ways))
        if not (total >= REPAIR_BREADTH or deductive and total >= budget or k == len(optional)):
            continue
        if total + walked > MAX_REPAIR_CHECKS:
            raise refuse(k, walked)
        while built <= k:
            candidates.extend(level(built))
            built += 1
        # one candidate makes one theory, so a search for one stops at its
        # first consistent level
        if total >= REPAIR_BREADTH or not deductive or budget == 1 or len(
            {kept(r) for r in candidates}
        ) >= budget:
            break

    # As a clause set, a candidate is the theory less its retracted clauses,
    # except the observed units among them, which are recorded again, plus
    # the observed units the theory lacks.
    recorded = sum(1 << j for _, j in unit_slots if j is not None)
    fresh = tuple(u for u, j in unit_slots if j is None)
    score = _strategy_key(strategy, preds, clauses + fresh, dropped=lambda r: r & ~recorded,
                          common=base & ~recorded)
    age = lambda r: tuple(n - 1 - i for i in reversed(mask_bits(r)))
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
