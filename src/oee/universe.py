"""Nature: lazily revealed predicates, grand-theory fragment, the actual
state, and per-tick novelty events (variation / innovation / emergence).

The generator owns a single splitmix64 stream; observations are drawn from
stateless hashes keyed by (agent seed, salt, tick, predicate), the salt
telling apart an agent's draws within one tick, so that agent observation
never perturbs Nature's stream.

Clauses, theories and models are integers on the hot path, bit p for
predicate p.  A clause carries its (pos_mask, neg_mask) and its predicate
mask; a theory carries its predicate mask, the masks of its unit clauses, and
a consistency verdict decided once per object.  One procedure decides clause
sets: `solutions`, unit propagation and a split, which yields disjoint cubes
of satisfying assignments.  `satisfiable` asks it for one cube, and `_models`
expands every cube over the predicates it leaves free into true-masks, which
the engine reads directly; `Theory.models` builds `State`s from them on each
call, for callers that want states.  Nature draws a tick's novelty kind by
integer cuts.  Beside the actual state it carries that state's true-mask and
the revealed predicates as an ascending tuple, which variation and emergence
update in place and which innovation and observation read; an agent's
observations of a tick are the predicates of that tuple whose draw falls
below the visibility cut, taken in one pass of `rng.select`.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from .rng import SplitMix64, mix, select, stream


class ConfigError(ValueError):
    pass


class NicheError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class State:
    """Total truth assignment over a finite predicate set; the hash,
    `hash((domain, true))`, is computed once."""

    domain: frozenset[int]
    true: frozenset[int]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.true <= self.domain:
            raise ValueError("true set must be contained in the domain")
        object.__setattr__(self, "_hash", hash((self.domain, self.true)))

    def __hash__(self):
        return self._hash

    def value(self, predicate: int) -> bool:
        if predicate not in self.domain:
            raise KeyError(predicate)
        return predicate in self.true

    def restrict(self, predicates: frozenset[int]) -> "State":
        if not predicates <= self.domain:
            raise ValueError("cannot restrict beyond the domain")
        return State(predicates, self.true & predicates)

    def with_value(self, predicate: int, value: bool) -> "State":
        true = self.true | {predicate} if value else self.true - {predicate}
        return State(self.domain if predicate in self.domain else self.domain | {predicate}, true)

    def bits(self) -> str:
        """Bitstring over the sorted domain, e.g. '101'."""
        return "".join("1" if p in self.true else "0" for p in sorted(self.domain))

    def sort_key(self):
        return tuple(sorted(self.domain)), tuple(sorted(self.true))


# a clause mask has a bit per index up to its largest (125 KB here); runs reveal
# one predicate per emergence tick past at most 20,000 initial ones
MAX_PREDICATE_INDEX = 1_000_000


def literal_masks(literals) -> tuple[int, int]:
    """(pos_mask, neg_mask) of (predicate, polarity) literals: bit p of the
    first for each literal p, of the second for each ~p."""
    pos = neg = 0
    for p, pol in literals:
        if not 0 <= p <= MAX_PREDICATE_INDEX:
            raise ValueError(f"predicate index {p} lies outside 0..{MAX_PREDICATE_INDEX}")
        if pol:
            pos |= 1 << p
        else:
            neg |= 1 << p
    return pos, neg


@lru_cache(maxsize=256)
def predicate_mask(predicates: frozenset[int]) -> int:
    """The mask with bit p for each predicate p of the set."""
    return literal_masks((p, True) for p in predicates)[0]


def mask_bits(mask: int) -> tuple[int, ...]:
    """The bits set in `mask`, ascending: the sorted predicates of a mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@dataclass(frozen=True, slots=True)
class Clause:
    """Disjunction of literals (predicate, polarity).  `masks` is its integer
    form (pos_mask, neg_mask) and `mask` their union, bit p for predicate p;
    the hash is computed once."""

    literals: frozenset[tuple[int, bool]]
    masks: tuple[int, int] = field(init=False, repr=False, compare=False)
    mask: int = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.literals:
            raise ValueError("clause must be nonempty")
        pos, neg = literal_masks(self.literals)
        if pos & neg:
            raise ValueError("clause may not mention a predicate with both polarities")
        object.__setattr__(self, "masks", (pos, neg))
        object.__setattr__(self, "mask", pos | neg)
        object.__setattr__(self, "_hash", hash((self.literals,)))

    def __hash__(self):
        return self._hash

    def predicates(self) -> frozenset[int]:
        return frozenset(p for p, _ in self.literals)

    def satisfied_by(self, state: State) -> bool:
        return any(state.value(p) == pol for p, pol in self.literals)

    def render(self) -> str:
        parts = [("p%d" % p) if pol else ("~p%d" % p) for p, pol in sorted(self.literals)]
        return " | ".join(parts) if len(parts) > 1 else parts[0]

    def sort_key(self):
        return tuple(sorted(self.literals))


def clause(*literals: tuple[int, bool]) -> Clause:
    return Clause(frozenset(literals))


# clauses are immutable, so one object serves every call; revision builds the
# unit of each observed literal on each call
@lru_cache(maxsize=1 << 12)
def unit(predicate: int, value: bool) -> Clause:
    return Clause(frozenset(((predicate, value),)))


@dataclass(frozen=True, slots=True)
class Theory:
    """Finite clause set over a predicate set.  Clause order encodes age
    (oldest first).  `mask` has bit p for each predicate p, and `units` is
    (true_mask, false_mask) of the literals its unit clauses assert; the hash
    is computed once and consistency decided at most once."""

    predicates: frozenset[int]
    clauses: tuple[Clause, ...]
    mask: int = field(init=False, repr=False, compare=False)
    units: tuple[int, int] = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)
    _consistent: bool | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        mask = predicate_mask(self.predicates)
        mentioned = true = false = 0
        for c in self.clauses:
            mentioned |= c.mask
            if not c.mask & (c.mask - 1):
                true |= c.masks[0]
                false |= c.masks[1]
        if mentioned & ~mask:
            raise ValueError("clause mentions a predicate outside the theory")
        if len(set(self.clauses)) != len(self.clauses):
            raise ValueError("duplicate clause")
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "units", (true, false))
        object.__setattr__(self, "_hash", hash((self.predicates, self.clauses)))

    def __hash__(self):
        return self._hash

    def consistent(self) -> bool:
        """Whether some assignment satisfies every clause (`satisfiable`)."""
        if self._consistent is None:
            object.__setattr__(self, "_consistent", satisfiable([c.masks for c in self.clauses]))
        return self._consistent

    def with_clause(self, c: Clause) -> "Theory":
        if c in self.clauses:
            return self
        return Theory(self.predicates | c.predicates(), self.clauses + (c,))

    def models(self) -> tuple[State, ...]:
        """The models of `_models` as states over the theory's predicates."""
        return tuple(State(self.predicates, frozenset(mask_bits(m))) for m in _models(self))

    def canonical_text(self) -> str:
        return canonical_texts(self.predicates, self.clauses)(())

    def digest(self) -> str:
        return text_digest(self.canonical_text())


@lru_cache(maxsize=1 << 12)
def _predicate_list(predicates: frozenset[int]) -> str:
    return ",".join(str(p) for p in sorted(predicates))


@lru_cache(maxsize=1 << 14)
def _rendered(c: Clause) -> tuple[tuple[tuple[int, bool], ...], str]:
    return c.sort_key(), c.render()


def _rendering(predicates: frozenset[int], clauses):
    """The text head of a theory over `predicates`, and `clauses` rendered with
    their indices, in sort-key order."""
    head = f"[{_predicate_list(predicates)}] "
    return head, sorted(enumerate(map(_rendered, clauses)), key=lambda r: r[1][0])


def canonical_texts(predicates: frozenset[int], clauses):
    """`text(dropped)`: the canonical text of the theory over `predicates` that
    keeps the clauses not indexed in `dropped`, from one rendering in sort-key order."""
    head, rendering = _rendering(predicates, clauses)

    def text(dropped) -> str:
        return head + "; ".join([t for i, (_, t) in rendering if i not in dropped])

    return text


def extended_texts(predicates: frozenset[int], clauses):
    """`text(c)`: the canonical text of the theory over `predicates` with
    `clauses` plus a clause `c` they lack, `canonical_texts(predicates,
    clauses + (c,))(())`, from one rendering of `clauses`: the rendering of
    `c` inserted at its sort position."""
    head, rendering = _rendering(predicates, clauses)
    keys = [key for _, (key, _) in rendering]
    texts = [t for _, (_, t) in rendering]
    whole = head + "; ".join(texts)
    # starts[k]: where the k-th rendered clause begins in `whole`
    starts = list(accumulate((len(t) + 2 for t in texts), initial=len(head)))

    def text(c: Clause) -> str:
        key, t = _rendered(c)
        k = bisect_left(keys, key)
        if k < len(keys):
            return whole[:starts[k]] + t + "; " + whole[starts[k]:]
        return whole + "; " + t if keys else whole + t

    return text


def text_digest(text: str) -> str:
    """The digest of a theory with canonical text `text`."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def residues(clauses, observed):
    """The clauses reduced by the observed values (predicate -> bool).  Returns
    the indices of the clauses the observation falsifies and, for each clause
    it leaves open, its index -> (pos_mask, neg_mask) over the unobserved
    predicates.  Clauses the observation satisfies are in neither."""
    true, false = literal_masks(observed.items())
    falsified = []
    residue = {}
    for i, c in enumerate(clauses):
        pos, neg = c.masks
        if pos & true or neg & false:
            continue
        pos &= ~false
        neg &= ~true
        if pos | neg:
            residue[i] = (pos, neg)
        else:
            falsified.append(i)
    return frozenset(falsified), residue


def solutions(masks):
    """The assignments satisfying every (pos_mask, neg_mask) clause, as
    disjoint cubes (true_mask, false_mask): every assignment that extends a
    cube satisfies the clauses, and every one that does extends exactly one
    cube.  Unit propagation, then a split on a literal of a clause left open,
    true before false (Davis, Logemann & Loveland, CACM 1962)."""
    true = false = 0
    while True:
        open_clauses = []
        propagated = False
        for pos, neg in masks:
            if pos & true or neg & false:
                continue
            pos &= ~false
            neg &= ~true
            literals = pos | neg
            if not literals:
                return
            if literals & (literals - 1):
                open_clauses.append((pos, neg))
            elif pos:
                true |= pos
                propagated = True
            else:
                false |= neg
                propagated = True
        masks = open_clauses
        if not propagated:
            break
    if not masks:
        yield true, false
        return
    pos, neg = masks[0]
    literal = (pos | neg) & -(pos | neg)
    for branch in ((literal, 0), (0, literal)):
        for t, f in solutions(masks + [branch]):
            yield true | t, false | f


def satisfiable(masks) -> bool:
    """Whether one assignment satisfies every (pos_mask, neg_mask) clause:
    whether `solutions` yields a cube."""
    return next(solutions(masks), None) is not None


def empty_theory(predicates=frozenset()) -> Theory:
    return Theory(frozenset(predicates), ())


MAX_MODELS = 1 << 16
"""The most models `_models` expands, the states of 16 free predicates."""


# 256 theories keep 25,370 of the 25,425 hits of an open_world round (seed 3000)
# that an unbounded cache keeps, at 44.6 MiB peak against 50.7
@lru_cache(maxsize=256)
def _models(theory: Theory) -> tuple[int, ...]:
    """All satisfying assignments over the theory's predicate set, each as its
    true-mask, in `State.sort_key` order: the cubes of `solutions`, each
    expanded over the predicates it leaves free.  More than MAX_MODELS
    models, counted over the cubes before any is expanded, raise ValueError."""
    cubes = []
    count = 0
    for true, false in solutions([c.masks for c in theory.clauses]):
        free = theory.mask & ~(true | false)
        count += 1 << free.bit_count()
        if count > MAX_MODELS:
            raise ValueError(f"the theory has more than the limit of {MAX_MODELS:,} models")
        cubes.append((true, free))
    models = []
    for true, free in cubes:
        chosen = free
        while True:
            models.append(true | chosen)
            if not chosen:
                break
            chosen = (chosen - 1) & free
    if len(models) > 1:
        models.sort(key=mask_bits)
    return tuple(models)


class NoveltyKind(Enum):
    VARIATION = "variation"
    INNOVATION = "innovation"
    EMERGENCE = "emergence"


@dataclass(frozen=True, slots=True)
class NoveltyEvent:
    kind: NoveltyKind
    predicate: int | None = None
    value: bool | None = None
    clause: Clause | None = None
    retracted: tuple[Clause, ...] = ()


def _as_fraction(w) -> Fraction:
    return w if isinstance(w, Fraction) else Fraction(str(w))


class UniverseGenerator:
    """Seeded Nature.  Mutated only by its run loop; two generators with equal
    seed and config evolve identically.  Besides the actual state it carries
    that state's true-mask and the revealed predicates in ascending order,
    which each tick updates in place of rebuilding them from the state."""

    def __init__(self, seed: int, weights, initial_predicates: int, clause_arity: int = 2):
        weights = tuple(_as_fraction(w) for w in weights)
        if len(weights) != 3 or any(w < 0 for w in weights) or sum(weights) != 1:
            raise ConfigError("weights must be three nonnegative rationals summing to 1")
        if initial_predicates < 1:
            raise ConfigError("initial_predicates must be >= 1")
        if clause_arity < 2:
            raise ConfigError("clause_arity must be >= 2")
        # kind i is drawn when u / 2**64 < w_0 + ... + w_i: u * den < num << 64
        self._cuts = []
        acc = Fraction(0)
        for w, kind in zip(weights, NoveltyKind):
            acc += w
            self._cuts.append((acc.numerator << 64, acc.denominator, kind))
        self.clause_arity = clause_arity
        self._rng: SplitMix64 = stream(seed, 0x554E49)
        self.tick_index = 0
        true = frozenset(
            p for p in range(initial_predicates) if self._rng.chance(Fraction(1, 2))
        )
        self._actual = State(frozenset(range(initial_predicates)), true)
        self._true = predicate_mask(true)
        self._order = tuple(range(initial_predicates))
        self._clauses: list[Clause] = []

    @property
    def actual(self) -> State:
        return self._actual

    @property
    def revealed_predicates(self) -> frozenset[int]:
        return self._actual.domain

    @property
    def revealed_theory(self) -> Theory:
        return Theory(self.revealed_predicates, tuple(self._clauses))

    def satisfies_revealed(self) -> bool:
        true = self._true
        return all(c.masks[0] & true or c.masks[1] & ~true for c in self._clauses)

    def _draw_kind(self) -> NoveltyKind:
        u = self._rng.next_u64()
        for num, den, kind in self._cuts:
            if u * den < num:
                return kind
        return NoveltyKind.EMERGENCE

    def tick(self) -> NoveltyEvent:
        self.tick_index += 1
        kind = self._draw_kind()
        if kind is NoveltyKind.VARIATION:
            event = self._variation()
        elif kind is NoveltyKind.INNOVATION:
            event = self._innovation()
        else:
            event = self._emergence()
        return event

    def _variation(self) -> NoveltyEvent:
        p = self._rng.choice(self._order)
        self._true ^= 1 << p
        true = self._true
        new_value = true >> p & 1 == 1
        self._actual = self._actual.with_value(p, new_value)
        falsified = tuple(
            c for c in self._clauses if not (c.masks[0] & true or c.masks[1] & ~true)
        )
        for c in falsified:
            self._clauses.remove(c)
        return NoveltyEvent(NoveltyKind.VARIATION, predicate=p, value=new_value, retracted=falsified)

    def _innovation(self) -> NoveltyEvent:
        size = min(len(self._order), 2 + self._rng.randrange(max(1, self.clause_arity - 1)))
        chosen: list[int] = []
        pool = list(self._order)
        for _ in range(size):
            chosen.append(pool.pop(self._rng.randrange(len(pool))))
        literals = [(p, bool(self._rng.next_u64() & 1)) for p in sorted(chosen)]
        candidate = Clause(frozenset(literals))
        true = self._true
        if not (candidate.masks[0] & true or candidate.masks[1] & ~true):
            # force one literal to agree with the actual state
            p, _ = literals[self._rng.randrange(len(literals))]
            literals = [(q, true >> q & 1 == 1 if q == p else pol) for q, pol in literals]
            candidate = Clause(frozenset(literals))
        if candidate not in self._clauses:
            self._clauses.append(candidate)
        return NoveltyEvent(NoveltyKind.INNOVATION, clause=candidate)

    def _emergence(self) -> NoveltyEvent:
        new = self._order[-1] + 1
        value = bool(self._rng.next_u64() & 1)
        anchor = self._rng.choice(self._order)
        self._actual = self._actual.with_value(new, value)
        self._true |= value << new
        self._order += (new,)
        # implication between the new predicate and the anchor, satisfied at
        # the actual state: one of the two literals agrees with the actual value
        held = self._true >> anchor & 1 == 1
        if self._rng.next_u64() & 1:
            link = clause((new, value), (anchor, not held))
        else:
            link = clause((new, not value), (anchor, held))
        self._clauses.append(link)
        return NoveltyEvent(NoveltyKind.EMERGENCE, predicate=new, value=value, clause=link)

    def observe(
        self,
        niche: frozenset[int],
        visibility: Fraction,
        agent_seed: int,
        salt: int = 0,
    ) -> frozenset[tuple[int, bool]]:
        """Literals visible to an agent this tick: every niche predicate, plus
        each other revealed predicate independently with probability
        `visibility`.  Deterministic per (agent seed, salt, tick, predicate)."""
        if not niche <= self.revealed_predicates:
            raise NicheError("niche contains unrevealed predicates")
        visibility = _as_fraction(visibility)
        true = self._true
        # a niche predicate is seen whatever its draw, so the draws run over
        # every revealed predicate, in ascending order
        seen = niche.union(select(mix(agent_seed, salt, self.tick_index), self._order,
                                  visibility.numerator << 64, visibility.denominator))
        return frozenset([(p, true >> p & 1 == 1) for p in seen])
