"""Nature: lazily revealed predicates, grand-theory fragment, the actual
state, and per-tick novelty events (variation / innovation / emergence).

The generator owns a single splitmix64 stream; observations are drawn from
stateless hashes keyed by (agent seed, tick, predicate) so that agent
observation never perturbs Nature's stream.

Every clause carries its integer form (pos_mask, neg_mask), bit p for
predicate p, and one procedure decides clause sets: `solutions`, unit
propagation and a split, which yields disjoint cubes of satisfying
assignments.  `satisfiable` asks it for one cube, and `_models` (behind
`Theory.models`) expands every cube over the predicates it leaves free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .rng import SplitMix64, fold, mix, stream


class ConfigError(ValueError):
    pass


class NicheError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class State:
    """Total truth assignment over a finite predicate set."""

    domain: frozenset[int]
    true: frozenset[int]

    def __post_init__(self):
        if not self.true <= self.domain:
            raise ValueError("true set must be contained in the domain")

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
        return State(self.domain | {predicate}, true)

    def bits(self) -> str:
        """Bitstring over the sorted domain, e.g. '101'."""
        return "".join("1" if p in self.true else "0" for p in sorted(self.domain))

    def sort_key(self):
        return tuple(sorted(self.domain)), tuple(sorted(self.true))


# a clause mask has a bit per index up to its largest (125 KB here); runs reveal
# one predicate per emergence tick past at most 20,000 initial ones
MAX_PREDICATE_INDEX = 1_000_000


@dataclass(frozen=True, slots=True)
class Clause:
    """Disjunction of literals (predicate, polarity).  `masks` is its integer
    form (pos_mask, neg_mask), bit p for predicate p."""

    literals: frozenset[tuple[int, bool]]
    masks: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.literals:
            raise ValueError("clause must be nonempty")
        pos = neg = 0
        for p, pol in self.literals:
            if not 0 <= p <= MAX_PREDICATE_INDEX:
                raise ValueError(f"clause predicate index {p} lies outside 0..{MAX_PREDICATE_INDEX}")
            if (pos | neg) >> p & 1:
                raise ValueError("clause may not mention a predicate with both polarities")
            if pol:
                pos |= 1 << p
            else:
                neg |= 1 << p
        object.__setattr__(self, "masks", (pos, neg))

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


def unit(predicate: int, value: bool) -> Clause:
    return Clause(frozenset(((predicate, value),)))


@dataclass(frozen=True, slots=True)
class Theory:
    """Finite clause set over a predicate set.  Clause order encodes age
    (oldest first)."""

    predicates: frozenset[int]
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        for c in self.clauses:
            if not c.predicates() <= self.predicates:
                raise ValueError("clause mentions a predicate outside the theory")
        if len(set(self.clauses)) != len(self.clauses):
            raise ValueError("duplicate clause")

    def with_clause(self, c: Clause) -> "Theory":
        if c in self.clauses:
            return self
        return Theory(self.predicates | c.predicates(), self.clauses + (c,))

    def models(self) -> tuple[State, ...]:
        return _models(self)

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


def canonical_texts(predicates: frozenset[int], clauses):
    """`text(dropped)`: the canonical text of the theory over `predicates` that
    keeps the clauses not indexed in `dropped`, from one rendering in sort-key order."""
    head = f"[{_predicate_list(predicates)}] "
    rendering = sorted(enumerate(map(_rendered, clauses)), key=lambda r: r[1][0])

    def text(dropped) -> str:
        return head + "; ".join([t for i, (_, t) in rendering if i not in dropped])

    return text


def text_digest(text: str) -> str:
    """The digest of a theory with canonical text `text`."""
    import hashlib

    return hashlib.sha256(text.encode()).hexdigest()[:16]


def residues(clauses, observed):
    """The clauses reduced by the observed values (predicate -> bool).  Returns
    the indices of the clauses the observation falsifies and, for each clause
    it leaves open, its index -> (pos_mask, neg_mask) over the unobserved
    predicates.  Clauses the observation satisfies are in neither."""
    true = false = 0
    for p, v in observed.items():
        if v:
            true |= 1 << p
        else:
            false |= 1 << p
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


@lru_cache(maxsize=65536)
def _models(theory: Theory) -> tuple[State, ...]:
    """All satisfying assignments over the theory's predicate set: the cubes
    of `solutions`, each expanded over the predicates it leaves free."""
    predicates = sorted(theory.predicates)
    states = []
    for true, false in solutions([c.masks for c in theory.clauses]):
        base = [p for p in predicates if true >> p & 1]
        free = [p for p in predicates if not (true | false) >> p & 1]
        for combo in range(1 << len(free)):
            chosen = [p for i, p in enumerate(free) if combo >> i & 1]
            states.append(State(theory.predicates, frozenset(base + chosen)))
    states.sort(key=State.sort_key)
    return tuple(states)


class NoveltyKind(Enum):
    VARIATION = "variation"
    INNOVATION = "innovation"
    EMERGENCE = "emergence"


@dataclass(frozen=True, slots=True)
class NoveltyEvent:
    tick: int
    kind: NoveltyKind
    predicate: int | None = None
    value: bool | None = None
    clause: Clause | None = None
    retracted: tuple[Clause, ...] = ()


def _as_fraction(w) -> Fraction:
    return w if isinstance(w, Fraction) else Fraction(str(w))


class UniverseGenerator:
    """Seeded Nature.  Mutated only by its run loop; two generators with equal
    seed and config evolve identically."""

    def __init__(self, seed: int, weights, initial_predicates: int, clause_arity: int = 2):
        weights = tuple(_as_fraction(w) for w in weights)
        if len(weights) != 3 or any(w < 0 for w in weights) or sum(weights) != 1:
            raise ConfigError("weights must be three nonnegative rationals summing to 1")
        if initial_predicates < 1:
            raise ConfigError("initial_predicates must be >= 1")
        if clause_arity < 2:
            raise ConfigError("clause_arity must be >= 2")
        self.seed = seed
        self.weights = weights
        self.clause_arity = clause_arity
        self._rng: SplitMix64 = stream(seed, 0x554E49)
        self.tick_index = 0
        true = frozenset(
            p for p in range(initial_predicates) if self._rng.chance(Fraction(1, 2))
        )
        self._actual = State(frozenset(range(initial_predicates)), true)
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
        return all(c.satisfied_by(self._actual) for c in self._clauses)

    def _draw_kind(self) -> NoveltyKind:
        u = Fraction(self._rng.next_u64(), 1 << 64)
        acc = Fraction(0)
        for w, kind in zip(self.weights, NoveltyKind):
            acc += w
            if u < acc:
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
        p = self._rng.choice(sorted(self.revealed_predicates))
        new_value = not self._actual.value(p)
        self._actual = self._actual.with_value(p, new_value)
        falsified = tuple(c for c in self._clauses if not c.satisfied_by(self._actual))
        for c in falsified:
            self._clauses.remove(c)
        return NoveltyEvent(
            self.tick_index, NoveltyKind.VARIATION, predicate=p, value=new_value, retracted=falsified
        )

    def _innovation(self) -> NoveltyEvent:
        preds = sorted(self.revealed_predicates)
        size = min(len(preds), 2 + self._rng.randrange(max(1, self.clause_arity - 1)))
        chosen: list[int] = []
        pool = list(preds)
        for _ in range(size):
            chosen.append(pool.pop(self._rng.randrange(len(pool))))
        literals = [(p, bool(self._rng.next_u64() & 1)) for p in sorted(chosen)]
        candidate = Clause(frozenset(literals))
        if not candidate.satisfied_by(self._actual):
            # force one literal to agree with the actual state
            p, _ = literals[self._rng.randrange(len(literals))]
            literals = [(q, self._actual.value(q) if q == p else pol) for q, pol in literals]
            candidate = Clause(frozenset(literals))
        if candidate not in self._clauses:
            self._clauses.append(candidate)
        return NoveltyEvent(self.tick_index, NoveltyKind.INNOVATION, clause=candidate)

    def _emergence(self) -> NoveltyEvent:
        new = max(self.revealed_predicates) + 1
        value = bool(self._rng.next_u64() & 1)
        anchor = self._rng.choice(sorted(self.revealed_predicates))
        self._actual = self._actual.with_value(new, value)
        # implication between the new predicate and the anchor, satisfied at
        # the actual state: one of the two literals agrees with the actual value
        if self._rng.next_u64() & 1:
            link = clause((new, value), (anchor, not self._actual.value(anchor)))
        else:
            link = clause((new, not value), (anchor, self._actual.value(anchor)))
        self._clauses.append(link)
        return NoveltyEvent(
            self.tick_index, NoveltyKind.EMERGENCE, predicate=new, value=value, clause=link
        )

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
        literals = {(p, self._actual.value(p)) for p in niche}
        prefix = mix(agent_seed, salt, self.tick_index)
        for p in sorted(self.revealed_predicates - niche):
            if fold(prefix, p) * visibility.denominator < visibility.numerator << 64:
                literals.add((p, self._actual.value(p)))
        return frozenset(literals)
