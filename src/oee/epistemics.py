"""Agent-local calculus: the three-valued-plus decision procedure, contextual
and adjacent possibles, local knowledge, and information partitions.

Entailment is semantic: a sentence is decided True when it holds in every
model of the agent's theory, False when it holds in none.  This is exact at
desk scale (model sets are enumerated); nothing here relies on proof search.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .formula import Formula, Know, atoms, enumerate_sentences, event_mask, is_propositional
from .universe import State, Theory, _models, mask_bits, predicate_mask


class DomainError(ValueError):
    pass


class EmptyModel(ValueError):
    pass


class Truth3(Enum):
    TRUE = "true"
    FALSE = "false"
    UNDECIDABLE = "undecidable"
    NOT_IN_LANGUAGE = "not-in-language"


@dataclass(frozen=True, slots=True)
class AgentState:
    """An agent's theory and observations; its revision epochs are trace events."""

    id: int
    theory: Theory
    observations: frozenset[tuple[int, bool]] = frozenset()

    def __post_init__(self):
        obs_preds = {p for p, _ in self.observations}
        if not obs_preds <= self.theory.predicates:
            raise ValueError("observation predicates must lie inside the agent language")

    @property
    def predicates(self) -> frozenset[int]:
        return self.theory.predicates


def agent_state(agent_id: int, theory: Theory, observations=frozenset()) -> AgentState:
    return AgentState(agent_id, theory, frozenset(observations))


@dataclass(frozen=True, slots=True)
class Partition:
    """Disjoint covering family of classes over a finite ground set.  Generic
    over hashable elements (concrete States here, bare ints in tests)."""

    ground: frozenset
    classes: tuple[frozenset, ...]

    def __post_init__(self):
        total = 0
        union = set()
        for cls in self.classes:
            if not cls:
                raise ValueError("empty partition class")
            total += len(cls)
            union |= cls
        if union != set(self.ground) or total != len(self.ground):
            raise ValueError("classes must partition the ground set exactly")


def partition_from_classes(ground, classes) -> Partition:
    """The partition of `ground` into `classes`, ordered by least element
    (states by `State.sort_key`): disjoint classes differ there already."""
    canonical = tuple(sorted((frozenset(c) for c in classes), key=_least_key))
    return Partition(frozenset(ground), canonical)


def _least_key(cls: frozenset):
    return min((e.sort_key() if isinstance(e, State) else (e,) for e in cls), default=())


def truth_of_mask(mask: int, full: int) -> Truth3:
    """The verdict on a sentence whose models among the theory's form `mask`
    (`full` has one bit per model): TRUE when it holds in every model, FALSE
    in none, UNDECIDABLE otherwise.  With no models both are 0: TRUE."""
    if mask == full:
        return Truth3.TRUE
    if mask == 0:
        return Truth3.FALSE
    return Truth3.UNDECIDABLE


def decide(agent: AgentState, f: Formula) -> Truth3:
    """δ: truth value of a propositional sentence under the agent's theory:
    NOT_IN_LANGUAGE when it mentions a predicate outside the agent's
    language, else `truth_of_mask` of its mask over the theory's models."""
    if not is_propositional(f):
        raise ValueError("decide is defined for propositional sentences only")
    if not atoms(f) <= agent.predicates:
        return Truth3.NOT_IN_LANGUAGE
    models = _models(agent.theory)
    full = (1 << len(models)) - 1
    return truth_of_mask(event_mask(f, models, full, {}), full)


def contextual_possible(agent: AgentState) -> frozenset[State]:
    """𝒦: the states fully evaluable and admissible under the agent's theory."""
    return frozenset(agent.theory.models())


def local_knowledge(agent: AgentState, omega: State, depth: int) -> frozenset[Formula]:
    """κ(ω): decided-true sentences that hold at ω, wrapped as Know(agent, ·)."""
    if omega.domain != agent.predicates:
        raise DomainError("state domain must equal the agent's predicate set")
    worlds = _models(agent.theory) + (predicate_mask(omega.true),)
    full, masks = (1 << len(worlds)) - 1, {}
    return frozenset(Know(agent.id, f) for f in enumerate_sentences(agent.predicates, depth)
                     if event_mask(f, worlds, full, masks) == full)


def information_labels(agent: AgentState) -> tuple[tuple[int, ...], list[int]]:
    """The true-masks of the contextual possible, in `State.sort_key` order,
    and each one's information class: states are indistinguishable when κ is
    equal and they agree on every observed literal.  A sentence is decided
    TRUE only when it holds in every model, so κ (`local_knowledge`) is one
    set at every model and the class is the mask of the observed predicates
    a state makes true, at every sentence depth.  An empty language raises
    ValueError."""
    models = _models(agent.theory)
    if not models:
        raise EmptyModel("inconsistent theory: no states to partition")
    if not agent.predicates:
        raise ValueError("predicate set must be nonempty")
    observed = predicate_mask(frozenset(p for p, _ in agent.observations))
    return models, [m & observed for m in models]


def information_partition(agent: AgentState) -> Partition:
    """The states of the contextual possible, grouped by `information_labels`."""
    groups: dict[int, set[State]] = {}
    for m, label in zip(*information_labels(agent)):
        groups.setdefault(label, set()).add(State(agent.predicates, frozenset(mask_bits(m))))
    return partition_from_classes(frozenset().union(*groups.values()), groups.values())


def adjacent_masks(before: Theory, after: Theory):
    """The true-masks of the models of `after` that `before` did not admit:
    all of them when the predicate sets differ, else those `before` lacks."""
    new = _models(after)
    if before.mask == after.mask:
        return set(new).difference(_models(before))
    return new


def adjacent_possible(before: AgentState, after: AgentState) -> frozenset[State]:
    """𝒜: states admissible now that were not admissible before, the
    `adjacent_masks` of the two theories as states."""
    if before.id != after.id:
        raise ValueError("adjacent_possible compares one agent across epochs")
    return frozenset(State(after.predicates, frozenset(mask_bits(m)))
                     for m in adjacent_masks(before.theory, after.theory))
