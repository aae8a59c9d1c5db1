"""Interactive epistemology over a shared frame.

Agents with different languages meet on the intersection of their predicate
sets: each agent's information partition is projected onto the shared
predicates and coarsened back into a partition of the full shared state cube.
Common knowledge, posteriors, and the agreement experiment all run over that
frame; `validate_s5` checks the modal axioms under partition semantics, with a
relation-based debug evaluator as the negative control.

Agreement, common knowledge and S5 validation work on events as bitmasks over
the ground, through one mask view per frame (`SharedFrame.masks`), built on
first use: the ground numbered in `State.sort_key` order (bit k for the k-th
state), its true-masks, each agent's class masks, and, on first need, the
class mask of every state in the meet, taken from one call to `meet`.
Formulas become masks through `formula.event_mask`; S5 validation takes its
base events from truth tables over the cube of the base predicates, evaluated
once per (base predicates, depth) and cached, and projects each table onto
the frame's ground by the base-predicate code of every state.  The posterior
profile event is the union of the classes C whose popcount ratio |E & C| /
|C| equals the agent's posterior at the evaluation state, common knowledge
of E at w is `meet(w) & ~E == 0`, and K_i(E) is the union of the classes
(for a relation, of the states) whose successors lie inside E.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .epistemics import AgentState, Partition, information_partition, partition_from_classes
from .formula import Formula, Implies, Know, atoms, event_mask, is_propositional, \
    render
from .universe import State, predicate_mask


class GroundMismatch(ValueError):
    pass


class NotClosedMode(ValueError):
    pass


def knowledge_event(p: Partition, event) -> frozenset:
    """K(E): states whose whole information class lies inside the event."""
    event = frozenset(event)
    if not event <= p.ground:
        raise GroundMismatch("event must be a subset of the partition ground")
    return frozenset(w for cls in p.classes if cls <= event for w in cls)


def _merged(classes) -> list[set]:
    """The connected components of the classes' overlap graph, by one
    union-find over their elements, numbered as first seen."""
    index: dict = {}
    parent: dict[int, int] = {}

    def find(k: int) -> int:
        while (up := parent.setdefault(k, k)) != k:
            parent[k] = k = parent[up]
        return k

    for cls in classes:
        roots = [find(index.setdefault(e, len(index))) for e in cls]
        for k in roots:
            parent[k] = roots[0]
    components: dict[int, set] = {}
    for e, k in index.items():
        components.setdefault(find(k), set()).add(e)
    return list(components.values())


def meet(partitions) -> Partition:
    """Finest common coarsening: connected components of the class-overlap
    graph across all partitions."""
    partitions = list(partitions)
    if not partitions:
        raise ValueError("meet of zero partitions")
    ground = partitions[0].ground
    if any(p.ground != ground for p in partitions):
        raise GroundMismatch("all partitions must share one ground set")
    return partition_from_classes(ground, _merged(c for p in partitions for c in p.classes))


class FrameMasks:
    """The mask view of a shared frame: `states` is the ground in
    `State.sort_key` order, `index` maps each state to its bit and `trues`
    to its true-mask, by bit; `classes` lists each agent's class masks.
    `meet_at` gives the meet's class mask of every state, computed by `meet`
    on first call."""

    __slots__ = ("states", "index", "full", "trues", "domain", "classes", "_partitions", "_meet_at")

    def __init__(self, ground: frozenset[State], partitions: dict[int, Partition]):
        self.states = sorted(ground, key=State.sort_key)
        self.index = {w: k for k, w in enumerate(self.states)}
        self.full = (1 << len(self.states)) - 1
        self.trues = [sum(1 << p for p in w.true) for w in self.states]
        self.domain = -1  # bit p when every ground state assigns predicate p
        for d in {w.domain for w in self.states}:
            self.domain &= predicate_mask(d)
        self.classes = {}
        for i, p in partitions.items():
            if p.ground != ground:
                raise GroundMismatch("partition ground differs from the frame ground")
            self.classes[i] = tuple(self.mask(cls) for cls in p.classes)
        self._partitions = partitions
        self._meet_at = None

    def mask(self, states) -> int:
        """The mask of a set of ground states (KeyError for any other)."""
        index = self.index
        out = 0
        for w in states:
            out |= 1 << index[w]
        return out

    def states_of(self, mask: int) -> frozenset[State]:
        return frozenset(w for k, w in enumerate(self.states) if mask >> k & 1)

    def formula_mask(self, f: Formula) -> int:
        """The mask of the ground states where the propositional formula f
        holds; ValueError for a formula with a knowledge operator, KeyError
        naming the least atom that some ground state does not assign."""
        if not is_propositional(f):
            raise ValueError("event formulas must be propositional")
        outside = predicate_mask(atoms(f)) & ~self.domain
        if outside:
            raise KeyError((outside & -outside).bit_length() - 1)
        return event_mask(f, self.trues, self.full, {})

    def meet_at(self) -> list[int]:
        if self._meet_at is None:
            self._meet_at = [0] * len(self.states)
            for cls in meet(self._partitions.values()).classes:
                m = self.mask(cls)
                for w in cls:
                    self._meet_at[self.index[w]] = m
        return self._meet_at


@dataclass(frozen=True, slots=True)
class SharedFrame:
    agents: tuple[int, ...]
    shared_predicates: frozenset[int]
    ground: frozenset[State]
    projected_partitions: dict[int, Partition]
    agent_predicates: dict[int, frozenset[int]]
    # the mask view, built by the first `masks()` call
    _masks: FrameMasks | None = field(default=None, init=False, compare=False, repr=False)

    def partition_of(self, agent_id: int) -> Partition:
        return self.projected_partitions[agent_id]

    def masks(self) -> FrameMasks:
        """The frame's mask view, built on first use (GroundMismatch when a
        partition's ground differs from the frame's)."""
        view = self._masks
        if view is None:
            view = FrameMasks(self.ground, self.projected_partitions)
            object.__setattr__(self, "_masks", view)
        return view

    @property
    def closed(self) -> bool:
        return all(p == self.shared_predicates for p in self.agent_predicates.values())


MAX_CUBE_PREDICATES = 16


def full_cube(predicates) -> frozenset[State]:
    """Every total assignment over the predicates: 2^n states for n of them.
    More than MAX_CUBE_PREDICATES predicates raise ValueError before any
    state is built."""
    preds = sorted(set(predicates))
    if len(preds) > MAX_CUBE_PREDICATES:
        raise ValueError(
            f"full cube over {len(preds)} predicates exceeds the limit of "
            f"{MAX_CUBE_PREDICATES} predicates ({1 << MAX_CUBE_PREDICATES} states)"
        )
    domain = frozenset(preds)
    return frozenset(
        State(domain, frozenset(p for p, v in zip(preds, values) if v))
        for values in product((False, True), repeat=len(preds))
    )


def _coarsen_onto(ground: frozenset[State], projected_classes) -> Partition:
    """Merge overlapping projected classes into a partition of the ground;
    states hit by no class form one residual class."""
    classes = [frozenset(c) & ground for c in projected_classes]
    merged = _merged(c for c in classes if c)
    residual = set(ground).difference(*merged)
    if residual:
        merged.append(residual)
    return partition_from_classes(ground, merged)


def build_shared_frame(agents: list[AgentState]) -> SharedFrame:
    if not agents:
        raise ValueError("need at least one agent")
    shared = frozenset.intersection(*(a.predicates for a in agents))
    ground = full_cube(shared)
    projected = {}
    for a in agents:
        partition = information_partition(a)
        projected_classes = [
            frozenset(s.restrict(shared) for s in cls) for cls in partition.classes
        ]
        projected[a.id] = _coarsen_onto(ground, projected_classes)
    return SharedFrame(
        agents=tuple(a.id for a in agents),
        shared_predicates=shared,
        ground=ground,
        projected_partitions=projected,
        agent_predicates={a.id: a.predicates for a in agents},
    )


def frame_from_partitions(predicates, ground, partitions: dict[int, Partition]) -> SharedFrame:
    """A closed-mode frame given explicit partitions (e.g. loaded from file)."""
    preds = frozenset(predicates)
    ground = frozenset(ground)
    for p in partitions.values():
        if p.ground != ground:
            raise GroundMismatch("partition ground differs from the frame ground")
    return SharedFrame(
        agents=tuple(sorted(partitions)),
        shared_predicates=preds,
        ground=ground,
        projected_partitions=dict(partitions),
        agent_predicates={i: preds for i in partitions},
    )


@dataclass(frozen=True, slots=True)
class Holds:
    pass


@dataclass(frozen=True, slots=True)
class FailsAt:
    states: frozenset[State]


@dataclass(frozen=True, slots=True)
class Infeasible:
    missing: frozenset[int]


def common_knowledge(frame: SharedFrame, event_formula: Formula, at: State):
    """Holds, FailsAt(states), or Infeasible(missing atoms) when the event is
    not even expressible in the shared language."""
    view = frame.masks()
    k = view.index.get(at)
    if k is None:
        raise GroundMismatch("evaluation state must lie in the frame ground")
    missing = atoms(event_formula) - frame.shared_predicates
    if missing:
        return Infeasible(frozenset(missing))
    outside = view.meet_at()[k] & ~view.formula_mask(event_formula)
    if not outside:
        return Holds()
    return FailsAt(view.states_of(outside))


@lru_cache(maxsize=256)
def _ratio(n: int, d: int) -> Fraction:
    return Fraction(n, d)


def posterior(p: Partition, event, at) -> Fraction:
    """Uniform-prior posterior of the event given the information class of
    `at` — exact rational.  Posteriors are interned: equal counts |E & C|
    and |C| return one shared `Fraction`."""
    event = frozenset(event)
    if not event <= p.ground:
        raise GroundMismatch("event must be a subset of the partition ground")
    cls = p.class_of(at)
    return _ratio(len(event & cls), len(cls))


@dataclass(frozen=True, slots=True)
class AgreementReport:
    posteriors: dict[int, Fraction]
    common_knowledge_of_posteriors: bool
    agree: bool


def agreement_check(frame: SharedFrame, event, at: State) -> AgreementReport:
    """Each agent's posterior of the event at `at`, whether the event "every
    agent's posterior equals its value at `at`" is common knowledge at `at`,
    and whether the posteriors agree.  Each agent's posterior at `at` comes
    from `posterior`, once per agent; on the frame's mask view, the profile
    event is the union of the classes C whose counts |E & C| / |C|
    cross-multiply to that value, and the posteriors agree when their
    lowest-terms (numerator, denominator) pairs are all one pair."""
    view = frame.masks()
    try:
        k = view.index[at]
        e = view.mask(event)
    except KeyError:
        raise GroundMismatch("event and state must lie in the frame ground") from None
    posteriors = {}
    values = set()
    profile = view.full
    for i in frame.agents:
        value = posteriors[i] = posterior(frame.partition_of(i), event, at)
        n, d = value.numerator, value.denominator
        values.add((n, d))
        same = 0
        for cls in view.classes[i]:
            if (e & cls).bit_count() * d == n * cls.bit_count():
                same |= cls
        profile &= same
    ck = not view.meet_at()[k] & ~profile
    return AgreementReport(posteriors, ck, len(values) == 1)


# --- S5 validation -----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SchemeReport:
    name: str
    ok: bool
    counterexample: tuple[str, State] | None = None


def _knowledge_mask(pairs, event: int) -> int:
    """K(E) = {w : succ(w) <= E}: the sources whose successors lie inside E."""
    out = 0
    for sources, successors in pairs:
        if not successors & ~event:
            out |= sources
    return out


def _validate_schemes(states, pairs, agents, events) -> list[SchemeReport]:
    """Every scheme instance over the distinct base events, given as (event
    mask, first witness formula) pairs, the ground in `State.sort_key` order
    and, per agent, the (sources, successors) pairs of `_knowledge_mask` (bit
    k for `states[k]`), so that the lowest failing bit is the minimum
    counterexample state."""
    full = (1 << len(states)) - 1
    known: dict = {i: {} for i in agents}

    def know(i, event):
        memo = known[i]
        out = memo.get(event)
        if out is None:
            out = memo[event] = _knowledge_mask(pairs[i], event)
        return out

    reports = []

    def check(name, failures, witness=lambda i, f, g: Know(i, f)):
        for bad, i, f, g in failures:
            if bad:
                state = states[(bad & -bad).bit_length() - 1]
                reports.append(SchemeReport(name, False, (render(witness(i, f, g)), state)))
                return
        reports.append(SchemeReport(name, True))

    check(
        "reflection",
        ((know(i, e) & ~e, i, f, None) for i in agents for e, f in events),
    )
    check(
        "positive-introspection",
        ((know(i, e) & ~know(i, know(i, e)), i, f, None) for i in agents for e, f in events),
    )
    check(
        "negative-introspection",
        (
            (full & ~know(i, e) & ~know(i, full & ~know(i, e)), i, f, None)
            for i in agents
            for e, f in events
        ),
    )
    check(
        "distributivity",
        (
            (know(i, (full & ~e) | d) & know(i, e) & ~know(i, d), i, f, g)
            for i in agents
            for e, f in events
            for d, g in events
        ),
        lambda i, f, g: Implies(f, g),
    )
    check(
        "necessitation",
        (
            (full & ~know(i, e) if e == full else 0, i, f, None)
            for i in agents
            for e, f in events
        ),
    )
    return reports


@lru_cache(maxsize=256)
def _cube_tables(predicates: tuple[int, ...], depth: int) -> tuple[tuple[int, Formula], ...]:
    """The distinct truth tables of the base formulas (propositional, depth
    <= `depth`, over the sorted base predicates), each with its first witness
    formula, in enumeration order.  Bit c of a table is the formula's value at
    the cube state with code c: predicates[j] true when bit j of c is set.
    An empty predicate set or a negative depth raises ValueError."""
    from .formula import enumerate_sentences

    cube = [
        sum(1 << p for j, p in enumerate(predicates) if c >> j & 1)
        for c in range(1 << len(predicates))
    ]
    full = (1 << len(cube)) - 1
    masks: dict = {}
    witnesses: dict = {}
    for f in enumerate_sentences(predicates, depth):
        witnesses.setdefault(event_mask(f, cube, full, masks), f)
    return tuple(witnesses.items())


def _base_events(trues, predicates, depth: int) -> list[tuple[int, Formula]]:
    """The distinct events of the base formulas over the first two of the
    predicates on the ground of true-masks `trues` (bit k for `trues[k]`),
    each with its first witness formula, in enumeration order.  Every scheme
    is extensional, so these events stand for all the base formulas."""
    preds = tuple(sorted(predicates)[:2])
    tables = _cube_tables(preds, depth)
    # the ground mask of each cube code: bit k set when state k has that code
    at_code = [0] * (1 << len(preds))
    for k, t in enumerate(trues):
        at_code[sum((t >> p & 1) << j for j, p in enumerate(preds))] |= 1 << k
    witnesses: dict = {}
    for table, f in tables:
        event = 0
        for c, ground in enumerate(at_code):
            if table >> c & 1:
                event |= ground
        witnesses.setdefault(event, f)
    return list(witnesses.items())


def validate_s5(frame: SharedFrame, depth: int) -> list[SchemeReport]:
    """Check reflection, both introspection schemes, distributivity, and
    necessitation over the frame's partitions.  Closed mode only.

    Partition semantics on the frame's mask view: the ground is numbered in
    `State.sort_key` order, every base formula (propositional, depth <=
    `depth`, over the first two shared predicates) becomes the mask of the
    states where it holds, and agent i knows E at w when w's information
    class lies inside E, K_i(E) = {w : class_i(w) <= E}.  The base events
    come from truth tables over the cube of the base predicates, evaluated
    once per (base predicates, depth) and cached, then projected onto the
    ground.  Each scheme is checked on the masks of the distinct base events;
    a failure reports the first failing instance's formula and its minimum
    state."""
    if not frame.closed:
        raise NotClosedMode("agents must share one predicate set")
    view = frame.masks()
    events = _base_events(view.trues, frame.shared_predicates, depth)
    pairs = {i: [(c, c) for c in view.classes[i]] for i in frame.agents}
    return _validate_schemes(view.states, pairs, frame.agents, events)


def validate_relation(ground, relation: dict, agents, predicates, depth: int):
    """Debug entry point: run the same scheme checks over an arbitrary
    accessibility relation (state -> state set) shared by the given agents.
    Non-partition relations are expected to fail introspection.  The
    relation must map exactly the ground states, into the ground, and every
    predicate must lie in each ground state's domain; anything else raises
    GroundMismatch naming the state or the predicate."""
    ground = frozenset(ground)
    predicates = frozenset(predicates)
    states = sorted(ground, key=State.sort_key)
    for w in states:
        if w not in relation:
            raise GroundMismatch(f"relation gives no successors for ground state {w.bits()}")
        if not predicates <= w.domain:
            raise GroundMismatch(
                f"predicate p{min(predicates - w.domain)} is outside the domain "
                f"of ground state {w.bits()}"
            )
    for w in sorted(relation, key=State.sort_key):
        if w not in ground:
            raise GroundMismatch(f"relation maps state {w.bits()}, which is outside the ground")
        for v in sorted(relation[w], key=State.sort_key):
            if v not in ground:
                raise GroundMismatch(
                    f"relation points from {w.bits()} to {v.bits()}, "
                    "which is outside the ground"
                )
    index = {w: k for k, w in enumerate(states)}
    pairs = [(1 << k, sum(1 << index[v] for v in set(relation[w]))) for k, w in enumerate(states)]
    events = _base_events([sum(1 << p for p in w.true) for w in states], predicates, depth)
    return _validate_schemes(states, {i: pairs for i in agents}, tuple(agents), events)
