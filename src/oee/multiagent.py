"""Interactive epistemology over a shared frame.

Agents with different languages meet on the intersection of their predicate
sets: each agent's information partition is projected onto the shared
predicates and coarsened back into a partition of the full shared state cube.
Common knowledge, posteriors, and the agreement experiment all run over that
frame; `validate_s5` checks the modal axioms under partition semantics, with a
relation-based debug evaluator as the negative control.

A frame holds no `State`: its ground is a tuple of true-masks in
`State.sort_key` order (position k for the k-th), each agent's partition one
array of class labels with the class sizes, and the meet one more label
array.  Events are ground masks (bit k for position k) or position lists,
and every check scans labels.  States are built only where a function
returns them: `SharedFrame.ground`, `partition_of`, `FailsAt` and the S5
counterexamples.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .epistemics import AgentState, Partition, information_labels
from .formula import Formula, Implies, Know, atoms, event_mask, is_propositional, \
    render
from .universe import State, mask_bits, predicate_mask


class GroundMismatch(ValueError):
    pass


class NotClosedMode(ValueError):
    pass


def _labelling(raw) -> tuple[array, tuple[int, ...]]:
    """Class labels renumbered in order of first position, and class sizes."""
    names: dict = {}
    labels = array("l", [names.setdefault(c, len(names)) for c in raw])
    sizes = [0] * len(names)
    for c in labels:
        sizes[c] += 1
    return labels, tuple(sizes)


def meet(labellings) -> array:
    """The labels of the finest common coarsening of partitions given as
    label arrays over one ground, numbered by least position: one union-find
    over the first's labels joins those that a class of another meets."""
    labellings = list(labellings)
    if not labellings:
        raise ValueError("meet of zero partitions")
    first = _labelling(labellings[0])[0]  # any hashable labels, renumbered from 0
    if any(len(labels) != len(first) for labels in labellings):
        raise GroundMismatch("all partitions must share one ground set")
    parent = list(range(len(first)))

    def find(x: int) -> int:
        while (up := parent[x]) != x:
            parent[x] = x = parent[up]
        return x

    for labels in labellings[1:]:
        anchor: dict[int, int] = {}  # a first label that each class meets
        for a, b in zip(first, labels):
            root = anchor.setdefault(b, a)
            if root != a and (root := find(root)) != (a := find(a)):
                parent[a] = root
    return _labelling([find(c) for c in first])[0]


def _positions(mask: int, n: int) -> list[int]:
    """The set bits of a mask over n ground positions (KeyError past them)."""
    if mask < 0 or mask >> n:
        raise KeyError(mask)
    return [k for k, b in enumerate(format(mask, "b")[::-1]) if b == "1"]


@dataclass(frozen=True, slots=True)
class SharedFrame:
    """The ground's true-masks in `State.sort_key` order, per agent each
    position's class label and the class sizes, and whether every agent
    speaks exactly the shared predicates; the meet's labels and each
    true-mask's position are derived."""

    agents: tuple[int, ...]
    shared_predicates: frozenset[int]
    trues: tuple[int, ...]
    classes: dict[int, tuple[array, tuple[int, ...]]]
    closed: bool
    meet_labels: array = field(init=False, compare=False, repr=False)
    index: dict[int, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if any(len(labels) != len(self.trues) for labels, _ in self.classes.values()):
            raise GroundMismatch("partition ground differs from the frame ground")
        object.__setattr__(self, "meet_labels", meet(c[0] for c in self.classes.values()))
        object.__setattr__(self, "index", {t: k for k, t in enumerate(self.trues)})

    def position(self, w: State) -> int:
        """The ground position of a state (KeyError for any other; -1 is no
        true-mask)."""
        return self.index[predicate_mask(w.true) if w.domain == self.shared_predicates else -1]

    def states(self, positions) -> list[State]:
        """The states at the ground positions, in order."""
        domain, trues = self.shared_predicates, self.trues
        return [State(domain, frozenset(mask_bits(trues[k]))) for k in positions]

    @property
    def ground(self) -> frozenset[State]:
        return frozenset(self.states(range(len(self.trues))))

    def partition_of(self, agent_id: int) -> Partition:
        labels, sizes = self.classes[agent_id]
        members: list[list[int]] = [[] for _ in sizes]
        for k, c in enumerate(labels):
            members[c].append(k)
        classes = tuple(frozenset(self.states(m)) for m in members)
        return Partition(frozenset().union(*classes), classes)

    def formula_mask(self, f: Formula) -> int:
        """The ground mask of the propositional formula f (ValueError if it is
        not propositional, KeyError naming its least atom outside the frame)."""
        if not is_propositional(f):
            raise ValueError("event formulas must be propositional")
        if outside := atoms(f) - self.shared_predicates:
            raise KeyError(min(outside))
        return event_mask(f, self.trues, (1 << len(self.trues)) - 1, {})


MAX_CUBE_PREDICATES = 16


def _cube(predicates) -> list[int]:
    """The true-mask of every total assignment over the predicates, in
    `State.sort_key` order: 2^n of them for n predicates.  More than
    MAX_CUBE_PREDICATES predicates raise ValueError before any is built."""
    preds = sorted(set(predicates))
    if len(preds) > MAX_CUBE_PREDICATES:
        raise ValueError(f"full cube over {len(preds)} predicates exceeds the limit of "
                         f"{MAX_CUBE_PREDICATES} predicates ({1 << MAX_CUBE_PREDICATES} states)")
    # subsets of preds[j:]: the empty one, those with preds[j], then the rest
    trues = [0]
    for p in reversed(preds):
        trues = [0, *[t | 1 << p for t in trues], *trues[1:]]
    return trues


def full_cube(predicates) -> frozenset[State]:
    """The states of `_cube`."""
    domain = frozenset(predicates)
    return frozenset(State(domain, frozenset(mask_bits(t))) for t in _cube(domain))


def build_shared_frame(agents: list[AgentState]) -> SharedFrame:
    """Each agent's information classes projected onto the cube of the
    shared predicates: classes whose projections share a state merge, and
    the states hit by no class form one residual class."""
    if not agents:
        raise ValueError("need at least one agent")
    shared = frozenset.intersection(*(a.predicates for a in agents))
    trues = _cube(shared)
    index = {t: k for k, t in enumerate(trues)}
    keep = predicate_mask(shared)
    classes = {}
    for a in agents:
        models, groups = information_labels(a)
        projected = [index[m & keep] for m in models]
        # over the models, the meet of the classes and of the projection's
        # fibres gives the merged classes; unhit states keep the label -1
        raw = [-1] * len(trues)
        for k, c in zip(projected, meet([groups, projected])):
            raw[k] = c
        classes[a.id] = _labelling(raw)
    return SharedFrame(tuple(a.id for a in agents), shared, tuple(trues), classes,
                       all(a.predicates == shared for a in agents))


def frame_from_partitions(predicates, ground, partitions: dict[int, Partition]) -> SharedFrame:
    """A closed-mode frame of explicit partitions of states over the predicates."""
    preds = frozenset(predicates)
    ground = frozenset(ground)
    states = sorted(ground, key=State.sort_key)
    for w in states:
        if w.domain != preds:
            raise GroundMismatch(
                f"ground state {w.bits()} does not assign exactly the frame's predicates")
    classes = {}
    for i, p in partitions.items():
        if p.ground != ground:
            raise GroundMismatch("partition ground differs from the frame ground")
        label = {w: c for c, cls in enumerate(p.classes) for w in cls}
        classes[i] = _labelling([label[w] for w in states])
    return SharedFrame(tuple(sorted(partitions)), preds,
                       tuple(predicate_mask(w.true) for w in states), classes, True)


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
    try:
        k = frame.position(at)
    except KeyError:
        raise GroundMismatch("evaluation state must lie in the frame ground") from None
    missing = atoms(event_formula) - frame.shared_predicates
    if missing:
        return Infeasible(frozenset(missing))
    meet_labels = frame.meet_labels
    inside = format(frame.formula_mask(event_formula), f"0{len(meet_labels)}b")[::-1]
    label = meet_labels[k]
    outside = [j for j, m in enumerate(meet_labels) if m == label and inside[j] == "0"]
    return FailsAt(frozenset(frame.states(outside))) if outside else Holds()


@lru_cache(maxsize=256)
def _ratio(n: int, d: int) -> Fraction:
    return Fraction(n, d)


def posterior(classes: tuple[array, tuple[int, ...]], event, at: int) -> Fraction:
    """Uniform-prior posterior of an event (ground positions) given the class
    of position `at` in a partition given as (labels, class sizes), exact.
    Equal counts |E & C| and |C| return one shared `Fraction`."""
    labels, sizes = classes
    c = labels[at]
    n = 0
    for h in event:
        if labels[h] == c:
            n += 1
    return _ratio(n, sizes[c])


@dataclass(frozen=True, slots=True)
class AgreementReport:
    posteriors: dict[int, Fraction]
    common_knowledge_of_posteriors: bool
    agree: bool


def agreement_check(frame: SharedFrame, event, at: State) -> AgreementReport:
    """Each agent's posterior of the event (a set of ground states, or a
    ground mask) at `at` from `posterior`, whether the profile event "every
    agent's posterior equals its value at `at`" (the classes C whose counts
    |E & C| / |C| cross-multiply to it) holds on the meet class of `at`, and
    whether the lowest-terms posteriors are all one pair."""
    index, domain = frame.index, frame.shared_predicates
    try:
        k = frame.position(at)
        # -1 is no true-mask: a state over other predicates is outside the ground
        hits = _positions(event, len(frame.trues)) if isinstance(event, int) \
            else {index[predicate_mask(w.true) if w.domain == domain else -1] for w in event}
    except KeyError:
        raise GroundMismatch("event and state must lie in the frame ground") from None
    meet_labels = frame.meet_labels
    label = meet_labels[k]
    posteriors = {}
    values = set()
    ck = True
    for i in frame.agents:
        classes = frame.classes[i]
        value = posteriors[i] = posterior(classes, hits, k)
        n, d = value.as_integer_ratio()
        values.add((n, d))
        if ck:  # does each of this agent's classes in at's meet class have ratio n / d?
            labels, sizes = classes
            counts = [0] * len(sizes)
            for h in hits:
                counts[labels[h]] += 1
            for m, c in zip(meet_labels, labels):
                if m == label and counts[c] * d != n * sizes[c]:
                    ck = False
                    break
    return AgreementReport(posteriors, ck, len(values) == 1)


# --- S5 validation -----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SchemeReport:
    name: str
    ok: bool
    counterexample: tuple[str, State] | None = None


def _class_masks(labels, sizes) -> list[int]:
    """The ground mask of each class of a partition given as (labels, sizes)."""
    masks = [0] * len(sizes)
    for k, c in enumerate(labels):
        masks[c] |= 1 << k
    return masks


def _knowledge_mask(pairs, event: int) -> int:
    """K(E) = {w : succ(w) <= E}: the sources whose successors lie inside E."""
    outside = ~event
    out = 0
    for sources, successors in pairs:
        if not successors & outside:
            out |= sources
    return out


class _Knowledge(dict):
    """One agent's K memoised over event masks: `K[event]` is
    `_knowledge_mask(pairs, event)`, computed at its first use."""

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        super().__init__()
        self.pairs = pairs

    def __missing__(self, event: int) -> int:
        out = self[event] = _knowledge_mask(self.pairs, event)
        return out


def _validate_schemes(size, state, pairs, agents, events) -> list[SchemeReport]:
    """Every scheme instance over the distinct base events, given as (event
    mask, first witness formula) pairs over a ground of `size` positions in
    `State.sort_key` order, where agent i's K is `_knowledge_mask` over its
    (sources, successors) pairs (bit k for position k).

    Per agent, one memo of K over event masks and the list of K of each base
    event serve all five schemes.  Each scheme is one scan over agents, then
    e (then d), in that order, that stops at its first failing instance; the
    lowest bit of its failure mask is the minimum counterexample, and
    `state(k)` builds its State, the only one built."""
    full = (1 << size) - 1
    tables = []  # per agent: (id, memo of K, K of each base event)
    for i in agents:
        know = _Knowledge(pairs[i])
        tables.append((i, know, [know[e] for e, _ in events]))

    def reflection():
        for i, _, known in tables:
            for (e, f), ke in zip(events, known):
                if bad := ke & ~e:
                    return bad, Know(i, f)

    def positive_introspection():
        for i, know, known in tables:
            for (e, f), ke in zip(events, known):
                if bad := ke & ~know[ke]:
                    return bad, Know(i, f)

    def negative_introspection():
        for i, know, known in tables:
            for (e, f), ke in zip(events, known):
                unknown = full & ~ke
                if bad := unknown & ~know[unknown]:
                    return bad, Know(i, f)

    def distributivity():
        witness = dict(events)
        for i, know, known in tables:
            complements = [(d, ~kd) for (d, _), kd in zip(events, known)]
            for (e, f), ke in zip(events, known):
                not_e = full & ~e
                for d, not_kd in complements:
                    # K(~e | d) & K(e) & ~K(d) is zero wherever K(e) & ~K(d) is
                    if (lost := ke & not_kd) and (bad := know[not_e | d] & lost):
                        return bad, Implies(f, witness[d])

    def necessitation():
        for i, _, known in tables:
            for (e, f), ke in zip(events, known):
                if e == full and (bad := full & ~ke):
                    return bad, Know(i, f)

    reports = []
    for name, scan in (
        ("reflection", reflection),
        ("positive-introspection", positive_introspection),
        ("negative-introspection", negative_introspection),
        ("distributivity", distributivity),
        ("necessitation", necessitation),
    ):
        failure = scan()
        if failure is None:
            reports.append(SchemeReport(name, True))
        else:
            bad, witness = failure
            reports.append(SchemeReport(
                name, False, (render(witness), state((bad & -bad).bit_length() - 1))))
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
    keep = predicate_mask(preds)
    # the cube code of each true-mask over preds, and the ground mask of each
    # code: bit k set when state k has that code
    code = {sum(1 << p for j, p in enumerate(preds) if c >> j & 1): c
            for c in range(1 << len(preds))}
    at_code = [0] * len(code)
    for k, t in enumerate(trues):
        at_code[code[t & keep]] |= 1 << k
    # the ground mask of every table: the union of its codes' masks
    projected = [0]
    for ground in at_code:
        projected += [event | ground for event in projected]
    witnesses: dict = {}
    for table, f in _cube_tables(preds, depth):
        witnesses.setdefault(projected[table], f)
    return list(witnesses.items())


def validate_s5(frame: SharedFrame, depth: int) -> list[SchemeReport]:
    """Check reflection, both introspection schemes, distributivity, and
    necessitation over the frame's partitions (closed mode only), on the
    events of the base formulas (`_base_events`): agent i knows E at w when
    w's class, one of the class masks built per call from the labels, lies
    inside E.  `_validate_schemes` keeps one K table per agent for all five
    schemes.  A failure reports the first failing instance's formula and
    minimum state, the one State built per failing scheme; a frame where
    every scheme holds builds none."""
    if not frame.closed:
        raise NotClosedMode("agents must share one predicate set")
    events = _base_events(frame.trues, frame.shared_predicates, depth)
    pairs = {i: [(c, c) for c in _class_masks(*frame.classes[i])] for i in frame.agents}
    return _validate_schemes(len(frame.trues), lambda k: frame.states((k,))[0], pairs,
                             frame.agents, events)


def validate_relation(ground, relation: dict, agents, predicates, depth: int):
    """Debug entry point: the same scheme checks over an arbitrary relation
    (state -> state set) shared by the agents; non-partition relations are
    expected to fail introspection.  A relation that does not map exactly
    the ground states into the ground, or a predicate outside a ground
    state's domain, raises GroundMismatch naming the state or predicate."""
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
    return _validate_schemes(len(states), states.__getitem__, {i: pairs for i in agents},
                             tuple(agents), events)
