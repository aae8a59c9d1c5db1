"""Frozenset references for the label view of shared frames.

These are the multi-agent operations as first written, on `Partition`s of
states (or of bare ints): the class of an element, K(E), the meet, the
posterior, and the partitions that `build_shared_frame` projects from agents.
The engine computes all of them on integer labels; the tests hold it to
these.
"""

from fractions import Fraction
from itertools import product

from oee.epistemics import partition_from_classes
from oee.multiagent import GroundMismatch
from oee.universe import State


def class_of(p, element) -> frozenset:
    for cls in p.classes:
        if element in cls:
            return cls
    raise KeyError(element)


def knowledge_event(p, event) -> frozenset:
    """K(E): states whose whole information class lies inside the event."""
    event = frozenset(event)
    if not event <= p.ground:
        raise GroundMismatch("event must be a subset of the partition ground")
    return frozenset(w for cls in p.classes if cls <= event for w in cls)


def merged(classes) -> list[set]:
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


def meet(partitions):
    """Finest common coarsening: connected components of the class-overlap
    graph across all partitions."""
    partitions = list(partitions)
    if not partitions:
        raise ValueError("meet of zero partitions")
    ground = partitions[0].ground
    if any(p.ground != ground for p in partitions):
        raise GroundMismatch("all partitions must share one ground set")
    return partition_from_classes(ground, merged(c for p in partitions for c in p.classes))


def posterior(p, event, at) -> Fraction:
    """Uniform-prior posterior of the event given the information class of
    `at`."""
    event = frozenset(event)
    if not event <= p.ground:
        raise GroundMismatch("event must be a subset of the partition ground")
    cls = class_of(p, at)
    return Fraction(len(event & cls), len(cls))


def coarsen_onto(ground, projected_classes):
    """Merge overlapping projected classes into a partition of the ground;
    states hit by no class form one residual class."""
    classes = [frozenset(c) & ground for c in projected_classes]
    components = merged(c for c in classes if c)
    residual = set(ground).difference(*components)
    if residual:
        components.append(residual)
    return partition_from_classes(ground, components)


def shared_partitions(agents) -> dict:
    """By agent id, the partition of the shared cube that `build_shared_frame`
    gives the agent: its model states grouped by their values on the observed
    literals, each class restricted to the shared predicates, then coarsened
    onto the cube."""
    shared = frozenset.intersection(*(a.predicates for a in agents))
    preds = sorted(shared)
    ground = frozenset(State(shared, frozenset(p for p, v in zip(preds, values) if v))
                       for values in product((False, True), repeat=len(preds)))
    out = {}
    for a in agents:
        obs = sorted(a.observations)
        groups: dict = {}
        for omega in a.theory.models():
            groups.setdefault(tuple(omega.value(p) == v for p, v in obs), set()).add(omega)
        out[a.id] = coarsen_onto(
            ground, [frozenset(s.restrict(shared) for s in g) for g in groups.values()])
    return out
