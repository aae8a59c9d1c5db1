"""Reference answers the benchmark checks the engine against.

Nothing here imports `oee` or shares its evaluation code.  A state is the
frozenset of its true predicates, a clause is an iterable of
`(predicate, polarity)` literals and a partition is a list of classes over
any hashable elements.
"""

from __future__ import annotations

from fractions import Fraction


def _cubes(clauses, assignment):
    """Disjoint partial assignments that satisfy every clause.

    Backtracking over clause literals: take the unsatisfied clause with the
    fewest open literals and branch on which of them is the first true one,
    so that the branches share no model.
    """
    best = None
    for c in clauses:
        open_lits = []
        for p, pol in c:
            value = assignment.get(p)
            if value is None:
                open_lits.append((p, pol))
            elif value == pol:
                break
        else:
            if not open_lits:
                return
            if best is None or len(open_lits) < len(best):
                best = open_lits
    if best is None:
        yield dict(assignment)
        return
    refuted = []
    for p, pol in sorted(best):
        trial = dict(assignment)
        trial.update(refuted)
        trial[p] = pol
        yield from _cubes(clauses, trial)
        refuted.append((p, not pol))


def _check_language(predicates, clauses):
    predicates = frozenset(predicates)
    clauses = [tuple(c) for c in clauses]
    for c in clauses:
        if not c or any(p not in predicates for p, _ in c):
            raise ValueError(f"clause {c!r} is empty or leaves the predicate set")
    return predicates, clauses


def models(predicates, clauses) -> set[frozenset[int]]:
    """Every assignment over `predicates` that satisfies all `clauses`."""
    predicates, clauses = _check_language(predicates, clauses)
    out = set()
    for cube in _cubes(clauses, {}):
        fixed_true = frozenset(p for p, v in cube.items() if v)
        free = sorted(predicates - cube.keys())
        for bits in range(1 << len(free)):
            out.add(fixed_true | {p for i, p in enumerate(free) if bits >> i & 1})
    return out


def consistent(predicates, clauses) -> bool:
    predicates, clauses = _check_language(predicates, clauses)
    return next(_cubes(clauses, {}), None) is not None


_CONNECTIVES = (
    lambda a, b: a and b,
    lambda a, b: a or b,
    lambda a, b: (not a) or b,
)


def coverage_depth1(language, theory_models, revealed, actual_true) -> Fraction:
    """Decided-correct share of the depth-1 sentences over `revealed`.

    The sentence space is every atom, its negation, and `&`, `|`, `->` on every
    ordered pair of atoms, a pair with itself included: 2m + 3m^2 sentences for
    m revealed predicates.  A sentence is decided when all its atoms are in the
    agent's language and it has one truth value across the theory's models;
    it counts when that value is its value at the actual state.
    """
    theory_models = list(theory_models)
    if not theory_models:
        raise ValueError("coverage is defined for consistent theories only")
    revealed = sorted(revealed)
    m = len(revealed)
    known = [p for p in revealed if p in language]
    # per predicate and value, the set of models (as a bitmask) giving it that value
    everything = (1 << len(theory_models)) - 1
    where = {}
    for p in known:
        true_in = sum(1 << i for i, model in enumerate(theory_models) if p in model)
        where[p] = {True: true_in, False: everything & ~true_in}
    correct = 0
    for p in known:
        values = {v for v in (False, True) if where[p][v]}
        if len(values) == 1:
            # the atom and its negation are decided together
            correct += 2 * (values.pop() == (p in actual_true))
    for p in known:
        for q in known:
            realised = [
                (a, b) for a in (False, True) for b in (False, True)
                if where[p][a] & where[q][b]
            ]
            at_actual = (p in actual_true, q in actual_true)
            for op in _CONNECTIVES:
                values = {op(a, b) for a, b in realised}
                if len(values) == 1 and values.pop() == op(*at_actual):
                    correct += 1
    return Fraction(correct, 2 * m + 3 * m * m)


def meet_classes(ground, partitions) -> dict:
    """Element -> its class in the finest common coarsening, by union-find."""
    parent = {w: w for w in ground}

    def find(w):
        while parent[w] != w:
            parent[w] = parent[parent[w]]
            w = parent[w]
        return w

    for partition in partitions:
        for cls in partition:
            first, *rest = cls
            for w in rest:
                parent[find(w)] = find(first)
    members: dict = {}
    for w in ground:
        members.setdefault(find(w), set()).add(w)
    return {w: frozenset(members[find(w)]) for w in ground}


def posterior(partition, event, at) -> Fraction:
    """|E ∩ P(at)| / |P(at)| under the uniform prior."""
    cls = next(frozenset(c) for c in partition if at in c)
    return Fraction(len(cls & frozenset(event)), len(cls))


def posterior_profile_is_common_knowledge(ground, partitions, event, at) -> bool:
    """Whether the event 'every agent's posterior equals its value at `at`'
    contains the meet class of `at`."""
    realised = [posterior(p, event, at) for p in partitions]
    profile = {
        w for w in ground
        if all(posterior(p, event, w) == r for p, r in zip(partitions, realised))
    }
    return meet_classes(ground, partitions)[at] <= profile
