"""Acceptance gate: one test per shipped guarantee, run with `pytest -v` so
each criterion shows as a single pass/fail line.

Heavy suites reuse frozen scenario fixtures under scenarios/; thresholds and
trace digests are pinned in scenarios/pilot.json and must not drift.
"""

import hashlib
import json
import time
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

from oee.epistemics import agent_state, local_knowledge
from oee.formula import Atom, Not
from oee.frames import full_cube, state_from_bits
from oee.harness import (
    compare_strategies,
    coverage_series,
    export,
    load_scenario,
    run,
    run_full,
)
from oee.multiagent import (
    Infeasible,
    agreement_check,
    common_knowledge,
    frame_from_partitions,
    build_shared_frame,
    validate_relation,
    validate_s5,
)
from oee.revision import ExtensionClass, classify_extension
from oee.universe import State, Theory, clause, unit

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
PILOT = json.loads((SCENARIOS / "pilot.json").read_text())


def scenario(name):
    return load_scenario(SCENARIOS / f"{name}.json")


def all_partitions(elements):
    """Every set partition of the given elements, classes as frozensets."""
    elements = list(elements)
    if not elements:
        yield ()
        return
    first, rest = elements[0], elements[1:]
    for part in all_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + (part[i] | {first},) + part[i + 1 :]
        yield part + (frozenset({first}),)


def partition_frames(max_states=4):
    """All two-agent partition frames over nonempty subsets of the 2-atom
    cube with at most `max_states` states."""
    cube = sorted(full_cube({0, 1}), key=State.sort_key)
    for size in range(1, max_states + 1):
        for ground in combinations(cube, size):
            ground = frozenset(ground)
            parts = list(all_partitions(sorted(ground, key=State.sort_key)))
            for p1 in parts:
                for p2 in parts:
                    yield frame_from_partitions(
                        {0, 1},
                        ground,
                        {
                            1: frame_partition(ground, p1),
                            2: frame_partition(ground, p2),
                        },
                    )


def frame_partition(ground, classes):
    from oee.epistemics import partition_from_classes

    return partition_from_classes(ground, classes)


# --- shared heavy runs -------------------------------------------------------


@pytest.fixture(scope="module")
def suite100_scan():
    """One pass over the 100-replicate suite: per-replicate counts of
    language-growth revisions, their adjacent-possible sizes, and any
    full-coverage metrics events."""
    s = scenario("suite100")
    growth_adjacent = []
    full_coverage_events = 0
    metrics_events = 0
    for r in range(s.run.replicates):
        trace = run(s, r)
        known = {a: set() for a in trace.agents}
        grew_at = {}
        for e in trace.events:
            if e.kind == "observation":
                new = {p for p, _ in e.payload["literals"]} - known[e.agent]
                if new:
                    known[e.agent] |= new
                    grew_at[(e.tick, e.agent)] = True
            elif e.kind == "revision" and grew_at.pop((e.tick, e.agent), False):
                growth_adjacent.append(e.payload["adjacent"])
            elif e.kind == "metrics":
                metrics_events += 1
                if Fraction(e.payload["coverage"]) >= 1:
                    full_coverage_events += 1
        # language growth must always surface as a revision event
        assert not grew_at, grew_at
    return growth_adjacent, full_coverage_events, metrics_events


# --- criteria ----------------------------------------------------------------


def test_criterion_1_agreement_exhaustive():
    """Common knowledge of the posterior profile forces equal posteriors, on
    every partition-pair frame of <= 4 states, every event, every state."""
    start = time.monotonic()
    checked = 0
    for frame in partition_frames():
        ground = sorted(frame.ground, key=State.sort_key)
        for k in range(len(ground) + 1):
            for event in combinations(ground, k):
                event = frozenset(event)
                for at in ground:
                    report = agreement_check(frame, event, at)
                    if report.common_knowledge_of_posteriors:
                        assert report.agree, (frame, event, at, report)
                    checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"exhaustive agreement sweep took {elapsed:.1f}s"
    assert checked > 15000


def test_criterion_2_agree_to_disagree_fixture(tmp_path):
    """The frozen two-niche scenario leaves the agents with unequal languages,
    so common knowledge of a private predicate is Infeasible; the trace
    replays byte-identically against its pinned digest."""
    s = scenario("agree_disagree")
    result = run_full(s, 0)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    export(result.trace, "jsonl", a)
    export(run(s, 0), "jsonl", b)
    assert a.read_bytes() == b.read_bytes()
    digest = hashlib.sha256(a.read_bytes()).hexdigest()
    assert digest == PILOT["trace_sha256"]["agree_disagree"]

    a1, a2 = result.agents[1], result.agents[2]
    private = sorted((a1.predicates | a2.predicates) - (a1.predicates & a2.predicates))
    assert private, "fixture must leave at least one private predicate"
    frame = build_shared_frame([a1, a2])
    at = min(frame.ground, key=State.sort_key)
    outcome = common_knowledge(frame, Atom(private[0]), at)
    assert isinstance(outcome, Infeasible)
    assert private[0] in outcome.missing


def test_criterion_3_adjacent_possible_nonempty(suite100_scan):
    """Every language-growth revision across 100 replicates x 50 ticks opens
    at least one newly admissible state."""
    growth_adjacent, _, _ = suite100_scan
    assert len(growth_adjacent) >= 100
    violations = [n for n in growth_adjacent if n < 1]
    assert violations == [], f"{len(violations)} growth revisions with empty adjacent"


def test_criterion_4_coherent_but_incomplete(suite100_scan):
    """No agent ever reaches full decided-correct coverage (each always has a
    revealed-true sentence it cannot decide), and sampled local-knowledge
    sets never contain a sentence together with its negation."""
    _, full_coverage_events, metrics_events = suite100_scan
    assert metrics_events == 100 * 50 * 2
    assert full_coverage_events == 0

    s = scenario("suite100")
    for r in range(5):
        result = run_full(s, r)
        actual = result.universe.actual
        for agent in result.agents.values():
            omega = actual.restrict(agent.predicates)
            kappa = local_knowledge(agent, omega, s.run.depth)
            sentences = {k.operand for k in kappa}
            for f in sentences:
                assert Not(f) not in sentences
                if isinstance(f, Not):
                    assert f.operand not in sentences


def _all_theories():
    """Every theory with <= 3 predicates (drawn from {0,1,2}) and <= 3
    distinct clauses over them."""
    literals = [(p, v) for p in (0, 1, 2) for v in (True, False)]
    clauses = []
    for size in (1, 2, 3):
        for lits in combinations(literals, size):
            if len({p for p, _ in lits}) == size:
                clauses.append(clause(*lits) if size > 1 else unit(*lits[0]))
    theories = []
    for count in range(4):
        for chosen in combinations(clauses, count):
            preds = frozenset().union(*(c.predicates() for c in chosen)) if chosen else frozenset({0})
            theories.append(Theory(preds, chosen))
    return theories


def _brute_models(theory):
    """Independent model enumeration by direct truth-table sweep."""
    preds = sorted(theory.predicates)
    out = set()
    for vals in product((False, True), repeat=len(preds)):
        assign = dict(zip(preds, vals))
        if all(
            any(assign[p] == pol for p, pol in c.literals) for c in theory.clauses
        ):
            out.add(frozenset(assign.items()))
    return frozenset(out)


def _oracle_classify(old, old_models, new, new_models):
    def project(models, shared):
        return frozenset(
            frozenset((p, v) for p, v in m if p in shared) for m in models
        )

    shared = old.predicates & new.predicates
    if not project(new_models, shared) <= project(old_models, shared):
        return ExtensionClass.NOT_AN_EXTENSION
    if new.predicates != old.predicates:
        return ExtensionClass.ESSENTIAL
    if old_models <= new_models:
        return ExtensionClass.INESSENTIAL
    return ExtensionClass.ESSENTIAL


def test_criterion_5_extension_classifier_vs_brute_force():
    """classify_extension agrees with a truth-table oracle on all theory
    pairs with <= 3 predicates and <= 3 clauses.  Both sides depend only on
    (predicate set, model set), which the test verifies directly, so checking
    one representative per semantic signature covers every pair; a seeded
    random sample of raw pairs double-checks the factoring."""
    start = time.monotonic()
    theories = _all_theories()
    assert len(theories) == 2952

    by_signature = {}
    brute = {}
    for t in theories:
        models = _brute_models(t)
        brute[t] = models
        # the engine's model enumeration must match the truth-table sweep
        assert frozenset(
            frozenset((p, s.value(p)) for p in t.predicates) for s in t.models()
        ) == models
        by_signature.setdefault((t.predicates, models), t)
    representatives = list(by_signature.values())
    assert len(representatives) == 300

    disagreements = 0
    for old in representatives:
        for new in representatives:
            got = classify_extension(old, new)
            want = _oracle_classify(old, brute[old], new, brute[new])
            if got is not want:
                disagreements += 1
    assert disagreements == 0

    from oee.rng import SplitMix64

    rng = SplitMix64(505)
    for _ in range(2000):
        old = rng.choice(theories)
        new = rng.choice(theories)
        assert classify_extension(old, new) is _oracle_classify(
            old, brute[old], new, brute[new]
        )

    elapsed = time.monotonic() - start
    assert elapsed < 30, f"extension sweep took {elapsed:.1f}s"


def test_criterion_6_s5_schemes_on_all_small_frames():
    """Reflection, both introspections, distributivity, and necessitation
    hold on every two-agent partition frame of <= 4 states for all depth-2
    formulas over 2 atoms; a non-transitive relation frame fails."""
    count = 0
    for frame in partition_frames():
        for report in validate_s5(frame, depth=2):
            assert report.ok, (report, frame)
        count += 1
    assert count == 353

    w1 = state_from_bits("10", [0, 1])
    w2 = state_from_bits("01", [0, 1])
    w3 = state_from_bits("00", [0, 1])
    relation = {w1: {w1, w2}, w2: {w2, w3}, w3: {w3}}
    reports = validate_relation({w1, w2, w3}, relation, [1], {0, 1}, depth=2)
    failed = {r.name for r in reports if not r.ok}
    assert "positive-introspection" in failed


def test_criterion_7_ergodicity_contrast():
    """Closed mode (no emergence, full visibility) reaches coverage 1 within
    50 ticks for every agent; open mode stays below 1 - epsilon for every
    agent at every tick across 32 replicates of 200 ticks."""
    start = time.monotonic()
    epsilon = Fraction(PILOT["open_epsilon"])

    closed = scenario("ergodic_closed")
    for r in range(closed.run.replicates):
        series = coverage_series(run(closed, r))
        for agent, values in series.items():
            assert Fraction(1) in values, (r, agent)

    open_ = scenario("ergodic_open")
    ceiling = 1 - epsilon
    for r in range(open_.run.replicates):
        series = coverage_series(run(open_, r))
        for agent, values in series.items():
            worst = max(values)
            assert worst <= ceiling, (r, agent, worst)

    elapsed = time.monotonic() - start
    assert elapsed < 300, f"ergodicity contrast took {elapsed:.1f}s"


def test_criterion_8_deterministic_traces(tmp_path):
    """Reruns of (scenario, replicate) produce byte-identical JSONL traces on
    the three committed scenarios, matching their pinned digests."""
    for name in ("agree_disagree", "compare_search", "ergodic_closed"):
        s = scenario(name)
        a, b = tmp_path / f"{name}-a.jsonl", tmp_path / f"{name}-b.jsonl"
        export(run(s, 0), "jsonl", a)
        export(run(s, 0), "jsonl", b)
        data = a.read_bytes()
        assert data == b.read_bytes(), name
        assert hashlib.sha256(data).hexdigest() == PILOT["trace_sha256"][name], name


def test_criterion_9_nonlogical_search_generativity():
    """The frozen comparison scenario shows the random-search strategy
    deciding revealed-true sentences the deductive twin leaves undecided."""
    s = scenario("compare_search")
    gained = compare_strategies(s, 0)
    assert len(gained[1]) >= 1
    assert gained == compare_strategies(s, 0)
