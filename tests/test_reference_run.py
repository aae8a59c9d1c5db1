"""The whole run against a reference engine.

`reference_run` shares with `run` only Nature (`UniverseGenerator` and its
draws), the run loop's event order and the trace format.  Every decision an
agent's step makes comes from a reference that never asks `Theory.models`,
`universe._models` or `satisfiable`: revision from `reference_revise`, models
by truth table, coverage by deciding each sentence of S_d on those models,
and the extension class and the adjacent possible from the same models.  The
engine must reproduce its bytes on the pinned fixtures and on small random
scenarios.
"""

import hashlib
import json
from fractions import Fraction
from functools import reduce
from operator import and_
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from oee.epistemics import agent_state
from oee.formula import atoms, enumerate_sentences, evaluate
from oee.harness import Trace, TraceEvent, export, run, scenario_from_dict
from oee.revision import ExtensionClass, StrategyKind
from oee.rng import mix
from oee.universe import NoveltyKind, UniverseGenerator, empty_theory

from test_repair_search import (
    AESTHETIC_SCENARIO,
    AESTHETIC_TRACE_SHA256,
    cube,
    reference_revise,
    reference_text,
    satisfying,
)

ROOT = Path(__file__).resolve().parent.parent
PILOT = json.loads((ROOT / "scenarios" / "pilot.json").read_text())


def truth_table(theory):
    """The models of `theory`, every assignment over its predicates tried
    against every clause."""
    states = cube(theory.predicates)
    every = (1 << len(states)) - 1
    fits = reduce(and_, (satisfying(c, theory.predicates) for c in theory.clauses), every)
    return [s for k, s in enumerate(states) if fits >> k & 1]


def reference_digest(theory) -> str:
    return hashlib.sha256(reference_text(theory).encode()).hexdigest()[:16]


def reference_classify(old, new) -> ExtensionClass:
    """The extension class by its definition, on truth-table models."""
    shared = old.predicates & new.predicates
    old_models, new_models = truth_table(old), truth_table(new)
    if not {s.restrict(shared) for s in new_models} <= {s.restrict(shared) for s in old_models}:
        return ExtensionClass.NOT_AN_EXTENSION
    if new.predicates != old.predicates:
        return ExtensionClass.ESSENTIAL
    if set(old_models) <= set(new_models):
        return ExtensionClass.INESSENTIAL
    return ExtensionClass.ESSENTIAL


def reference_coverage(theory, revealed, actual, depth) -> Fraction:
    """The share of S_d decided to its value at `actual`: each sentence in
    the language evaluated in every truth-table model, TRUE when it holds in
    all (so in none of no models), FALSE when in none."""
    models = truth_table(theory)
    sentences = enumerate_sentences(revealed, depth)
    correct = 0
    for f in sentences:
        if not atoms(f) <= theory.predicates:
            continue
        values = {evaluate(f, m.value) for m in models}
        if values <= {True}:
            correct += evaluate(f, actual.value)
        elif values == {False}:
            correct += not evaluate(f, actual.value)
    return Fraction(correct, len(sentences))


def reference_jaccard(a, b) -> Fraction:
    return Fraction(len(a & b), len(a | b)) if a | b else Fraction(1)


def reference_run(scenario, replicate: int) -> Trace:
    """The trace of `run(scenario, replicate)`, each agent's step taken by
    the references above."""
    g = UniverseGenerator(mix(scenario.seed, replicate), scenario.weights,
                          scenario.initial_predicates, scenario.clause_arity)
    ids = tuple(spec.id for spec in scenario.agents)
    trace = Trace(scenario.run.ticks, scenario.run.depth, ids)
    theories = dict.fromkeys(ids, empty_theory())

    def emit(tick, kind, agent, payload):
        trace.events.append(TraceEvent(tick, len(trace.events), kind, agent, payload))

    for tick in range(1, scenario.run.ticks + 1):
        event = g.tick()
        if event.kind is NoveltyKind.EMERGENCE:
            emit(tick, "reveal", None, {"predicate": event.predicate, "value": event.value,
                                        "clause": event.clause.render()})
        elif event.kind is NoveltyKind.INNOVATION:
            emit(tick, "clause-added", None, {"clause": event.clause.render()})
        else:
            emit(tick, "variation", None, {"predicate": event.predicate, "value": event.value,
                                           "retracted": [c.render() for c in event.retracted]})
        revisions = {}
        for spec in scenario.agents:
            aseed = mix(scenario.seed, replicate, spec.id)
            niche = spec.niche & g.revealed_predicates
            obs = g.observe(niche, spec.visibility, aseed, salt=0)
            if spec.strategy.kind is not StrategyKind.DEDUCTIVE:
                obs |= g.observe(niche, spec.visibility, aseed, salt=1)
            emit(tick, "observation", spec.id, {"literals": [[p, v] for p, v in sorted(obs)]})
            before = theories[spec.id]
            after = reference_revise(agent_state(spec.id, before), obs, spec.strategy)
            if after != before:
                # states over different predicate sets are never identified
                adjacent = len(set(truth_table(after)) - set(truth_table(before)))
                extension = reference_classify(before, after)
                revisions[spec.id] = (extension.value, adjacent)
                emit(tick, "revision", spec.id, {
                    "old": reference_digest(before), "new": reference_digest(after),
                    "extension": extension.value, "adjacent": adjacent,
                })
            theories[spec.id] = after
        for spec in scenario.agents:
            mine = theories[spec.id].predicates
            others = [theories[i].predicates for i in ids if i != spec.id]
            disjointness = (
                str(sum((reference_jaccard(mine, o) for o in others), Fraction(0)) / len(others))
                if others else None
            )
            extension, adjacent = revisions.get(spec.id, (None, 0))
            emit(tick, "metrics", spec.id, {
                "coverage": str(reference_coverage(
                    theories[spec.id], g.revealed_predicates, g.actual, scenario.run.depth)),
                "disjointness": disjointness,
                "adjacent": adjacent,
                "extension": extension,
            })
    return trace


def jsonl(trace, path) -> bytes:
    export(trace, "jsonl", path)
    return path.read_bytes()


def test_reference_run_reproduces_the_pinned_digests(tmp_path):
    for name, digest in PILOT["trace_sha256"].items():
        scenario = scenario_from_dict(json.loads((ROOT / "scenarios" / f"{name}.json").read_text()))
        data = jsonl(reference_run(scenario, 0), tmp_path / f"{name}.jsonl")
        assert hashlib.sha256(data).hexdigest() == digest, name


def test_reference_run_reproduces_the_aesthetic_pin(tmp_path):
    # no pinned fixture runs an aesthetic agent; the reference scores each
    # candidate by trying every transposition on its whole clause set
    scenario = scenario_from_dict(AESTHETIC_SCENARIO)
    h = hashlib.sha256()
    for r in range(scenario.run.replicates):
        h.update(jsonl(reference_run(scenario, r), tmp_path / f"{r}.jsonl"))
    assert h.hexdigest() == AESTHETIC_TRACE_SHA256


# the truth tables span an agent's language, at most the revealed predicates
MAX_REVEALED = 10
# S_2 over 3 predicates holds 3,303 sentences
MAX_REVEALED_AT_DEPTH_2 = 3


def ticks_within(data, limit: int) -> int:
    """The scenario's ticks, cut before the first tick that would reveal more
    than `limit` predicates."""
    g = UniverseGenerator(mix(data["seed"], 0), [Fraction(w) for w in data["weights"]],
                          data["initial_predicates"])
    ticks = 0
    while ticks < data["run"]["ticks"]:
        g.tick()
        if len(g.revealed_predicates) > limit:
            break
        ticks += 1
    return ticks


@st.composite
def small_scenarios(draw):
    initial = draw(st.integers(1, 6))
    depth = draw(st.integers(0, 2 if initial <= MAX_REVEALED_AT_DEPTH_2 else 1))
    agents = [
        {
            "id": i,
            "niche": sorted(draw(st.sets(st.integers(0, initial - 1), max_size=initial))),
            "visibility": draw(st.sampled_from(["0", "1/4", "1/2", "1"])),
            "strategy": draw(st.sampled_from([k.value for k in StrategyKind])),
            "strategy_seed": draw(st.integers(0, 2**64 - 1)),
        }
        for i in range(1, draw(st.integers(1, 2)) + 1)
    ]
    data = {
        "seed": draw(st.integers(0, 2**32)),
        "weights": draw(st.sampled_from([
            ["1/2", "3/10", "1/5"], ["1/3", "1/3", "1/3"], ["3/5", "2/5", "0"], ["0", "1", "0"],
        ])),
        "initial_predicates": initial,
        "agents": agents,
        "run": {"ticks": draw(st.integers(1, 20)), "depth": depth},
    }
    ticks = ticks_within(data, MAX_REVEALED_AT_DEPTH_2 if depth == 2 else MAX_REVEALED)
    if not ticks:  # the first tick reveals a fourth predicate: depth 1 instead
        data["run"]["depth"], ticks = 1, 1
    data["run"]["ticks"] = ticks
    return scenario_from_dict(data)


@settings(max_examples=150, deadline=None)
@given(small_scenarios())
def test_run_matches_reference_run(tmp_path_factory, scenario):
    out = tmp_path_factory.mktemp("traces")
    assert jsonl(run(scenario, 0), out / "run.jsonl") == \
        jsonl(reference_run(scenario, 0), out / "reference.jsonl")
