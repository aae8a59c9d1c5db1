"""The oracles agree with the engine where it is right, and every output
check fires on a planted wrong value.  Run with `python -m pytest bench`."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from oee import harness, multiagent, revision
from oee.epistemics import agent_state
from oee.universe import State, Theory, clause, unit

import checks
import oracles
import workloads
from tracer import Tracer, instrument, layer_metrics


def random_theory(rng, n_preds=5, n_clauses=4):
    preds = frozenset(range(n_preds))
    clauses = []
    for _ in range(n_clauses):
        chosen = rng.sample(sorted(preds), rng.randint(1, 3))
        c = clause(*((p, rng.random() < 0.5) for p in chosen))
        if c not in clauses:
            clauses.append(c)
    return Theory(preds, tuple(clauses))


def test_model_oracle_agrees_with_engine():
    rng = random.Random(1)
    for _ in range(200):
        theory = random_theory(rng)
        expected = oracles.models(*workloads.plain_theory(theory))
        assert set(workloads.engine_models(theory)) == expected
        assert oracles.consistent(*workloads.plain_theory(theory)) == bool(expected)


def test_coverage_oracle_agrees_with_engine():
    rng = random.Random(2)
    checked = 0
    for _ in range(200):
        theory = random_theory(rng)
        if not theory.models():
            continue
        revealed = frozenset(range(7))
        actual = State(revealed, frozenset(p for p in revealed if rng.random() < 0.5))
        agent = agent_state(1, theory)
        expected = oracles.coverage_depth1(
            theory.predicates, oracles.models(*workloads.plain_theory(theory)),
            revealed, actual.true)
        assert harness.coverage_fraction(agent, revealed, actual, 1) == expected
        checked += 1
    assert checked > 50


def test_meet_and_posterior_oracles():
    p1 = [frozenset({0, 1}), frozenset({2}), frozenset({3})]
    p2 = [frozenset({0}), frozenset({1, 2}), frozenset({3})]
    meet = oracles.meet_classes(range(4), [p1, p2])
    assert meet[0] == frozenset({0, 1, 2}) and meet[3] == frozenset({3})
    assert oracles.posterior(p1, {1, 3}, 0) == Fraction(1, 2)


def test_models_check_fires():
    theory = Theory(frozenset({0, 1}), (clause((0, True), (1, True)),))
    expected = oracles.models(*workloads.plain_theory(theory))
    assert checks.models_match(workloads.engine_models(theory), expected) is None
    assert checks.models_match(workloads.engine_models(theory)[1:], expected)
    assert checks.models_match([], set())


def test_coverage_check_fires():
    theory = Theory(frozenset({0, 1}), (unit(0, True),))
    revealed = frozenset({0, 1, 2})
    actual = State(revealed, frozenset({0}))
    reported = harness.coverage_fraction(agent_state(1, theory), revealed, actual, 1)
    models = oracles.models(*workloads.plain_theory(theory))
    context = (theory.predicates, models, revealed, actual.true)
    assert checks.coverage_matches(reported, *context) is None
    assert checks.coverage_matches(reported + Fraction(1, 33), *context)
    assert checks.coverage_matches(None, *context)


def test_trace_checks_fire():
    assert checks.metrics_events(400, 200, 2) is None
    assert checks.metrics_events(399, 200, 2)
    assert checks.same_bytes(b"a", b"a", "x") is None
    assert checks.same_bytes(b"a", b"b", "x")
    assert checks.under_ceiling(Fraction(11, 12), Fraction(1, 12)) is None
    assert checks.under_ceiling(Fraction(12, 13), Fraction(1, 12))
    assert checks.report_max_matches(Fraction(1, 2), Fraction(1, 3))
    assert checks.counted("queries", 16_999, checks.QUERIES)


def test_observation_check_fires():
    models = [frozenset({0}), frozenset({0, 1})]
    assert checks.observations_hold({(0, True)}, models) is None
    assert checks.observations_hold({(1, True)}, models)


def test_repair_minimality_check_fires():
    a, b, c = ((0, True), (1, True)), ((2, True),), ((1, False), (3, True))
    before = [a, b, c]
    observations = {(0, False), (1, False)}
    preds = frozenset(range(4))
    units = [((0, False),), ((1, False),)]
    # retracting `a` alone is the minimum repair
    assert checks.repair_is_minimal(preds, before, [b, c] + units, observations) is None
    assert checks.repair_is_minimal(preds, before, [c] + units, observations)
    assert checks.repair_is_minimal(preds, before, [a, b, c] + units, observations)


def test_epistemics_checks_fire():
    ok = [(name, True) for name in sorted(checks.S5_SCHEMES)]
    assert checks.s5_holds(ok) is None
    assert checks.s5_holds(ok[:-1])
    assert checks.s5_holds(ok[:-1] + [(ok[-1][0], False)])
    assert checks.introspection_fails([("positive-introspection", False)]) is None
    assert checks.introspection_fails(ok)

    partitions = ([frozenset({0, 1})], [frozenset({0}), frozenset({1})])
    ground, event = (0, 1), frozenset({0})
    right = ([Fraction(1, 2), Fraction(1)], False, False)
    assert checks.agreement_matches(*right, partitions, ground, event, 0) is None
    planted = [
        ([Fraction(1, 3), Fraction(1)], False, False),  # posterior
        ([Fraction(1, 2), Fraction(1)], False, True),  # agreement verdict
        ([Fraction(1, 2), Fraction(1)], True, False),  # Aumann
    ]
    for wrong in planted:
        assert checks.agreement_matches(*wrong, partitions, ground, event, 0)
    # equal posteriors, but common knowledge misreported
    assert checks.agreement_matches(
        [Fraction(1, 2), Fraction(1, 2)], True, True,
        ([frozenset({0, 1})], [frozenset({0, 1})]), ground, frozenset({1}), 0) is None
    assert checks.agreement_matches(
        [Fraction(1, 2), Fraction(1, 2)], False, True,
        ([frozenset({0, 1})], [frozenset({0, 1})]), ground, frozenset({1}), 0)


def small_open_world(tmp_path):
    w = workloads.OpenWorld(workloads_root(), 3000, tmp_path)
    w.scenario = harness.scenario_from_dict({
        "seed": 3000, "initial_predicates": 4,
        "agents": [{"id": 1, "niche": [0], "visibility": "1/2"},
                   {"id": 2, "niche": [1], "visibility": "1/2"}],
        "run": {"ticks": 12, "depth": 1, "replicates": 2},
    })
    w.epsilon = None  # the pilot ceiling belongs to the full fixture
    return w


def workloads_root():
    return Path(workloads.__file__).resolve().parent.parent


def run_round(w):
    for _, unit_fn in w.units():
        unit_fn()
    w.verify()
    return w


def test_open_world_passes_and_catches_planted_coverage(tmp_path, monkeypatch):
    assert not run_round(small_open_world(tmp_path / "a")).failures

    real = harness.coverage_fraction

    def off_by_one(agent, revealed, actual, depth):
        m = len(revealed)
        return real(agent, revealed, actual, depth) + Fraction(1, 2 * m + 3 * m * m)

    monkeypatch.setattr(harness, "coverage_fraction", off_by_one)
    w = run_round(small_open_world(tmp_path / "b"))
    assert w.wrong_output and "replicate 0" in w.failures


def test_repair_search_catches_non_minimal_repair(tmp_path, monkeypatch):
    real = revision.propose_revisions

    def retract_one_more(agent, conflict, strategy, budget):
        best = real(agent, conflict, strategy, budget)[0]
        observed = {unit(p, v) for p, v in conflict}
        extra = [c for c in best.clauses if c not in observed][:1]
        return [Theory(best.predicates, tuple(c for c in best.clauses if c not in extra))]

    w = workloads.RepairSearch(workloads_root(), 3000, tmp_path)
    # the workload's own deductive runs at visibility 1/2, which keep clauses
    # they do not observe again
    w.scenarios = {"deductive_partial": w.scenarios["deductive_partial"]}
    assert not run_traced(w).failures
    assert w.repairs

    w.results, w.repairs = {}, []
    monkeypatch.setattr(revision, "propose_revisions", retract_one_more)
    run_traced(w)
    assert any("suffices" in p for p in w.failures.values())


def run_traced(w):
    tracer = Tracer()
    restore = instrument(tracer, w.hooks())
    try:
        for _, unit_fn in w.units():
            unit_fn()
    finally:
        restore()
    w.verify()
    w.tracer = tracer
    return w


def test_agreement_sweep_catches_planted_posterior(tmp_path, monkeypatch):
    w = workloads.AgreementSweep(workloads_root(), 5, tmp_path)
    w.frames = w.frames[:40]
    assert not run_round(w).failures

    real = multiagent.posterior

    def skewed(p, event, at):
        value = real(p, event, at)
        return value / 2 if 0 < value < 1 else value

    w = workloads.AgreementSweep(workloads_root(), 5, tmp_path)
    w.frames = w.frames[:40]
    monkeypatch.setattr(multiagent, "posterior", skewed)
    run_round(w)
    assert w.wrong_output
    assert any(op.startswith("query") for op in w.failures)


def test_s5_sweep_catches_planted_scheme_failure(tmp_path, monkeypatch):
    w = workloads.S5Sweep(workloads_root(), 5, tmp_path)
    w.frames = w.frames[:20]
    assert not run_round(w).failures

    real = multiagent.validate_s5

    def reflection_fails(frame, depth):
        return [replace(r, ok=False) if r.name == "reflection" else r
                for r in real(frame, depth)]

    w = workloads.S5Sweep(workloads_root(), 5, tmp_path)
    w.frames = w.frames[:20]
    monkeypatch.setattr(multiagent, "validate_s5", reflection_fails)
    run_round(w)
    assert w.wrong_output and len(w.failures) == 20


def test_tracing_keeps_trace_bytes_and_restores(tmp_path):
    plain = run_round(small_open_world(tmp_path / "plain"))
    originals = (harness.run_full, Theory.models, multiagent.meet)
    w = run_traced(small_open_world(tmp_path / "traced"))
    assert (harness.run_full, Theory.models, multiagent.meet) == originals
    assert not w.failures and w.coverage_calls
    assert w.digest() == plain.digest()
    layers = layer_metrics(w.tracer)
    assert layers["harness.run_calls"] == 2
    assert layers["harness.coverage_calls"] == len(w.coverage_calls) == 2 * 12 * 2
    # self times add up to the time of the outermost spans
    tracer = w.tracer
    outermost = sum(tracer.end[i] - tracer.start[i]
                    for i, p in enumerate(tracer.parent) if p < 0)
    self_times = sum(v for k, v in layers.items() if k.endswith("_s"))
    assert self_times == pytest.approx(outermost, rel=1e-6)


def test_rounds_with_different_outputs_are_not_correct():
    import run

    same = {"correct": True, "digest": "a", "attempted": 3, "failed": 0}
    assert run.summary([same, dict(same)])["correct"]
    assert not run.summary([same, {**same, "digest": "b"}])["correct"]
    assert run.summary([same, {**same, "failed": 1}])["failed"] == 1
