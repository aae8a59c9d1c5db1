import csv
import json
import os
import stat
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oee import harness
from oee.epistemics import AgentState, Truth3, agent_state, decide
from oee.formula import atoms, enumerate_sentences, evaluate
from oee.harness import (
    LengthMismatch,
    SchemaError,
    Trace,
    TraceEvent,
    bin_timeline,
    compare_strategies,
    coverage_fraction,
    coverage_series,
    ergodicity_report,
    export,
    ingest_trace,
    load_scenario,
    run,
    run_full,
    scenario_from_dict,
    sentence_types,
)
from oee.universe import State, Theory, clause, unit

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def minimal(**overrides):
    data = {"seed": 7, "agents": [{"id": 1, "niche": [0]}]}
    data.update(overrides)
    return data


# --- scenario loading --------------------------------------------------------

def test_defaults_applied():
    s = scenario_from_dict(minimal())
    assert s.weights == (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5))
    assert s.agents[0].visibility == Fraction(3, 5)
    assert s.run.depth == 1


def test_duplicate_agent_ids():
    data = minimal(agents=[{"id": 1}, {"id": 1}])
    with pytest.raises(SchemaError) as exc:
        scenario_from_dict(data)
    assert exc.value.path == "agents[1].id"


def test_bad_weights():
    with pytest.raises(SchemaError):
        scenario_from_dict(minimal(weights=[0.5, 0.3, 0.1]))


def test_bad_strategy():
    with pytest.raises(SchemaError):
        scenario_from_dict(minimal(agents=[{"id": 1, "strategy": "psychic"}]))


@pytest.mark.parametrize("overrides, path", [
    # JSON booleans are not integers
    ({"seed": True}, "seed"),
    ({"initial_predicates": True}, "initial_predicates"),
    ({"clause_arity": False}, "clause_arity"),
    ({"agents": [{"id": True}]}, "agents[0].id"),
    ({"agents": [{"id": 1, "niche": [True]}]}, "agents[0].niche"),
    ({"agents": [{"id": 1, "strategy_seed": False}]}, "agents[0].strategy_seed"),
    ({"run": {"ticks": True}}, "run.ticks"),
    ({"run": {"depth": False}}, "run.depth"),
    ({"run": {"replicates": True}}, "run.replicates"),
    # misspelt keys would otherwise fall back to defaults
    ({"runn": {"ticks": 5}}, "runn"),
    ({"agents": [{"id": 1, "visibilty": "1/2"}]}, "agents[0].visibilty"),
    ({"run": {"tick": 5}}, "run.tick"),
    # a niche entry is a predicate index, so not negative
    ({"agents": [{"id": 1, "niche": [-3]}]}, "agents[0].niche"),
])
def test_schema_rejects_booleans_and_unknown_keys(overrides, path):
    with pytest.raises(SchemaError) as exc:
        scenario_from_dict(minimal(**overrides))
    assert exc.value.path == path


def test_scenario_limits_are_inclusive():
    s = scenario_from_dict(minimal(initial_predicates=harness.MAX_INITIAL_PREDICATES,
                                   run={"depth": harness.MAX_DEPTH}))
    assert (s.initial_predicates, s.run.depth) == (harness.MAX_INITIAL_PREDICATES,
                                                   harness.MAX_DEPTH)
    for overrides, path in (({"initial_predicates": harness.MAX_INITIAL_PREDICATES + 1},
                             "initial_predicates"),
                            ({"run": {"depth": harness.MAX_DEPTH + 1}}, "run.depth")):
        with pytest.raises(SchemaError, match="exceeds the limit") as exc:
            scenario_from_dict(minimal(**overrides))
        assert exc.value.path == path


def test_load_scenario_file(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(minimal()))
    assert load_scenario(path).seed == 7
    path.write_text("not json")
    with pytest.raises(SchemaError):
        load_scenario(path)


# --- run engine --------------------------------------------------------------

def emergence_scenario(ticks=1):
    return scenario_from_dict({
        "seed": 3,
        "weights": [0, 0, 1],
        "initial_predicates": 2,
        "agents": [{"id": 1, "niche": [0, 1], "visibility": 1}],
        "run": {"ticks": ticks, "depth": 1},
    })


def test_single_emergence_tick():
    trace = run(emergence_scenario(), 0)
    kinds = [e.kind for e in trace.events]
    assert kinds.count("reveal") == 1
    assert kinds.count("observation") == 1
    revisions = [e for e in trace.events if e.kind == "revision"]
    assert len(revisions) == 1
    assert revisions[0].payload["extension"] == "essential"
    assert revisions[0].payload["adjacent"] >= 1


def test_run_deterministic_bytes(tmp_path):
    s = scenario_from_dict(minimal(run={"ticks": 8}))
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    export(run(s, 0), "jsonl", a)
    export(run(s, 0), "jsonl", b)
    assert a.read_bytes() == b.read_bytes()


def test_replicates_differ():
    s = scenario_from_dict(minimal(run={"ticks": 8}))
    assert run(s, 0).events != run(s, 1).events


# --- coverage ----------------------------------------------------------------


def coverage_slow(agent: AgentState, revealed: frozenset[int], actual: State, depth: int) -> Fraction:
    """Decided-correct fraction by direct enumeration (reference path)."""
    sentences = enumerate_sentences(revealed, depth)
    correct = 0
    for f in sentences:
        verdict = decide(agent, f)
        if verdict is Truth3.TRUE and evaluate(f, actual.value):
            correct += 1
        elif verdict is Truth3.FALSE and not evaluate(f, actual.value):
            correct += 1
    return Fraction(correct, len(sentences))


def reference_decide(agent: AgentState, f) -> Truth3:
    """The verdict from the truth value of f in each model, one at a time."""
    if not atoms(f) <= agent.predicates:
        return Truth3.NOT_IN_LANGUAGE
    values = {evaluate(f, model.value) for model in agent.theory.models()}
    if values <= {True}:
        return Truth3.TRUE
    if values == {False}:
        return Truth3.FALSE
    return Truth3.UNDECIDABLE


def reference_sentence_types(agent: AgentState, revealed, actual: State, depth: int):
    """`sentence_types` with each atom's type read off the model states one
    model at a time, and the compounds counted over every pair of types."""
    models = agent.theory.models()
    full = (1 << len(models)) - 1
    language = revealed & agent.predicates
    masks = dict.fromkeys(language, 0)
    for k, model in enumerate(models):
        for p in model.true & language:
            masks[p] |= 1 << k
    base = Counter((masks[p], actual.value(p)) if p in masks else None for p in revealed)
    counts = base
    for _ in range(depth):
        grown = Counter(base)
        for t, n in counts.items():
            grown[None if t is None else (full & ~t[0], not t[1])] += n
        for (t, n), (u, k) in product(counts.items(), repeat=2):
            if t is None or u is None:
                grown[None] += 3 * n * k
                continue
            (a, x), (b, y) = t, u
            grown[a & b, x and y] += n * k
            grown[a | b, x or y] += n * k
            grown[(full & ~a) | b, not x or y] += n * k
        counts = grown
    return full, counts


@st.composite
def coverage_cases(draw):
    """An agent, the revealed predicates, the actual state and a depth.  The
    agent's language may be empty or reach outside the revealed set, and its
    theory may have no models.  Depth 2 only over at most three revealed
    predicates, where the oracle enumerates 3,303 sentences."""
    revealed = frozenset(range(draw(st.integers(1, 4))))
    language = draw(st.frozensets(st.integers(0, 5), max_size=5))
    clauses = []
    if language:
        preds = sorted(language)
        literals = st.tuples(st.sampled_from(preds), st.booleans())
        for lits in draw(st.lists(st.lists(literals, min_size=1, max_size=2), max_size=5)):
            clauses.append(clause(*dict(lits).items()))
    theory = Theory(language, tuple(dict.fromkeys(clauses)))
    actual = State(revealed, draw(st.frozensets(st.sampled_from(sorted(revealed)))))
    depth = draw(st.integers(0, 2 if len(revealed) <= 3 else 1))
    return agent_state(1, theory), revealed, actual, depth


@settings(max_examples=150, deadline=None)
@given(coverage_cases())
def test_coverage_matches_oracle(case):
    agent, revealed, actual, depth = case
    assert coverage_fraction(agent, revealed, actual, depth) == \
        coverage_slow(agent, revealed, actual, depth)
    _, counts = sentence_types(agent, revealed, actual, depth)
    assert sum(counts.values()) == len(enumerate_sentences(revealed, depth))


@settings(max_examples=300, deadline=None)
@given(coverage_cases())
def test_sentence_types_match_the_per_model_reference(case):
    agent, revealed, actual, depth = case
    full, counts = sentence_types(agent, revealed, actual, depth)
    want_full, want = reference_sentence_types(agent, revealed, actual, depth)
    assert full == want_full
    assert Counter(counts) == want


@settings(max_examples=150, deadline=None)
@given(coverage_cases())
def test_decide_matches_per_model_evaluation(case):
    agent, revealed, _, depth = case
    for f in enumerate_sentences(revealed, min(depth, 1)):
        assert decide(agent, f) is reference_decide(agent, f), f


def test_coverage_rejects_empty_revealed_and_negative_depth():
    a = agent_state(1, Theory(frozenset({0}), ()))
    actual = State(frozenset({0}), frozenset())
    with pytest.raises(ValueError):
        coverage_fraction(a, frozenset(), actual, 1)
    with pytest.raises(ValueError):
        coverage_fraction(a, frozenset({0}), actual, -1)


def test_sentence_types_refuse_a_depth_step_past_the_limit():
    # 15 free predicates: depth 1 has 451 types, and the step to depth 2 would
    # combine 3 * 451**2 = 610,203 type pairs (3.3 s and 1.1 GiB if it ran);
    # 14 predicates (463,347 pairs) stay under the limit
    preds = frozenset(range(15))
    a = agent_state(1, Theory(preds, ()))
    actual = State(preds, frozenset(range(0, 15, 2)))
    with pytest.raises(ValueError, match=r"610,203 type pairs, past the limit of 600,000 "
                                         r"\(harness.MAX_SENTENCE_TYPES\)"):
        coverage_fraction(a, preds, actual, 2)


def test_depth2_scenario_coverage_matches_oracle():
    data = json.loads((SCENARIOS / "agree_disagree.json").read_text())
    data["run"] = {"ticks": 2, "depth": 2}
    result = run_full(scenario_from_dict(data), 0)
    final = coverage_series(result.trace)
    g = result.universe
    for agent_id, agent in result.agents.items():
        assert final[agent_id][-1] == \
            coverage_slow(agent, g.revealed_predicates, g.actual, 2)


def test_coverage_fast_matches_slow():
    from oee.rng import SplitMix64

    rng = SplitMix64(31)
    revealed = frozenset({0, 1, 2, 3})
    for trial in range(60):
        actual = State(revealed, frozenset(p for p in revealed if rng.next_u64() & 1))
        preds = frozenset(p for p in revealed if rng.next_u64() % 3) or frozenset({0})
        clauses = []
        for p in sorted(preds):
            roll = rng.next_u64() % 3
            if roll == 0:
                clauses.append(unit(p, bool(rng.next_u64() & 1)))
            elif roll == 1 and len(preds) > 1:
                q = rng.choice(sorted(preds - {p}))
                clauses.append(clause((p, True), (q, bool(rng.next_u64() & 1))))
        t = Theory(preds, tuple(dict.fromkeys(clauses)))
        if not t.models():
            continue
        a = agent_state(1, t)
        for depth in (0, 1):
            assert coverage_fraction(a, revealed, actual, depth) == \
                coverage_slow(a, revealed, actual, depth), (trial, depth)


def test_coverage_perfect_agent():
    revealed = frozenset({0, 1})
    actual = State(revealed, frozenset({0}))
    a = agent_state(1, Theory(revealed, (unit(0, True), unit(1, False))))
    assert coverage_fraction(a, revealed, actual, 1) == 1


def test_coverage_empty_agent():
    revealed = frozenset({0, 1})
    actual = State(revealed, frozenset())
    a = agent_state(1, Theory(frozenset(), ()))
    assert coverage_fraction(a, revealed, actual, 1) == 0


# --- analysis ----------------------------------------------------------------

def fake_trace(revision_ticks, ticks):
    events = []
    seq = 0
    for t in revision_ticks:
        events.append(TraceEvent(t, seq, "revision", 1, {"old": "a", "new": "b"}))
        seq += 1
    return Trace(ticks=ticks, depth=1, agents=(1,), events=events)


def test_bin_timeline_examples():
    assert bin_timeline(fake_trace([3, 5, 9], 10)) == [(1, 3), (4, 5), (6, 9), (10, 10)]
    assert bin_timeline(fake_trace([], 10)) == [(1, 10)]
    assert bin_timeline(fake_trace(range(1, 6), 5)) == [(i, i) for i in range(1, 6)]
    assert bin_timeline(fake_trace([10], 10)) == [(1, 10)]


def test_bins_cover_exactly():
    s = scenario_from_dict(minimal(run={"ticks": 20}))
    bins = bin_timeline(run(s, 0))
    flat = [t for start, end in bins for t in range(start, end + 1)]
    assert flat == list(range(1, 21))


def test_ergodicity_report_shape():
    s = scenario_from_dict(minimal(run={"ticks": 10}))
    traces = [run(s, r) for r in range(3)]
    report = ergodicity_report(traces, 1)
    assert set(report.ensemble_final) == {1}
    assert len(report.time_averages[1]) == 3
    assert 0 <= report.gap <= 1
    assert report.max_coverage[1] <= 1


def test_ergodicity_needs_replicates():
    s = scenario_from_dict(minimal(run={"ticks": 5}))
    with pytest.raises(LengthMismatch):
        ergodicity_report([run(s, 0)], 1)


def test_coverage_series_lengths():
    s = scenario_from_dict(minimal(run={"ticks": 7}))
    series = coverage_series(run(s, 0))
    assert len(series[1]) == 7


# --- persistence -------------------------------------------------------------

def test_jsonl_roundtrip(tmp_path):
    s = scenario_from_dict(minimal(run={"ticks": 5}))
    trace = run(s, 0)
    path = tmp_path / "t.jsonl"
    export(trace, "jsonl", path)
    back = ingest_trace(path)
    assert back.events == trace.events
    assert (back.ticks, back.depth, back.agents) == (trace.ticks, trace.depth, trace.agents)


def test_trace_exports_only_as_jsonl(tmp_path):
    s = scenario_from_dict(minimal(run={"ticks": 1}))
    path = tmp_path / "m.csv"
    with pytest.raises(ValueError, match="unknown trace format 'csv'"):
        export(run(s, 0), "csv", path)
    assert not path.exists()


def test_export_unwritable():
    s = scenario_from_dict(minimal(run={"ticks": 1}))
    with pytest.raises(OSError):
        export(run(s, 0), "jsonl", "/nonexistent-dir/x.jsonl")


@pytest.fixture(params=["jsonl", "csv"])
def exported(request, tmp_path):
    """A trace or an ergodicity report, its format, and the bytes it exports to."""
    s = scenario_from_dict(minimal(run={"ticks": 5}))
    traces = [run(s, r) for r in range(2)]
    obj = traces[0] if request.param == "jsonl" else ergodicity_report(traces, 1)
    return obj, request.param, export_reference(obj, tmp_path / "reference")


def export_reference(obj, path) -> bytes:
    """The bytes of the truncate-on-open writer that `export` replaced."""
    if isinstance(obj, Trace):
        with open(path, "w") as fh:
            header = {"agents": list(obj.agents), "depth": obj.depth, "kind": "header",
                      "ticks": obj.ticks}
            fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
            for event in obj.events:
                fh.write(event.to_json() + "\n")
    else:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["agent", "mean_time_average", "ensemble_final", "max_coverage", "gap"])
            for a in sorted(obj.ensemble_final):
                mean_ta = sum(obj.time_averages[a], Fraction(0)) / len(obj.time_averages[a])
                writer.writerow([a, str(mean_ta), str(obj.ensemble_final[a]),
                                 str(obj.max_coverage[a]), str(obj.gap)])
    return path.read_bytes()


def test_export_bytes_match_the_reference_writer(tmp_path, exported):
    obj, fmt, expected = exported
    export(obj, fmt, tmp_path / "new")
    assert (tmp_path / "new").read_bytes() == expected
    assert expected.endswith(b"\r\n" if fmt == "csv" else b"\n")


@pytest.mark.parametrize("old", [b"x" * 100_000, b"old\n"], ids=["longer", "shorter"])
def test_export_over_existing_file_leaves_exactly_the_new_bytes(tmp_path, exported, old):
    obj, fmt, expected = exported
    path = tmp_path / "out"
    path.write_bytes(old)
    export(obj, fmt, path)
    assert path.read_bytes() == expected


def test_export_keeps_the_inode_and_mode(tmp_path, exported):
    obj, fmt, expected = exported
    path = tmp_path / "out"
    path.write_bytes(b"old")
    path.chmod(0o604)
    link = tmp_path / "link"
    os.link(path, link)
    before = path.stat()
    export(obj, fmt, path)
    after = path.stat()
    assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o604)
    assert link.read_bytes() == expected


def test_export_opens_without_truncating(tmp_path, exported, monkeypatch):
    """Truncation on open stalls on some file systems; a revert to
    `open(path, "w")` bypasses `os.open` and fails here too."""
    obj, fmt, expected = exported
    path = tmp_path / "out"
    path.write_bytes(b"old" * 1000)
    flags = []
    real_open = os.open

    def recording_open(file, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(file, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    export(obj, fmt, path)
    monkeypatch.undo()
    assert flags and not any(f & os.O_TRUNC for f in flags)
    assert path.read_bytes() == expected


def test_export_to_a_device_writes_without_cutting(exported):
    """A device or pipe cannot be truncated; writing to one still succeeds."""
    obj, fmt, _ = exported
    export(obj, fmt, os.devnull)


def test_unserialisable_trace_leaves_the_file_untouched(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_bytes(b"previous trace\n")
    trace = Trace(ticks=1, depth=1, agents=(1,), events=[TraceEvent(1, 0, "x", 1, {"s": {1}})])
    with pytest.raises(TypeError):
        export(trace, "jsonl", path)
    assert path.read_bytes() == b"previous trace\n"


# --- strategy comparison -----------------------------------------------------

def test_compare_strategies_deterministic():
    s = scenario_from_dict({
        "seed": 11,
        "initial_predicates": 4,
        "agents": [{"id": 1, "niche": [0], "visibility": "1/4", "strategy": "random"}],
        "run": {"ticks": 12, "depth": 1},
    })
    assert compare_strategies(s, 0) == compare_strategies(s, 0)


def test_compare_strategies_limit_counts_the_sentences(monkeypatch):
    """The limit compares |S_d| from the recurrence, which equals the
    enumeration's length, and fires before any sentence is enumerated."""
    # variation only: the two initial predicates stay the revealed set
    s = scenario_from_dict(minimal(initial_predicates=2, weights=[1, 0, 0],
                                   run={"ticks": 2, "depth": 2}))
    count = len(enumerate_sentences({0, 1}, 2))
    monkeypatch.setattr(harness, "MAX_SENTENCES", count)
    compare_strategies(s, 0)

    def no_sentences(*args):
        raise AssertionError("sentences were enumerated")

    monkeypatch.setattr(harness, "enumerate_sentences", no_sentences)
    monkeypatch.setattr(harness, "MAX_SENTENCES", count - 1)
    with pytest.raises(ValueError, match=f"limit of {count - 1:,} sentences"):
        compare_strategies(s, 0)
    monkeypatch.undo()
    monkeypatch.setattr(harness, "enumerate_sentences", no_sentences)
    # |S_3| over 2 predicates is 1,854,176
    deeper = replace(s, run=replace(s.run, depth=3))
    with pytest.raises(ValueError, match="depth 3 over 2 predicates .* limit of 1,000,000"):
        compare_strategies(deeper, 0)
