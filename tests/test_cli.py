import json
from fractions import Fraction

import pytest
from click.testing import CliRunner

from oee import harness
from oee.cli import main
from oee.formula import MAX_FORMULA_DEPTH

FRAME = {
    "predicates": [0, 1],
    "partitions": {
        "1": [["00", "01"], ["10", "11"]],
        "2": [["00", "10"], ["01", "11"]],
    },
}

SCENARIO = {
    "seed": 7,
    "agents": [{"id": 1, "niche": [0]}, {"id": 2, "niche": [1]}],
    "run": {"ticks": 6, "depth": 1, "replicates": 3},
}

# an integer of 5,000 digits, past the 4,300 that `int` converts from a string
# (sys.get_int_max_str_digits())
LONG = "9" * 5000
LONG_INTEGER = "an integer exceeds the limit of 4,300 digits"


def invoke(*args):
    return CliRunner().invoke(main, list(args))


def test_parse_ok():
    result = invoke("parse", "p0&~p1->p2")
    assert result.exit_code == 0
    assert result.output.strip() == "((p0 & ~p1) -> p2)"


def test_parse_error_exit_1():
    result = invoke("parse", "p0 &")
    assert result.exit_code == 1
    assert "error" in result.output or "error" in (result.stderr or "")


def test_usage_error_exit_2():
    result = invoke("run", "--scenario")
    assert result.exit_code == 2


def test_check_command(tmp_path):
    frame = tmp_path / "f.json"
    frame.write_text(json.dumps(FRAME))
    result = invoke("check", "--frame", str(frame), "--formula", "p0", "--at", "11")
    assert result.exit_code == 0
    assert result.output.startswith("fails-at")
    result = invoke("check", "--frame", str(frame), "--formula", "p5", "--at", "11")
    assert result.exit_code == 0
    assert "infeasible" in result.output
    assert "p5" in result.output


def test_check_bad_frame_exit_2(tmp_path):
    frame = tmp_path / "f.json"
    frame.write_text(json.dumps({"predicates": [0], "partitions": {"1": [["0"]]}}))
    result = invoke("check", "--frame", str(frame), "--formula", "p0", "--at", "0")
    assert result.exit_code == 2  # classes do not cover the ground


@pytest.mark.parametrize("frame, message", [
    ({**FRAME, "predicates": [True, 0]}, "error: predicates: must be a list of predicate indices"),
    ({**FRAME, "ground": "0011"}, "error: ground: must be a list of bitstrings"),
    ({**FRAME, "partitions": {"1": ["00", "01", "10", "11"]}},
     "error: partitions.1[0]: must be a list of bitstrings"),
    ({**FRAME, "predicates": [-1, 0]}, "error: predicates[0]: must be an integer >= 0"),
    ({**FRAME, "grond": ["00"]}, "error: grond: unknown key"),
    ({**FRAME, "predicates": [0, 0]}, "error: predicates: repeats predicate 0"),
    # "1" and "01" would both name agent 1, the second replacing the first
    ({**FRAME, "partitions": {**FRAME["partitions"], "01": FRAME["partitions"]["2"]}},
     "error: partitions.01: agent id must be a decimal integer"),
    ({**FRAME, "partitions": {" 1": FRAME["partitions"]["1"]}},
     "error: partitions. 1: agent id must be a decimal integer"),
    ({**FRAME, "partitions": {"1_0": FRAME["partitions"]["1"]}},
     "error: partitions.1_0: agent id must be a decimal integer"),
    # class entries are looked up among the ground's states
    ({**FRAME, "ground": ["00", "01", "10"]},
     "error: partitions.1: state '11' lies outside the ground"),
    ({**FRAME, "partitions": {"1": [["00", "0"], ["10", "11"]]}},
     "error: partitions.1[0]: expected 2 bits, got '0'"),
    # each agent's classes partition the ground, and the ground names a state once
    ({**FRAME, "partitions": {"1": [["00", "00", "01"], ["10", "11"]]}},
     "error: partitions.1[0]: repeats state '00'"),
    ({**FRAME, "ground": ["00", "00", "01", "10", "11"]}, "error: ground: repeats state '00'"),
    ({**FRAME, "partitions": {"1": [["00", "01"], ["01", "10", "11"]]}},
     "error: partitions.1: state '01' lies in classes 0 and 1"),
    ({**FRAME, "partitions": {"1": [["00", "01"], ["11"]]}},
     "error: partitions.1: state '10' lies in no class"),
    ({**FRAME, "partitions": {"1": [["00", "01"], [], ["10", "11"]]}},
     "error: partitions.1[1]: empty partition class"),
    # a state's true-mask is as wide as its largest predicate index
    ({**FRAME, "predicates": [0, 1_000_001]},
     "error: predicates[1]: exceeds the limit of 1,000,000 (universe.MAX_PREDICATE_INDEX)"),
    ({**FRAME, "partitions": {LONG: FRAME["partitions"]["1"]}}, f"error: partitions: {LONG_INTEGER}"),
])
def test_check_rejects_bad_frame_field(tmp_path, frame, message):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(frame))
    result = invoke("check", "--frame", str(path), "--formula", "p0", "--at", "00")
    assert result.exit_code == 2
    assert result.output.strip() == message


def test_frame_over_cube_limit_exit_2(tmp_path, monkeypatch):
    from oee import frames, multiagent
    from oee.harness import SchemaError
    from oee.universe import State

    def no_states(*args):
        raise AssertionError("a state was built")

    # every State construction, in any module, runs this hook
    monkeypatch.setattr(State, "__post_init__", no_states)
    frame = tmp_path / "f.json"
    predicates = list(range(multiagent.MAX_CUBE_PREDICATES + 1))
    bits = "0" * len(predicates)
    frame.write_text(json.dumps({"predicates": predicates, "partitions": {"1": [[bits]]}}))
    with pytest.raises(SchemaError, match="^predicates: .*limit of 16 predicates"):
        frames.load_frame(frame)
    result = invoke("check", "--frame", str(frame), "--formula", "p0", "--at", bits)
    assert result.exit_code == 2
    assert "limit of 16" in result.output or "limit of 16" in (result.stderr or "")


def _frame_scale():
    """`scripts/frame_scale.py`, imported as a module."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "scripts" / "frame_scale.py"
    spec = importlib.util.spec_from_file_location("frame_scale", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_frame_scale_frames_load(tmp_path):
    """The measured frames are valid frame files: agent 1 singletons, agent
    2 adjacent pairs, agents 3 and 4 singletons."""
    from oee.frames import load_frame

    scale = _frame_scale()
    for agents in (2, 4):
        frame = load_frame(scale.write_frame(tmp_path / f"f{agents}.json", 4, agents))
        assert frame.agents == tuple(range(1, agents + 1))
        assert len(frame.trues) == 16
        assert [frame.classes[i][1] for i in frame.agents] == \
            [(1,) * 16, (2,) * 8] + [(1,) * 16] * (agents - 2)
        assert max(frame.meet_labels) == 7  # the meet is agent 2's pairs


def test_frame_queries_build_only_the_states_they_return(tmp_path, monkeypatch):
    """On a 2^10 frame, loading the frame and an event and checking agreement
    on a mask event build no State; common knowledge builds exactly the
    states of its FailsAt."""
    from oee.formula import parse
    from oee.frames import load_event, load_frame, state_from_bits
    from oee.multiagent import FailsAt, agreement_check, common_knowledge
    from oee.universe import State

    built = []
    init = State.__post_init__
    monkeypatch.setattr(State, "__post_init__", lambda w: built.append(init(w) or w))
    at = state_from_bits("0" * 10, range(10))
    built.clear()
    frame = load_frame(_frame_scale().write_frame(tmp_path / "f.json", 10))
    event = tmp_path / "e.json"
    for document, posteriors in (({"formula": "p0 | p1"}, {1: 0, 2: 0}),
                                 ({"states": ["0" * 10, "1" * 10]}, {1: 1, 2: Fraction(1, 2)})):
        event.write_text(json.dumps(document))
        assert agreement_check(frame, load_event(event, frame), at).posteriors == posteriors
    assert built == []
    result = common_knowledge(frame, parse("p0 | p1"), at)
    assert isinstance(result, FailsAt) and len(result.states) == 2
    assert sorted(w.bits() for w in built) == ["0" * 10, "0" * 9 + "1"]


@pytest.mark.parametrize("overrides, path, limit", [
    ({"initial_predicates": harness.MAX_INITIAL_PREDICATES + 1},
     "initial_predicates", harness.MAX_INITIAL_PREDICATES),
    ({"run": {"ticks": 6, "depth": harness.MAX_DEPTH + 1}}, "run.depth", harness.MAX_DEPTH),
])
def test_run_rejects_oversized_scenario_before_any_tick(tmp_path, monkeypatch, overrides,
                                                        path, limit):
    def no_universe(*args):
        raise AssertionError("a universe was built")

    monkeypatch.setattr(harness, "UniverseGenerator", no_universe)
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({**SCENARIO, **overrides}))
    result = invoke("run", "--scenario", str(scenario), "--out", str(tmp_path / "t.jsonl"))
    assert result.exit_code == 2
    assert result.output.strip() == f"error: {path}: exceeds the limit of {limit}"


def test_run_rejects_a_long_rational_before_parsing_it(tmp_path):
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(
        {**SCENARIO, "agents": [{"id": 1, "niche": [0], "visibility": "1e-10000000"}]}))
    result = invoke("run", "--scenario", str(scenario), "--out", str(tmp_path / "t.jsonl"))
    assert result.exit_code == 2
    assert result.output.strip() == (
        f"error: agents[0].visibility: expands past the limit of "
        f"{harness.MAX_RATIONAL_DIGITS:,} digits (harness.MAX_RATIONAL_DIGITS)")


def test_run_rejects_unknown_scenario_key(tmp_path):
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({**SCENARIO, "runn": {"ticks": 6}}))
    result = invoke("run", "--scenario", str(scenario), "--out", str(tmp_path / "t.jsonl"))
    assert result.exit_code == 2
    assert result.output.strip() == "error: runn: unknown key"


@pytest.mark.parametrize("header, message", [
    ({"agents": [1], "depth": 1, "ticks": "x"}, "error: header.ticks: must be an integer >= 0"),
    ({"agents": [1], "ticks": 6}, "error: header.depth: required integer"),
    ({"agents": [True], "depth": 1, "ticks": 6}, "error: header.agents[0]: must be an integer"),
])
def test_bins_rejects_bad_header(tmp_path, header, message):
    trace = tmp_path / "t.jsonl"
    trace.write_text(json.dumps({**header, "kind": "header"}) + "\n")
    result = invoke("bins", "--trace", str(trace))
    assert result.exit_code == 2
    assert result.output.strip() == message


EVENT = {"tick": 2, "seq": 0, "kind": "revision", "agent": 1, "payload": {}}


@pytest.mark.parametrize("event, message", [
    ({k: v for k, v in EVENT.items() if k != "tick"}, "error: line 2.tick: required"),
    ({**EVENT, "tick": "2"}, "error: line 2.tick: must be an integer >= 0"),
    ({**EVENT, "seq": True}, "error: line 2.seq: must be an integer >= 0"),
    ({**EVENT, "kind": 3}, "error: line 2.kind: must be a string"),
    ({**EVENT, "agent": "1"}, "error: line 2.agent: must be an integer"),
    ({**EVENT, "payload": []}, "error: line 2.payload: must be an object"),
    ([EVENT], "error: line 2: must be an object"),
    ({**EVENT, "tick": 0}, "error: line 2.tick: must lie in the header's tick range 1..3"),
    ({**EVENT, "tick": 4}, "error: line 2.tick: must lie in the header's tick range 1..3"),
])
def test_bins_rejects_bad_event(tmp_path, event, message):
    trace = tmp_path / "t.jsonl"
    header = {"kind": "header", "agents": [1], "depth": 1, "ticks": 3}
    trace.write_text(json.dumps(header) + "\n" + json.dumps(event) + "\n")
    result = invoke("bins", "--trace", str(trace))
    assert result.exit_code == 2
    assert result.output.strip() == message


def test_run_and_bins(tmp_path):
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(SCENARIO))
    trace = tmp_path / "t.jsonl"
    result = invoke("run", "--scenario", str(scenario), "--out", str(trace))
    assert result.exit_code == 0, result.output
    assert trace.exists()
    result = invoke("bins", "--trace", str(trace))
    assert result.exit_code == 0
    spans = [line.split("-") for line in result.output.strip().splitlines()]
    assert int(spans[0][0]) == 1 and int(spans[-1][1]) == 6


def test_agree_command(tmp_path):
    frame = tmp_path / "f.json"
    frame.write_text(json.dumps(FRAME))
    event = tmp_path / "e.json"
    event.write_text(json.dumps({"states": ["00", "11"]}))
    result = invoke("agree", "--frame", str(frame), "--event", str(event), "--at", "11")
    assert result.exit_code == 0, result.output
    assert "posterior[1] = 1/2" in result.output
    assert "agree: true" in result.output


# two meet components, {000, 001, 010, 011} and {100, 101, 110, 111}
SPLIT_FRAME = {
    "predicates": [0, 1, 2],
    "partitions": {
        "1": [["000", "001"], ["010", "011"], ["100", "101", "110"], ["111"]],
        "2": [["000", "010"], ["001", "011"], ["100"], ["101", "110", "111"]],
    },
}


@pytest.mark.parametrize("event, at, lines", [
    ({"formula": "p0 | p2"}, "100", ["1", "1", "true", "true"]),
    ({"formula": "p1"}, "000", ["0", "1/2", "false", "false"]),
    ({"formula": "p1 -> p2"}, "100", ["2/3", "1", "false", "false"]),
    ({"states": ["100", "111"]}, "100", ["1/3", "1", "false", "false"]),
    ({"states": ["100", "111"]}, "000", ["0", "0", "true", "true"]),
    ({"states": []}, "011", ["0", "0", "true", "true"]),
])
def test_agree_command_output_is_pinned(tmp_path, event, at, lines):
    frame = tmp_path / "f.json"
    frame.write_text(json.dumps(SPLIT_FRAME))
    path = tmp_path / "e.json"
    path.write_text(json.dumps(event))
    result = invoke("agree", "--frame", str(frame), "--event", str(path), "--at", at)
    assert result.exit_code == 0, result.output
    post1, post2, common, agree = lines
    assert result.output.splitlines() == [
        f"posterior[1] = {post1}",
        f"posterior[2] = {post2}",
        f"common-knowledge-of-posteriors: {common}",
        f"agree: {agree}",
    ]


@pytest.mark.parametrize("formula, message", [
    ("K1 p0", "error: event formulas must be propositional"),
    # an atom outside the frame's predicates: the message is pinned below
    ("p7", None),
])
def test_agree_command_rejects_formula_event(tmp_path, formula, message):
    frame = tmp_path / "f.json"
    frame.write_text(json.dumps(SPLIT_FRAME))
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"formula": formula}))
    result = invoke("agree", "--frame", str(frame), "--event", str(path), "--at", "000")
    assert result.exit_code == 1
    if message is not None:
        assert result.output.strip() == message


@pytest.mark.parametrize("event, message", [
    ({"formula": 5}, "error: formula: must be a string"),
    ({"formula": "p0", "weight": 1}, "error: weight: unknown key"),
    ({"states": ["000"], "formula": "p0"},
     "error: $: event must carry exactly one of 'states' and 'formula'"),
    ({}, "error: $: event must carry exactly one of 'states' and 'formula'"),
    (["000"], "error: $: event must be an object"),
])
def test_agree_command_rejects_bad_event_file(tmp_path, event, message):
    frame = tmp_path / "f.json"
    frame.write_text(json.dumps(SPLIT_FRAME))
    path = tmp_path / "e.json"
    path.write_text(json.dumps(event))
    result = invoke("agree", "--frame", str(frame), "--event", str(path), "--at", "000")
    assert result.exit_code == 2
    assert result.output.strip() == message


@pytest.mark.parametrize("formula, missing", [
    ("p7", "p7"),
    ("p1 & (p9 | ~p7)", "p7, p9"),
])
def test_agree_command_names_atoms_outside_the_frame(tmp_path, formula, missing):
    frame = tmp_path / "f.json"
    frame.write_text(json.dumps(SPLIT_FRAME))
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"formula": formula}))
    result = invoke("agree", "--frame", str(frame), "--event", str(path), "--at", "000")
    assert result.exit_code == 1
    assert result.output.strip() == (
        f"error: event formula names {missing}, outside the frame's predicates p0, p1, p2"
    )


@pytest.mark.parametrize("formula, at, line", [
    ("p0", "000", "fails-at 000,001,010,011"),
    ("p0", "100", "holds"),
    ("p1", "100", "fails-at 100,101"),
    ("p5", "000", "infeasible missing=p5"),
])
def test_check_command_output_is_pinned(tmp_path, formula, at, line):
    frame = tmp_path / "f.json"
    frame.write_text(json.dumps(SPLIT_FRAME))
    result = invoke("check", "--frame", str(frame), "--formula", formula, "--at", at)
    assert result.exit_code == 0, result.output
    assert result.output.strip() == line


def test_ergodic_command(tmp_path):
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(SCENARIO))
    out = tmp_path / "report.csv"
    result = invoke("ergodic", "--scenario", str(scenario), "--out", str(out))
    assert result.exit_code == 0, result.output
    assert out.exists()
    assert "gap:" in result.output


def test_compare_search_command(tmp_path):
    scenario = dict(SCENARIO)
    scenario["agents"] = [
        {"id": 1, "niche": [0], "visibility": "1/4", "strategy": "heuristic"}
    ]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    result = invoke("compare-search", "--scenario", str(path))
    assert result.exit_code == 0, result.output
    assert "agent 1:" in result.output


# --- malformed input -----------------------------------------------------------

# formulas nested past MAX_FORMULA_DEPTH: in negations, in parentheses, and in
# the tree of a conjunction chain
DEEP_FORMULAS = ("~" * 1000 + "p0", "(" * 200 + "p0" + ")" * 200, "p0 & " * 3000 + "p0")
REPLACEMENTS = (True, "x", 1.5, [], {}, None, -1) + DEEP_FORMULAS


def _mutations(value, path=()):
    """Every file made from `value` by deleting one object key or list item,
    adding an unknown key to one object, or replacing one value (the whole
    document included) with each of REPLACEMENTS."""
    for r in REPLACEMENTS:
        yield f"{list(path)} = {r!r}", r
    if isinstance(value, dict):
        yield f"{list(path)} + unknown key", {**value, "zz_unknown": 0}
        for key, child in value.items():
            yield f"{list(path + (key,))} deleted", {k: v for k, v in value.items() if k != key}
            for label, mutated in _mutations(child, path + (key,)):
                yield label, {**value, key: mutated}
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield f"{list(path + (i,))} deleted", value[:i] + value[i + 1:]
            for label, mutated in _mutations(child, path + (i,)):
                yield label, value[:i] + [mutated] + value[i + 1:]


TRACE_HEADER = {"kind": "header", "agents": [1], "depth": 1, "ticks": 3}


def _write(path, document):
    """A JSON file, or a JSON-lines file with one line per item of a list."""
    if path.suffix == ".jsonl" and isinstance(document, list):
        path.write_text("".join(json.dumps(line) + "\n" for line in document))
    else:
        path.write_text(json.dumps(document))


@pytest.mark.parametrize("valid, name, command", [
    (SCENARIO, "s.json", ["run", "--scenario", "{}", "--out", "{dir}/t.jsonl"]),
    (FRAME, "f.json", ["check", "--frame", "{}", "--formula", "p0", "--at", "00"]),
    ({"states": ["00", "11"]}, "e.json",
     ["agree", "--frame", "{dir}/frame.json", "--event", "{}", "--at", "11"]),
    ({"formula": "p0 | p1"}, "e.json",
     ["agree", "--frame", "{dir}/frame.json", "--event", "{}", "--at", "11"]),
    ([TRACE_HEADER, EVENT], "t.jsonl", ["bins", "--trace", "{}"]),
    (SCENARIO, "s.json", ["ergodic", "--scenario", "{}", "--out", "{dir}/r.csv"]),
    (SCENARIO, "s.json", ["compare-search", "--scenario", "{}"]),
    (SCENARIO, "s.json", ["run", "--scenario", "{}", "--replicate", "0", "--out", "{dir}/t.jsonl"]),
    (SCENARIO, "s.json", ["ergodic", "--scenario", "{}", "--replicates", "2", "--out", "{dir}/r.csv"]),
])
def test_malformed_input_fails_with_one_error_line(tmp_path, valid, name, command):
    """Each mutation of a valid input file either runs, or exits 1 or 2 with
    one `error:` line; no other exception escapes."""
    (tmp_path / "frame.json").write_text(json.dumps(FRAME))
    faults = []
    # each mutation gets a file of its own: truncating and rewriting one file
    # hundreds of times can cost far more than the commands it feeds
    for n, (label, document) in enumerate(_mutations(valid)):
        path = tmp_path / f"{n}-{name}"
        _write(path, document)
        result = invoke(*[a.format(path, dir=tmp_path) for a in command])
        errors = [line for line in result.output.splitlines() if line.startswith("error:")]
        if not (
            (result.exception is None or isinstance(result.exception, SystemExit))
            and (result.exit_code, len(errors)) in ((0, 0), (1, 1), (2, 1))
        ):
            faults.append((label, result.exit_code, result.output[-200:], result.exception))
    assert not faults


ENSEMBLE_OF_ONE = "error: run.replicates: an ensemble needs at least 2 replicates\n"


@pytest.mark.parametrize("args, replicates, message", [
    (["run", "--replicate", "-1", "--out", "{dir}/t.jsonl"], 3, "-1 is not in the range x>=0"),
    (["compare-search", "--replicate", "-1"], 3, "-1 is not in the range x>=0"),
    (["ergodic", "--replicates", "1", "--out", "{dir}/r.csv"], 3, "1 is not in the range x>=2"),
    (["ergodic", "--replicates", "0", "--out", "{dir}/r.csv"], 3, "0 is not in the range x>=2"),
    (["ergodic", "--out", "{dir}/r.csv"], None, ENSEMBLE_OF_ONE),
    (["ergodic", "--out", "{dir}/r.csv"], 1, ENSEMBLE_OF_ONE),
], ids=["run", "compare-search", "ergodic-1", "ergodic-0",
        "ergodic-scenario-default", "ergodic-scenario-1"])
def test_replicate_bounds_exit_2_before_any_run(tmp_path, monkeypatch, args, replicates, message):
    """`rng.fold` masks to 64 bits, so replicate -1 would run replicate 2**64 - 1;
    an ensemble of fewer than 2 replicates has no ergodicity report, and a
    scenario without `run.replicates` has 1."""
    def no_run(*_):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr("oee.cli.run", no_run)
    monkeypatch.setattr("oee.cli.compare_strategies", no_run)
    run_config = {k: v for k, v in SCENARIO["run"].items() if k != "replicates"}
    if replicates is not None:
        run_config["replicates"] = replicates
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({**SCENARIO, "run": run_config}))
    result = invoke(args[0], "--scenario", str(scenario), *[a.format(dir=tmp_path) for a in args[1:]])
    assert result.exit_code == 2
    assert message in result.output
    assert not any(tmp_path.glob("[rt].*"))


@pytest.mark.parametrize("formula", DEEP_FORMULAS, ids=["negations", "parentheses", "chain"])
def test_formula_over_the_nesting_limit_exit_1(tmp_path, formula):
    (tmp_path / "f.json").write_text(json.dumps(FRAME))
    for args in (["parse", formula],
                 ["check", "--frame", str(tmp_path / "f.json"), "--formula", formula, "--at", "00"]):
        result = invoke(*args)
        assert result.exit_code == 1
        assert result.output.count("\n") == 1
        assert f"expected nesting at most {MAX_FORMULA_DEPTH} deep" in result.output


@pytest.mark.parametrize("name, text, command, message", [
    ("s.json", '{"seed": 7, "seed": 8, "run": {"ticks": 6, "depth": 1, "replicates": 1}}',
     ["run", "--scenario", "{}", "--out", "{dir}/t.jsonl"], "error: $: repeats the key 'seed'"),
    ("f.json", '{"predicates": [0, 1], "partitions": {"1": [["00", "01"], ["10", "11"]], '
     '"1": [["00", "10"], ["01", "11"]]}}',
     ["check", "--frame", "{}", "--formula", "p0", "--at", "00"], "error: $: repeats the key '1'"),
    ("e.json", '{"formula": "p0", "formula": "p1"}',
     ["agree", "--frame", "{dir}/frame.json", "--event", "{}", "--at", "11"],
     "error: $: repeats the key 'formula'"),
    ("t.jsonl", json.dumps(TRACE_HEADER) + '\n{"tick": 2, "tick": 3, "seq": 0, "kind": "revision", '
     '"agent": 1, "payload": {}}\n',
     ["bins", "--trace", "{}"], "error: line 2: repeats the key 'tick'"),
    ("s.json", '{"seed": %s, "run": {"ticks": 6, "depth": 1, "replicates": 1}}' % LONG,
     ["run", "--scenario", "{}", "--out", "{dir}/t.jsonl"], f"error: $: {LONG_INTEGER}"),
    ("t.jsonl", '{"kind": "header", "agents": [1], "depth": 1, "ticks": %s}\n' % LONG,
     ["bins", "--trace", "{}"], f"error: line 1: {LONG_INTEGER}"),
    ("e.json", '{"states": ["00"], "weight": %s}' % LONG,
     ["agree", "--frame", "{dir}/frame.json", "--event", "{}", "--at", "11"],
     f"error: $: {LONG_INTEGER}"),
], ids=["scenario", "frame", "event", "trace-line",
        "scenario-long-integer", "trace-header-long-integer", "event-long-integer"])
def test_repeated_json_key_exit_2(tmp_path, name, text, command, message):
    """`json` keeps the last of two equal keys, and `int` refuses a long
    integer with a bare ValueError; each loader names the fault at its file
    or line.  The files are raw text, because `json.dumps` can write neither."""
    (tmp_path / "frame.json").write_text(json.dumps(FRAME))
    path = tmp_path / name
    path.write_text(text)
    result = invoke(*[a.format(path, dir=tmp_path) for a in command])
    assert result.exit_code == 2
    assert result.output.strip() == message


@pytest.mark.parametrize("formula, offset", [
    ("p" + LONG, 1), ("K" + LONG + " p0", 1), ("C{1," + LONG + "} p0", 4),
], ids=["atom", "agent", "group"])
def test_formula_index_past_the_digit_limit_exit_1(tmp_path, formula, offset):
    (tmp_path / "f.json").write_text(json.dumps(FRAME))
    for args in (["parse", formula],
                 ["check", "--frame", str(tmp_path / "f.json"), "--formula", formula, "--at", "00"]):
        result = invoke(*args)
        assert result.exit_code == 1
        assert result.output == (f"error: parse error at offset {offset}: "
                                 "expected at most 4,300 digits, found 5,000 digits\n")
