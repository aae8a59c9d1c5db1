"""Scenario configuration, the deterministic run engine, trace persistence,
and the ergodicity / time-binning experiments.

A run is fully determined by (scenario, replicate index): the universe stream
is seeded from hash(seed, replicate) and every agent observation draw from
hash(hash(seed, replicate, agent), salt, tick, predicate), where the salt is 0
for an agent's first draw of a tick and 1 for the second draw that the
nonlogical strategies make, so traces are byte-identical across reruns and
platforms.
"""

from __future__ import annotations

import csv
import io
import json
import os
import stat
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

# the benchmark's tracer wraps `adjacent_possible` under this module's name; the
# run loop counts the `adjacent_masks` of each revision without building states
from .epistemics import AgentState, Truth3, adjacent_masks, adjacent_possible, agent_state, \
    decide, truth_of_mask
from .formula import enumerate_sentences, event_mask, render
from .revision import RevisionStrategy, StrategyKind, classify_extension, revise
from .rng import mix
from .universe import NoveltyKind, State, UniverseGenerator, _models, empty_theory, \
    predicate_mask


class SchemaError(ValueError):
    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class LengthMismatch(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class AgentSpec:
    id: int
    niche: frozenset[int]
    visibility: Fraction
    strategy: RevisionStrategy


@dataclass(frozen=True, slots=True)
class RunConfig:
    ticks: int
    depth: int
    replicates: int


@dataclass(frozen=True, slots=True)
class Scenario:
    seed: int
    weights: tuple[Fraction, Fraction, Fraction]
    initial_predicates: int
    clause_arity: int
    agents: tuple[AgentSpec, ...]
    run: RunConfig


_DEFAULT_WEIGHTS = (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5))
_DEFAULT_VISIBILITY = Fraction(3, 5)
# Each depth squares the sentence count and so doubles the digits of the coverage
# fractions a trace writes (431 at depth 8, 6,909 at 12, over 2 predicates); over
# 20,000 predicates |S_10| has 4,892 digits, past the 4,300 Python turns to text.
MAX_DEPTH = 8
# a one-tick run took 0.29 s at 20,000 initial predicates, 0.62 s at 40,000
MAX_INITIAL_PREDICATES = 20_000
# The most type pairs one depth step of `sentence_types` combines, typed² × 3
# for its three binary operators.  No-clause theories at depth 2 reach 463,347
# over 14 free predicates (1.2 s, 427 MiB), 610,203 over 15 (3.3 s, 1.1 GiB)
# and 789,507 over 16; runs of the fixtures and workloads reach at most 75.
MAX_SENTENCE_TYPES = 600_000


# The most digits a scenario rational may expand to: the length of its text
# plus its decimal exponent; every float's text expands to at most 17 + 324.
# Draws multiply by the denominator, so a long one slows every tick: at
# "1e-1000000" parsing took 0.35 s and a 20-tick one-agent run 0.056 s, against
# 0.002 s at "1/32", and "1e-10000000" took 7-12 s to parse (2 vCPUs).
MAX_RATIONAL_DIGITS = 1_000


def _fraction(value, path: str) -> Fraction:
    text = str(value)
    digits = len(text)
    _, e, exponent = text.lower().partition("e")
    if e and digits <= MAX_RATIONAL_DIGITS:
        try:
            digits += abs(int(exponent))
        except ValueError:
            pass  # not a decimal exponent: `Fraction` refuses the text
    if digits > MAX_RATIONAL_DIGITS:
        raise SchemaError(path, f"expands past the limit of {MAX_RATIONAL_DIGITS:,} digits "
                                f"(harness.MAX_RATIONAL_DIGITS)")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise SchemaError(path, f"not a rational: {value!r}")


def _integer(value, path: str, minimum: int | None = None) -> int:
    """`value` if it is an integer of at least `minimum`; a JSON boolean is
    not an integer."""
    if isinstance(value, bool) or not isinstance(value, int) or (
        minimum is not None and value < minimum
    ):
        bound = "" if minimum is None else f" >= {minimum}"
        raise SchemaError(path, f"must be an integer{bound}")
    return value


def _known_keys(data: dict, keys, prefix: str) -> None:
    for key in data:
        if key not in keys:
            raise SchemaError(f"{prefix}{key}", "unknown key")


_SCENARIO_KEYS = ("seed", "weights", "initial_predicates", "clause_arity", "agents", "run")
_AGENT_KEYS = ("id", "niche", "visibility", "strategy", "strategy_seed")
_RUN_KEYS = ("ticks", "depth", "replicates")


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise SchemaError("$", "scenario must be an object")
    _known_keys(data, _SCENARIO_KEYS, "")
    if "seed" not in data:
        raise SchemaError("seed", "required integer")
    seed = _integer(data["seed"], "seed")
    raw_weights = data.get("weights")
    if raw_weights is None:
        weights = _DEFAULT_WEIGHTS
    else:
        if not isinstance(raw_weights, list) or len(raw_weights) != 3:
            raise SchemaError("weights", "must be a list of three rationals")
        weights = tuple(_fraction(w, f"weights[{i}]") for i, w in enumerate(raw_weights))
        if any(w < 0 for w in weights) or sum(weights) != 1:
            raise SchemaError("weights", "must be nonnegative and sum to 1")
    initial = _integer(data.get("initial_predicates", 3), "initial_predicates", 1)
    if initial > MAX_INITIAL_PREDICATES:
        raise SchemaError("initial_predicates", f"exceeds the limit of {MAX_INITIAL_PREDICATES}")
    arity = _integer(data.get("clause_arity", 2), "clause_arity", 2)
    raw_agents = data.get("agents")
    if not isinstance(raw_agents, list) or not raw_agents:
        raise SchemaError("agents", "must be a nonempty list")
    agents = []
    seen_ids = set()
    for i, raw in enumerate(raw_agents):
        path = f"agents[{i}]"
        if not isinstance(raw, dict):
            raise SchemaError(path, "must be an object")
        _known_keys(raw, _AGENT_KEYS, f"{path}.")
        if "id" not in raw:
            raise SchemaError(f"{path}.id", "required integer")
        aid = _integer(raw["id"], f"{path}.id")
        if aid in seen_ids:
            raise SchemaError(f"{path}.id", f"duplicate agent id {aid}")
        seen_ids.add(aid)
        niche = raw.get("niche", [])
        if not isinstance(niche, list) or not all(
            isinstance(p, int) and not isinstance(p, bool) and p >= 0 for p in niche
        ):
            raise SchemaError(f"{path}.niche", "must be a list of predicate indices")
        visibility = (
            _fraction(raw["visibility"], f"{path}.visibility")
            if "visibility" in raw
            else _DEFAULT_VISIBILITY
        )
        if not 0 <= visibility <= 1:
            raise SchemaError(f"{path}.visibility", "must lie in [0, 1]")
        kind_name = raw.get("strategy", "deductive")
        try:
            kind = StrategyKind(kind_name)
        except ValueError:
            raise SchemaError(f"{path}.strategy", f"unknown strategy {kind_name!r}")
        strategy_seed = _integer(raw.get("strategy_seed", 0), f"{path}.strategy_seed")
        agents.append(
            AgentSpec(aid, frozenset(niche), visibility, RevisionStrategy(kind, strategy_seed))
        )
    raw_run = data.get("run", {})
    if not isinstance(raw_run, dict):
        raise SchemaError("run", "must be an object")
    _known_keys(raw_run, _RUN_KEYS, "run.")
    ticks = _integer(raw_run.get("ticks", 10), "run.ticks", 1)
    depth = _integer(raw_run.get("depth", 1), "run.depth", 0)
    if depth > MAX_DEPTH:
        raise SchemaError("run.depth", f"exceeds the limit of {MAX_DEPTH}")
    replicates = _integer(raw_run.get("replicates", 1), "run.replicates", 1)
    return Scenario(
        seed=seed,
        weights=weights,
        initial_predicates=initial,
        clause_arity=arity,
        agents=tuple(agents),
        run=RunConfig(ticks, depth, replicates),
    )


def parse_json(text: str, path: str = "$"):
    """The JSON document `text`; invalid JSON, an object that repeats a key
    (which `json` would drop without a word), or an integer longer than
    Python converts from a string, is a SchemaError at `path`."""
    def unique(pairs):
        data = {}
        for key, value in pairs:
            if key in data:
                raise SchemaError(path, f"repeats the key {key!r}")
            data[key] = value
        return data

    try:
        return json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise SchemaError(path, f"invalid JSON: {exc}")
    except SchemaError:
        raise
    except ValueError:  # `int` refuses more digits than sys.get_int_max_str_digits()
        raise SchemaError(path, f"an integer exceeds the limit of "
                          f"{sys.get_int_max_str_digits():,} digits") from None


def load_scenario(path) -> Scenario:
    return scenario_from_dict(parse_json(Path(path).read_text()))


# --- traces ------------------------------------------------------------------


# one encoder for every trace line: `json.dumps` with these settings builds one per call
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True, slots=True)
class TraceEvent:
    tick: int
    seq: int
    kind: str
    agent: int | None
    payload: dict

    def to_json(self) -> str:
        record = {
            "tick": self.tick,
            "seq": self.seq,
            "kind": self.kind,
            "agent": self.agent,
            "payload": self.payload,
        }
        return _ENCODER.encode(record)


@dataclass(slots=True)
class Trace:
    ticks: int
    depth: int
    agents: tuple[int, ...]
    events: list[TraceEvent] = field(default_factory=list)


@dataclass(slots=True)
class RunResult:
    trace: Trace
    agents: dict[int, AgentState]
    universe: UniverseGenerator


# --- coverage ----------------------------------------------------------------


def sentence_types(agent: AgentState, revealed: frozenset[int], actual: State, depth: int):
    """The full mask (one bit per model of `agent.theory`) and how many
    sentences of `enumerate_sentences(revealed, depth)` fall in each type:
    (bitmask of the models where the sentence holds, its value at `actual`),
    or None for every sentence with an atom outside the agent's language.
    The atoms are counted by type in groups: the language's predicates split
    by their bit in each model's true-mask, then by their value at `actual`.
    The counts follow the enumeration, S_d = S_0 + Not(S_{d-1}) + {And, Or,
    Implies}(S_{d-1}^2), whose parts are disjoint by construction; a
    compound's type is its operator applied to its operands' masks and
    values.  A depth step that would combine more than MAX_SENTENCE_TYPES
    type pairs raises ValueError before it starts."""
    if not revealed or depth < 0:
        raise ValueError("coverage needs a nonempty revealed set and a depth >= 0")
    models = _models(agent.theory)
    full = (1 << len(models)) - 1
    revealed_mask = predicate_mask(revealed)
    language = revealed_mask & agent.theory.mask
    outside = language & ~predicate_mask(actual.domain)
    if outside:
        raise KeyError((outside & -outside).bit_length() - 1)
    # model mask -> the language's predicates true in exactly those models
    columns = {0: language}
    for k, model in enumerate(models):
        split = {}
        for column, preds in columns.items():
            if preds & model:
                split[column | 1 << k] = preds & model
            if preds & ~model:
                split[column] = preds & ~model
        columns = split
    true = predicate_mask(actual.true)
    base = {}
    for column, preds in columns.items():
        if preds & true:
            base[column, True] = (preds & true).bit_count()
        if preds & ~true:
            base[column, False] = (preds & ~true).bit_count()
    if revealed_mask & ~language:
        base[None] = (revealed_mask & ~language).bit_count()
    counts = base
    for _ in range(depth):
        grown = dict(base)
        get = grown.get
        typed = [(t, n) for t, n in counts.items() if t is not None]
        if 3 * len(typed) ** 2 > MAX_SENTENCE_TYPES:
            raise ValueError(
                f"a depth step over {len(typed):,} sentence types would combine "
                f"{3 * len(typed) ** 2:,} type pairs, past the limit of "
                f"{MAX_SENTENCE_TYPES:,} (harness.MAX_SENTENCE_TYPES)"
            )
        for (a, x), n in typed:
            key = full & ~a, not x
            grown[key] = get(key, 0) + n
        # a compound with an operand outside the language is outside it: its
        # Not, and each binary operator over the pairs that have one such operand
        untyped = counts.get(None, 0)
        if untyped:
            total = sum(counts.values())
            grown[None] = get(None, 0) + untyped + 3 * untyped * (2 * total - untyped)
        for (a, x), n in typed:
            for (b, y), k in typed:
                nk = n * k
                key = a & b, x and y
                grown[key] = get(key, 0) + nk
                key = a | b, x or y
                grown[key] = get(key, 0) + nk
                key = (full & ~a) | b, not x or y
                grown[key] = get(key, 0) + nk
        counts = grown
    return full, counts


def coverage_fraction(agent: AgentState, revealed: frozenset[int], actual: State, depth: int) -> Fraction:
    """Decided-correct fraction of `enumerate_sentences(revealed, depth)`:
    the share of sentences the agent decides (`truth_of_mask`, as `decide`
    does) to their value at the actual state, counted by `sentence_types`."""
    full, counts = sentence_types(agent, revealed, actual, depth)
    correct = sum(
        n for t, n in counts.items()
        if t is not None and truth_of_mask(t[0], full) is (Truth3.TRUE if t[1] else Truth3.FALSE)
    )
    return Fraction(correct, sum(counts.values()))


# --- run engine --------------------------------------------------------------


def _disjointness(languages) -> list[str | None]:
    """Per agent, the mean Jaccard similarity of its predicate set with each
    other agent's, as text, from the sets' masks; None for a lone agent."""
    if len(languages) == 1:
        return [None]
    out = []
    for i, a in enumerate(languages):
        total = Fraction(0)
        for j, b in enumerate(languages):
            if j != i:
                union = (a | b).bit_count()
                total += Fraction((a & b).bit_count(), union) if union else 1
        out.append(str(total / (len(languages) - 1)))
    return out


def run_full(scenario: Scenario, replicate: int) -> RunResult:
    run_seed = mix(scenario.seed, replicate)
    g = UniverseGenerator(
        run_seed, scenario.weights, scenario.initial_predicates, scenario.clause_arity
    )
    trace = Trace(
        ticks=scenario.run.ticks,
        depth=scenario.run.depth,
        agents=tuple(spec.id for spec in scenario.agents),
    )
    agents: dict[int, AgentState] = {
        spec.id: agent_state(spec.id, empty_theory()) for spec in scenario.agents
    }
    # each agent's last theory digest in the trace: a revision event's `old`
    digests = dict.fromkeys(agents, empty_theory().digest())
    seeds = [(spec, mix(scenario.seed, replicate, spec.id)) for spec in scenario.agents]
    # the agents' predicate masks and their disjointness texts, recomputed
    # only on a tick that changes some agent's predicate set
    languages = disjointness = None
    seq = 0

    def emit(tick, kind, agent, payload):
        nonlocal seq
        trace.events.append(TraceEvent(tick, seq, kind, agent, payload))
        seq += 1

    for tick in range(1, scenario.run.ticks + 1):
        event = g.tick()
        if event.kind is NoveltyKind.EMERGENCE:
            emit(tick, "reveal", None, {
                "predicate": event.predicate,
                "value": event.value,
                "clause": event.clause.render(),
            })
        elif event.kind is NoveltyKind.INNOVATION:
            emit(tick, "clause-added", None, {"clause": event.clause.render()})
        else:
            emit(tick, "variation", None, {
                "predicate": event.predicate,
                "value": event.value,
                "retracted": [c.render() for c in event.retracted],
            })
        per_agent_revision: dict[int, tuple] = {}
        for spec, aseed in seeds:
            niche = spec.niche & g.revealed_predicates
            obs = g.observe(niche, spec.visibility, aseed, salt=0)
            if spec.strategy.kind is not StrategyKind.DEDUCTIVE:
                # nonlogical search spends extra effort exploring: a second
                # independent observation draw per tick
                obs = obs | g.observe(niche, spec.visibility, aseed, salt=1)
            emit(tick, "observation", spec.id, {
                "literals": [[p, v] for p, v in sorted(obs)],
            })
            before = agents[spec.id]
            after = revise(before, obs, spec.strategy)
            if after.theory != before.theory:
                adjacent = len(adjacent_masks(before.theory, after.theory))
                extension = classify_extension(before.theory, after.theory)
                per_agent_revision[spec.id] = (extension, adjacent)
                new = after.theory.digest()
                emit(tick, "revision", spec.id, {
                    "old": digests[spec.id],
                    "new": new,
                    "extension": extension.value,
                    "adjacent": adjacent,
                })
                digests[spec.id] = new
            agents[spec.id] = after
        masks = [agents[spec.id].theory.mask for spec in scenario.agents]
        if masks != languages:
            languages, disjointness = masks, _disjointness(masks)
        for spec, shared in zip(scenario.agents, disjointness):
            state = agents[spec.id]
            coverage = coverage_fraction(
                state, g.revealed_predicates, g.actual, scenario.run.depth
            )
            extension, adjacent = per_agent_revision.get(spec.id, (None, 0))
            emit(tick, "metrics", spec.id, {
                "coverage": str(coverage),
                "disjointness": shared,
                "adjacent": adjacent,
                "extension": extension.value if extension else None,
            })
    return RunResult(trace, agents, g)


def run(scenario: Scenario, replicate: int) -> Trace:
    return run_full(scenario, replicate).trace


# --- analysis ----------------------------------------------------------------


def coverage_series(trace: Trace) -> dict[int, list[Fraction]]:
    """Per-agent coverage indexed by tick (tick t at position t-1)."""
    series: dict[int, list[Fraction]] = {a: [] for a in trace.agents}
    for event in trace.events:
        if event.kind == "metrics":
            series[event.agent].append(Fraction(event.payload["coverage"]))
    return series


@dataclass(frozen=True, slots=True)
class ErgodicityReport:
    time_averages: dict[int, list[Fraction]]  # agent -> per-replicate averages
    ensemble_final: dict[int, Fraction]  # agent -> mean final-tick coverage
    max_coverage: dict[int, Fraction]  # agent -> max c_i(t) over all runs
    gap: Fraction


def ergodicity_report(traces: list[Trace], depth: int) -> ErgodicityReport:
    if len(traces) < 2:
        raise LengthMismatch("ensemble statistics need at least 2 replicates")
    ticks = traces[0].ticks
    agents = traces[0].agents
    if any(t.ticks != ticks or t.agents != agents for t in traces):
        raise LengthMismatch("replicates must share tick counts and agents")
    time_averages: dict[int, list[Fraction]] = {a: [] for a in agents}
    finals: dict[int, list[Fraction]] = {a: [] for a in agents}
    max_coverage: dict[int, Fraction] = {a: Fraction(0) for a in agents}
    for trace in traces:
        series = coverage_series(trace)
        for a in agents:
            values = series[a]
            time_averages[a].append(sum(values, Fraction(0)) / len(values))
            finals[a].append(values[-1])
            max_coverage[a] = max(max_coverage[a], max(values))
    ensemble_final = {
        a: sum(finals[a], Fraction(0)) / len(finals[a]) for a in agents
    }
    gap = max(
        abs(sum(time_averages[a], Fraction(0)) / len(time_averages[a]) - ensemble_final[a])
        for a in agents
    )
    return ErgodicityReport(time_averages, ensemble_final, max_coverage, gap)


def bin_timeline(trace: Trace) -> list[tuple[int, int]]:
    """Ragged after-the-fact bins: one boundary at every tick carrying a
    theory-changing revision, covering 1..T exactly."""
    revision_ticks = sorted(
        {e.tick for e in trace.events if e.kind == "revision"}
    )
    bins = []
    start = 1
    for t in revision_ticks:
        bins.append((start, t))
        start = t + 1
    if start <= trace.ticks:
        bins.append((start, trace.ticks))
    return bins


def compare_strategies(scenario: Scenario, replicate: int = 0):
    """Run the scenario as configured and again with every agent deductive;
    report revealed-true sentences each configured agent decides True that the
    deductive twin leaves Undecidable or NotInLanguage.  `enumerate_sentences`
    refuses more than MAX_SENTENCES sentences before it builds any."""
    depth = scenario.run.depth
    deductive = replace(scenario, agents=tuple(
        replace(s, strategy=RevisionStrategy(StrategyKind.DEDUCTIVE, s.strategy.seed))
        for s in scenario.agents
    ))
    configured = run_full(scenario, replicate)
    baseline = run_full(deductive, replicate)
    here = (predicate_mask(configured.universe.actual.true),)
    revealed = configured.universe.revealed_predicates
    true = [f for f in enumerate_sentences(revealed, depth) if event_mask(f, here, 1, {})]
    gained: dict[int, list[str]] = {}
    for spec in scenario.agents:
        a = configured.agents[spec.id]
        b = baseline.agents[spec.id]
        gained[spec.id] = [
            render(f) for f in true if decide(a, f) is Truth3.TRUE
            and decide(b, f) in (Truth3.UNDECIDABLE, Truth3.NOT_IN_LANGUAGE)
        ]
    return gained


# --- persistence -------------------------------------------------------------


def export(obj, fmt: str, path) -> None:
    if isinstance(obj, Trace):
        if fmt != "jsonl":
            raise ValueError(f"unknown trace format {fmt!r}")
        header = {"agents": list(obj.agents), "depth": obj.depth, "kind": "header",
                  "ticks": obj.ticks}
        lines = [_ENCODER.encode(header)]
        lines.extend(event.to_json() for event in obj.events)
        _overwrite(path, "\n".join(lines) + "\n", None)
        return
    if isinstance(obj, ErgodicityReport):
        if fmt != "csv":
            raise ValueError("ergodicity reports export as csv")
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["agent", "mean_time_average", "ensemble_final", "max_coverage", "gap"])
        for a in sorted(obj.ensemble_final):
            mean_ta = sum(obj.time_averages[a], Fraction(0)) / len(obj.time_averages[a])
            writer.writerow([a, str(mean_ta), str(obj.ensemble_final[a]),
                             str(obj.max_coverage[a]), str(obj.gap)])
        _overwrite(path, buffer.getvalue(), "")
        return
    raise TypeError(f"cannot export {type(obj).__name__}")


def _overwrite(path, text: str, newline: str | None) -> None:
    """Write `text` over the file at `path` in place, keeping its inode and mode.
    Opening with O_TRUNC frees every block of the old file, which can stall for
    tens of milliseconds on a file system that discards freed blocks; cutting
    the file at the end of the new text, also when the write fails, frees only
    the blocks past it.  A pipe or device is not cut."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", newline=newline) as fh:
        try:
            fh.write(text)
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


def _trace_event(record: dict, path: str) -> TraceEvent:
    """The event a trace line holds: `tick` and `seq` integers >= 0, `kind` a
    string, `agent` an integer or null, `payload` an object."""
    for key in ("tick", "seq", "kind", "agent", "payload"):
        if key not in record:
            raise SchemaError(f"{path}.{key}", "required")
    tick = _integer(record["tick"], f"{path}.tick", 0)
    seq = _integer(record["seq"], f"{path}.seq", 0)
    if not isinstance(record["kind"], str):
        raise SchemaError(f"{path}.kind", "must be a string")
    if record["agent"] is not None:
        _integer(record["agent"], f"{path}.agent")
    if not isinstance(record["payload"], dict):
        raise SchemaError(f"{path}.payload", "must be an object")
    return TraceEvent(tick, seq, record["kind"], record["agent"], record["payload"])


def ingest_trace(path) -> Trace:
    events = []
    header = None
    with open(path) as fh:
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            record = parse_json(line, f"line {n}")
            if not isinstance(record, dict):
                raise SchemaError(f"line {n}", "must be an object")
            if record.get("kind") == "header":
                header = record
                continue
            events.append((n, _trace_event(record, f"line {n}")))
    if header is None:
        raise ValueError("trace file has no header line")
    for key in ("ticks", "depth"):
        if key not in header:
            raise SchemaError(f"header.{key}", "required integer")
        _integer(header[key], f"header.{key}", 0)
    agents = header.get("agents")
    if not isinstance(agents, list):
        raise SchemaError("header.agents", "must be a list of agent ids")
    for i, agent in enumerate(agents):
        _integer(agent, f"header.agents[{i}]")
    ticks = header["ticks"]
    for n, event in events:
        if not 1 <= event.tick <= ticks:
            raise SchemaError(f"line {n}.tick", f"must lie in the header's tick range 1..{ticks}")
    return Trace(
        ticks=ticks,
        depth=header["depth"],
        agents=tuple(agents),
        events=[event for _, event in events],
    )
