"""The benchmark's workloads.

Each builds its inputs from the seed (its set-up), yields the timed units of
one round, and afterwards checks what the engine returned against `oracles`
and the properties in `checks`.  An operation fails when it raises or when its
output fails a check.  The engine is driven through the `oee` modules' public
functions, looked up at call time so that the traced run can rebind them.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from functools import partial
from itertools import combinations

from oee import epistemics, harness, multiagent, revision
from oee.universe import State

import checks
import oracles


def plain_theory(theory):
    """(predicates, clauses) of an engine theory, as the oracles take them."""
    return theory.predicates, [tuple(sorted(c.literals)) for c in theory.clauses]


def engine_models(theory):
    return [s.true for s in theory.models()]


class Workload:
    """Bookkeeping shared by the workloads: operations attempted, the first
    fault of each failed operation, and whether any output was wrong (as
    opposed to raising)."""

    def __init__(self, out_dir):
        self.out = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failures: dict[str, str] = {}
        self.round_problems: list[str] = []  # faults of the round as a whole
        self.wrong_output = False

    def attempt(self, op, fn, *args):
        try:
            return fn(*args)
        except Exception as exc:  # the operation fails; the round goes on
            self.failures.setdefault(op, f"raised {exc!r}")
            return None

    def check(self, op, problem):
        if problem is not None:
            self.failures.setdefault(op, problem)
            self.wrong_output = True

    def check_round(self, problem):
        if problem is not None:
            self.round_problems.append(problem)
            self.wrong_output = True

    def hooks(self) -> dict:
        """Span name -> (before, after) callbacks for the traced run."""
        return {}


class OpenWorld(Workload):
    """The `ergodic_open` ensemble with its seed replaced: every replicate
    through `run_full` and exported as JSONL, then the ergodicity report and
    its CSV, as `oee ergodic` and `oee run` do."""

    def __init__(self, root, seed, out_dir):
        super().__init__(out_dir)
        fixture = json.loads((root / "scenarios" / "ergodic_open.json").read_text())
        pilot = json.loads((root / "scenarios" / "pilot.json").read_text())
        # the pilot measured the ceiling at the fixture seed only
        self.epsilon = Fraction(pilot["open_epsilon"]) if seed == fixture["seed"] else None
        self.scenario = harness.scenario_from_dict({**fixture, "seed": seed})
        run = self.scenario.run
        self.ops = run.ticks * run.replicates * len(self.scenario.agents)
        self.attempted = run.replicates + 1  # replicates and the report
        self.results = {}
        self.report = None
        self.coverage_calls = []  # (operation, agent, revealed, actual, depth, result)
        self.current = None

    def units(self):
        for r in range(self.scenario.run.replicates):
            yield f"replicate {r}", partial(self._replicate, r)
        yield "report", self._report

    def _replicate(self, r):
        op = self.current = f"replicate {r}"
        result = self.attempt(op, harness.run_full, self.scenario, r)
        if result is not None:
            self.attempt(op, harness.export, result.trace, "jsonl", self.out / f"{op}.jsonl")
            self.results[r] = result

    def _report(self):
        self.current = "report"
        traces = [self.results[r].trace for r in sorted(self.results)]
        self.report = self.attempt("report", harness.ergodicity_report, traces,
                                   self.scenario.run.depth)
        if self.report is not None:
            self.attempt("report", harness.export, self.report, "csv", self.out / "report.csv")

    def hooks(self):
        def record(args, kwargs, result):
            self.coverage_calls.append((self.current, *args, result))

        return {"harness.coverage": (None, record)}

    def verify(self):
        ticks = self.scenario.run.ticks
        agents = [spec.id for spec in self.scenario.agents]
        trace_max = {a: Fraction(0) for a in agents}
        for r, result in sorted(self.results.items()):
            op = f"replicate {r}"
            metrics = [e for e in result.trace.events if e.kind == "metrics"]
            self.check(op, checks.metrics_events(len(metrics), ticks, len(agents)))
            final = {e.agent: e.payload["coverage"] for e in metrics if e.tick == ticks}
            universe = result.universe
            for a in agents:
                theory = result.agents[a].theory
                expected = oracles.models(*plain_theory(theory))
                self.check(op, checks.models_match(engine_models(theory), expected))
                self.check(op, checks.coverage_matches(
                    final.get(a), theory.predicates, expected,
                    universe.revealed_predicates, universe.actual.true))
            for e in metrics:
                trace_max[e.agent] = max(trace_max[e.agent], Fraction(e.payload["coverage"]))
            if self.epsilon is not None:
                worst = max(Fraction(e.payload["coverage"]) for e in metrics)
                self.check(op, checks.under_ceiling(worst, self.epsilon))
            if r == 0:
                again = self.out / f"{op} again.jsonl"
                trace = self.attempt(op, harness.run, self.scenario, r)
                if trace is not None:
                    harness.export(trace, "jsonl", again)
                    self.check(op, checks.same_bytes(
                        (self.out / f"{op}.jsonl").read_bytes(), again.read_bytes(),
                        "re-run of replicate 0"))
        if self.report is not None and len(self.results) == self.scenario.run.replicates:
            for a in agents:
                self.check("report", checks.report_max_matches(
                    self.report.max_coverage[a], trace_max[a]))
        self._verify_coverage_calls()

    def _verify_coverage_calls(self):
        """Every traced `coverage_fraction` call against the oracle."""
        cached = {}
        for op, agent, revealed, actual, depth, result in self.coverage_calls:
            predicates, clauses = plain_theory(agent.theory)
            key = (predicates, tuple(clauses))
            if key not in cached:
                if len(cached) == 4:  # theories repeat over an agent's consecutive ticks
                    del cached[next(iter(cached))]
                cached[key] = oracles.models(predicates, clauses)
            self.check(op, checks.counted("sentence depth", depth, 1))
            self.check(op, checks.coverage_matches(
                result, predicates, cached[key], revealed, actual.true))

    def digest(self):
        h = hashlib.sha256()
        for r in sorted(self.results):
            h.update((self.out / f"replicate {r}.jsonl").read_bytes())
        if self.report is not None:
            h.update((self.out / "report.csv").read_bytes())
        return h.hexdigest()


# label, strategy, visibility, ticks per run, runs.  Per tick the random
# strategy costs about 3 and the aesthetic one about 20 times what the
# deductive one does at visibility 1; each of those four takes a sixth to two
# fifths of the round.  Many short runs on distinct worlds keep the round's cost steady from
# seed to seed.  At visibility 1 a deductive agent observes every predicate on
# every tick, so each of its repairs is forced; at 1/2 it keeps clauses it
# does not observe again, and the minimality check has a choice to judge.
STRATEGIES = (
    ("deductive", "deductive", "1", 30, 16),
    ("deductive_partial", "deductive", "1/2", 30, 16),
    ("heuristic", "heuristic", "1/2", 20, 20),
    ("random", "random", "1/2", 10, 24),
    ("aesthetic", "aesthetic", "1/2", 3, 8),
)


class RepairSearch(Workload):
    """Single-agent runs per revision strategy on closed worlds (no
    emergence, 8 predicates) drawn from the seed.  The agents are contradicted
    on most ticks, so repair search and candidate ranking dominate; a growing
    vocabulary would make run costs heavy-tailed across seeds, and growth is
    what `open_world` measures."""

    def __init__(self, root, seed, out_dir):
        super().__init__(out_dir)
        rng = random.Random(seed)
        self.scenarios = {}
        for label, kind, visibility, ticks, runs in STRATEGIES:
            world = rng.getrandbits(31)
            self.scenarios[label] = harness.scenario_from_dict({
                "seed": world,
                "weights": ["3/5", "2/5", "0"],
                "initial_predicates": 8,
                "agents": [{"id": 1, "niche": [0, 1], "visibility": visibility,
                            "strategy": kind, "strategy_seed": world}],
                "run": {"ticks": ticks, "depth": 1, "replicates": runs},
            })
        self.ops = sum(ticks * runs for *_, ticks, runs in STRATEGIES)
        self.attempted = sum(runs for *_, runs in STRATEGIES)
        self.results = {}
        self.repairs = []  # (operation, theory before, observations, repair) of deductive agents
        self.current = None

    def units(self):
        for label, scenario in self.scenarios.items():
            for r in range(scenario.run.replicates):
                yield f"{label} {r}", partial(self._run, f"{label} {r}", scenario, r)

    def _run(self, op, scenario, r):
        self.current = op
        result = self.attempt(op, harness.run_full, scenario, r)
        if result is not None:
            self.results[op] = result

    def hooks(self):
        def record(args, kwargs, result):
            agent, conflict, strategy = args[:3]
            if strategy.kind is revision.StrategyKind.DEDUCTIVE:
                self.repairs.append((self.current, agent.theory, frozenset(conflict), result[0]))

        return {"revision.repair": (None, record)}

    def verify(self):
        for op, result in sorted(self.results.items()):
            agent = result.agents[1]
            expected = oracles.models(*plain_theory(agent.theory))
            self.check(op, checks.models_match(engine_models(agent.theory), expected))
            self.check(op, checks.observations_hold(agent.observations, expected))
        for op, before, conflict, repair in self.repairs:
            predicates, after = plain_theory(repair)
            self.check(op, checks.repair_is_minimal(
                predicates, plain_theory(before)[1], after, conflict))

    def digest(self):
        h = hashlib.sha256()
        for op, result in sorted(self.results.items()):
            path = self.out / f"{op}.jsonl"
            harness.export(result.trace, "jsonl", path)
            h.update(path.read_bytes())
        return h.hexdigest()


def set_partitions(elements):
    """Every partition of `elements` into nonempty frozensets."""
    if not elements:
        yield []
        return
    first, *rest = elements
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] | {first}] + part[i + 1:]
        yield part + [frozenset({first})]


class PartitionFrames(Workload):
    """Every two-agent partition frame on at most 4 states of a 2-atom cube.
    The seed picks the atoms, the agent ids and the frame order."""

    def __init__(self, root, seed, out_dir):
        super().__init__(out_dir)
        rng = random.Random(seed)
        atoms = rng.sample(range(16), 2)
        self.agents = rng.sample(range(1, 64), 2)
        domain = frozenset(atoms)
        # state code: bit k set when atoms[k] is true
        self.state = {
            code: State(domain, frozenset(p for k, p in enumerate(atoms) if code >> k & 1))
            for code in range(4)
        }
        plain = [
            (ground, p1, p2)
            for size in range(1, 5)
            for ground in combinations(range(4), size)
            for p1 in set_partitions(list(ground))
            for p2 in set_partitions(list(ground))
        ]
        rng.shuffle(plain)
        self.frames = []
        for ground, p1, p2 in plain:
            states = frozenset(self.state[c] for c in ground)
            frame = multiagent.frame_from_partitions(domain, states, {
                agent: epistemics.partition_from_classes(
                    states, [frozenset(self.state[c] for c in cls) for cls in classes])
                for agent, classes in zip(self.agents, (p1, p2))
            })
            self.frames.append((ground, (p1, p2), frame))


class AgreementSweep(PartitionFrames):
    """`agreement_check` for every event at every state of every frame."""

    def __init__(self, root, seed, out_dir):
        super().__init__(root, seed, out_dir)
        self.queries = [
            [(frozenset(event), at)
             for k in range(len(ground) + 1)
             for event in combinations(ground, k)
             for at in ground]
            for ground, *_ in self.frames
        ]
        self.ops = self.attempted = sum(map(len, self.queries))
        self.agreement = {}

    def units(self):
        for i in range(len(self.frames)):
            yield f"agreement {i}", partial(self._agreement, i)

    def _agreement(self, i):
        frame = self.frames[i][2]
        for q, (event, at) in enumerate(self.queries[i]):
            report = self.attempt(
                f"query {i}.{q}", multiagent.agreement_check, frame,
                frozenset(self.state[c] for c in event), self.state[at])
            if report is not None:
                self.agreement[i, q] = report

    def verify(self):
        self.check_round(checks.counted("frames", len(self.queries), checks.FRAMES))
        self.check_round(checks.counted("queries", self.ops, checks.QUERIES))
        for (i, q), report in sorted(self.agreement.items()):
            ground, partitions, _ = self.frames[i]
            event, at = self.queries[i][q]
            self.check(f"query {i}.{q}", checks.agreement_matches(
                [report.posteriors[a] for a in self.agents],
                report.common_knowledge_of_posteriors, report.agree,
                partitions, ground, event, at))

    def digest(self):
        h = hashlib.sha256()
        for key, report in sorted(self.agreement.items()):
            posteriors = [str(report.posteriors[a]) for a in self.agents]
            h.update(repr((key, posteriors, report.common_knowledge_of_posteriors,
                           report.agree)).encode())
        return h.hexdigest()


class S5Sweep(PartitionFrames):
    """`validate_s5` at depth 2 on every frame, and a non-transitive relation
    as the negative control."""

    def __init__(self, root, seed, out_dir):
        super().__init__(root, seed, out_dir)
        self.ops = len(self.frames)
        self.attempted = self.ops + 1  # frames and the negative control
        self.s5 = {}

    def units(self):
        for i in range(len(self.frames)):
            yield f"s5 {i}", partial(self._s5, i)

    def _s5(self, i):
        reports = self.attempt(f"frame {i}", multiagent.validate_s5, self.frames[i][2], 2)
        if reports is not None:
            self.s5[i] = reports

    def verify(self):
        self.check_round(checks.counted("frames", self.ops, checks.FRAMES))
        for i, reports in sorted(self.s5.items()):
            self.check(f"frame {i}", checks.s5_holds([(r.name, r.ok) for r in reports]))
        w1, w2, w3 = self.state[1], self.state[2], self.state[0]
        control = self.attempt(
            "negative control", multiagent.validate_relation, {w1, w2, w3},
            {w1: {w1, w2}, w2: {w2, w3}, w3: {w3}}, [self.agents[0]],
            self.state[3].domain, 2)
        if control is not None:
            self.check("negative control",
                       checks.introspection_fails([(r.name, r.ok) for r in control]))

    def digest(self):
        h = hashlib.sha256()
        for i, reports in sorted(self.s5.items()):
            h.update(repr((i, [(r.name, r.ok) for r in reports])).encode())
        return h.hexdigest()


WORKLOADS = {
    "open_world": OpenWorld,
    "repair_search": RepairSearch,
    "agreement_sweep": AgreementSweep,
    "s5_sweep": S5Sweep,
}
