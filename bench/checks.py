"""Output checks.  Each returns None when the output passes and a one-line
description of the fault otherwise; the benchmark's tests plant a wrong
value in each to show that it fires.

The checks see plain data only (see `oracles`): the workloads convert engine
objects before calling them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import oracles

S5_SCHEMES = frozenset({
    "reflection",
    "positive-introspection",
    "negative-introspection",
    "distributivity",
    "necessitation",
})
FRAMES = 353  # two-agent partition frames on <= 4 states of the 2-atom cube
QUERIES = 17_000  # (frame, event, state) triples over those frames


def models_match(engine_models, oracle_models) -> str | None:
    engine_models = set(engine_models)
    if not oracle_models:
        return "theory is inconsistent"
    if engine_models != oracle_models:
        return (f"model set differs from the oracle: engine {len(engine_models)}, "
                f"oracle {len(oracle_models)}, {len(engine_models ^ oracle_models)} disagree")
    return None


def coverage_matches(reported, language, theory_models, revealed, actual_true) -> str | None:
    expected = oracles.coverage_depth1(language, theory_models, revealed, actual_true)
    if reported is None or Fraction(reported) != expected:
        return f"coverage {reported} but the oracle counts {expected}"
    return None


def metrics_events(count: int, ticks: int, agents: int) -> str | None:
    if count != ticks * agents:
        return f"{count} metrics events for {ticks} ticks x {agents} agents"
    return None


def same_bytes(first: bytes, second: bytes, what: str) -> str | None:
    if first != second:
        return f"{what}: outputs differ ({len(first)} and {len(second)} bytes)"
    return None


def under_ceiling(max_coverage, epsilon) -> str | None:
    if Fraction(max_coverage) > 1 - Fraction(epsilon):
        return f"maximum coverage {max_coverage} exceeds 1 - {epsilon}"
    return None


def report_max_matches(report_max, trace_max) -> str | None:
    if report_max != trace_max:
        return f"ergodicity report maximum {report_max}, traces reach {trace_max}"
    return None


def observations_hold(observations, theory_models) -> str | None:
    for model in theory_models:
        for p, value in observations:
            if (p in model) != value:
                return f"observed literal p{p}={value} fails in a model"
    return None


def repair_is_minimal(predicates, before, after, observations) -> str | None:
    """`after` keeps a consistent subset of `before` plus the observed units,
    and no subset retracting fewer clauses of `before` is consistent."""
    units = [((p, v),) for p, v in sorted(observations)]
    kept = set(after)
    retracted = [i for i, c in enumerate(before) if c not in kept]
    if not oracles.consistent(predicates, list(after) + units):
        return "repair is inconsistent with the observations"
    if not retracted:
        return None
    # consistency survives retracting more clauses, so fewer means exactly one fewer
    for keep_out in combinations(range(len(before)), len(retracted) - 1):
        rest = [c for i, c in enumerate(before) if i not in keep_out]
        if oracles.consistent(predicates, rest + units):
            return (f"repair retracts {len(retracted)} clauses; "
                    f"retracting {len(keep_out)} suffices")
    return None


def s5_holds(reports) -> str | None:
    """`reports` is [(scheme name, ok)] for one partition frame."""
    names = {name for name, _ in reports}
    if names != S5_SCHEMES:
        return f"schemes checked {sorted(names)}"
    failed = sorted(name for name, ok in reports if not ok)
    if failed:
        return f"S5 schemes fail on a partition frame: {failed}"
    return None


def introspection_fails(reports) -> str | None:
    """Negative control: a non-transitive relation must fail positive
    introspection."""
    if ("positive-introspection", False) not in reports:
        return "a non-transitive relation passes positive introspection"
    return None


def agreement_matches(posteriors, common, agree, partitions, ground, event, at) -> str | None:
    """`posteriors` lists the engine's posteriors in the order of `partitions`."""
    equal = len(set(posteriors)) == 1
    if common and not equal:
        return "posterior profile is common knowledge but posteriors differ (Aumann)"
    if agree != equal:
        return f"agreement reported as {agree} for posteriors {list(map(str, posteriors))}"
    expected = [oracles.posterior(p, event, at) for p in partitions]
    if list(posteriors) != expected:
        return f"posteriors {list(map(str, posteriors))}, oracle {list(map(str, expected))}"
    if common != oracles.posterior_profile_is_common_knowledge(ground, partitions, event, at):
        return f"common knowledge of the posterior profile reported as {common}"
    return None


def counted(name: str, got: int, expected: int) -> str | None:
    if got != expected:
        return f"{got} {name}, expected {expected}"
    return None
