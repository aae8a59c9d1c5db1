"""Command-line entry points.

Exit codes: 0 success, 1 domain error (parse failures, ground mismatches,
missing events), 2 usage or configuration error (bad flags, invalid scenario
or frame files).
"""

from __future__ import annotations

import sys

import click

from .formula import parse, render
from .harness import (
    SchemaError,
    bin_timeline,
    compare_strategies,
    ergodicity_report,
    export,
    ingest_trace,
    load_scenario,
    run,
)
from .multiagent import FailsAt, Holds, Infeasible, agreement_check, common_knowledge
from .universe import ConfigError

_CONFIG_ERRORS = (SchemaError, ConfigError)
_DOMAIN_ERRORS = (ValueError, OSError)


def _guard(fn):
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except _CONFIG_ERRORS as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except _DOMAIN_ERRORS as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


@click.group()
def main():
    """Epistemic-logic engine and open-ended-evolution simulator."""


@main.command("parse")
@click.argument("formula")
@_guard
def parse_cmd(formula):
    """Parse a formula and print its canonical rendering."""
    click.echo(render(parse(formula)))


def _load_frame_at(frame_path, at):
    from .frames import load_frame, state_from_bits

    frame = load_frame(frame_path)
    return frame, state_from_bits(at, frame.shared_predicates)


@main.command("check")
@click.option("--frame", "frame_path", required=True, type=click.Path(exists=True))
@click.option("--formula", required=True)
@click.option("--at", required=True, help="evaluation state as a bitstring")
@_guard
def check_cmd(frame_path, formula, at):
    """Check common knowledge of a formula at a state."""
    frame, state = _load_frame_at(frame_path, at)
    result = common_knowledge(frame, parse(formula), state)
    if isinstance(result, Holds):
        click.echo("holds")
    elif isinstance(result, FailsAt):
        states = ",".join(sorted(s.bits() for s in result.states))
        click.echo(f"fails-at {states}")
    elif isinstance(result, Infeasible):
        missing = ",".join(f"p{p}" for p in sorted(result.missing))
        click.echo(f"infeasible missing={missing}")


@main.command("run")
@click.option("--scenario", "scenario_path", required=True, type=click.Path(exists=True))
@click.option("--replicate", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--out", "out_path", required=True, type=click.Path())
@_guard
def run_cmd(scenario_path, replicate, out_path):
    """Run one replicate and write the JSONL trace."""
    scenario = load_scenario(scenario_path)
    trace = run(scenario, replicate)
    export(trace, "jsonl", out_path)
    click.echo(f"wrote {len(trace.events)} events to {out_path}")


@main.command("agree")
@click.option("--frame", "frame_path", required=True, type=click.Path(exists=True))
@click.option("--event", "event_path", required=True, type=click.Path(exists=True))
@click.option("--at", required=True, help="evaluation state as a bitstring")
@_guard
def agree_cmd(frame_path, event_path, at):
    """Run the agreement experiment for an event at a state."""
    from .frames import load_event

    frame, state = _load_frame_at(frame_path, at)
    event = load_event(event_path, frame)
    report = agreement_check(frame, event, state)
    for agent in sorted(report.posteriors):
        click.echo(f"posterior[{agent}] = {report.posteriors[agent]}")
    click.echo(f"common-knowledge-of-posteriors: {str(report.common_knowledge_of_posteriors).lower()}")
    click.echo(f"agree: {str(report.agree).lower()}")


@main.command("ergodic")
@click.option("--scenario", "scenario_path", required=True, type=click.Path(exists=True))
@click.option("--replicates", default=None, type=click.IntRange(min=2),
              help="override scenario replicate count")
@click.option("--out", "out_path", required=True, type=click.Path())
@_guard
def ergodic_cmd(scenario_path, replicates, out_path):
    """Run an ensemble and write the ergodicity report."""
    scenario = load_scenario(scenario_path)
    n = replicates if replicates is not None else scenario.run.replicates
    if n < 2:
        raise SchemaError("run.replicates", "an ensemble needs at least 2 replicates")
    traces = [run(scenario, r) for r in range(n)]
    report = ergodicity_report(traces, scenario.run.depth)
    export(report, "csv", out_path)
    worst = max(report.max_coverage.values())
    click.echo(f"gap: {report.gap}")
    click.echo(f"max coverage: {worst}")
    click.echo(f"wrote {out_path}")


@main.command("compare-search")
@click.option("--scenario", "scenario_path", required=True, type=click.Path(exists=True))
@click.option("--replicate", default=0, show_default=True, type=click.IntRange(min=0))
@_guard
def compare_search_cmd(scenario_path, replicate):
    """Compare each configured strategy against a deductive twin."""
    scenario = load_scenario(scenario_path)
    gained = compare_strategies(scenario, replicate)
    for agent in sorted(gained):
        sentences = gained[agent]
        click.echo(f"agent {agent}: {len(sentences)} sentence(s) gained")
        for text in sentences[:10]:
            click.echo(f"  {text}")


@main.command("bins")
@click.option("--trace", "trace_path", required=True, type=click.Path(exists=True))
@_guard
def bins_cmd(trace_path):
    """Print the ragged revision-aligned time bins of a trace."""
    trace = ingest_trace(trace_path)
    for start, end in bin_timeline(trace):
        click.echo(f"{start}-{end}")


if __name__ == "__main__":
    main()
