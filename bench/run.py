"""Benchmark of the oee engine.  Run from the repository root:

    python3 bench/run.py --workload open_world [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all

Each round of a workload runs in a fresh single-threaded process
(`child.py`).  Rounds repeat the same inputs, and another starts only while
the longest round so far, without its checks, still fits in `--seconds` (the
`run_seconds` of BENCHMARK.json, which the benchmark's callers pass on every
run).  The first round checks its outputs; every later one must produce the
same output digest.  Times are calibrated against a probe run between the
units (see child.py), and each timed unit counts at its median over the rounds.
Set-up time is the median over the rounds and SETUP_SAMPLES processes that
only set up.  With `--trace 1` the command instead runs one untraced and one
traced round and reports the per-layer metrics.  The last line of standard
output is one JSON object; progress and faults go to standard error.  See
README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT_S = 170  # a run ends before 180 s
SETUP_SAMPLES = 5


ENV = {**os.environ, "PYTHONHASHSEED": "0"}


def compile_sources():
    """Every round then reads the same cached bytecode."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src/oee", "bench"],
                   env=ENV, cwd=ROOT, check=True, capture_output=True)


def round_in_child(workload, seed, mode, deadline):
    """One child process in `mode` (see child.py); its JSON result."""
    out_dir = ROOT / ".bench_out" / workload
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), workload, str(seed), mode,
         repr(spawned_at), str(out_dir)],
        capture_output=True, text=True, env=ENV, cwd=ROOT,
        timeout=max(1.0, deadline - spawned_at),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} round failed:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["wall_s"] = time.monotonic() - spawned_at
    for problem in result.get("problems", ()):
        print(f"{workload}: {problem}", file=sys.stderr)
    return result


def summary(rounds):
    """Counts shared by both modes; outputs must be identical in every round."""
    return {
        "correct": all(r["correct"] for r in rounds)
        and len({r["digest"] for r in rounds}) == 1,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
    }


def measure(workload, seed, seconds, deadline):
    started = time.monotonic()
    setups = [round_in_child(workload, seed, "setup", deadline)
              for _ in range(SETUP_SAMPLES)]
    rounds = [round_in_child(workload, seed, "verify", deadline)]
    while True:
        next_end = time.monotonic() + max(r["wall_s"] - r["check_s"] for r in rounds)
        if next_end > min(started + seconds, deadline):
            break
        rounds.append(round_in_child(workload, seed, "time", deadline))

    def per_unit(key):
        """Each unit's median over the rounds.  The fastest of many rounds
        would read faster the more rounds a run fits in."""
        return {unit: statistics.median(r[key][unit] for r in rounds) for unit in rounds[0][key]}

    wall, calibrated = per_unit("units"), per_unit("calibrated")
    by_kind = {}
    for unit, t in calibrated.items():
        kind = unit.split()[0]
        by_kind[kind] = by_kind.get(kind, 0.0) + t
    print(f"{workload}: {len(rounds)} rounds; probe median ms "
          f"{[round(r['probe_s'] * 1e3, 3) for r in rounds]}; wall-clock ops/s "
          f"{rounds[0]['ops'] / sum(wall.values()):.2f}; wall-clock setup s "
          f"{[round(r['setup_s'], 3) for r in setups + rounds]}; calibrated s by unit kind "
          + ", ".join(f"{k} {v:.3f}" for k, v in by_kind.items()), file=sys.stderr)
    metrics = {
        "ops_per_s": rounds[0]["ops"] / sum(calibrated.values()),
        "setup_s": statistics.median(r["calibrated_setup_s"] for r in setups + rounds),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in rounds),
    }
    return summary(rounds), metrics


def traced(workload, seed, deadline):
    plain = round_in_child(workload, seed, "verify", deadline)
    with_spans = round_in_child(workload, seed, "trace", deadline)
    layers = with_spans["layers"]
    untraced, traced_s = (sum(r["calibrated"].values()) for r in (plain, with_spans))
    layers["tracing.overhead_s"] = traced_s - untraced
    print(f"{workload}: calibrated seconds untraced {untraced:.3f}, traced {traced_s:.3f}; "
          f"wall-clock {plain['timed_s']:.3f} and {with_spans['timed_s']:.3f}", file=sys.stderr)
    return summary([plain, with_spans]), layers


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "oee" / "__init__.py").is_file() or not spec_path.is_file():
        print("bench: run from a checkout of the oee repository (src/oee and "
              "BENCHMARK.json not found)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    fixture_seed = json.loads((ROOT / "scenarios" / "ergodic_open.json").read_text())["seed"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=fixture_seed,
                        help=f"workload seed (default: the fixture seed {fixture_seed})")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        status = 0
        for name in names:
            status |= subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
        return status

    deadline = time.monotonic() + TIME_LIMIT_S
    compile_sources()
    if args.trace:
        result, values = traced(args.workload, args.seed, deadline)
        listed = spec["per_layer"]
    else:
        result, values = measure(args.workload, args.seed, args.seconds, deadline)
        listed = spec["end_to_end"]
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in listed}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
