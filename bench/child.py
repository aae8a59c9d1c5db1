"""One round of one workload in a fresh process; `run.py` starts it.

    python3 bench/child.py WORKLOAD SEED MODE SPAWNED_AT OUT_DIR

MODE is `setup` (set up the inputs, report the set-up time and stop),
`time` (run the units and check nothing, but report the digest of the
outputs, which the parent compares with a checked round's), `verify` (run
and check) or `trace` (run with spans recorded, and check).  SPAWNED_AT is
the parent's `time.monotonic()` just before the start, so that set-up time
covers interpreter start, imports, fixture load and input construction.
Prints one JSON object.

Between timed units the round runs a probe: a fixed piece of pure Python
that uses no engine code.  On a shared machine the speed of one CPU drifts by
up to 2x within a minute; the probe slows down with it, so a unit's time
divided by the probe time around it measures the engine in units that the
drift cancels from.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_PROBE_S = 0.001  # calibrated times read as seconds on a CPU that runs the probe in 1 ms
PROBE_EVERY_S = 0.1
PROBES_PER_BURST = 10


def probe_once() -> float:
    t = time.perf_counter()
    seen = {}
    for i in range(2000):
        key = frozenset((i % 7, i % 11, i % 13))
        seen[key] = seen.get(key, 0) + len(key)
    return time.perf_counter() - t


def probe() -> float:
    return statistics.median(probe_once() for _ in range(PROBES_PER_BURST))


def calibrated(seconds, before, after):
    return seconds * REFERENCE_PROBE_S / statistics.mean((before, after))


def main(argv) -> int:
    name, seed, mode, spawned_at, out_dir = argv[1:]
    t = time.monotonic()
    first_probe = probe()
    probe_cost = time.monotonic() - t
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    out_dir = Path(out_dir)
    workload = WORKLOADS[name](ROOT, int(seed), out_dir)
    units = list(workload.units())
    tracer = None
    if mode == "trace":
        from tracer import Tracer, instrument

        tracer = Tracer()
        restore = instrument(tracer, workload.hooks())
    setup_s = time.monotonic() - float(spawned_at) - probe_cost

    probes = [probe()]
    setup = {"setup_s": setup_s,
             "calibrated_setup_s": calibrated(setup_s, first_probe, probes[0])}
    if mode == "setup":
        print(json.dumps(setup))
        return 0
    timed = []  # (unit, seconds, index of the last probe before it)
    last_probe = time.perf_counter()
    for key, unit in units:
        t = time.perf_counter()
        unit()
        done = time.perf_counter()
        timed.append((key, done - t, len(probes) - 1))
        if done - last_probe >= PROBE_EVERY_S:
            probes.append(probe())
            last_probe = time.perf_counter()
    probes.append(probe())
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = dict(setup)
    if tracer is not None:
        from tracer import layer_metrics

        restore()
        result["layers"] = layer_metrics(tracer)
        tracer.write(out_dir / "spans.tsv")
    t = time.monotonic()
    if mode != "time":
        workload.verify()
    result["check_s"] = time.monotonic() - t
    result.update({
        "units": {key: seconds for key, seconds, _ in timed},
        "calibrated": {key: calibrated(seconds, probes[i], probes[i + 1])
                       for key, seconds, i in timed},
        "probe_s": statistics.median(probes),
        "ops": workload.ops,
        "timed_s": sum(seconds for _, seconds, _ in timed),
        "peak_rss_mib": peak_rss_mib,
        "attempted": workload.attempted,
        "failed": len(workload.failures),
        "correct": not workload.wrong_output,
        "problems": workload.round_problems + [
            f"{op}: {problem}" for op, problem in list(workload.failures.items())[:20]],
        "digest": workload.digest(),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
