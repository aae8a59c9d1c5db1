"""Time and memory of `oee check`, `oee agree` and `validate_s5` on large
frame files.  Run from anywhere:

    python3 scripts/frame_scale.py

It writes frames over the full cube of 14 and of 16 predicates to a
temporary directory: agent 1 has singleton classes and agent 2 pairs of
adjacent states (bitstrings that differ in the last bit); a four-agent
variant of each adds agents 3 and 4 with singleton classes.  On each frame
it runs `oee check --formula "p0 | p1"` and `oee agree` with that formula as
the event, both at the all-zero state, and `validate_s5(frame, 2)` on the
loaded frame, each in a child process of its own.  It prints each run's
wall time and the child's own peak resident memory (`VmHWM`, read from
/proc/self/status as the child exits; the child starts afresh at exec, so
the reading does not carry this script's peak).  Linux only; standard
library only.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FORMULA = "p0 | p1"
SIZES = (14, 16)

# each child prints its own VmHWM to standard error as it exits
EXIT = """
finally:
    with open("/proc/self/status") as status:
        kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    print("VmHWM", kb, file=sys.stderr)
"""

# the CLI in the child
CLI_CHILD = """
import sys
from oee.cli import main
try:
    main(sys.argv[1:], prog_name="oee")
""" + EXIT

# validate_s5 at depth 2 on the frame file argv[1]; the failing schemes
S5_CHILD = """
import sys
from oee.frames import load_frame
from oee.multiagent import validate_s5
try:
    reports = validate_s5(load_frame(sys.argv[1]), 2)
    print(", ".join(r.name for r in reports if not r.ok) or "every scheme holds")
""" + EXIT


def frame(n: int, agents: int = 2) -> dict:
    """The frame over the cube of predicates 0..n-1: agent 1 singletons,
    agent 2 adjacent pairs, agents 3.. singletons."""
    states = [format(code, f"0{n}b") for code in range(1 << n)]
    singletons = [[bits] for bits in states]
    pairs = [states[k:k + 2] for k in range(0, len(states), 2)]
    partitions = {"1": singletons, "2": pairs}
    for agent in range(3, agents + 1):
        partitions[str(agent)] = singletons
    return {"predicates": list(range(n)), "partitions": partitions}


def write_frame(path: Path, n: int, agents: int = 2) -> Path:
    path.write_text(json.dumps(frame(n, agents)))
    return path


def run_child(child: str, args) -> tuple[float, float, str]:
    """(wall seconds, VmHWM in MiB, first output line) of one child run."""
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", child, *args], capture_output=True, text=True,
                          env={"PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"})
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    kb = next(line.split()[1] for line in proc.stderr.splitlines() if line.startswith("VmHWM"))
    return wall, int(kb) / 1024, proc.stdout.splitlines()[0]


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        event = tmp / "event.json"
        event.write_text(json.dumps({"formula": FORMULA}))
        print(f"{'frame':<24} {'command':<7} {'wall s':>7} {'VmHWM MiB':>10}  first line")
        for n in SIZES:
            for agents in (2, 4):
                path = write_frame(tmp / f"frame-{n}-{agents}.json", n, agents)
                size = path.stat().st_size / 1e6
                at = "0" * n
                for command, child, args in (
                    ("check", CLI_CHILD,
                     ["check", "--frame", str(path), "--formula", FORMULA, "--at", at]),
                    ("agree", CLI_CHILD,
                     ["agree", "--frame", str(path), "--event", str(event), "--at", at]),
                    ("s5", S5_CHILD, [str(path)]),
                ):
                    wall, mib, line = run_child(child, args)
                    label = f"2^{n}, {agents} agents ({size:.1f} MB)"
                    print(f"{label:<24} {command:<7} {wall:7.2f} {mib:10.1f}  {line[:40]}",
                          flush=True)


if __name__ == "__main__":
    main()
