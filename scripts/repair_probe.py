"""The large-vocabulary repair probe as one table.  Run from anywhere:

    python3 scripts/repair_probe.py [--n 120 160 200] [--replicates 0 1 2 3]
                                    [--strategies heuristic] [--cap 120]

The probe is seed 5 with weights 1/2, 1/4, 1/4 over n initial predicates and
100 ticks: a deductive agent with the first half of the predicates as its
niche and a second agent, of each named strategy, with the middle half, both
at visibility 1/2 (`LARGE_VOCABULARY_PROBE` in tests/test_repair_search.py
is the case n = 120).  Each (n, replicate, strategy) runs in a child process
of its own, one at a time, killed once it passes `--cap` seconds of wall
time.  A row describes the run's refused repair search, or else the search
a level walk would have found hardest, the one with the largest walk:

- pool / falsified / open: the suspect clauses, those the observation
  falsifies, and those it leaves open (neither satisfied nor falsified);
- components (largest) / unsat: the open clauses split into connected
  components by shared predicate, the size of the largest, and how many
  are unsatisfiable;
- first -> last: the smallest and largest retraction among the candidates;
- exact pool: the number of candidates ranked;
- walk: the retraction sets a walk of every subset of the optional suspects
  would have tried, level by level up to the last;
- the child's wall time, its own peak resident memory (`VmHWM`, read from
  /proc/self/status as it exits) and the run's outcome.

A refused search leaves the level columns empty, and its outcome is the
RepairLimit message.  Linux only; standard library only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def scenario(n: int, strategy: str) -> dict:
    """The probe over n initial predicates, its second agent of `strategy`."""
    half = n // 2
    return {
        "seed": 5, "weights": ["1/2", "1/4", "1/4"], "initial_predicates": n,
        "agents": [
            {"id": 1, "niche": list(range(half)), "visibility": "1/2", "strategy": "deductive"},
            {"id": 2, "niche": list(range(n // 4, n // 4 + half)), "visibility": "1/2",
             "strategy": strategy},
        ],
        "run": {"ticks": 100, "depth": 1, "replicates": 4},
    }


def search_shape(agent, conflict) -> dict:
    """The suspect pool of one repair search and its split into components."""
    from oee import revision
    from oee.universe import literal_masks, mask_bits, residues, satisfiable

    clauses = agent.theory.clauses
    falsified, residue = residues(clauses, dict(conflict))
    true, false = literal_masks(conflict)
    suspects = revision._suspects(clauses, true | false)
    optional = [i for i in mask_bits(suspects) if i not in falsified]
    open_ = [i for i in optional if i in residue]
    components = revision._components(residue, open_)
    return {
        "pool": suspects.bit_count(), "falsified": len(falsified), "open": len(open_),
        "optional": len(optional), "components": len(components),
        "largest": max(map(len, components), default=0),
        "unsat": sum(not satisfiable([residue[i] for i in c]) for c in components),
    }


def child(n: int, replicate: int, strategy: str) -> dict:
    """Run one replicate of the probe, watching its repair searches."""
    from oee import harness, revision

    propose, ranked = revision.propose_revisions, revision._ranked
    seen = {}  # the exact pool and levels of the search in progress
    kept = {}  # the search with the largest walk so far, or the refused one

    def watch_ranked(candidates, score, tie):
        sizes = [c.bit_count() for c in candidates]
        seen.update(exact=len(candidates), first=min(sizes), last=max(sizes))
        return ranked(candidates, score, tie)

    def watch_propose(agent, conflict, strategy, budget):
        seen.clear()
        revision._ranked = watch_ranked  # bridging ranks clauses through it too
        try:
            out = propose(agent, conflict, strategy, budget)
        except revision.RepairLimit as exc:
            kept.clear()
            kept.update(search_shape(agent, frozenset(conflict)), outcome=f"RepairLimit: {exc}")
            raise
        finally:
            revision._ranked = ranked
        if seen:
            row = {**search_shape(agent, frozenset(conflict)), **seen}
            if not kept or walk(row) > walk(kept):
                kept.clear()
                kept.update(row)
        return out

    revision.propose_revisions = watch_propose
    try:
        harness.run_full(harness.scenario_from_dict(scenario(n, strategy)), replicate)
        kept.setdefault("outcome", "finished")
    except revision.RepairLimit:
        pass
    finally:
        with open("/proc/self/status") as status:
            kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    kept["vmhwm_mib"] = int(kb) / 1024
    return kept


def probe(n: int, replicate: int, strategy: str, cap: float) -> dict:
    """One child's row, its wall time included; a child past `cap` seconds is
    killed and reported as such."""
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, __file__, "--child", str(n), str(replicate), strategy],
            capture_output=True, text=True, timeout=cap,
            env={"PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"},
        )
    except subprocess.TimeoutExpired:
        return {"outcome": f"killed after {cap:g} s", "wall_s": time.perf_counter() - started}
    if proc.returncode != 0:
        raise RuntimeError(f"n={n} replicate {replicate} {strategy} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    row = json.loads(proc.stdout.splitlines()[-1])
    row["wall_s"] = time.perf_counter() - started
    return row


def walk(row: dict) -> int:
    """The sets a level walk tries up to the row's last level."""
    return sum(comb(row["optional"], k) for k in range(row["last"] - row["falsified"] + 1))


HEADER = (f"{'n':>4} {'rep':>3} {'strategy':<10} {'pool/fals/open':>15} {'comp (max)/unsat':>16} "
          f"{'first->last':>11} {'exact':>7} {'walk':>8} {'time s':>7} {'VmHWM':>6}  outcome")


def line(n: int, replicate: int, strategy: str, row: dict) -> str:
    shape = comps = levels = exact = visits = hwm = ""
    if "pool" in row:
        shape = f"{row['pool']}/{row['falsified']}/{row['open']}"
        comps = f"{row['components']} ({row['largest']})/{row['unsat']}"
    if "first" in row:
        levels = f"{row['first']}->{row['last']}"
        exact = f"{row['exact']:,}"
        visits = f"{walk(row):.1e}"
    if "vmhwm_mib" in row:
        hwm = f"{row['vmhwm_mib']:.1f}"
    return (f"{n:>4} {replicate:>3} {strategy:<10} {shape:>15} {comps:>16} {levels:>11} "
            f"{exact:>7} {visits:>8} {row['wall_s']:7.2f} {hwm:>6}  {row['outcome']}")


def main(argv) -> int:
    if argv[:1] == ["--child"]:
        n, replicate, strategy = argv[1:]
        print(json.dumps(child(int(n), int(replicate), strategy)))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="+", default=[120, 160, 200])
    parser.add_argument("--replicates", type=int, nargs="+", default=[0, 1, 2, 3])
    parser.add_argument("--strategies", nargs="+", default=["heuristic"],
                        choices=["deductive", "random", "heuristic", "aesthetic"])
    parser.add_argument("--cap", type=float, default=120.0,
                        help="wall-clock seconds after which a child is killed")
    args = parser.parse_args(argv)
    print(HEADER, flush=True)
    for n in args.n:
        for replicate in args.replicates:
            for strategy in args.strategies:
                print(line(n, replicate, strategy, probe(n, replicate, strategy, args.cap)),
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
