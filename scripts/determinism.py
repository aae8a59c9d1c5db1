"""Run the three pinned fixtures under each named interpreter and print the
SHA-256 of each JSONL trace, marked against the digest pinned in
`scenarios/pilot.json`.  Run from anywhere:

    python3 scripts/determinism.py PYTHON [PYTHON ...]

Each PYTHON is the name or path of an interpreter (3.10 or later), looked up
once on PATH; it needs only the standard library, since the engine's run path
imports no third-party module.  Exits 1 when a digest differs from its pin or
an interpreter is not found or fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# run in the named interpreter: the digest of replicate 0 of each fixture
CHILD = """
import hashlib, json, sys, tempfile
from pathlib import Path
from oee.harness import export, load_scenario, run
with tempfile.TemporaryDirectory() as out:
    for name in sys.argv[2:]:
        path = Path(out) / (name + ".jsonl")
        export(run(load_scenario(Path(sys.argv[1]) / (name + ".json")), 0), "jsonl", path)
        print(name, hashlib.sha256(path.read_bytes()).hexdigest())
"""


def digests(python: str, names) -> dict[str, str]:
    """Fixture name -> trace digest under the interpreter `python`."""
    proc = subprocess.run(
        [python, "-c", CHILD, str(ROOT / "scenarios"), *names],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"},
    )
    return dict(line.split() for line in proc.stdout.splitlines())


def main(argv) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    pinned = json.loads((ROOT / "scenarios" / "pilot.json").read_text())["trace_sha256"]
    status = 0
    for name in argv:
        # one absolute path for both calls: the digest child's environment
        # has no PATH, so it would look a bare name up elsewhere
        python = shutil.which(name)
        if python is None:
            print(f"{name}: not found")
            status = 1
            continue
        python = str(Path(python).absolute())
        try:
            version = subprocess.run([python, "-c", "import platform; print(platform.python_version())"],
                                     capture_output=True, text=True, check=True).stdout.strip()
            got = digests(python, sorted(pinned))
        except (OSError, subprocess.CalledProcessError) as exc:
            print(f"{python}: failed: {getattr(exc, 'stderr', None) or exc}")
            status = 1
            continue
        for name in sorted(pinned):
            same = got.get(name) == pinned[name]
            status |= not same
            print(f"{version}\t{name}\t{got.get(name)}\t{'pinned' if same else 'DIFFERS'}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
