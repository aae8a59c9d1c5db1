"""Frame and event files for the multi-agent CLI commands.

A frame file describes a closed-mode shared frame explicitly:

    {
      "predicates": [0, 1],
      "partitions": {"1": [["00", "01"], ["10", "11"]],
                     "2": [["00", "10"], ["01", "11"]]},
      "ground": ["00", "01", "10", "11"]        // optional, defaults to all
    }

States are bitstrings over the sorted predicate list.  An event file holds
either {"formula": "p0"} or {"states": ["00", "11"]}.
"""

from __future__ import annotations

import re
from pathlib import Path

from .epistemics import partition_from_classes
from .harness import SchemaError, _integer, _known_keys, parse_json
from .multiagent import SharedFrame, frame_from_partitions, full_cube
from .universe import State


def state_from_bits(bits: str, predicates) -> State:
    preds = sorted(predicates)
    if len(bits) != len(preds) or any(b not in "01" for b in bits):
        raise SchemaError("state", f"expected {len(preds)} bits, got {bits!r}")
    return State(
        frozenset(preds), frozenset(p for p, b in zip(preds, bits) if b == "1")
    )


def _states(raw, predicates, path: str) -> frozenset[State]:
    if not isinstance(raw, list) or not all(isinstance(b, str) for b in raw):
        raise SchemaError(path, "must be a list of bitstrings")
    return frozenset(state_from_bits(b, predicates) for b in raw)


_FRAME_KEYS = ("predicates", "partitions", "ground")
_EVENT_KEYS = ("states", "formula")
# an agent id as `str(int)` writes it, so no two keys name one agent
_AGENT_KEY = re.compile(r"0|-?[1-9][0-9]*")


def load_frame(path) -> SharedFrame:
    data = parse_json(Path(path).read_text())
    if not isinstance(data, dict):
        raise SchemaError("$", "frame must be an object")
    _known_keys(data, _FRAME_KEYS, "")
    predicates = data.get("predicates")
    if not isinstance(predicates, list) or not all(
        isinstance(p, int) and not isinstance(p, bool) for p in predicates
    ):
        raise SchemaError("predicates", "must be a list of predicate indices")
    seen = set()
    for i, p in enumerate(predicates):
        if _integer(p, f"predicates[{i}]", minimum=0) in seen:
            raise SchemaError("predicates", f"repeats predicate {p}")
        seen.add(p)
    raw_partitions = data.get("partitions")
    if not isinstance(raw_partitions, dict) or not raw_partitions:
        raise SchemaError("partitions", "must map agent ids to class lists")
    if "ground" in data:
        ground = _states(data["ground"], predicates, "ground")
    else:
        try:
            ground = full_cube(predicates)
        except ValueError as exc:
            raise SchemaError("predicates", str(exc))
    partitions = {}
    for key, classes in raw_partitions.items():
        if not _AGENT_KEY.fullmatch(key):
            raise SchemaError(f"partitions.{key}", "agent id must be a decimal integer")
        agent = int(key)
        if not isinstance(classes, list):
            raise SchemaError(f"partitions.{key}", "must be a list of state lists")
        built = [
            _states(cls, predicates, f"partitions.{key}[{n}]") for n, cls in enumerate(classes)
        ]
        try:
            partitions[agent] = partition_from_classes(ground, built)
        except ValueError as exc:
            raise SchemaError(f"partitions.{key}", str(exc))
    return frame_from_partitions(predicates, ground, partitions)


def load_event(path, frame: SharedFrame) -> frozenset[State]:
    from .formula import atoms, parse

    data = parse_json(Path(path).read_text())
    if not isinstance(data, dict):
        raise SchemaError("$", "event must be an object")
    _known_keys(data, _EVENT_KEYS, "")
    if len(data) != 1:
        raise SchemaError("$", "event must carry exactly one of 'states' and 'formula'")
    if "states" in data:
        return _states(data["states"], frame.shared_predicates, "states")
    if not isinstance(data["formula"], str):
        raise SchemaError("formula", "must be a string")
    formula = parse(data["formula"])
    missing = atoms(formula) - frame.shared_predicates
    if missing:
        names = ", ".join(f"p{p}" for p in sorted(missing))
        known = ", ".join(f"p{p}" for p in sorted(frame.shared_predicates))
        raise ValueError(
            f"event formula names {names}, outside the frame's predicates {known}"
        )
    view = frame.masks()
    return view.states_of(view.formula_mask(formula))
