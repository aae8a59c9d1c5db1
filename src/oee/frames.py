"""Frame and event files for the multi-agent CLI commands.

A frame file describes a closed-mode shared frame explicitly:

    {
      "predicates": [0, 1],
      "partitions": {"1": [["00", "01"], ["10", "11"]],
                     "2": [["00", "10"], ["01", "11"]]},
      "ground": ["00", "01", "10", "11"]        // optional, defaults to all
    }

States are bitstrings over the sorted predicate list; each agent's classes
partition the ground, and a state repeated, in two classes or in none is an
error naming it.  Frames load straight into labels and events into ground
masks, with no `State` built.  An event file holds either {"formula": "p0"}
or {"states": ["00", "11"]}.
"""

from __future__ import annotations

import re
from pathlib import Path

from .harness import SchemaError, _integer, _known_keys, parse_json
from .multiagent import GroundMismatch, SharedFrame, _cube, _labelling
from .multiagent import full_cube  # noqa: F401  (re-exported for callers of this module)
from .universe import MAX_PREDICATE_INDEX, State, mask_bits


def _true_mask(bits, preds, path: str) -> int:
    """The true-mask of a bitstring over the sorted predicates."""
    if len(bits) != len(preds) or bits.strip("01"):
        raise SchemaError(path, f"expected {len(preds)} bits, got {bits!r}")
    return sum(1 << p for p, b in zip(preds, bits) if b == "1")


def state_from_bits(bits: str, predicates) -> State:
    preds = sorted(predicates)
    return State(frozenset(preds), frozenset(mask_bits(_true_mask(bits, preds, "state"))))


def _bitstrings(raw, path: str) -> list:
    if not isinstance(raw, list) or not all(isinstance(b, str) for b in raw):
        raise SchemaError(path, "must be a list of bitstrings")
    return raw


_FRAME_KEYS = ("predicates", "partitions", "ground")
_EVENT_KEYS = ("states", "formula")
# an agent id as `str(int)` writes it, so no two keys name one agent
_AGENT_KEY = re.compile(r"0|-?[1-9][0-9]*")


def _ground(data, preds) -> dict[str, int]:
    """By bitstring, the ground's true-masks in `State.sort_key` order."""
    if "ground" not in data:
        try:
            trues = _cube(preds)
        except ValueError as exc:
            raise SchemaError("predicates", str(exc))
        return {"".join("1" if t >> p & 1 else "0" for p in preds): t for t in trues}
    ground = {}
    for bits in _bitstrings(data["ground"], "ground"):
        if bits in ground:
            raise SchemaError("ground", f"repeats state {bits!r}")
        ground[bits] = _true_mask(bits, preds, "ground")
    return dict(sorted(ground.items(), key=lambda item: mask_bits(item[1])))


def _labels(key: str, classes, preds, position: dict[str, int]) -> list[int]:
    """The class number of each ground position, from one agent's class
    lists: a malformed or repeated entry fails at its class, a state outside
    the ground, in two classes or in none at its agent."""
    path = f"partitions.{key}"
    if not isinstance(classes, list):
        raise SchemaError(path, "must be a list of state lists")
    raw = [-1] * len(position)
    for n, cls in enumerate(classes):
        where = f"{path}[{n}]"
        if not _bitstrings(cls, where):
            raise SchemaError(where, "empty partition class")
        for bits in cls:
            k = position.get(bits)
            if k is None:
                _true_mask(bits, preds, where)  # a malformed entry fails at its class
                raise SchemaError(path, f"state {bits!r} lies outside the ground")
            if raw[k] == n:
                raise SchemaError(where, f"repeats state {bits!r}")
            elif raw[k] >= 0:
                raise SchemaError(path, f"state {bits!r} lies in classes {raw[k]} and {n}")
            raw[k] = n
    if -1 in raw:
        raise SchemaError(path, f"state {list(position)[raw.index(-1)]!r} lies in no class")
    return raw


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
        if _integer(p, f"predicates[{i}]", minimum=0) > MAX_PREDICATE_INDEX:
            raise SchemaError(f"predicates[{i}]", f"exceeds the limit of "
                              f"{MAX_PREDICATE_INDEX:,} (universe.MAX_PREDICATE_INDEX)")
        if p in seen:
            raise SchemaError("predicates", f"repeats predicate {p}")
        seen.add(p)
    preds = sorted(predicates)
    raw_partitions = data.get("partitions")
    if not isinstance(raw_partitions, dict) or not raw_partitions:
        raise SchemaError("partitions", "must map agent ids to class lists")
    ground = _ground(data, preds)
    position = {bits: k for k, bits in enumerate(ground)}
    classes = {}
    for key, lists in raw_partitions.items():
        if not _AGENT_KEY.fullmatch(key):
            raise SchemaError(f"partitions.{key}", "agent id must be a decimal integer")
        # `_AGENT_KEY` admits only JSON integers, and parse_json refuses a long one
        classes[parse_json(key, "partitions")] = _labelling(_labels(key, lists, preds, position))
    return SharedFrame(tuple(sorted(classes)), frozenset(preds), tuple(ground.values()),
                       classes, True)


def load_event(path, frame: SharedFrame) -> int:
    """The event of an event file, as a ground mask of the frame."""
    from .formula import atoms, parse

    data = parse_json(Path(path).read_text())
    if not isinstance(data, dict):
        raise SchemaError("$", "event must be an object")
    _known_keys(data, _EVENT_KEYS, "")
    if len(data) != 1:
        raise SchemaError("$", "event must carry exactly one of 'states' and 'formula'")
    if "states" in data:
        preds, event = sorted(frame.shared_predicates), 0
        for bits in _bitstrings(data["states"], "states"):
            if (k := frame.index.get(_true_mask(bits, preds, "states"))) is None:
                raise GroundMismatch("event and state must lie in the frame ground")
            event |= 1 << k
        return event
    if not isinstance(data["formula"], str):
        raise SchemaError("formula", "must be a string")
    formula = parse(data["formula"])
    missing = atoms(formula) - frame.shared_predicates
    if missing:
        names = ", ".join(f"p{p}" for p in sorted(missing))
        known = ", ".join(f"p{p}" for p in sorted(frame.shared_predicates))
        raise ValueError(f"event formula names {names}, outside the frame's predicates {known}")
    return frame.formula_mask(formula)
