"""Spans around the engine's public entry points, for the traced run.

`instrument` rebinds each entry point's module attribute or method to a
wrapper that records a span (name, start, end, parent).  Spans are kept in
flat arrays while the run goes and written out when it ends.  A layer's
self time is its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import importlib
import os
from array import array
from collections import Counter
from time import perf_counter

# span name -> (module name under oee, attribute path) of the call it wraps;
# each is rebound where its callers look it up
SPANS = {
    "harness.run": ("harness", "run_full"),
    "universe.tick": ("universe", "UniverseGenerator.tick"),
    "universe.observe": ("universe", "UniverseGenerator.observe"),
    "universe.models": ("universe", "Theory.models"),
    "revision.revise": ("harness", "revise"),
    "revision.repair": ("revision", "propose_revisions"),
    "revision.symmetry": ("revision", "symmetry_score"),
    "revision.classify": ("harness", "classify_extension"),
    "epistemics.adjacent": ("harness", "adjacent_possible"),
    "harness.coverage": ("harness", "coverage_fraction"),
    "harness.export": ("harness", "export"),
    "harness.report": ("harness", "ergodicity_report"),
    "multiagent.agreement": ("multiagent", "agreement_check"),
    "multiagent.meet": ("multiagent", "meet"),
    "multiagent.posterior": ("multiagent", "posterior"),
    "multiagent.s5": ("multiagent", "validate_s5"),
    "formula.enumerate": ("formula", "enumerate_sentences"),
}
FORMULA_CLASSES = ("Atom", "Not", "And", "Or", "Implies", "Know", "Common")
COUNTERS = (
    "universe.models_misses",
    "universe.states_enumerated",
    "harness.export_bytes",
    "formula.hash_calls",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._open = [-1]
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn, before=None, after=None):
        """`fn` recording a span per call.  `before(args, kwargs)` and
        `after(args, kwargs, result)` see each call inside the span."""
        nid = len(self.names)
        self.names.append(name)
        name_id, start, end, parent, open_ = (
            self.name_id, self.start, self.end, self.parent, self._open)

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(open_[-1])
            end.append(0.0)
            open_.append(i)
            start.append(perf_counter())
            try:
                if before is not None:
                    before(args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                end[i] = perf_counter()
                open_.pop()

        return traced

    def count_within(self, name: str, ancestor: str) -> int:
        """Spans of `name` that an `ancestor` span encloses."""
        inside = bytearray(len(self.start))  # span is or lies within an `ancestor`
        count = 0
        for i, nid in enumerate(self.name_id):  # a parent precedes its children
            p = self.parent[i]
            enclosed = p >= 0 and inside[p]
            inside[i] = enclosed or self.names[nid] == ancestor
            count += enclosed and self.names[nid] == name
        return count

    def layer_totals(self) -> dict[str, tuple[float, int]]:
        """Span name -> (self seconds, calls)."""
        covered = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        totals = {name: [0.0, 0] for name in self.names}
        for i, nid in enumerate(self.name_id):
            entry = totals[self.names[nid]]
            entry[0] += self.end[i] - self.start[i] - covered[i]
            entry[1] += 1
        return {name: (s, n) for name, (s, n) in totals.items()}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span\tname\tstart\tend\tparent\n")
            for i, nid in enumerate(self.name_id):
                fh.write(f"{i}\t{self.names[nid]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\n")


def _resolve(module, path):
    owner = module
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


def instrument(tracer: Tracer, hooks=None):
    """Rebind every entry point in SPANS to a traced wrapper and count calls
    to the formula classes' `__hash__`.  `hooks` maps a span name to
    `(before, after)` callbacks.  Returns a function that undoes it all."""
    from oee import formula, universe

    counts = tracer.counts
    models_cache = universe._models
    misses_before = [0]

    def before_models(args, kwargs):
        misses_before[0] = models_cache.cache_info().misses

    def after_models(args, kwargs, result):
        if models_cache.cache_info().misses != misses_before[0]:
            counts["universe.models_misses"] += 1
            counts["universe.states_enumerated"] += len(result)

    def after_export(args, kwargs, result):
        counts["harness.export_bytes"] += os.path.getsize(args[2])

    hooks = {
        "universe.models": (before_models, after_models),
        "harness.export": (None, after_export),
        **(hooks or {}),
    }
    saved = []
    for name, (module_name, path) in SPANS.items():
        owner, attr = _resolve(importlib.import_module(f"oee.{module_name}"), path)
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, *hooks.get(name, (None, None))))

    for cls_name in FORMULA_CLASSES:
        cls = getattr(formula, cls_name)
        original = cls.__hash__
        saved.append((cls, "__hash__", original))

        def counted_hash(self, _original=original):
            counts["formula.hash_calls"] += 1
            return _original(self)

        cls.__hash__ = counted_hash

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Self seconds and calls per span name, the counters, and the share of
    checked repair candidates that were adopted."""
    out = {}
    totals = tracer.layer_totals()
    for name in SPANS:
        seconds, calls = totals.get(name, (0.0, 0))
        out[f"{name}_s"] = seconds
        out[f"{name}_calls"] = calls
    out.update({name: tracer.counts[name] for name in COUNTERS})
    candidates = tracer.count_within("universe.models", "revision.repair")
    out["revision.repair_candidates"] = candidates
    # each repair search adopts exactly one candidate
    out["revision.repair_yield"] = out["revision.repair_calls"] / candidates if candidates else 0.0
    out["tracing.spans"] = len(tracer.start)
    return out
