"""Spans around the calls into each layer of `regsep`, recorded from outside.

`Tracer.install` replaces each layer-boundary function, in every loaded
`regsep` module that holds it, by a wrapper that records one span: name,
start, end, parent span, job id, and the counts read off the result.
Per-coordinate helpers (`omega_leq`, `coord_leq`, ...) are never wrapped.
`uninstall` puts the originals back.  Spans stay in memory until `dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter


def _prestar_counts(r, net, *_a, **_k):
    return {"iterations": r.iterations, "basis_size": len(r.basis.basis),
            "transitions": len(net.transitions)}


def _states(r, *_a, **_k):
    return {"states": len(r.states)}


# (module, function, counts read off the result and the arguments)
LAYER_FUNCTIONS = (
    ("petri", "product", lambda r, *_a, **_k: {"transitions": len(r.transitions)}),
    ("petri", "label_expand", None),
    ("backward", "prestar_basis", _prestar_counts),
    ("backward", "disjoint", None),
    ("ideals", "complement_upset", lambda r, *_a, **_k: {"ideals": len(r.ideals)}),
    ("invariant", "invariant_from_backward", None),
    ("invariant", "check_invariant", None),
    ("separator", "build_core_automaton",
     lambda r, *_a, **_k: {"states": len(r.states), "edges": len(r.transitions)}),
    ("separator", "separate", None),
    ("automata", "determinize", _states),
    ("automata", "minimize", _states),
    ("automata", "complement", None),
    ("automata", "relabel", None),
    ("automata", "net_automaton_intersection_witness",
     lambda r, *_a, **_k: {"found": int(r is not None)}),
    ("verify", "verify_separator", None),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "counts")

    def __init__(self, name, start, parent, job):
        self.name, self.start, self.end = name, start, start
        self.parent, self.job, self.counts = parent, job, {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job = None  # set by the runner before each job
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, perf_counter(), self._stack[-1] if self._stack else None, self.job)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if counts is not None:
                span.counts = counts(result, *args, **kwargs)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "regsep" or n.startswith("regsep.")]
        for mod_name, fn_name, counts in LAYER_FUNCTIONS:
            original = getattr(importlib.import_module(f"regsep.{mod_name}"), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, counts)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child)]

    def dump(self, path, header: dict) -> None:
        with open(path, "w") as out:
            out.write(json.dumps(header) + "\n")
            for i, s in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "job": s.job, "counts": s.counts,
                }) + "\n")
