"""Span tracer that wraps the public functions of every gkraman module.

The wrappers live here, in the benchmark, not in the package: ``install``
replaces each public function defined in a layer module with a timing
wrapper under every name a caller can look it up by (``gkraman.protocol.
closed_form_eff`` as well as ``gkraman.evolution.closed_form_eff`` and
``gkraman.closed_form_eff``), and ``uninstall`` restores the originals.
Untraced runs never install them.

Spans are kept in memory as ``(name, start, end, parent, error)`` tuples and
summarised at the end; a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict


#: The package's modules, which are the benchmark's layers (``errors`` does no work).
LAYERS = ("cli", "deformation", "fockspace", "states", "hamiltonian", "evolution",
          "protocol", "verify")


def _arg(args, kwargs, position, keyword):
    return kwargs[keyword] if keyword in kwargs else args[position]


# Exact counts taken from the arguments of successful calls: span name ->
# (note key, extractor).
_NOTES = {
    "states.nonlinear_cs": ("n_trunc", lambda a, k: int(_arg(a, k, 2, "n_trunc"))),
    "evolution.oracle_evolve": ("oracle_steps", lambda a, k: int(_arg(a, k, 3, "steps"))),
    "evolution.equivalence_experiment": (
        "grid_points", lambda a, k: len(_arg(a, k, 0, "deltas")) * len(_arg(a, k, 6, "times"))),
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.notes: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, name: str, fn):
        name_idx = len(self.names)
        self.names.append(name)
        note = _NOTES.get(name)
        spans, stack, notes = self.spans, self._stack, self.notes
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[me] = (name_idx, start, end, parent, error)
            if note is not None:  # only calls that succeeded
                notes[note[0]].append(note[1](args, kwargs))
            return result

        return wrapper

    def install(self):
        """Wrap every public function of every layer under all its names.

        The wrappers are made on the first call; later calls (and
        ``uninstall``) only swap module attributes, so a run can switch
        tracing on and off around single operations cheaply."""
        if not self._patched:
            self._patched = self._patches()
        for module, attr, _, wrapper in self._patched:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in reversed(self._patched):
            setattr(module, attr, original)

    def _patches(self) -> list:
        package = importlib.import_module("gkraman")
        modules = [importlib.import_module(f"gkraman.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        return [(module, attr, obj, wrappers[obj])
                for module in [package] + modules
                for attr, obj in list(vars(module).items())
                if inspect.isfunction(obj) and obj in wrappers]

    # -- persistence -------------------------------------------------------

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "notes": dict(self.notes)}

    def merge(self, data: dict):
        """Append another process's dumped spans (indices shifted, names remapped)."""
        remap = []
        for name in data["names"]:
            if name not in self.names:
                self.names.append(name)
            remap.append(self.names.index(name))
        offset = len(self.spans)
        for name_idx, start, end, parent, error in data["spans"]:
            self.spans.append((remap[name_idx], start, end,
                               parent + offset if parent >= 0 else -1, error))
        for key, values in data["notes"].items():
            self.notes[key].extend(values)

    def write(self, path, extra: dict):
        with open(path, "w") as fh:
            json.dump(dict(extra, **self.dump()), fh)

    # -- summary -----------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive and self seconds, errors by type,
        and calls made under each named ancestor."""
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": Counter(),
                      "under": Counter()} for name in self.names}
        child_time = [0.0] * len(self.spans)
        for name_idx, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name_idx, start, end, parent, error) in enumerate(self.spans):
            entry = out[self.names[name_idx]]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            if error is not None:
                entry["errors"][error] += 1
            ancestors = set()
            while parent >= 0:
                ancestors.add(self.names[self.spans[parent][0]])
                parent = self.spans[parent][3]
            entry["under"].update(ancestors)
        return {name: entry for name, entry in out.items() if entry["calls"]}
