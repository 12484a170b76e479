"""Spans around calls into ``dyckfrieze``, recorded from outside the package.

``Tracer.install`` replaces each traced function by a wrapper that records
one span per call: the function's name, its parent span, and its start and
end times.  ``from .x import f`` copies the binding into the importing
module, so every module of the package that holds the original function
object (the defining module, the package namespace and each caller such as
``dyckfrieze.checks.rotation_orbit``) gets the wrapper.  Calls the package
makes through any of those bindings are then traced.

Spans are kept in flat arrays in memory and aggregated once, after the
traced work has finished.  A span's self time is its duration minus the
durations of its direct children; calls are synchronous, so children never
overlap and the self times of all spans add up to the root spans' time.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

PACKAGE = "dyckfrieze"

# Public functions timed per layer, by module.  Generators (``all_paths``)
# are left out: a wrapper would time only their creation, so their
# iteration counts in the caller's self time.
TRACED = {
    "cli": ("main",),
    "checks": ("run_checks",),
    "enumeration": ("enumerate_all",),
    "dyck": (
        "parse_path",
        "path_to_vector",
        "vector_to_path",
        "reduce_coordinate",
        "from_v_vector",
        "to_lambda",
    ),
    "diamond": ("complete_diamond", "couple_next", "minimal_cycle"),
    "triangulation": (
        "vector_to_triangulation",
        "realize",
        "triangles",
        "quiddity",
        "rotate",
        "rotation_orbit",
    ),
    "frieze": ("from_cycle", "from_quiddity", "verify", "violations"),
}

# Spans whose results are kept, for ratios computed after the run.
KEEP_RESULTS = ("diamond.minimal_cycle",)

ROOT = "bench.request"


def _call(fn, *args):
    return fn(*args)


class Tracer:
    """Records spans around calls into the package (see the module doc)."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("H")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.current = -1
        self.results: dict[str, list] = {name: [] for name in KEEP_RESULTS}
        self.originals: dict[str, object] = {}
        self._patched: list[tuple[object, str, object]] = []
        # request(fn, *args) calls fn(*args) under a root span
        self.request = self._wrap(ROOT, _call)

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        name_ids, parents = self.name_ids, self.parents
        starts, ends = self.starts, self.ends
        kept = self.results.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(starts)
            parent = self.current
            name_ids.append(name_id)
            parents.append(parent)
            ends.append(0.0)
            self.current = span
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = perf_counter()
                self.current = parent
            if kept is not None:
                kept.append(result)
            return result

        return traced

    def install(self) -> None:
        """Import the traced modules and rebind every binding of each
        traced function inside the package to its wrapper."""
        for short, functions in TRACED.items():
            module = importlib.import_module(f"{PACKAGE}.{short}")
            for fn_name in functions:
                name = f"{short}.{fn_name}"
                original = getattr(module, fn_name)
                self.originals[name] = original
                wrapper = self._wrap(name, original)
                for mod_name, mod in list(sys.modules.items()):
                    if not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def totals(self) -> dict[str, tuple[int, float]]:
        """Calls and self time (s) per span name."""
        n = len(self.starts)
        child = [0.0] * n
        starts, ends, parents = self.starts, self.ends, self.parents
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, name_id in enumerate(self.name_ids):
            calls[name_id] += 1
            self_s[name_id] += ends[i] - starts[i] - child[i]
        return {
            name: (calls[k], self_s[k]) for k, name in enumerate(self.names)
        }
