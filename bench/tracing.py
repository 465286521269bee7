"""Spans around linca's public functions, installed from outside the package.

A traced function is replaced by a wrapper in every linca namespace that
holds it (``linca.equiv.evolve`` as well as ``linca.engine.evolve``), so
calls between modules are caught as well as calls from the CLI, and every
span knows the span that caused it. Spans are kept in flat arrays in
memory and written out by ``save``. Counts are taken after a call returns
and recorded as a span named ``trace``, so their cost is charged to no
layer.
"""

from __future__ import annotations

import sys
from array import array
from math import factorial
from pathlib import Path
from time import perf_counter

import numpy as np


def _arrays(obj):
    """Every ndarray inside a result: patterns, rows and their cell arrays."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays(item)
    elif hasattr(obj, "__dict__"):
        for value in vars(obj).values():
            yield from _arrays(value)


def _evolve_counts(tracer, args, result):
    arrays = list(_arrays(result))
    return {"cells": sum(x.size for x in arrays), "bytes_computed": sum(x.nbytes for x in arrays)}


def _search_counts(tracer, args, result):
    # the search tries every bijection of the target's nonzero states
    states = tracer.original("linca.engine", "reachable_states")(args[1])
    return {"permutations": factorial(len(set(states) - {0})), "witnesses": len(result)}


# (module, qualified name, counter); a counter returns counts to add up
TARGETS = (
    ("linca.cli", "main", None),
    ("linca.rule", "parse_rule", None),
    ("linca.engine", "evolve", _evolve_counts),
    ("linca.engine", "step", None),
    ("linca.engine", "reachable_states", None),
    ("linca.equiv", "canonicalize", lambda tr, args, r: {"table_entries": len(r[1].table)}),
    ("linca.equiv", "seed_pair_map", lambda tr, args, r: {"table_entries": len(r.table)}),
    ("linca.equiv", "verify_isomorphism", lambda tr, args, r: {"verified": int(r.verified)}),
    ("linca.equiv", "equivalence_classes", None),
    ("linca.equiv", "Certificate.serialize", None),
    ("linca.oracle", "search_state_maps", _search_counts),
    ("linca.oracle", "naive_cell", None),
    ("linca.render", "pattern_to_text", lambda tr, args, r: {"bytes": len(r)}),
    ("linca.render", "render_image",
     lambda tr, args, r: {"bytes_written": sum(Path(p).stat().st_size for p in r)}),
)

COUNTER_SPAN = "trace"


class Tracer:
    def __init__(self):
        self.names: list[str] = [COUNTER_SPAN]
        self.start = array("d")
        self.end = array("d")
        self.name = array("q")
        self.parent = array("q")
        self.job = array("q")
        self.current_job = -1
        self.stack = [-1]
        self.counts: dict[str, float] = {}
        self._originals: dict[tuple[str, str], object] = {}
        self._patches: list[tuple[object, str, object, object]] = []

    def original(self, module: str, qualname: str):
        return self._originals[(module, qualname)]

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.job.append(self.current_job)
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self.stack.pop()

    def _wrap(self, label: str, fn, counter):
        name_id = len(self.names)
        self.names.append(label)
        tracer = self

        def span(*args, **kwargs):
            index = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if counter is not None:
                index = tracer._open(0)
                for key, value in counter(tracer, args, result).items():
                    key = f"{label}.{key}"
                    tracer.counts[key] = tracer.counts.get(key, 0) + value
                tracer._close(index)
            return result

        span.__wrapped__ = fn
        return span

    def _find_patches(self):
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "linca"]
        for module_name, qualname, counter in TARGETS:
            *outer, leaf = qualname.split(".")
            owner = sys.modules[module_name]
            for part in outer:
                owner = getattr(owner, part)
            fn = getattr(owner, leaf, None)
            if fn is None:  # a target the program no longer has reports zero
                continue
            self._originals[(module_name, qualname)] = fn
            wrapper = self._wrap(f"{module_name.split('.')[-1]}.{qualname}", fn, counter)
            for holder in [owner] if outer else modules:
                for attr, value in list(vars(holder).items()):
                    if value is fn:
                        yield holder, attr, fn, wrapper

    def install(self) -> None:
        """Put the wrappers in every linca namespace that holds a target."""
        if not self._patches:
            self._patches = list(self._find_patches())
        for holder, attr, _, wrapper in self._patches:
            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, fn, _ in self._patches:
            setattr(holder, attr, fn)

    def self_times(self, jobs=None) -> dict[str, float]:
        """Sum over each span name of its duration minus its children's
        durations, over the spans of ``jobs`` (job ids) or of all jobs."""
        start = np.array(self.start, dtype=np.float64)
        duration = np.array(self.end, dtype=np.float64) - start
        parent = np.array(self.parent, dtype=np.int64)
        name = np.array(self.name, dtype=np.int64)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=len(start))
        own = duration - children
        if jobs is not None:
            chosen = np.isin(np.array(self.job, dtype=np.int64), list(jobs))
            name, own = name[chosen], own[chosen]
        totals = np.bincount(name, weights=own, minlength=len(self.names))
        return {label: float(total) for label, total in zip(self.names, totals)}

    def calls(self) -> dict[str, int]:
        counts = np.bincount(np.array(self.name, dtype=np.int64), minlength=len(self.names))
        return {label: int(c) for label, c in zip(self.names, counts)}

    def save(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            name=np.array(self.name, dtype=np.int64),
            parent=np.array(self.parent, dtype=np.int64),
            job=np.array(self.job, dtype=np.int64),
        )
