"""Spans around calls into groverlab's public functions, recorded from outside.

A traced child process wraps every public groverlab function where a
*caller* module imported it (for example ``groverlab.cli.separability_bound``
and ``groverlab.complexity.separability_bound`` get separate wrappers), so a
span opens each time control crosses from one module into another.  Calls
inside one module are not wrapped: their time stays in the caller's span.

Spans (layer, start, end, parent) are kept in memory and written out once,
when the child ends.  :func:`layer_totals` turns a span file into self time
and call counts per layer; self time is a span's duration minus the part of
it that its child spans cover.
"""

import functools
import inspect
import itertools
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("cli", "complexity", "entanglement", "pseudopure", "search.closed_form", "search.sim")
SIM_FUNCTIONS = {"apply_grover_step", "simulate_statevector", "partial_trace_single_qubit"}


def layer_of(fn) -> str:
    """Layer of a groverlab function: its module, with search split in two."""
    module = fn.__module__.removeprefix("groverlab.")
    if module == "search":
        return "search.sim" if fn.__name__ in SIM_FUNCTIONS else "search.closed_form"
    return module


class Tracer:
    def __init__(self):
        self.layers = list(LAYERS)
        self.records = []
        self.root = -1
        self._ids = itertools.count()
        self._local = threading.local()

    def _layer_id(self, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
        return self.layers.index(layer)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, layer: str):
        layer_id = self._layer_id(layer)
        records, ids, clock = self.records, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # A worker thread's outermost span belongs to the root span.
            parent = stack[-1] if stack else self.root
            span = next(ids)
            stack.append(span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                records.append((span, layer_id, start, end, parent))

        return traced

    def instrument(self) -> None:
        """Wrap every groverlab function each loaded groverlab module imported."""
        for name, module in list(sys.modules.items()):
            if not name.startswith("groverlab."):
                continue
            for attr, obj in list(vars(module).items()):
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__.startswith("groverlab.")
                    and obj.__module__ != name
                ):
                    setattr(module, attr, self.wrap(obj, layer_of(obj)))

    @contextmanager
    def span(self, layer: str):
        """The root span, around the whole traced call."""
        layer_id = self._layer_id(layer)
        self.root = next(self._ids)
        stack = self._stack()
        stack.append(self.root)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.records.append((self.root, layer_id, start, end, -1))

    def save(self, path) -> None:
        spans = np.array(sorted(self.records), dtype=float).reshape(-1, 5)
        np.savez(
            path,
            layer=spans[:, 1].astype(np.int32),
            start=spans[:, 2],
            end=spans[:, 3],
            parent=spans[:, 4].astype(np.int64),
            layers=np.array(self.layers),
        )


def layer_totals(path) -> dict[str, dict[str, float]]:
    """Self seconds and span count per layer from a saved span file.

    Span ids are dense and sorted, so a parent id is also its row index.
    Spans of one thread nest, so a non-root parent's children never overlap
    and their durations add up.  The root's children may come from several
    worker threads and overlap, so the root is charged with their union.
    """
    with np.load(path) as data:
        layer, start, end, parent = data["layer"], data["start"], data["end"], data["parent"]
        layers = [str(name) for name in data["layers"]]
    duration = end - start
    covered = np.zeros(len(layer))
    is_child = parent >= 0
    np.add.at(covered, parent[is_child], duration[is_child])
    for root in np.flatnonzero(~is_child):
        kids = np.flatnonzero(parent == root)
        covered[root] = _union_length(start[kids], end[kids])
    self_time = duration - covered
    totals = {}
    for index, name in enumerate(layers):
        mine = layer == index
        totals[name] = {"self_s": float(self_time[mine].sum()), "calls": int(mine.sum())}
    return totals


def _union_length(starts: np.ndarray, ends: np.ndarray) -> float:
    if len(starts) == 0:
        return 0.0
    order = np.argsort(starts, kind="stable")
    starts, ends = starts[order], ends[order]
    reach = np.maximum.accumulate(ends)
    previous = np.concatenate(([starts[0]], reach[:-1]))
    return float(np.clip(ends - np.maximum(starts, previous), 0.0, None).sum())
