"""Span recorder for the traced run.

The package binds its callees with ``from`` imports, so a layer is timed
by replacing the name in each caller's namespace with a wrapper that
records a span (name, start, end, parent).  Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable

from stats import self_times

OP = "op"


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []          # [name, start, end, parent]
        self.counters: dict[str, float] = defaultdict(float)
        self.keys: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn: Callable, name: str,
             after: Callable | None = None) -> Callable:
        """``fn`` recorded as span ``name``; ``after(recorder, arguments,
        result)`` runs once the span is closed, with the call's arguments
        bound to their parameter names."""
        signature = inspect.signature(fn) if after is not None else None

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self, signature.bind(*args, **kwargs).arguments, result)
            return result
        return traced

    def patch(self, module: str, attr: str, name: str,
              after: Callable | None = None) -> None:
        """Wrap ``module.attr``; ``attr`` may be ``Class.method``."""
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        self._patches.append((owner, leaf, original))
        setattr(owner, leaf, self.wrap(original, name, after))

    def restore(self) -> None:
        for owner, leaf, original in reversed(self._patches):
            setattr(owner, leaf, original)
        self._patches.clear()

    def layer_totals(self) -> tuple[int, float, dict[str, tuple[float, int]]]:
        """(ops, summed op seconds, {layer: (self seconds, calls)}) over
        the spans that descend from an ``op`` span."""
        spans = [tuple(s) for s in self.spans]
        own = self_times(spans)
        in_op = [False] * len(spans)
        ops, op_time = 0, 0.0
        totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, parent) in enumerate(spans):
            # parents precede their children, so one forward pass suffices
            in_op[i] = in_op[parent] if parent >= 0 else name == OP
            if not in_op[i]:
                continue
            if parent < 0:
                ops += 1
                op_time += end - start
            totals[name][0] += own[i]
            totals[name][1] += 1
        return ops, op_time, {k: (v[0], v[1]) for k, v in totals.items()}

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans,
                       "counters": dict(self.counters)}, fh)
