"""Span tracer that wraps library functions at their module attributes.

Each wrapped call records one span (name, start, end, parent span, item
id) in compact in-memory arrays; nothing is written until `write_csv` is
called at the end of a run.  Self time is a span's duration minus the
durations of its direct children; calls are strictly nested because the
benchmark is single-threaded, so children never overlap.

Wrappers are installed by replacing the attribute on its owner (a module
or class) and are removed by `restore`, which puts back the exact original
objects.  Functions that other modules import by name (for example
`from .ode import integrate_dp45`) must be wrapped at every binding.  While
`paused` is set, wrappers call straight through and record nothing; the
benchmark pauses the tracer around its own correctness checks.
"""

from __future__ import annotations

import math
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable

import numpy as np


class Tracer:
    """Records spans for wrapped callables; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.item_id = -1
        self.counters: dict[str, float] = defaultdict(float)
        self.paused = False
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._nid(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self.item_id)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {idx} closed while {top} was open")

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def traced(self, name: str, fn: Callable,
               on_result: Callable | None = None) -> Callable:
        """Return `fn` wrapped in a span called `name`.  `on_result(result,
        args, kwargs)` runs after the span closes and may add counters."""

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    @contextmanager
    def pause(self):
        """Record nothing inside the block."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str,
              make: Callable[[Callable], Callable]) -> None:
        """Replace `owner.attr` by `make(original)`; an attribute the
        program does not have raises AttributeError."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def wrap(self, owner, attr: str, name: str,
             on_result: Callable | None = None) -> None:
        self.patch(owner, attr, lambda fn: self.traced(name, fn, on_result))

    def restore(self) -> None:
        """Put back every patched attribute, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        """(name_id, parent, item, duration, self_time) as numpy arrays."""
        nid = np.frombuffer(self.name_id, dtype=np.intc).astype(np.intp)
        parent = np.frombuffer(self.parent, dtype=np.intc).astype(np.intp)
        item = np.frombuffer(self.item, dtype=np.intc).astype(np.intp)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return nid, parent, item, dur, dur - child

    def summary(self, first: int = 0, last: int | None = None
                ) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds, over the
        spans with index in [first, last)."""
        if self._stack:
            raise RuntimeError("summary requested while spans are open")
        nid, _, _, dur, self_t = self.arrays()
        window = slice(first, last)
        nid, dur, self_t = nid[window], dur[window], self_t[window]
        n = len(self.names)
        calls = np.bincount(nid, minlength=n)
        total = np.bincount(nid, weights=dur, minlength=n)
        own = np.bincount(nid, weights=self_t, minlength=n)
        return {name: {"calls": int(calls[i]), "s": float(total[i]),
                       "self_s": float(own[i])}
                for i, name in enumerate(self.names) if calls[i]}

    def write_csv(self, path, first: int = 0, last: int | None = None) -> None:
        """Write the spans with index in [first, last), times in microseconds
        from the start of the first one."""
        nid, parent, item, _, _ = self.arrays()
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        last = len(start) if last is None else last
        t0 = start[first] if last > first else 0.0
        with open(path, "w") as fh:
            fh.write("span,name,start_us,end_us,parent,item\n")
            for i in range(first, last):
                fh.write(f"{i},{self.names[nid[i]]},{(start[i] - t0) * 1e6:.3f},"
                         f"{(end[i] - t0) * 1e6:.3f},{parent[i]},{item[i]}\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.idx = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.idx)
        return False
