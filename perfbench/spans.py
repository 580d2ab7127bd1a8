"""Outside-in span tracer for qdnsim.

The tracer wraps functions where the program looks them up: module globals
in every ``qdnsim`` module that binds them, and methods and properties on
their classes.  Nothing inside ``src/`` knows about it, and ``restore``
puts every original back.  Spans (name, start, end, parent) are kept in
flat arrays in memory; ``save`` writes them out when the benchmark ends.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn):
        """``fn`` wrapped so that every call records one span."""
        nid = self._name(name)
        clock = time.perf_counter_ns
        name_ids, parents, starts, ends = (
            self.name_id, self.parent, self.start, self.end)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def counted(self, name: str, fn):
        """``fn`` wrapped so that every call adds one to ``counts[name]``."""
        counts = self.counts

        @functools.wraps(fn)
        def tally(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return tally

    # -- patching -----------------------------------------------------

    def _set(self, owner, attr: str, value, original) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def patch_function(self, module, attr: str, wrap) -> bool:
        """Replace ``module.attr`` in every qdnsim module that binds the
        same object.  Returns False when the module no longer has it."""
        original = getattr(module, attr, None)
        if not callable(original):
            return False
        wrapped = wrap(original)
        for name, mod in list(sys.modules.items()):
            if name != "qdnsim" and not name.startswith("qdnsim."):
                continue
            if getattr(mod, attr, None) is original:
                self._set(mod, attr, wrapped, original)
        return True

    def patch_method(self, cls, attr: str, wrap) -> bool:
        """Wrap a method, or a property's getter, on its class."""
        original = cls.__dict__.get(attr)
        if isinstance(original, property):
            replacement = property(wrap(original.fget))
        elif callable(original):
            replacement = wrap(original)
        else:
            return False
        self._set(cls, attr, replacement, original)
        return True

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------

    def _arrays(self):
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name_id = np.frombuffer(self.name_id, dtype=np.uint16)
        return start, end, parent, name_id

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds)."""
        start, end, parent, name_id = self._arrays()
        duration = (end - start).astype(np.float64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested],
                            minlength=len(start))
        own = duration - child
        width = len(self.names)
        calls = np.bincount(name_id, minlength=width)
        total = np.bincount(name_id, weights=duration, minlength=width)
        self_time = np.bincount(name_id, weights=own, minlength=width)
        return {
            name: (int(calls[i]), float(total[i]) / 1e9,
                   float(self_time[i]) / 1e9)
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        start, end, parent, name_id = self._arrays()
        origin = int(start.min()) if len(start) else 0
        np.savez(
            path, names=np.array(self.names), name_id=name_id,
            parent=parent, start_ns=start - origin, end_ns=end - origin,
        )
