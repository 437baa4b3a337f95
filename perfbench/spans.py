"""In-memory span tracer that wraps library functions from outside the library.

A span records its name, start and end (``perf_counter_ns``), the span that
was open when it began (its parent), the trajectory index active at the time,
and one optional integer measured when it ends (bytes, for example).  Spans
are kept in flat integer arrays so that a traced ensemble of a million calls
stays small, and are written out once, at the end, by :meth:`Tracer.save`.

Wrapping is done by :meth:`Tracer.patch`, which replaces an attribute of a
module or class and every alias of the same function that a module under the
given package prefixes holds (``from .grid import apply_dealias`` creates such
an alias).  A target that no longer exists is recorded in ``absent`` instead of
raising, so the benchmark keeps running after a layer function is renamed or
removed.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

__all__ = ["Tracer", "self_times"]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.traj = array("q")
        self.extra = array("q")
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._traj = -1
        self._undo: list[tuple] = []
        self.child_cost_ns = 0.0

    def __len__(self):
        return len(self.start)

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, span_name, fn, measure=None, traj_of=None):
        """Return ``fn`` wrapped in a span.

        ``measure(args, result)`` gives the span's extra integer; ``traj_of(args,
        kwargs)`` gives a trajectory index that is active while the span is open.
        """
        nid = self._intern(span_name)
        clock = time.perf_counter_ns
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.start.append(0)
            self.end.append(0)
            self.parent.append(stack[-1] if stack else -1)
            self.extra.append(0)
            outer_traj = self._traj
            if traj_of is not None:
                self._traj = traj_of(args, kwargs)
            self.traj.append(self._traj)
            stack.append(idx)
            try:
                self.start[idx] = clock()
                result = fn(*args, **kwargs)
                self.end[idx] = clock()
                if measure is not None:
                    self.extra[idx] = int(measure(args, result))
                return result
            finally:
                if self.end[idx] == 0:
                    self.end[idx] = clock()
                stack.pop()
                self._traj = outer_traj

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span_name)
        return traced

    def patch(self, span_name: str, module: str, attr: str, alias_scope=(),
              measure=None, traj_of=None) -> bool:
        """Wrap ``module.attr`` (``attr`` may be ``Class.method``) in place.

        Returns False, and records ``module.attr`` in ``absent``, when the module
        or attribute does not exist.
        """
        try:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
        except (ImportError, AttributeError, KeyError):
            self.absent.append(f"{module}.{attr}")
            return False
        wrapper = self.wrap(span_name, original, measure, traj_of)
        self._set(owner, leaf, wrapper)
        if not isinstance(owner, type):
            for name, mod in list(sys.modules.items()):
                if mod is owner or not name.startswith(tuple(alias_scope)):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        return True

    def calibrate(self, calls: int = 5000, repeats: int = 5) -> float:
        """Measure the cost one child span adds to its parent's self time.

        The bookkeeping a wrapper does outside its own clock readings runs in
        the parent's interval.  :meth:`columns` subtracts this cost, in ns, once
        per direct child from each parent's self time.
        """
        def noop():
            return None

        probe = Tracer()
        wrapped = probe.wrap("probe", noop)

        def loop(fn):
            t0 = time.perf_counter_ns()
            for _ in range(calls):
                fn()
            return time.perf_counter_ns() - t0

        plain = min(loop(noop) for _ in range(repeats))
        outside = []
        for _ in range(repeats):
            first = len(probe)
            total = loop(wrapped)
            inside = sum(probe.end[i] - probe.start[i] for i in range(first, len(probe)))
            outside.append(total - inside)
        self.child_cost_ns = max(0.0, (min(outside) - plain) / calls)
        return self.child_cost_ns

    def _set(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def restore(self):
        """Put every patched attribute back, newest first."""
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def columns(self) -> dict:
        """The span table as numpy arrays (durations in ns)."""
        start = np.frombuffer(self.start, dtype=np.int64) if len(self) else np.zeros(0, np.int64)
        end = np.frombuffer(self.end, dtype=np.int64) if len(self) else np.zeros(0, np.int64)
        cols = {
            "name_id": np.array(self.name_id, dtype=np.int64),
            "start": start.copy(),
            "end": end.copy(),
            "parent": np.array(self.parent, dtype=np.int64),
            "traj": np.array(self.traj, dtype=np.int64),
            "extra": np.array(self.extra, dtype=np.int64),
        }
        cols["duration"] = cols["end"] - cols["start"]
        cols["self"] = self_times(cols["duration"], cols["parent"], self.child_cost_ns)
        return cols

    def save(self, path: str, meta: dict | None = None):
        """Write every span, with the name table and ``meta``, to one .npz file."""
        cols = self.columns()
        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                            meta=np.array(repr(meta or {})),
                            **{k: cols[k] for k in ("name_id", "start", "end",
                                                    "parent", "traj", "extra")})


def self_times(duration: np.ndarray, parent: np.ndarray,
               child_cost_ns: float = 0.0) -> np.ndarray:
    """A span's duration minus the part its child spans cover.

    Spans are opened and closed on one thread, so children never overlap and
    the covered part is the sum of the children's durations, plus
    ``child_cost_ns`` per child for the tracer's own work around each child.
    """
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=len(duration))
    children = np.bincount(parent[has_parent], minlength=len(duration))
    return duration - np.rint(covered + child_cost_ns * children).astype(np.int64)
