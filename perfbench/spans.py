"""Tracing shim: wraps covstim's public functions from outside the package.

Each wrapped call records a span (name, start, end, parent span, run id and
whether it returned normally) in flat arrays kept in memory.  A function is
patched under every name it is bound to in a loaded ``covstim`` module, so a
call through ``from .sim import simulate`` in ``curation`` is traced as well
as a call to ``covstim.sim.simulate``.  ``uninstall`` puts every original
object back.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


class TraceError(RuntimeError):
    """A traced function is missing, or a required layer recorded no calls."""


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.ok = array("b")
        self._stack: list[int] = []
        self.run_id = 0
        self.counts: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn, on_return=None):
        """Traced stand-in for ``fn``; ``name`` is a string or f(args) -> str.

        ``on_return(counts, args, result)`` adds layer counts derived from a
        call's arguments and result.
        """
        now = time.perf_counter
        stack = self._stack
        fixed = None if callable(name) else self._name_id(name)
        name_id = self._name_id
        starts, ends, oks = self.start, self.end, self.ok
        add_start, add_end, add_ok = starts.append, ends.append, oks.append
        add_name, add_parent, add_run = self.name.append, self.parent.append, self.run.append
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            add_name(fixed if fixed is not None else name_id(name(args)))
            add_parent(stack[-1] if stack else -1)
            add_run(tracer.run_id)
            add_ok(0)
            add_end(0.0)
            idx = len(starts)
            stack.append(idx)
            add_start(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = now()
                stack.pop()
            oks[idx] = 1
            if on_return is not None:
                on_return(counts, args, result)
            return result

        return traced

    # -- patching --------------------------------------------------------

    def patch_function(self, module, attr: str, name, on_return=None) -> None:
        """Replace ``module.attr`` wherever a covstim module binds it."""
        original = getattr(module, attr)
        traced = self.wrap(name, original, on_return)
        bound = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "covstim" or mod_name.startswith("covstim.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, traced)
                    bound += 1
        if bound == 0:
            raise TraceError(f"{module.__name__}.{attr} is bound nowhere")

    def patch_method(self, cls, attr: str, name, on_return=None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, on_return))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, ok calls, inclusive seconds, self seconds.

        Self time is a span's duration minus the durations of its direct
        children; calls are synchronous, so children never overlap.
        """
        n = len(self.start)
        if n == 0:
            return {}
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        ok = np.frombuffer(self.ok, dtype=np.int8)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        oks = np.bincount(name, weights=ok, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        selfs = np.bincount(name, weights=self_time, minlength=k)
        return {self.names[i]: {"calls": int(calls[i]), "ok": int(oks[i]),
                                "s": float(total[i]), "self_s": float(selfs[i])}
                for i in range(k)}

    def save(self, path) -> None:
        """Write the raw spans, so a run can be inspected after it ends."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            run=np.frombuffer(self.run, dtype=np.int32),
            ok=np.frombuffer(self.ok, dtype=np.int8),
        )
