"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public functions of the ``addlam`` package from outside:
it rebinds every module attribute that refers to a target function, so
calls made through a module's imports (``addlam.suites.check_add``) and
through the defining module's own globals both pass through the wrapper.
No file of the package is edited.

Spans live in flat arrays while the workload runs and are turned into
per-function times only afterwards: a span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from contextlib import contextmanager


class Tracer:
    def __init__(self, targets, observers=None):
        """``targets`` are ``module.function`` names relative to the traced
        package (``syntax.canonicalize``). ``observers`` maps some of them to
        a callable that receives each return value, for counts that are
        read from results rather than from timings."""
        self.names: list[str] = list(targets)
        self._observers = dict(observers or {})
        self._ids = array("i")
        self._parents = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------------

    def _open(self, idx: int) -> int:
        sid = len(self._ids)
        self._ids.append(idx)
        self._parents.append(self._stack[-1])
        self._starts.append(0.0)
        self._ends.append(0.0)
        self._stack.append(sid)
        return sid

    def _wrap(self, idx: int, fn):
        open_span, starts, ends, stack = self._open, self._starts, self._ends, self._stack
        observe = self._observers.get(self.names[idx])
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = open_span(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if observe is not None:
                observe(out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code, for the time spent there."""
        if name not in self.names:
            self.names.append(name)
        sid = self._open(self.names.index(name))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._starts[sid] = t0
            self._ends[sid] = t1

    def install(self, package: str):
        """Rebind every reference to a target inside the loaded package."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for idx, name in enumerate(self.names):
            mod_name, fn_name = name.rsplit(".", 1)
            home = sys.modules[f"{package}.{mod_name}"]
            orig = getattr(home, fn_name)
            wrapper = self._wrap(idx, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    # --- analysis ----------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self._ids)

    def summary(self) -> tuple[dict[str, int], dict[str, float], dict[str, float]]:
        """Calls, summed self time and summed inclusive time per span name.
        Inclusive time counts only the outermost span of a name on each
        path, so a recursive function's time is not counted twice."""
        n = len(self._ids)
        ids, parents = self._ids, self._parents
        durations = array("d", (e - s for s, e in zip(self._starts, self._ends)))
        covered = array("d", bytes(8 * n))
        above = [0] * n  # bit set of the names on the path above each span
        calls = {name: 0 for name in self.names}
        self_s = {name: 0.0 for name in self.names}
        total_s = {name: 0.0 for name in self.names}
        for i in range(n):  # a parent's index is always below its child's
            p = parents[i]
            if p >= 0:
                covered[p] += durations[i]
                above[i] = above[p] | (1 << ids[p])
        for i in range(n):
            name = self.names[ids[i]]
            calls[name] += 1
            self_s[name] += durations[i] - covered[i]
            if not above[i] >> ids[i] & 1:
                total_s[name] += durations[i]
        return calls, self_s, total_s

    def problems(self) -> list[str]:
        """Ways the recorded spans fail to nest: a span left open, or a span
        whose interval does not lie inside its parent's."""
        out = []
        if self._stack != [-1]:
            out.append(f"{len(self._stack) - 1} span(s) left open")
        starts, ends, parents = self._starts, self._ends, self._parents
        for i in range(len(self._ids)):
            p = parents[i]
            if not starts[i] <= ends[i] or p >= 0 and not starts[p] <= starts[i] <= ends[i] <= ends[p]:
                out.append(f"span {i} ({self.names[self._ids[i]]}) does not nest in its parent")
                break
        return out

    def write(self, path):
        """Write every span as one JSON line: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as out:
            for i in range(len(self._ids)):
                out.write(json.dumps([self.names[self._ids[i]], self._starts[i],
                                      self._ends[i], self._parents[i]]) + "\n")
