"""Spans around redlab's public functions, recorded from outside the package.

The tracer replaces each public function of the traced modules with a
wrapper, at every module-level name that refers to it.  That matters
because redlab modules import functions by name (``detect`` holds its own
``cumulants`` binding, ``lattice`` its own ``offset_laws``), so patching
only the defining module would miss most calls.  Public methods of the law
table are wrapped on the class.  ``uninstall`` puts every original back,
so untraced runs execute the unmodified program.

Spans stay in memory as ``(name, start, end, parent)`` tuples, with
``parent`` the index of the enclosing span or -1 for a root.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types

MODULES = ("imgio", "grid", "background", "quadform", "detect", "denoise", "lattice", "cli")
# Law-table methods are layers of their own: the per-offset CDF and
# quantile evaluations over a whole offset map.
METHODS = {("detect", "OffsetLawTable"): ("cdf_map", "quantile_map", "fallback_counts", "live_mask")}


class Tracer:
    """Install wrappers, collect spans, and restore the program."""

    def __init__(self, package: str = "redlab", observers: dict | None = None):
        self.package = package
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # name -> callback(args, kwargs, result), run after the span closes
        self.observers = observers or {}

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for short in MODULES:
            mod = importlib.import_module(f"{self.package}.{short}")
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != self.package and not modname.startswith(self.package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for (short, clsname), names in METHODS.items():
            cls = getattr(importlib.import_module(f"{self.package}.{short}"), clsname)
            for attr in names:
                orig = cls.__dict__[attr]
                self._patches.append((cls, attr, orig))
                setattr(cls, attr, self._wrap(f"{short}.{attr}", orig))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def take(self) -> list[tuple[str, float, float, int]]:
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        out = list(self.spans)
        self.spans.clear()
        return out


def nesting_errors(spans) -> list[str]:
    """Problems with the span tree: every child lies inside its parent,
    parents precede children, and every root is a CLI entry."""
    errors = []
    for i, (name, start, end, parent) in enumerate(spans):
        if end < start:
            errors.append(f"span {i} {name} ends before it starts")
        if parent == -1:
            if name != "cli.main":
                errors.append(f"root span {i} is {name}, not cli.main")
            continue
        if not 0 <= parent < i:
            errors.append(f"span {i} {name} has parent {parent}")
            continue
        pname, pstart, pend, _ = spans[parent]
        if start < pstart or end > pend:
            errors.append(f"span {i} {name} is not inside its parent {pname}")
    return errors


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds (the
    span's duration minus the time its direct children cover)."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - child[i]
    return out
