"""In-memory span tracer that wraps the program's layers from outside.

The benchmark never edits the program: :meth:`Tracer.install` replaces a
layer's public function in every loaded ``repro.*`` module namespace
that binds it (so ``local_two_cuts`` is wrapped both in
``repro.graphs.local_cuts`` and as imported into ``repro.core.algorithm1``),
or a method on its class, and :meth:`Tracer.restore` puts every original
binding back.

A span is ``(id, name, start, end, parent_id, op, self)``.  Self time is
the span's duration minus the time its child spans cover; calls run in
one thread, so children never overlap and the covered time is the sum of
their durations.  Spans are kept in memory and written out by the caller
when the run ends.  *Hot* hooks (protocol callbacks, ``kernel_for``) run
millions of times per run, so they keep only per-op call counts and
times, but still count as child time of the span that called them.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Hook(NamedTuple):
    """One wrapped callable and the layer name its spans are recorded under."""

    name: str
    module: str
    attr: str
    """A module-level function name, or ``Class.method``."""
    hot: bool = False
    count: Callable | None = None
    """Items to count from the return value (e.g. ``len`` of a cut list)."""
    exclude_under: str | None = None
    """Run unwrapped while a span of this name is open, so its time stays
    with that span (brute force called by the exact-optimum solver is
    optimum time, not Algorithm 1 brute force)."""


class Stat:
    __slots__ = ("calls", "total", "self", "items")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.items = 0


class Tracer:
    def __init__(self, hooks, clock: Callable[[], float] = time.perf_counter) -> None:
        self.hooks = list(hooks)
        self.clock = clock
        self.op = None
        self.spans: list[tuple] = []
        self.stats: dict[tuple, Stat] = defaultdict(Stat)
        self._stack: list[list] = []
        self._open: dict[str, int] = defaultdict(int)
        self._patches: list[tuple] = []

    # -- recording ------------------------------------------------------

    def enter(self, name: str) -> list:
        frame = [name, self.clock(), 0.0, len(self.spans)]
        self._stack.append(frame)
        self._open[name] += 1
        return frame

    def exit(self, frame: list, *, hot: bool = False, items: int = 0) -> None:
        end = self.clock()
        name, start, child, span_id = frame
        self._stack.pop()
        self._open[name] -= 1
        duration = end - start
        self_time = duration - child
        if self._stack:
            self._stack[-1][2] += duration
        stat = self.stats[self.op, name]
        stat.calls += 1
        stat.total += duration
        stat.self += self_time
        stat.items += items
        if not hot:
            parent = self._stack[-1][3] if self._stack else None
            self.spans.append((span_id, name, start, end, parent, self.op, self_time))

    def span(self, name: str, op=None):
        """Context manager for a harness-side span (one per op)."""
        return _Span(self, name, op)

    # -- wrapping -------------------------------------------------------

    def _wrapper(self, hook: Hook, fn: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if hook.exclude_under and tracer._open[hook.exclude_under]:
                return fn(*args, **kwargs)
            frame = tracer.enter(hook.name)
            items = 0
            try:
                result = fn(*args, **kwargs)
                if hook.count is not None:
                    items = hook.count(result)
                return result
            finally:
                tracer.exit(frame, hot=hook.hot, items=items)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", hook.attr)
        traced.__qualname__ = getattr(fn, "__qualname__", hook.attr)
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for hook in self.hooks:
                self._install(hook)
        except BaseException:
            self.restore()
            raise

    def _install(self, hook: Hook) -> None:
        module = importlib.import_module(hook.module)
        if "." in hook.attr:
            cls_name, method = hook.attr.split(".")
            owner = getattr(module, cls_name)
            original = getattr(owner, method)
            own = method in vars(owner)
            setattr(owner, method, self._wrapper(hook, original))
            self._patches.append((owner, method, original, own))
            return
        original = getattr(module, hook.attr)
        wrapper = self._wrapper(hook, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original, True))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- reading --------------------------------------------------------

    def per_op(self, name: str) -> dict:
        """``{op: Stat}`` for one layer name."""
        return {op: stat for (op, n), stat in self.stats.items() if n == name}

    def total(self, name: str) -> Stat:
        out = Stat()
        for stat in self.per_op(name).values():
            out.calls += stat.calls
            out.total += stat.total
            out.self += stat.self
            out.items += stat.items
        return out


class _Span:
    def __init__(self, tracer: Tracer, name: str, op) -> None:
        self.tracer = tracer
        self.name = name
        self.op = op

    def __enter__(self):
        self.tracer.op = self.op
        self.frame = self.tracer.enter(self.name)
        return self

    def __exit__(self, *exc_info) -> None:
        self.tracer.exit(self.frame)
