"""In-memory span tracing installed from outside the program.

A traced run wraps the public entry points of each layer (a class
method, or a module function under every name it was imported as) in
a timing wrapper.  Each call records a span — name, start, end, parent
span, op id — into a list held in memory; counts and per-layer
seconds are derived from the spans once the run ends.  Untraced runs
never construct a :class:`Tracer`, so they run the program unpatched.

Spans are exclusive-by-name when summed: a call nested inside another
call of the same layer (``RunContext.close`` calling ``save``,
``step_batch`` calling ``step``) is counted once, so a layer's seconds
never exceed the wall-clock it covered.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

#: span fields, stored as lists for cheap in-place close
NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Span recorder plus the patch table that feeds it."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_walls: dict[int, float] = {}
        self._stack: list[int] = []
        self._op: int | None = None
        #: (owner, attribute, original value)
        self._patches: list[tuple] = []

    # ------------------------------------------------------------ spans

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a call the benchmark itself makes."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def op(self, op_id: int):
        """Scope spans to one op and record its wall-clock."""
        self._op = op_id
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.op_walls[op_id] = time.perf_counter() - t0
            self._op = None

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    # ---------------------------------------------------------- patching

    def patch_method(self, cls: type, attr: str, name: str) -> None:
        """Wrap the method ``cls`` defines as ``attr``; a layer the
        program no longer has is skipped."""
        raw = cls.__dict__.get(attr)
        if raw is None:
            return
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(name, raw.__func__))
        else:
            wrapped = self._wrap(name, raw)
        setattr(cls, attr, wrapped)
        self._patches.append((cls, attr, raw))

    def patch_function(self, module, attr: str, name: str) -> None:
        """Wrap ``module.attr`` under every name it is bound to in the
        loaded ``repro`` modules (``from x import f`` copies the name)."""
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapped = self._wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._patches.append((mod, key, original))

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # ---------------------------------------------------------- analysis

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``s`` and ``self_s``.

        A span nested under a span of the same name adds neither calls
        nor seconds; self time subtracts the (outermost-per-name)
        children's durations.
        """
        spans = self.spans
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        counted = [False] * len(spans)
        for i, sp in enumerate(spans):
            if sp[END] is None:
                continue
            p = sp[PARENT]
            nested = False
            while p is not None:
                if spans[p][NAME] == sp[NAME]:
                    nested = True
                    break
                p = spans[p][PARENT]
            if nested:
                continue
            counted[i] = True
            d = sp[END] - sp[START]
            row = out[sp[NAME]]
            row["calls"] += 1
            row["s"] += d
            row["self_s"] += d
        for i, sp in enumerate(spans):
            if not counted[i]:
                continue
            # nearest counted ancestor owns this span's time
            p = sp[PARENT]
            while p is not None and not counted[p]:
                p = spans[p][PARENT]
            if p is not None:
                out[spans[p][NAME]]["self_s"] -= sp[END] - sp[START]
        return dict(out)

    def top_level_seconds(self) -> float:
        """Seconds covered by spans with no parent, inside ops."""
        return sum(
            sp[END] - sp[START] for sp in self.spans
            if sp[PARENT] is None and sp[OP] is not None and sp[END]
        )
