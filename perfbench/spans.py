"""In-memory span tracer that wraps gridveil functions from outside.

A span is ``[name_id, start, end, parent, tag]``: times come from
``time.perf_counter``, ``parent`` is the index of the enclosing span (-1 at
the top) and ``tag`` is an optional short string a hook derives from the
call (the case a power flow ran on, for example).  Nothing is written while
the benchmark runs; ``to_json`` serialises the spans and counters once at
the end.

Wrapping replaces a function object in every loaded ``gridveil`` module
that refers to it, so calls made through another module's imported name
(``sampling.ds_response``, ``ppopf.solve_nlp``) are traced as well.  A name
that no longer exists is recorded as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

NAME, START, END, PARENT, TAG = range(5)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.paused = False
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name_id, time.perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, tag: str | None = None):
        """A span around the benchmark's own code (an operation, a round)."""
        idx = self._open(self._name_id(name))
        self.spans[idx][TAG] = tag
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, module, attr: str, hook=None) -> bool:
        """Trace every call of ``module.attr``; False if the name is absent.

        ``hook(tracer, span_index, args, kwargs, result)`` runs after the span
        closed and may return a tag for it.
        """
        original = getattr(module, attr, None)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        if not callable(original):
            if name not in self.absent:
                self.absent.append(name)
            return False
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if tracer.paused:
                return original(*args, **kwargs)
            idx = tracer._open(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                tracer.spans[idx][TAG] = hook(tracer, idx, args, kwargs, result)
            return result

        for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "gridveil"]:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._patches.append((mod, key, original))
        return True

    @contextmanager
    def pause(self):
        """Calls made meanwhile (the benchmark's own checks) are not recorded."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def unwrap_all(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    # ------------------------------------------------------------ analysis

    def select(self, name: str, parent: str | None = None, tag=None) -> list[list]:
        """Spans called ``name``, optionally only those under ``parent`` or with ``tag``."""
        nid = self._name_ids.get(name)
        pid = self._name_ids.get(parent) if parent is not None else None
        if nid is None or (parent is not None and pid is None):
            return []
        return [
            s
            for s in self.spans
            if s[NAME] == nid
            and (tag is None or s[TAG] == tag)
            and (pid is None or (s[PARENT] >= 0 and self.spans[s[PARENT]][NAME] == pid))
        ]

    def durations(self, name: str, parent: str | None = None, tag=None) -> list[float]:
        """Durations in seconds of the spans ``select`` returns."""
        return [s[END] - s[START] for s in self.select(name, parent, tag)]

    def self_time_by_module(self, root: str) -> tuple[dict[str, float], int]:
        """Self time in seconds per module below the spans called ``root``.

        A span's self time is its duration minus the durations of its direct
        children.  Returns (seconds per module, number of root spans).
        """
        rid = self._name_ids.get(root)
        if rid is None:
            return {}, 0
        under = [False] * len(self.spans)
        child_time = [0.0] * len(self.spans)
        n_roots = 0
        for i, s in enumerate(self.spans):  # parents precede their children
            p = s[PARENT]
            if s[NAME] == rid:
                under[i] = True
                n_roots += 1
            elif p >= 0 and under[p]:
                under[i] = True
            if p >= 0:
                child_time[p] += s[END] - s[START]
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            if under[i]:
                module = self.names[s[NAME]].split(".", 1)[0]
                out[module] = out.get(module, 0.0) + (s[END] - s[START]) - child_time[i]
        return out, n_roots

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "fields": ["name", "start", "end", "parent", "tag"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "absent": self.absent,
        }
