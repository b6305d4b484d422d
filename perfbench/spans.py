"""In-memory span recorder for the benchmark's traced passes.

A span is (name, start, end, parent).  Spans are opened around calls into
pnu's public functions, which are patched at the module attribute their
callers look them up by, and the patches are undone when the traced pass
ends, so no file of the package changes.  A span's self time is its
duration minus the part of it that its child spans cover; because calls
nest, the self times of all spans in a tree add up to the root's duration.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Records spans, per-name self time and call counts, and named counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(int)
        self.paused = False
        self._stack: list[int] = []
        self._covered: list[float] = []

    def _open(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_name)
        self.span_name.append(code)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(float("nan"))
        self._stack.append(idx)
        self._covered.append(0.0)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, name: str) -> None:
        end = time.perf_counter()
        self.span_end[idx] = end
        self._stack.pop()
        covered = self._covered.pop()
        duration = end - self.span_start[idx]
        self.self_s[name] += duration - covered
        self.calls[name] += 1
        if self._covered:
            self._covered[-1] += duration

    @contextmanager
    def span(self, name: str):
        """Record the body of a ``with`` block as one span."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx, name)

    @contextmanager
    def pause(self):
        """Let wrapped calls pass through unrecorded (for the tracer's own probes)."""
        before, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = before

    def wrap(self, name: str, fn, before=None, after=None):
        """Return ``fn`` recorded as span ``name``.

        ``before(tracer, *args, **kwargs)`` runs ahead of the call and
        ``after(tracer, result, *args, **kwargs)`` after the span closed;
        both are skipped while the tracer is paused.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            if before is not None:
                before(self, *args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, name)
            if after is not None:
                after(self, result, *args, **kwargs)
            return result

        return traced

    def durations(self, name: str) -> np.ndarray:
        """Wall durations of every span called ``name``, in seconds."""
        code = self._codes.get(name)
        if code is None:
            return np.empty(0)
        names = np.asarray(self.span_name)
        start, end = np.asarray(self.span_start), np.asarray(self.span_end)
        mask = names == code
        return end[mask] - start[mask]

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` with a span called ``ancestor`` above them."""
        code, anc = self._codes.get(name), self._codes.get(ancestor)
        if code is None or anc is None:
            return 0
        hits = 0
        for idx, c in enumerate(self.span_name):
            if c != code:
                continue
            parent = self.span_parent[idx]
            while parent >= 0 and self.span_name[parent] != anc:
                parent = self.span_parent[parent]
            hits += parent >= 0
        return hits

    def roots(self) -> list[int]:
        return [i for i, p in enumerate(self.span_parent) if p < 0]

    def save(self, path) -> None:
        """Write every span as arrays (name codes index ``names``)."""
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name=np.asarray(self.span_name, dtype=np.int32),
            start=np.asarray(self.span_start),
            end=np.asarray(self.span_end),
            parent=np.asarray(self.span_parent, dtype=np.int64),
        )


@contextmanager
def patched(targets):
    """Set each (module, attribute, value) for the block, then restore it."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
    try:
        for module, attr, value in targets:
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)
