"""In-memory spans around calls into lsnc, for the benchmark's traced runs.

A Tracer replaces named functions in the module namespaces where callers
look them up (the benchmark's own `workloads` module, and lsnc modules that
call each other) with timing wrappers.  Each call becomes a span: name,
parent span, start and end.  Hooks add counts taken from a call's arguments,
result or exception.  Wrappers are installed only inside `segment()`, so the
untraced passes of a traced run execute the original functions.
"""
from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator

Hook = Callable[[Counter, tuple, Any, BaseException | None], None]


class Segment:
    """The spans and counts of one set-up or one pass."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.spans: list[list[Any]] = []  # [name, parent index or -1, start, end]
        self.counts: Counter = Counter()

    def summary(self) -> tuple[dict[str, float], Counter]:
        """Self time per span name (span minus its direct children) and
        call counts per span name plus the hook counts."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = {}
        counts = Counter(self.counts)
        for i, (name, _, start, end) in enumerate(self.spans):
            self_s[name] = self_s.get(name, 0.0) + (end - start - child[i])
            counts[name + ".calls"] += 1
        return self_s, counts


class Tracer:
    def __init__(self, targets: list[tuple[Any, str, str, Hook | None]]) -> None:
        self.targets = targets  # (module, attribute, span name, hook)
        self.segments: list[Segment] = []
        self._current: Segment | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Callable]] = []

    def _wrap(self, fn: Callable, name: str, hook: Hook | None) -> Callable:
        def traced(*args, **kwargs):
            seg = self._current
            sid = len(seg.spans)
            span = [name, self._stack[-1] if self._stack else -1, perf_counter(), 0.0]
            seg.spans.append(span)
            self._stack.append(sid)
            result, exc = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                span[3] = perf_counter()
                self._stack.pop()
                if hook is not None:
                    hook(seg.counts, args, result, exc)

        return traced

    @contextmanager
    def segment(self, kind: str) -> Iterator[Segment]:
        """Trace every call made inside the block as one segment."""
        seg = Segment(kind)
        self._current = seg
        for module, attr, name, hook in self.targets:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, hook))
        try:
            yield seg
        finally:
            for module, attr, fn in reversed(self._saved):
                setattr(module, attr, fn)
            self._saved.clear()
            self._stack.clear()
            self._current = None
            self.segments.append(seg)

    def dump(self, path, origin: float) -> None:
        """Write every span as one JSON line, times in seconds from `origin`."""
        with open(path, "w") as out:
            for si, seg in enumerate(self.segments):
                for i, (name, parent, start, end) in enumerate(seg.spans):
                    out.write(json.dumps({
                        "segment": si, "kind": seg.kind, "id": i, "name": name,
                        "parent": parent, "start": start - origin, "end": end - origin,
                    }) + "\n")
