"""Span tracing of convexblockers from outside the package.

The program has no tracing of its own, so a traced pass rebinds the public
names the program calls through (module attributes such as
``convexblockers.verification.min_hitting_sets`` and the method
``SimplePath.edge_set``) to wrappers that record one span per call, and puts
the originals back afterwards. Spans stay in memory as plain tuples and are
written out when the run ends.

A span is ``(name, tag, start, duration, parent, info)``: ``parent`` is the
index of the enclosing span or -1, ``tag`` qualifies the name (the family a
solve ran on) and ``info`` carries counts read from the call's result. A
generator is timed only while it runs, from each resume to its next yield,
until it is exhausted; its duration is that active time and ``info`` is the
number of items it yielded.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Iterator

perf = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[int] = []

    def _open(self) -> tuple[int, int]:
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        self.spans.append(())
        self.stack.append(index)
        return index, parent

    def call(self, name: str, fn: Callable, tag: Callable | None = None, info: Callable | None = None) -> Callable:
        """Wrap fn so that each call records a span; tag and info see (args, result)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, parent = self._open()
            start = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = perf() - start
                self.stack.pop()
            self.spans[index] = (
                name,
                tag(args, kwargs, out) if tag else None,
                start,
                duration,
                parent,
                info(out) if info else None,
            )
            return out

        return traced

    def generator(self, name: str, fn: Callable) -> Callable:
        """Wrap a generator function; its span covers only its own running time."""

        @functools.wraps(fn)
        def traced(*args, **kwargs) -> Iterator:
            index, parent = self._open()
            self.stack.pop()
            gen = fn(*args, **kwargs)
            active = 0.0
            first = None
            items = 0
            while True:
                self.stack.append(index)
                resumed = perf()
                if first is None:
                    first = resumed
                try:
                    item = next(gen)
                except StopIteration:
                    break
                finally:
                    active += perf() - resumed
                    self.stack.pop()
                items += 1
                yield item
            self.spans[index] = (name, None, first, active, parent, items)

        return traced

    def span(self, name: str) -> "_Span":
        """Context manager for a span around code in the benchmark itself."""
        return _Span(self, name)


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        self.index, self.parent = self.tracer._open()
        self.start = perf()
        return self

    def __exit__(self, *exc) -> None:
        duration = perf() - self.start
        self.tracer.stack.pop()
        self.tracer.spans[self.index] = (self.name, None, self.start, duration, self.parent, None)


class Rebinder:
    """Install wrappers on (owner, attribute) pairs and restore the originals."""

    def __init__(self) -> None:
        self.saved: list[tuple[object, str, object]] = []

    def bind(self, owner: object, attr: str, wrapper: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr)
        self.saved.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def restore(self) -> None:
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)


def summarize(spans: list[tuple]) -> dict[tuple[str, str | None], dict]:
    """Per (name, tag): number of spans, total and self seconds, summed info.

    Self time is a span's duration minus the durations of its direct
    children. Spans of one pass nest strictly (one thread), so children never
    overlap each other and lie inside their parent's running time.
    """
    child_time = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if not span:
            raise ValueError(f"span {i} was opened and never closed")
        if span[4] >= 0:
            child_time[span[4]] += span[3]
    out: dict[tuple[str, str | None], dict] = {}
    for i, (name, tag, start, duration, parent, info) in enumerate(spans):
        row = out.setdefault((name, tag), {"count": 0, "total_s": 0.0, "self_s": 0.0, "info": 0})
        row["count"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - child_time[i]
        if isinstance(info, (int, float)):
            row["info"] += info
    return out


def covered_share(spans: list[tuple], root_name: str, wall_s: float) -> float:
    """Share of the root spans' time covered by their direct children.

    Without any span named root_name, the root is the whole traced pass
    (wall_s) and the covering spans are the top-level ones.
    """
    roots = {i for i, s in enumerate(spans) if s[0] == root_name}
    if roots:
        total = sum(spans[i][3] for i in roots)
        covered = sum(s[3] for s in spans if s[4] in roots)
    else:
        total = wall_s
        covered = sum(s[3] for s in spans if s[4] == -1)
    return covered / total if total > 0 else 0.0
