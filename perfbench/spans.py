"""In-memory spans for the traced pass, and the sink that records them.

SpanSink wraps the sink a join would otherwise get.  It keeps the base
TraceSink's array ids and live-entry accounting, forwards every event to
the inner sink unchanged (so a wrapped HashSink yields the unwrapped
digest), records one span per phase_scope, counts events per phase, and
records each call into the inner sink as a child span of its phase.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

from oblivjoin import TraceSink

__all__ = ["Span", "SpanLog", "SpanSink", "SINK_SPAN", "summarize"]

SINK_SPAN = "trace.sink"


@dataclass
class Span:
    join: int    # id of the root span: every span of one join shares it
    parent: int  # span id, -1 for a root
    name: str
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanLog:
    """Spans in order of opening; a span's id is its list index."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def _add(self, name: str, start: float, end: float = 0.0) -> int:
        sid = len(self.spans)
        join = self.spans[self._open[0]].join if self._open else sid
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(join, parent, name, start, end))
        return sid

    @contextmanager
    def span(self, name: str):
        """Open a span under the innermost open one; yields its id."""
        sid = self._add(name, perf_counter())
        self._open.append(sid)
        try:
            yield sid
        finally:
            self.spans[sid].end = perf_counter()
            self._open.pop()

    def leaf(self, name: str, start: float, end: float) -> None:
        """A closed span under the innermost open one."""
        self._add(name, start, end)

    def rows(self) -> list[list]:
        return [[s.join, i, s.parent, s.name, s.start, s.end]
                for i, s in enumerate(self.spans)]


class SpanSink(TraceSink):
    def __init__(self, inner: TraceSink, log: SpanLog) -> None:
        super().__init__()
        self.inner = inner
        self.log = log
        self.events: Counter[str] = Counter()
        self.emit_calls = 0

    @contextmanager
    def phase_scope(self, label: str):
        with super().phase_scope(label), self.log.span(label):
            yield

    def emit(self, aid, op, idx):
        self.events[self.phase] += 1
        self.emit_calls += 1
        t0 = perf_counter()
        self.inner.emit(aid, op, idx)
        self.log.leaf(SINK_SPAN, t0, perf_counter())

    def emit_block(self, aid, ops, idxs):
        self.events[self.phase] += len(ops)
        self.emit_calls += 1
        t0 = perf_counter()
        self.inner.emit_block(aid, ops, idxs)
        self.log.leaf(SINK_SPAN, t0, perf_counter())


def summarize(log: SpanLog, root: int) -> dict:
    """Per-phase times of the join whose root span id is root.

    A phase's time is its self time with respect to nested phases (it
    includes its own sink calls); sink time is also split out per phase.
    """
    spans = [(i, s) for i, s in enumerate(log.spans) if s.join == root]
    phase_self: Counter[str] = Counter()
    phase_sink: Counter[str] = Counter()
    for i, s in spans:
        if i == root or s.name == SINK_SPAN:
            continue
        nested = sum(c.seconds for _, c in spans
                     if c.parent == i and c.name != SINK_SPAN)
        phase_self[s.name] += s.seconds - nested
    for _, s in spans:
        if s.name == SINK_SPAN:
            parent = log.spans[s.parent]
            phase_sink[parent.name if s.parent != root else ""] += s.seconds
    return {"join_s": log.spans[root].seconds,
            "phase_s": dict(phase_self),
            "phase_sink_s": dict(phase_sink),
            "sink_s": sum(phase_sink.values())}
