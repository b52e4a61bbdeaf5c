"""Span-based tracing of repair runs.

A repair run is a tree of timed phases::

    repair
    ├── round (round=0)
    │   ├── action (method=migration, stripe=4, ...)
    │   ├── action (method=reconstruction, ...)
    │   └── journal_fsync
    └── round (round=1) ...

:class:`Tracer` records that tree as flat :class:`Span` records (id,
parent id, name, start, end, attrs) — the JSON schema every transport
of the runtime emits, so one ``repro report`` renders any run.  The
clock is pluggable:

* :class:`WallClock` — ``time.monotonic()``; the emulated testbed.
* :class:`SimClock` — an explicitly advanced simulated time, for a
  caller that drives time itself (e.g. from ``Simulation.now``).

Span creation is thread-safe and parenting is per-thread: a span
opened on an agent worker thread does not accidentally nest under the
coordinator's current round.  Spans may be used lexically
(``with tracer.span("round", round=i):``) or hand-closed
(``span = tracer.start_span(...); ...; span.finish()``) for intervals
that do not nest in code — e.g. an action opened at command issue and
closed when its ACK arrives.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

#: schema version of the trace JSON document
TRACE_SCHEMA_VERSION = 1


class TraceError(ValueError):
    """Raised on malformed trace documents."""


class WallClock:
    """Monotonic wall-clock time (the emulated testbed's clock)."""

    def now(self) -> float:
        return time.monotonic()


class SimClock:
    """Explicitly advanced simulated time."""

    def __init__(self, start: float = 0.0):
        self.time = float(start)

    def advance_to(self, timestamp: float) -> None:
        """Move simulated time forward (never backward)."""
        if timestamp > self.time:
            self.time = float(timestamp)

    def now(self) -> float:
        return self.time


class Span:
    """One timed interval in the trace tree."""

    __slots__ = ("tracer", "span_id", "parent_id", "name", "start", "end", "attrs")

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        parent_id: Optional[int],
        name: str,
        start: float,
        attrs: Dict[str, Any],
    ):
        self.tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attrs = attrs

    @property
    def duration(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    def annotate(self, **attrs) -> "Span":
        """Attach (or overwrite) attributes; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def finish(self, **attrs) -> "Span":
        """Close the span at the tracer clock's current time."""
        if attrs:
            self.annotate(**attrs)
        self.tracer._finish(self)
        return self

    def to_dict(self) -> dict:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"parent={self.parent_id}, attrs={self.attrs})"
        )


class _SpanContext:
    """Context manager wrapping a span's open/close around a block."""

    __slots__ = ("span",)

    def __init__(self, span: Span):
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc) -> None:
        self.span.finish()


class Tracer:
    """Collects spans into a trace document.

    Args:
        clock: time source; :class:`WallClock` by default.
        enabled: a disabled tracer records nothing (spans still work
            as inert objects, so instrumented code needs no branches).
    """

    def __init__(self, clock=None, enabled: bool = True):
        self.clock = clock or WallClock()
        self.enabled = enabled
        self._lock = threading.Lock()
        self._next_id = 1
        self._spans: List[Span] = []
        self._local = threading.local()

    # -- span lifecycle ------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def start_span(
        self,
        name: str,
        parent: Optional[Span] = None,
        **attrs,
    ) -> Span:
        """Open a span; it must be closed via :meth:`Span.finish`.

        Without an explicit ``parent`` the span nests under the
        current thread's innermost *lexical* span (one opened via
        :meth:`span`), or becomes a root span.
        """
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        if parent is None:
            stack = self._stack()
            parent = stack[-1] if stack else None
        return Span(
            self,
            span_id,
            parent.span_id if parent is not None else None,
            name,
            self.clock.now(),
            dict(attrs),
        )

    def span(self, name: str, parent: Optional[Span] = None, **attrs):
        """Lexical span: ``with tracer.span("round", round=i) as s:``."""
        opened = self.start_span(name, parent=parent, **attrs)
        tracer = self

        class _Lexical(_SpanContext):
            __slots__ = ()

            def __enter__(self) -> Span:
                tracer._stack().append(self.span)
                return self.span

            def __exit__(self, *exc) -> None:
                stack = tracer._stack()
                if stack and stack[-1] is self.span:
                    stack.pop()
                self.span.finish()

        return _Lexical(opened)

    def _finish(self, span: Span) -> None:
        if span.end is not None:
            return  # already closed (idempotent finish)
        span.end = self.clock.now()
        if not self.enabled:
            return
        with self._lock:
            self._spans.append(span)

    # -- reading the trace ---------------------------------------------

    def spans(self, name: Optional[str] = None) -> List[Span]:
        """Finished spans in completion order (optionally by name)."""
        with self._lock:
            spans = list(self._spans)
        if name is not None:
            spans = [s for s in spans if s.name == name]
        return spans

    def children_of(self, span: Span, name: Optional[str] = None) -> List[Span]:
        return [
            s
            for s in self.spans(name)
            if s.parent_id == span.span_id
        ]

    def to_dict(self) -> dict:
        """The trace document (see DESIGN.md, trace schema)."""
        spans = sorted(self.spans(), key=lambda s: (s.start, s.span_id))
        return {
            "version": TRACE_SCHEMA_VERSION,
            "clock": type(self.clock).__name__,
            "spans": [s.to_dict() for s in spans],
        }

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))


# ----------------------------------------------------------------------
# reading trace documents back (the ``repro report`` side)
# ----------------------------------------------------------------------


class TraceDocument:
    """A parsed trace: flat span records plus tree navigation."""

    def __init__(self, document: dict):
        version = document.get("version")
        if version != TRACE_SCHEMA_VERSION:
            raise TraceError(
                f"unsupported trace version {version!r} "
                f"(expected {TRACE_SCHEMA_VERSION})"
            )
        spans = document.get("spans")
        if not isinstance(spans, list):
            raise TraceError("trace document has no spans list")
        self.clock = document.get("clock", "WallClock")
        self.spans: List[dict] = []
        seen = set()
        for record in spans:
            try:
                span_id = record["id"]
                record["name"], record["start"], record["attrs"]
            except (TypeError, KeyError) as exc:
                raise TraceError(f"malformed span record {record!r}") from exc
            if span_id in seen:
                raise TraceError(f"duplicate span id {span_id}")
            seen.add(span_id)
            self.spans.append(record)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "TraceDocument":
        try:
            document = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise TraceError(f"invalid JSON in {path}: {exc}") from exc
        return cls(document)

    def named(self, name: str) -> List[dict]:
        return [s for s in self.spans if s["name"] == name]

    def children_of(self, span_id: int, name: Optional[str] = None) -> List[dict]:
        return [
            s
            for s in self.spans
            if s["parent"] == span_id and (name is None or s["name"] == name)
        ]

    def roots(self) -> List[dict]:
        return [s for s in self.spans if s["parent"] is None]

    def walk(self) -> Iterator[dict]:
        yield from self.spans


def duration_of(span: dict) -> float:
    """Duration of a span record (0.0 for an unfinished span)."""
    end = span.get("end")
    if end is None:
        return 0.0
    return end - span["start"]
