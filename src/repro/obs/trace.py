"""Context-propagated tracing: nested spans from HTTP request to bitset sweep.

The stack spans four layers (service -> jobs -> engine -> batch kernel)
and three kinds of execution boundary: HTTP handler threads, the job
queue's worker/attempt threads, and the service's shard worker
processes (:mod:`repro.service.workers`).
This module is the dependency-free substrate that attributes wall time
across all of them:

* a **trace context** — ``(trace_id, span_id)`` — lives in a
  :mod:`contextvars` variable, so nested :func:`span` calls on one
  thread link up automatically;
* crossing a thread or process boundary is explicit and cheap: capture
  :func:`current_carrier` (a picklable two-key dict) on the submitting
  side and re-attach it with :func:`use_carrier` on the executing side;
* finished spans land in a thread-safe :class:`SpanCollector`; process
  workers record into a private collector and ship their spans home as
  dicts (:meth:`SpanCollector.ingest`), so one trace connects spans from
  many pids;
* when tracing is **disabled** (the default), :func:`span` returns a
  shared no-op singleton — no record, no collector, no context-var
  write.  The hot paths stay instrumented at zero cost.

Span durations are measured with ``perf_counter`` (monotonic,
high-resolution); start timestamps use ``time.time`` so spans from
different processes share one clock for the Chrome export
(:mod:`repro.obs.export`).
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Dict, Iterable, List, Mapping, Optional

__all__ = [
    "NOOP_SPAN",
    "Span",
    "SpanCollector",
    "SpanRecord",
    "TraceContext",
    "collecting",
    "current_carrier",
    "current_collector",
    "current_context",
    "disable_tracing",
    "enable_tracing",
    "new_span_id",
    "new_trace_id",
    "root_span",
    "span",
    "tracing_enabled",
    "use_carrier",
]


class TraceContext:
    """The propagated identity of the active span: who new spans attach to."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: Optional[str] = None):
        self.trace_id = trace_id
        self.span_id = span_id

    def carrier(self) -> Dict[str, str]:
        """The picklable wire form handed across thread/process bounds."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}


_CURRENT: "contextvars.ContextVar[Optional[TraceContext]]" = (
    contextvars.ContextVar("repro_trace_context", default=None)
)

#: The installed collector; ``None`` means tracing is disabled and every
#: :func:`span` call returns the no-op singleton.
_COLLECTOR: Optional["SpanCollector"] = None


def new_trace_id() -> str:
    """A fresh 32-hex-char trace id (the ``X-Trace-Id`` wire format)."""
    return uuid.uuid4().hex


def new_span_id() -> str:
    return uuid.uuid4().hex[:16]


# ---------------------------------------------------------------------------
# records and the collector
# ---------------------------------------------------------------------------
class SpanRecord:
    """One finished span: identity, timing, attributes, host thread."""

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start",
        "duration",
        "attrs",
        "pid",
        "tid",
        "thread",
        "status",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        start: float,
        duration: float,
        attrs: Dict,
        pid: int,
        tid: int,
        thread: str,
        status: str = "ok",
    ):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.duration = duration
        self.attrs = attrs
        self.pid = pid
        self.tid = tid
        self.thread = thread
        self.status = status

    def as_dict(self) -> Dict:
        """JSON/pickle-stable form (what process workers ship home)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "attrs": dict(self.attrs),
            "pid": self.pid,
            "tid": self.tid,
            "thread": self.thread,
            "status": self.status,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SpanRecord":
        return cls(
            name=str(payload["name"]),
            trace_id=str(payload["trace_id"]),
            span_id=str(payload["span_id"]),
            parent_id=payload.get("parent_id"),
            start=float(payload["start"]),
            duration=float(payload["duration"]),
            attrs=dict(payload.get("attrs") or {}),
            pid=int(payload.get("pid", 0)),
            tid=int(payload.get("tid", 0)),
            thread=str(payload.get("thread", "")),
            status=str(payload.get("status", "ok")),
        )


class SpanCollector:
    """Thread-safe sink of finished spans (bounded; drops, never grows).

    ``metrics`` may name a :class:`repro.obs.metrics.MetricsRegistry`; the
    collector then observes every span's duration into the
    ``repro_span_seconds{name=...}`` histogram, which is how ``/metrics``
    exposes per-stage latency distributions without a separate wiring
    step.
    """

    def __init__(self, max_spans: int = 100_000, metrics=None):
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self.max_spans = int(max_spans)
        self.dropped = 0
        self._lock = threading.Lock()
        self._spans: List[SpanRecord] = []
        self._span_seconds = None
        if metrics is not None:
            self._span_seconds = metrics.histogram(
                "repro_span_seconds",
                "Duration of trace spans, by span name.",
                ("name",),
            )

    def add(self, record: SpanRecord) -> None:
        with self._lock:
            if len(self._spans) >= self.max_spans:
                self.dropped += 1
            else:
                self._spans.append(record)
        if self._span_seconds is not None:
            self._span_seconds.observe(record.duration, name=record.name)

    def ingest(self, payloads: Iterable[Mapping]) -> int:
        """Adopt spans shipped from another process (dict form)."""
        count = 0
        for payload in payloads:
            self.add(SpanRecord.from_dict(payload))
            count += 1
        return count

    def spans(self, trace_id: Optional[str] = None) -> List[SpanRecord]:
        with self._lock:
            records = list(self._spans)
        if trace_id is None:
            return records
        return [r for r in records if r.trace_id == trace_id]

    def trace_ids(self) -> List[str]:
        """Distinct trace ids, in first-seen order."""
        seen: Dict[str, None] = {}
        for record in self.spans():
            seen.setdefault(record.trace_id, None)
        return list(seen)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


# ---------------------------------------------------------------------------
# enable / disable
# ---------------------------------------------------------------------------
def tracing_enabled() -> bool:
    return _COLLECTOR is not None


def current_collector() -> Optional[SpanCollector]:
    return _COLLECTOR


def enable_tracing(
    collector: Optional[SpanCollector] = None,
) -> SpanCollector:
    """Install ``collector`` (or a fresh one wired to the global metrics
    registry) as the process-wide span sink; returns it."""
    global _COLLECTOR
    if collector is None:
        from .metrics import global_registry

        collector = SpanCollector(metrics=global_registry())
    _COLLECTOR = collector
    return collector


def disable_tracing() -> None:
    global _COLLECTOR
    _COLLECTOR = None


@contextmanager
def collecting(collector: SpanCollector):
    """Temporarily install ``collector`` (worker processes, tests)."""
    global _COLLECTOR
    previous = _COLLECTOR
    _COLLECTOR = collector
    try:
        yield collector
    finally:
        _COLLECTOR = previous


# ---------------------------------------------------------------------------
# context propagation
# ---------------------------------------------------------------------------
def current_context() -> Optional[TraceContext]:
    return _CURRENT.get()


def current_carrier() -> Optional[Dict[str, str]]:
    """The active context as a picklable dict, or ``None``."""
    context = _CURRENT.get()
    return None if context is None else context.carrier()


@contextmanager
def use_carrier(carrier: Optional[Mapping]):
    """Attach a shipped context on this thread (no-op for ``None``).

    The executing side of every thread/process hand-off wraps its work
    in this, so spans opened there become children of the submitting
    side's span even though context-vars do not cross threads.
    """
    if not carrier:
        yield
        return
    token = _CURRENT.set(
        TraceContext(
            str(carrier["trace_id"]), carrier.get("span_id")
        )
    )
    try:
        yield
    finally:
        _CURRENT.reset(token)


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------
class NoopSpan:
    """The shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set_attribute(self, key, value) -> None:
        return None

    @property
    def context(self) -> None:
        return None


NOOP_SPAN = NoopSpan()


class Span:
    """One live span: a context manager that records itself on exit."""

    __slots__ = (
        "name",
        "attrs",
        "trace_id",
        "span_id",
        "parent_id",
        "_root",
        "_token",
        "_start_epoch",
        "_start_perf",
    )

    def __init__(
        self,
        name: str,
        attrs: Dict,
        trace_id: Optional[str] = None,
        root: bool = False,
    ):
        self.name = name
        self.attrs = attrs
        self.trace_id = trace_id
        self.span_id = None
        self.parent_id = None
        self._root = root
        self._token = None
        self._start_epoch = 0.0
        self._start_perf = 0.0

    def __enter__(self) -> "Span":
        parent = None if self._root else _CURRENT.get()
        if self.trace_id is None:
            self.trace_id = (
                parent.trace_id if parent is not None else new_trace_id()
            )
        self.span_id = new_span_id()
        if parent is not None:
            self.parent_id = parent.span_id
        self._token = _CURRENT.set(
            TraceContext(self.trace_id, self.span_id)
        )
        self._start_epoch = time.time()
        self._start_perf = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._start_perf
        _CURRENT.reset(self._token)
        collector = _COLLECTOR
        if collector is not None:
            status = "ok"
            if exc_type is not None:
                status = "error"
                self.attrs.setdefault("error", exc_type.__name__)
            thread = threading.current_thread()
            collector.add(
                SpanRecord(
                    name=self.name,
                    trace_id=self.trace_id,
                    span_id=self.span_id,
                    parent_id=self.parent_id,
                    start=self._start_epoch,
                    duration=duration,
                    attrs=self.attrs,
                    pid=os.getpid(),
                    tid=thread.ident or 0,
                    thread=thread.name,
                    status=status,
                )
            )
        return False

    def set_attribute(self, key, value) -> None:
        self.attrs[key] = value

    @property
    def context(self) -> Dict[str, str]:
        """Carrier for hand-offs opened while this span is active."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}


def span(name: str, **attrs):
    """Open a span as a context manager.

    Disabled tracing short-circuits to the shared :data:`NOOP_SPAN` —
    nothing is allocated beyond the ``attrs`` kwargs themselves, so
    instrumented hot paths cost one global read per call.
    """
    if _COLLECTOR is None:
        return NOOP_SPAN
    return Span(name, attrs)


def root_span(name: str, trace_id: Optional[str] = None, **attrs):
    """Open a span that starts a trace (ignores any inherited context).

    The HTTP layer uses this with the accepted/assigned ``X-Trace-Id``
    so one request is one trace regardless of the handler thread's
    leftover state.
    """
    if _COLLECTOR is None:
        return NOOP_SPAN
    return Span(name, attrs, trace_id=trace_id, root=True)
