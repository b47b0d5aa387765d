"""Span exporters: Chrome ``trace_event`` JSON and a hot-path text tree.

The Chrome format (loadable in ``chrome://tracing`` or Perfetto) is the
portable target: each finished span becomes one complete event
(``"ph": "X"``) with microsecond timestamps, laid out on a
``(pid, tid)`` track so spans from shard worker processes appear as their
own process rows next to the service threads that dispatched them.
Timestamps are normalized to the earliest span start, which keeps the
numbers small and the viewer's initial viewport sensible.

The hot-path tree is the terminal-friendly view: spans of one trace
arranged parent→child with inclusive durations and percent-of-root,
sorted slowest-first, so ``repro-rsn analyze --trace`` can answer
"where did the time go?" without leaving the shell.
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping, Optional, Sequence, Union

from .trace import SpanCollector, SpanRecord

__all__ = [
    "chrome_trace_events",
    "chrome_trace_json",
    "hot_path_tree",
    "write_chrome_trace",
]

_Records = Union[SpanCollector, Sequence[SpanRecord]]


def _records(source: _Records, trace_id: Optional[str]) -> List[SpanRecord]:
    if isinstance(source, SpanCollector):
        return source.spans(trace_id)
    records = list(source)
    if trace_id is not None:
        records = [r for r in records if r.trace_id == trace_id]
    return records


def chrome_trace_events(
    source: _Records, trace_id: Optional[str] = None
) -> List[Dict]:
    """The ``traceEvents`` list for ``chrome://tracing``.

    Emits one ``"X"`` (complete) event per span plus ``"M"`` metadata
    events naming each process row, e.g. ``worker (pid 4242)`` for
    spans shipped home from pool workers.
    """
    records = _records(source, trace_id)
    if not records:
        return []
    origin = min(record.start for record in records)
    main_pid = min(record.pid for record in records)
    events: List[Dict] = []
    for pid in sorted({record.pid for record in records}):
        label = "service" if pid == main_pid else f"worker (pid {pid})"
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
    named_threads = {}
    for record in records:
        if record.thread and (record.pid, record.tid) not in named_threads:
            named_threads[(record.pid, record.tid)] = record.thread
    for (pid, tid), name in sorted(named_threads.items()):
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": pid,
                "tid": tid,
                "args": {"name": name},
            }
        )
    for record in sorted(records, key=lambda r: r.start):
        args = {
            "trace_id": record.trace_id,
            "span_id": record.span_id,
        }
        if record.parent_id:
            args["parent_id"] = record.parent_id
        if record.status != "ok":
            args["status"] = record.status
        args.update(record.attrs)
        events.append(
            {
                "ph": "X",
                "name": record.name,
                "cat": record.name.split(".", 1)[0],
                "ts": round((record.start - origin) * 1e6, 3),
                "dur": round(record.duration * 1e6, 3),
                "pid": record.pid,
                "tid": record.tid,
                "args": args,
            }
        )
    return events


def chrome_trace_json(
    source: _Records, trace_id: Optional[str] = None
) -> str:
    document = {
        "traceEvents": chrome_trace_events(source, trace_id),
        "displayTimeUnit": "ms",
    }
    return json.dumps(document, default=str)


def write_chrome_trace(
    path: str, source: _Records, trace_id: Optional[str] = None
) -> int:
    """Write the Chrome trace JSON to ``path``; returns the span count."""
    events = chrome_trace_events(source, trace_id)
    document = {"traceEvents": events, "displayTimeUnit": "ms"}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, default=str)
    return sum(1 for event in events if event["ph"] == "X")


def _format_attrs(attrs: Mapping) -> str:
    if not attrs:
        return ""
    inner = ", ".join(f"{key}={value}" for key, value in attrs.items())
    return f"  [{inner}]"


def hot_path_tree(
    source: _Records,
    trace_id: Optional[str] = None,
    max_depth: int = 10,
    min_fraction: float = 0.001,
) -> str:
    """Render one trace as an indented tree, slowest subtree first.

    Spans whose parent never finished (or was recorded in a process
    whose spans were dropped) surface as extra roots rather than being
    silently lost.  Subtrees below ``min_fraction`` of the root duration
    are elided with a ``… n more`` marker.
    """
    records = _records(source, trace_id)
    if not records:
        return "(no spans)"
    by_id = {record.span_id: record for record in records}
    children: Dict[Optional[str], List[SpanRecord]] = {}
    roots: List[SpanRecord] = []
    for record in records:
        if record.parent_id and record.parent_id in by_id:
            children.setdefault(record.parent_id, []).append(record)
        else:
            roots.append(record)
    roots.sort(key=lambda r: r.duration, reverse=True)
    total = max((root.duration for root in roots), default=0.0)
    threshold = total * min_fraction

    lines: List[str] = []

    def emit(record: SpanRecord, depth: int) -> None:
        indent = "  " * depth
        percent = 100.0 * record.duration / total if total else 0.0
        marker = "" if record.status == "ok" else "  !error"
        lines.append(
            f"{indent}{record.name}  {record.duration * 1e3:.3f} ms"
            f"  ({percent:.1f}%){marker}{_format_attrs(record.attrs)}"
        )
        if depth + 1 > max_depth:
            return
        kids = sorted(
            children.get(record.span_id, ()),
            key=lambda r: r.duration,
            reverse=True,
        )
        elided = 0
        for kid in kids:
            if kid.duration < threshold and len(kids) > 1:
                elided += 1
                continue
            emit(kid, depth + 1)
        if elided:
            lines.append(f"{'  ' * (depth + 1)}… {elided} more")

    for root in roots:
        emit(root, 0)
    return "\n".join(lines)
