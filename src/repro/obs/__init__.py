"""Observability: tracing, metrics + history, logs, profiler, resources.

See DESIGN.md §5f (tracing/metrics) and §5k (the live telemetry tier:
metrics history sampler, structured logging, sampling profiler, per-job
resource accounting, dashboard).
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
    record_engine_stats,
)
from .trace import (
    NOOP_SPAN,
    Span,
    SpanCollector,
    SpanRecord,
    TraceContext,
    collecting,
    current_carrier,
    current_collector,
    current_context,
    disable_tracing,
    enable_tracing,
    new_span_id,
    new_trace_id,
    root_span,
    span,
    tracing_enabled,
    use_carrier,
)
from .export import (
    chrome_trace_events,
    chrome_trace_json,
    hot_path_tree,
    write_chrome_trace,
)
from .history import (
    MetricsHistory,
    current_history,
    disable_history,
    enable_history,
)
from .log import (
    LogBuffer,
    LogRecord,
    Logger,
    capturing,
    configure_logging,
    current_log_buffer,
    disable_logging,
    get_logger,
    logging_configured,
    parse_level,
)
from .profile import SamplingProfiler, profile_for, top_view
from .resources import (
    ResourceProbe,
    add_lane_bytes,
    lane_bytes_total,
    process_cpu_seconds,
    process_rss_bytes,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LogBuffer",
    "LogRecord",
    "Logger",
    "MetricsHistory",
    "MetricsRegistry",
    "NOOP_SPAN",
    "ResourceProbe",
    "SamplingProfiler",
    "Span",
    "SpanCollector",
    "SpanRecord",
    "TraceContext",
    "add_lane_bytes",
    "capturing",
    "chrome_trace_events",
    "chrome_trace_json",
    "collecting",
    "configure_logging",
    "current_carrier",
    "current_collector",
    "current_context",
    "current_history",
    "current_log_buffer",
    "disable_history",
    "disable_logging",
    "disable_tracing",
    "enable_history",
    "enable_tracing",
    "get_logger",
    "global_registry",
    "hot_path_tree",
    "lane_bytes_total",
    "logging_configured",
    "new_span_id",
    "new_trace_id",
    "parse_level",
    "process_cpu_seconds",
    "process_rss_bytes",
    "profile_for",
    "record_engine_stats",
    "root_span",
    "span",
    "top_view",
    "tracing_enabled",
    "use_carrier",
    "write_chrome_trace",
]
