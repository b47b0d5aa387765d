"""Minimal, stdlib-only Prometheus-style metrics — the global registry.

One process, one registry: the service's ``GET /metrics``, the
criticality engine's counters and the tracer's span-duration histograms
all land in :func:`global_registry`, so a single scrape shows the whole
pipeline (HTTP latency, job lifecycle, batch occupancy, engine cache
hit-rate, lanes/s, per-span timing).  Pulling in an actual client
library is out of scope for this repo (stdlib-only observability layer),
and the subset needed is tiny: monotonically increasing counters,
point-in-time gauges and cumulative-bucket histograms, each optionally
split by a fixed label set.  All three are thread-safe — every HTTP
request, job worker and engine call updates them concurrently.

Registration is **get-or-create**: asking twice for the same name with
the same kind and label names returns the same metric object (several
subsystems — and several :class:`AnalysisService` instances in one test
process — share the global registry), while a kind or label mismatch
still raises.

Semantics follow the Prometheus conventions:

* a :class:`Counter` only ever increases;
* a :class:`Histogram` renders cumulative ``_bucket{le=...}`` series plus
  ``_sum`` and ``_count`` (so averages and quantile estimates work with
  the standard PromQL recipes);
* label values are escaped per the exposition-format rules.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "global_registry",
    "record_engine_stats",
]

#: Default histogram buckets (seconds) — tuned for request latencies from
#: sub-millisecond cache hits to multi-second full analyses.
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == int(value):
        return str(int(value))
    return repr(value)


def _labels_text(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    pairs = ", ".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in zip(names, values)
    )
    return "{" + pairs + "}"


class _Metric:
    """Shared scaffolding: name, help text, label handling, locking."""

    kind = "untyped"

    def __init__(
        self, name: str, help_text: str, labelnames: Sequence[str] = ()
    ):
        self.name = name
        self.help_text = help_text
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._samples: Dict[Tuple[str, ...], object] = {}

    def _key(self, labels: Dict[str, str]) -> Tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name} expects labels {self.labelnames}, "
                f"got {tuple(labels)}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def header(self) -> List[str]:
        return [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.kind}",
        ]

    def snapshot(self) -> Dict[Tuple[str, ...], float]:
        """Point-in-time scalar value per label key (history sampler API).

        Counters and gauges yield their value; histograms override this
        to yield ``(count, sum)`` pairs so rates and means can be derived
        from consecutive samples without keeping every observation.
        """
        with self._lock:
            return {key: float(v) for key, v in self._samples.items()}


class Counter(_Metric):
    """A monotonically increasing counter, optionally labelled."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        key = self._key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        with self._lock:
            return float(self._samples.get(self._key(labels), 0.0))

    def render(self) -> List[str]:
        lines = self.header()
        with self._lock:
            samples = sorted(self._samples.items())
        if not samples and not self.labelnames:
            samples = [((), 0.0)]
        for key, value in samples:
            lines.append(
                f"{self.name}{_labels_text(self.labelnames, key)} "
                f"{_format_value(value)}"
            )
        return lines


class Gauge(_Metric):
    """A value that can go up and down (queue depth, registry size)."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            self._samples[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: str) -> float:
        with self._lock:
            return float(self._samples.get(self._key(labels), 0.0))

    def render(self) -> List[str]:
        lines = self.header()
        with self._lock:
            samples = sorted(self._samples.items())
        if not samples and not self.labelnames:
            samples = [((), 0.0)]
        for key, value in samples:
            lines.append(
                f"{self.name}{_labels_text(self.labelnames, key)} "
                f"{_format_value(value)}"
            )
        return lines


class Histogram(_Metric):
    """Cumulative-bucket histogram (`_bucket`/`_sum`/`_count` series)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help_text, labelnames)
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        if bounds[-1] != math.inf:
            bounds.append(math.inf)
        self.buckets = tuple(bounds)

    def observe(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            state = self._samples.get(key)
            if state is None:
                state = [[0] * len(self.buckets), 0.0, 0]
                self._samples[key] = state
            counts, _, _ = state
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[index] += 1
                    break
            state[1] += value
            state[2] += 1

    def count(self, **labels: str) -> int:
        with self._lock:
            state = self._samples.get(self._key(labels))
            return int(state[2]) if state else 0

    def sum(self, **labels: str) -> float:
        with self._lock:
            state = self._samples.get(self._key(labels))
            return float(state[1]) if state else 0.0

    def snapshot(self) -> Dict[Tuple[str, ...], Tuple[int, float]]:
        with self._lock:
            return {
                key: (int(state[2]), float(state[1]))
                for key, state in self._samples.items()
            }

    def render(self) -> List[str]:
        lines = self.header()
        with self._lock:
            samples = sorted(
                (key, ([*state[0]], state[1], state[2]))
                for key, state in self._samples.items()
            )
        for key, (counts, total, count) in samples:
            cumulative = 0
            for bound, bucket_count in zip(self.buckets, counts):
                cumulative += bucket_count
                label_names = (*self.labelnames, "le")
                label_values = (*key, _format_value(bound))
                lines.append(
                    f"{self.name}_bucket"
                    f"{_labels_text(label_names, label_values)} {cumulative}"
                )
            labels_text = _labels_text(self.labelnames, key)
            lines.append(
                f"{self.name}_sum{labels_text} {_format_value(total)}"
            )
            lines.append(f"{self.name}_count{labels_text} {count}")
        return lines


class MetricsRegistry:
    """The set of metrics one scrape endpoint exposes."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    def _get_or_register(self, cls, name, help_text, labelnames, **kwargs):
        labelnames = tuple(labelnames)
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if (
                    type(existing) is not cls
                    or existing.labelnames != labelnames
                ):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels "
                        f"{existing.labelnames}"
                    )
                return existing
            metric = cls(name, help_text, labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help_text: str, labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_register(Counter, name, help_text, labelnames)

    def gauge(
        self, name: str, help_text: str, labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_register(Gauge, name, help_text, labelnames)

    def histogram(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_register(
            Histogram, name, help_text, labelnames, buckets=buckets
        )

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def render(self) -> str:
        """The Prometheus text exposition of every registered metric."""
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        lines: List[str] = []
        for metric in metrics:
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"

    def snapshot(self) -> Dict[str, dict]:
        """One point-in-time view of every metric, for the history tier.

        Maps metric name to ``{"kind", "labelnames", "samples"}`` where
        ``samples`` maps each label-value tuple to the metric's scalar
        value — ``(count, sum)`` for histograms.
        """
        with self._lock:
            metrics = list(self._metrics.values())
        return {
            metric.name: {
                "kind": metric.kind,
                "labelnames": metric.labelnames,
                "samples": metric.snapshot(),
            }
            for metric in metrics
        }


#: The process-wide registry ``GET /metrics`` renders.
_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    return _GLOBAL


# ---------------------------------------------------------------------------
# engine stats fold-in
# ---------------------------------------------------------------------------
def record_engine_stats(stats, registry: Optional[MetricsRegistry] = None):
    """Fold one :class:`repro.analysis.EngineStats` into the registry.

    Called by :meth:`CriticalityEngine.report` after every analysis, so
    the scrape exposes the engine's cumulative behaviour — cache
    hit-rate (``repro_engine_cache_total`` by outcome), fault and lane
    throughput (``rate()`` over the ``_total`` counters), and the
    analysis latency distribution — regardless of whether the engine ran
    under the service, the CLI or a library caller.
    """
    registry = registry if registry is not None else _GLOBAL
    registry.counter(
        "repro_engine_reports_total",
        "Criticality reports computed (or served from cache), by "
        "analysis route.",
        ("route",),
    ).inc(route=stats.route)
    registry.counter(
        "repro_engine_cache_total",
        "Engine result-cache outcomes.",
        ("outcome",),
    ).inc(outcome=stats.cache)
    if stats.cache != "hit":
        registry.counter(
            "repro_engine_faults_total",
            "Faults evaluated by the engine (cache hits excluded).",
        ).inc(stats.faults_evaluated)
        if stats.lanes:
            registry.counter(
                "repro_engine_lanes_total",
                "Fault lanes packed by the bitset kernel.",
            ).inc(stats.lanes)
    if stats.cache_evictions:
        registry.counter(
            "repro_engine_cache_evictions_total",
            "Result-cache entries evicted by LRU pruning.",
        ).inc(stats.cache_evictions)
    registry.histogram(
        "repro_engine_report_seconds",
        "Wall-clock latency of engine report() calls, by cache outcome.",
        ("cache",),
    ).observe(stats.elapsed_seconds, cache=stats.cache)
    return registry
