"""Trace propagation across the job queue's thread boundary.

The queue's worker and attempt threads must preserve the parent chain
(context-vars do not cross threads).  The process boundary — shard
workers shipping span dicts home — is covered by
``tests/service/test_tracing.py``.
"""

import pytest

import repro.obs.trace as trace_mod
from repro.bench import build_design
from repro.analysis import CriticalityEngine
from repro.obs import (
    SpanCollector,
    current_collector,
    disable_tracing,
    enable_tracing,
    root_span,
    span,
)
from repro.service.jobs import JobQueue, TransientJobError
from repro.spec import spec_for_network

TRACE = "f0" * 16


@pytest.fixture(autouse=True)
def _reset_tracing():
    disable_tracing()
    yield
    disable_tracing()


def _engine():
    network = build_design("TreeFlat")
    spec = spec_for_network(network, seed=0)
    return CriticalityEngine(network, spec)


def _by_name(collector):
    spans = {}
    for record in collector.spans():
        spans.setdefault(record.name, []).append(record)
    return spans


# ---------------------------------------------------------------------------
# thread boundary: the job queue
# ---------------------------------------------------------------------------
class TestJobQueueBoundary:
    def test_job_spans_nest_under_the_submitting_trace(self):
        collector = enable_tracing(SpanCollector())
        queue = JobQueue(workers=1)
        try:
            with root_span("http.request", trace_id=TRACE) as root:
                job = queue.submit(
                    lambda job: 41 + 1, kind="analyze"
                )
            assert job.wait(timeout=10.0)
            assert job.result == 42
        finally:
            queue.shutdown(timeout=10.0)
        spans = _by_name(collector)
        (run,) = spans["job.run"]
        (attempt,) = spans["job.attempt"]
        assert run.trace_id == TRACE
        assert run.parent_id == root.context["span_id"]
        assert attempt.trace_id == TRACE
        assert attempt.parent_id == run.span_id
        assert attempt.attrs["kind"] == "analyze"

    def test_handler_spans_nest_under_the_attempt(self):
        collector = enable_tracing(SpanCollector())
        queue = JobQueue(workers=1)

        def handler(job):
            with span("handler.work"):
                return "done"

        try:
            with root_span("http.request", trace_id=TRACE):
                job = queue.submit(handler)
            assert job.wait(timeout=10.0)
        finally:
            queue.shutdown(timeout=10.0)
        spans = _by_name(collector)
        (attempt,) = spans["job.attempt"]
        (work,) = spans["handler.work"]
        assert work.trace_id == TRACE
        assert work.parent_id == attempt.span_id

    def test_retries_become_sibling_attempt_spans(self):
        collector = enable_tracing(SpanCollector())
        queue = JobQueue(workers=1, retry_backoff=0.0)
        calls = []

        def flaky(job):
            calls.append(job.attempts)
            if len(calls) == 1:
                raise TransientJobError("transient")
            return "ok"

        try:
            with root_span("http.request", trace_id=TRACE):
                job = queue.submit(flaky, max_retries=2)
            assert job.wait(timeout=10.0)
            assert job.result == "ok"
        finally:
            queue.shutdown(timeout=10.0)
        spans = _by_name(collector)
        (run,) = spans["job.run"]
        attempts = spans["job.attempt"]
        assert len(attempts) == 2
        assert {a.parent_id for a in attempts} == {run.span_id}
        assert [a.attrs["attempt"] for a in attempts] == [1, 2]
        assert attempts[0].status == "error"
        assert attempts[1].status == "ok"

    def test_untraced_submission_records_nothing(self):
        collector = enable_tracing(SpanCollector())
        queue = JobQueue(workers=1)
        try:
            job = queue.submit(lambda job: None)
            assert job.wait(timeout=10.0)
        finally:
            queue.shutdown(timeout=10.0)
        # No ambient trace at submit: the job still runs, and its spans
        # form their own trace rooted at job.run.
        spans = _by_name(collector)
        (run,) = spans["job.run"]
        (attempt,) = spans["job.attempt"]
        assert run.parent_id is None
        assert attempt.trace_id == run.trace_id


class TestDisabledOverhead:
    def test_disabled_run_allocates_no_span_machinery(self, monkeypatch):
        """With tracing off, an instrumented end-to-end run must never
        construct a Span or a SpanRecord — the hot path pays only the
        ``_COLLECTOR is None`` check."""

        def bomb(*args, **kwargs):
            raise AssertionError(
                "span machinery allocated with tracing disabled"
            )

        monkeypatch.setattr(trace_mod, "Span", bomb)
        monkeypatch.setattr(trace_mod, "SpanRecord", bomb)
        engine = _engine()
        report = engine.report()
        assert report.total > 0
        assert current_collector() is None

    def test_disabled_span_calls_share_one_noop(self):
        first = span("batch.sweep", direction="forward")
        second = span("engine.analyze")
        assert first is second is trace_mod.NOOP_SPAN
