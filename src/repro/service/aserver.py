"""The HTTP front-end of the analysis service (stdlib asyncio).

One event loop serves every connection.  A ``/damage`` request stays on
that one thread from HTTP parse to pipe write and from pipe read to
response: it is parsed and validated on the loop, parked on the
coalescer, which dispatches an idle key's batch right there, and the
handler coroutine *awaits* the resulting future.  With a worker pool
(:mod:`repro.service.workers`) the server binds the pool's pipe I/O to
its loop on start, so the batch is written to the shard worker and its
result read and scattered on the loop too; with ``shard_workers=0`` the
solve runs on the service's one solve thread, never on the loop.  A
thousand concurrent requests are a thousand coroutines, not a thousand
threads.  Blocking service calls that are not future-shaped (uploads
interning a network, job submission, profiling) run in the loop's
default thread-pool executor so the loop never stalls behind them.

This module owns the service's only route table
(:meth:`AsyncServiceServer._handle`), its HTTP error mapping and the
``X-Trace-Id`` protocol (:meth:`AsyncServiceServer._route`); the
:class:`~repro.service.server.AnalysisService` facade underneath knows
nothing about HTTP.

API
---
=======  =================  ==============================================
POST     /networks          upload (icl text / builder JSON / design name)
GET      /networks          list registered networks
POST     /jobs              submit a job (analyze / harden / table1 /
                            campaign / sleep)
GET      /jobs              list jobs
GET      /jobs/<id>         job status + result
DELETE   /jobs/<id>         cancel a job
POST     /damage            coalesced fault-damage query
GET      /healthz           liveness + versions + job counts (+ pool)
GET      /version           package + analysis + IR versions
GET      /metrics           Prometheus text exposition
GET      /metrics/history   ring-buffer time series (?name=&points=)
GET      /logs              structured log tail (?level=&trace_id=&limit=)
POST     /profile           sampling profile (service or shard worker)
GET      /trace/<id>        collected spans as Chrome trace JSON
GET      /dashboard         self-contained live HTML dashboard
=======  =================  ==============================================

Errors are JSON ``{"error", "trace_id"}`` bodies: 404 for unknown
routes, networks, jobs and traces; 408 for a ``/damage`` query that
outlives its ``timeout``; 400 for invalid payloads and malformed HTTP;
413 for a ``Content-Length`` over ``_MAX_BODY`` (the body is not read);
500 for anything else.  Malformed HTTP and 413 also close the
connection.

Use :func:`serve` as the entry point (the CLI's ``serve``), or
:class:`AsyncServerThread` to host one on a private event-loop thread
inside tests and benchmarks.
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import signal
import threading
import time
import urllib.parse
from typing import Dict, Optional, Tuple

from .. import __version__
from ..errors import ReproError
from ..obs.dashboard import dashboard_html
from ..obs.log import get_logger
from ..obs.trace import new_trace_id, root_span
from .server import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    AnalysisService,
    NotFoundError,
)

__all__ = [
    "AsyncServerThread",
    "AsyncServiceServer",
    "serve",
]

_MAX_HEADERS = 100
_MAX_BODY = 128 * 1024 * 1024

_log = get_logger("aserver")

_REASONS = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    408: "Request Timeout",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


class _BadRequest(ReproError):
    """Malformed HTTP — answered with ``status`` and a closed
    connection."""

    status = 400


class _PayloadTooLarge(_BadRequest):
    status = 413


async def _readline(reader) -> bytes:
    """``reader.readline()`` with an over-limit line as a 400.

    The stream's buffer limit (64 KiB by default) bounds a request or
    header line; past it ``readline`` raises ``ValueError``.
    """
    try:
        return await reader.readline()
    except ValueError:
        raise _BadRequest("request or header line too long") from None


async def _off_loop(loop, fn, *args):
    """``run_in_executor`` carrying the caller's contextvars.

    The stdlib executor hop drops the contextvars context, which would
    detach the active ``http.request`` span from everything the service
    records beneath it (service.damage, coalescer.dispatch, the
    worker-side spans stitched back through the carrier).
    """
    ctx = contextvars.copy_context()
    return await loop.run_in_executor(None, lambda: ctx.run(fn, *args))


class AsyncServiceServer:
    """One event-loop HTTP server over an :class:`AnalysisService`.

    ``await start()`` binds (port 0 picks an ephemeral port and updates
    ``self.port``); ``await close()`` stops accepting and closes the
    listener.  The service itself is owned by the caller.
    """

    def __init__(
        self,
        service: AnalysisService,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        verbose: bool = False,
    ):
        self.service = service
        self.host = host
        self.port = port
        self.verbose = verbose
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def server_address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    async def start(self) -> "AsyncServiceServer":
        self._server = await asyncio.start_server(
            self._client,
            self.host,
            self.port,
            backlog=1024,
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        self.service.bind_loop(asyncio.get_running_loop())
        return self

    async def close(self) -> None:
        """Stop listening, and hand the worker pool's I/O back to a
        private thread so it keeps resolving results (a graceful drain
        still flushes parked batches) once this loop stops."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
            self.service.bind_loop(None)

    # -- connection handling ---------------------------------------------
    async def _client(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadRequest as exc:
                    await self._write(
                        writer, exc.status, {"error": str(exc)}, None, False
                    )
                    return
                if request is None:
                    return
                method, path, version, headers, body = request
                keep_alive = (
                    version == "HTTP/1.1"
                    and headers.get("connection", "").lower() != "close"
                )
                status, payload, trace_id = await self._route(
                    method, path, headers, body
                )
                await self._write(
                    writer, status, payload, trace_id, keep_alive
                )
                if not keep_alive:
                    return
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            return
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _read_request(self, reader):
        """One parsed request, or ``None`` on a cleanly closed socket."""
        request_line = await _readline(reader)
        if not request_line:
            return None
        try:
            method, target, version = (
                request_line.decode("latin-1").strip().split(" ", 2)
            )
        except ValueError:
            raise _BadRequest("malformed request line") from None
        headers: Dict[str, str] = {}
        while True:
            line = await _readline(reader)
            if not line:
                return None
            if line in (b"\r\n", b"\n"):
                break
            if len(headers) >= _MAX_HEADERS:
                raise _BadRequest("too many headers")
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length") or 0)
        except ValueError:
            raise _BadRequest("non-integer Content-Length") from None
        if length < 0:
            raise _BadRequest(f"invalid Content-Length {length}")
        if length > _MAX_BODY:
            raise _PayloadTooLarge(
                f"Content-Length {length} exceeds the {_MAX_BODY}-byte limit"
            )
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target, version, headers, body

    # -- routing ---------------------------------------------------------
    async def _route(self, method, target, headers, body):
        started = time.perf_counter()
        raw_path, _, raw_query = target.partition("?")
        path = raw_path.rstrip("/") or "/"
        query = {
            key: values[-1]
            for key, values in urllib.parse.parse_qs(raw_query).items()
        }
        header_id = (headers.get("x-trace-id") or "").strip()
        trace_id = header_id[:64] if header_id else new_trace_id()
        route, status = path, 500
        payload: object = None
        error: Optional[str] = None
        with root_span(
            "http.request",
            trace_id=trace_id,
            method=method,
            path=path,
        ) as request_span:
            try:
                route, status, payload = await self._handle(
                    method, path, query, body
                )
            except NotFoundError as exc:
                status, error = 404, str(exc)
            except asyncio.TimeoutError:
                status, error = 408, "damage query timed out"
            except (ReproError, ValueError, KeyError, TypeError) as exc:
                status, error = 400, str(exc)
            except Exception as exc:  # pragma: no cover - defensive
                status, error = 500, f"{type(exc).__name__}: {exc}"
            finally:
                request_span.set_attribute("route", route)
                request_span.set_attribute("status", status)
                service = self.service
                service._m_requests.inc(
                    method=method, path=route, status=str(status)
                )
                service._m_request_seconds.observe(
                    time.perf_counter() - started, path=route
                )
                # Structured replacement for the old "[aserver] GET /x
                # -> 200" print; --verbose raises it to INFO (echoed on
                # stderr when logging is configured).
                (_log.info if self.verbose else _log.debug)(
                    "request",
                    method=method,
                    path=route,
                    status=status,
                    seconds=round(time.perf_counter() - started, 6),
                )
        if error is not None:
            payload = {"error": error, "trace_id": trace_id}
        return status, payload, trace_id

    def _json_body(self, body: bytes) -> Dict:
        if not body:
            return {}
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ReproError(f"invalid JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise ReproError("request body must be a JSON object")
        return payload

    async def _handle(self, method, path, query, body):
        """Returns (normalized route, status, payload)."""
        service = self.service
        loop = asyncio.get_running_loop()
        if method == "GET" and path == "/healthz":
            return path, 200, service.healthz()
        if method == "GET" and path == "/version":
            return path, 200, service.version()
        if method == "GET" and path == "/metrics":
            return path, 200, service.metrics.render()
        if method == "GET" and path == "/metrics/history":
            points = query.get("points")
            return path, 200, service.metrics_history(
                name=query.get("name") or None,
                points=int(points) if points else None,
            )
        if method == "GET" and path == "/logs":
            limit = query.get("limit")
            return path, 200, service.logs(
                level=query.get("level") or None,
                trace_id=query.get("trace_id") or None,
                logger=query.get("logger") or None,
                limit=int(limit) if limit else 200,
            )
        if method == "POST" and path == "/profile":
            # Blocks for the sampling window (service) or on the worker
            # future — always off-loop.
            payload = self._json_body(body)
            result = await _off_loop(loop, service.profile, payload)
            return path, 200, result
        if method == "GET" and path == "/dashboard":
            return path, 200, ("text/html; charset=utf-8", dashboard_html())
        if method == "GET" and path.startswith("/trace/"):
            trace_id = path[len("/trace/") :]
            if "/" not in trace_id:
                return "/trace/{id}", 200, service.trace(trace_id)
        if path == "/networks":
            if method == "GET":
                return path, 200, service.list_networks()
            if method == "POST":
                # Interning a large upload is CPU-bound — keep it off
                # the loop so health checks stay responsive.
                payload = self._json_body(body)
                result = await _off_loop(loop, service.upload, payload)
                return path, 201, result
        if path == "/jobs":
            if method == "GET":
                return path, 200, service.list_jobs()
            if method == "POST":
                payload = self._json_body(body)
                result = await _off_loop(
                    loop, service.submit_job, payload
                )
                return path, 202, result
        if path.startswith("/jobs/"):
            job_id = path[len("/jobs/") :]
            route = "/jobs/{id}"
            if "/" not in job_id:
                if method == "GET":
                    return route, 200, service.job_info(job_id)
                if method == "DELETE":
                    return route, 200, service.cancel_job(job_id)
        if method == "POST" and path == "/damage":
            payload = self._json_body(body)
            # Validation, parking and dispatch run on the loop: fault
            # parsing is the same order of work as the json.loads above
            # and never blocks; the await costs the coroutine nothing
            # while the solve runs.
            meta, future, timeout = service.damage_submit(payload)
            damages = await asyncio.wait_for(
                asyncio.wrap_future(future), timeout=timeout
            )
            return path, 200, {**meta, "damages": damages}
        raise NotFoundError(f"no route {method} {path}")

    # -- response writing -------------------------------------------------
    async def _write(self, writer, status, payload, trace_id, keep_alive):
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        elif isinstance(payload, tuple):
            # (content_type, text) — the dashboard's HTML response.
            content_type, text = payload
            body = text.encode("utf-8")
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        reason = _REASONS.get(status, "OK")
        head = [
            f"HTTP/1.1 {status} {reason}",
            f"Server: repro-rsn/{__version__}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
        ]
        if trace_id:
            head.append(f"X-Trace-Id: {trace_id}")
        head.append(
            f"Connection: {'keep-alive' if keep_alive else 'close'}"
        )
        writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
        )
        await writer.drain()


# ---------------------------------------------------------------------------
# hosting helpers
# ---------------------------------------------------------------------------
async def _serve(
    service: AnalysisService,
    host: str,
    port: int,
    verbose: bool,
    install_signal_handlers: bool,
    ready_message: bool,
) -> int:
    server = AsyncServiceServer(service, host, port, verbose=verbose)
    await server.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    if install_signal_handlers:
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                signal.signal(signum, lambda *_: stop.set())
    if ready_message:
        workers = (
            service.pool.n_workers if service.pool is not None else 0
        )
        # Structured when logging is configured (service __init__ does
        # that), one human-readable stderr line otherwise.
        service.log.info(
            "service listening",
            shard_workers=workers,
            url=f"http://{server.host}:{server.port}",
            cache=service.cache_dir or "disabled",
        )
    try:
        await stop.wait()
    finally:
        await server.close()
        # Graceful drain off-loop: parked batches flush through the
        # pool, jobs finish, then the workers stop.
        await loop.run_in_executor(
            None, lambda: service.close(drain=True, timeout=30.0)
        )
    return 0


def serve(
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    verbose: bool = False,
    install_signal_handlers: bool = True,
    ready_message: bool = True,
    **service_kwargs,
) -> int:
    """Run the daemon until SIGINT/SIGTERM; drains jobs on the way out
    (the CLI's ``serve``).  ``shard_workers=0`` solves coalesced batches
    in this process instead of in worker processes."""
    service = AnalysisService(**service_kwargs)
    return asyncio.run(
        _serve(
            service,
            host,
            port,
            verbose,
            install_signal_handlers,
            ready_message,
        )
    )


class AsyncServerThread:
    """Host an :class:`AsyncServiceServer` on a private loop thread.

    Tests and benchmarks need the async front-end alongside a live
    client in the same process; this wraps the loop bookkeeping:
    construction binds and serves, :meth:`stop` tears the listener and
    loop down (the service is left to the caller).
    """

    def __init__(
        self,
        service: AnalysisService,
        host: str = DEFAULT_HOST,
        port: int = 0,
        verbose: bool = False,
    ):
        self.server = AsyncServiceServer(
            service, host, port, verbose=verbose
        )
        self._loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-aserver", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise ReproError("async server did not start within 10s")
        if self._startup_error is not None:
            raise ReproError(
                f"async server failed to start: {self._startup_error}"
            )

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def url(self) -> str:
        return f"http://{self.server.host}:{self.server.port}"

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.server.start())
        except BaseException as exc:  # pragma: no cover - bind failure
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.close()

    def stop(self, timeout: float = 10.0) -> None:
        if not self._thread.is_alive():
            return
        future = asyncio.run_coroutine_threadsafe(
            self.server.close(), self._loop
        )
        try:
            future.result(timeout=timeout)
        except Exception:
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)
