"""`repro.service` — the batching analysis server (registry, queue, batching).

The long-lived counterpart of the one-shot CLI: networks are uploaded
and interned once (:mod:`registry`), heavy analyses run as tracked jobs
on a worker pool (:mod:`jobs`), concurrent fault queries are coalesced
into shared bitset-kernel passes (:mod:`batching`) and executed on a
sharded pool of worker *processes* keyed by IR fingerprint
(:mod:`workers` — shared-memory kernel shipping, consistent-hash
rebalance on crash), all behind the :class:`AnalysisService` facade in
:mod:`server`.  One stdlib-asyncio HTTP front-end, :mod:`aserver`, sits
on top and owns the route table and error mapping; with
``shard_workers=0`` it solves coalesced batches in-process instead.
Everything is observable over Prometheus-format metrics
(:mod:`repro.obs.metrics`); the retrying :mod:`client` is stdlib-only
too.

Start it with ``repro-rsn serve``; drive it with ``repro-rsn submit``,
:class:`ServiceClient`, or plain ``curl``.
"""

from .aserver import AsyncServerThread, AsyncServiceServer, serve
from .batching import BatchCoalescer
from .client import ServiceClient, ServiceClientError
from .jobs import Job, JobQueue, JobStatus, TransientJobError
from .registry import NetworkRegistry, RegisteredNetwork, RegistryError
from .server import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    AnalysisService,
    NotFoundError,
)
from .workers import (
    PoolClosedError,
    ShardMap,
    WorkerCrashError,
    WorkerPool,
)

__all__ = [
    "AnalysisService",
    "AsyncServerThread",
    "AsyncServiceServer",
    "BatchCoalescer",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "Job",
    "JobQueue",
    "JobStatus",
    "NetworkRegistry",
    "NotFoundError",
    "PoolClosedError",
    "RegisteredNetwork",
    "RegistryError",
    "ServiceClient",
    "ServiceClientError",
    "ShardMap",
    "TransientJobError",
    "WorkerCrashError",
    "WorkerPool",
    "serve",
]
