"""Cached criticality engine — the service-grade analysis path.

:class:`CriticalityEngine` wraps the per-fault damage evaluation of
:mod:`repro.analysis.damage` into a reusable substrate:

* **one in-process evaluation** — the analysis is the one
  :func:`repro.analysis.route_analysis` picks (route ``dp`` on
  series-parallel networks, ``bitset`` otherwise), evaluated in the
  calling process; the engine records the route in its stats, span and
  metrics.  On the ``dp`` route a full report is one vectorized pass
  over prefix sums, so there is nothing a process pool could amortize.
* **persistent result cache** — a completed report is stored on disk
  keyed by a content fingerprint of (compiled-IR fingerprint,
  specification weights, policy, damage sites,
  :data:`ANALYSIS_VERSION`), so repeated
  ``cli analyze`` / ``cli table1`` runs and EA re-evaluations of the same
  problem skip the analysis entirely.  Any change to the network or spec
  changes the fingerprint and invalidates the entry; changes to the
  analysis algorithms must bump :data:`ANALYSIS_VERSION`.
* **instrumentation** — an :class:`EngineStats` record (faults/s, cache
  outcome, memoization and lane counters) for ``--stats`` output and
  benchmark capture.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ReproError
from ..obs.metrics import record_engine_stats
from ..obs.trace import span
from ..ir import MUX as IR_MUX
from ..ir import intern
from ..rsn.network import RsnNetwork
from ..sp.tree import SPTree
from .damage import DamageReport, assemble_report, partition_primitives
from .graph_analysis import GraphDamageAnalysis
from .route import route_analysis

#: Bump whenever the damage semantics change, so stale disk-cache entries
#: can never be served for a new algorithm version.  "4": the key names
#: no method or backend (the route follows from the network) and keys
#: the spec by its weight digest.
ANALYSIS_VERSION = "4"

_SITES = ("all", "control", "mux")


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-rsn``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-rsn")


# ---------------------------------------------------------------------------
# content fingerprint
# ---------------------------------------------------------------------------
def analysis_fingerprint(
    network: RsnNetwork,
    spec,
    policy: str = "max",
    sites: str = "all",
) -> str:
    """SHA-256 over everything the report depends on (the cache key).

    The network contribution is the compiled IR's content fingerprint,
    which folds in :data:`repro.ir.IR_VERSION` — a change to either the
    analysis semantics (:data:`ANALYSIS_VERSION`) or the IR layout
    invalidates every older cache entry.  The spec enters only through
    its damage weights (:meth:`repro.ir.CompiledNetwork.spec_digest`):
    ``d_j`` depends on nothing else.  The route is not part of the key:
    it follows from the network, and both routes agree exactly.
    """
    ir = intern(network)
    text = "\x00".join(
        (ANALYSIS_VERSION, policy, sites, ir.fingerprint, ir.spec_digest(spec))
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------
@dataclass
class EngineStats:
    """Timing and counter instrumentation of one ``report()`` call."""

    network: str = ""
    #: The analysis route: "dp" or "bitset" (see repro.analysis.route).
    route: str = ""
    policy: str = "max"
    sites: str = "all"
    #: Fault lanes packed / lane chunks solved by the bitset kernel
    #: (0 on the dp route).
    lanes: int = 0
    lane_chunks: int = 0
    primitives_evaluated: int = 0
    faults_evaluated: int = 0
    elapsed_seconds: float = 0.0
    faults_per_second: float = 0.0
    #: "hit" | "miss" | "disabled"
    cache: str = "disabled"
    cache_key: Optional[str] = None
    #: Entries evicted by the size-capped LRU pruning of this store.
    cache_evictions: int = 0
    memo: Dict[str, int] = field(default_factory=dict)

    @property
    def memo_hit_rate(self) -> float:
        hits = sum(v for k, v in self.memo.items() if k.endswith("hits"))
        misses = sum(
            v for k, v in self.memo.items() if k.endswith("misses")
        )
        return hits / (hits + misses) if hits + misses else 0.0

    def as_dict(self) -> Dict:
        return {
            "network": self.network,
            "route": self.route,
            "policy": self.policy,
            "sites": self.sites,
            "lanes": self.lanes,
            "lane_chunks": self.lane_chunks,
            "primitives_evaluated": self.primitives_evaluated,
            "faults_evaluated": self.faults_evaluated,
            "elapsed_seconds": self.elapsed_seconds,
            "faults_per_second": self.faults_per_second,
            "cache": self.cache,
            "cache_key": self.cache_key,
            "cache_evictions": self.cache_evictions,
            "memo": dict(self.memo),
            "memo_hit_rate": self.memo_hit_rate,
        }

    def format(self) -> str:
        """Human-readable block for the CLI's ``--stats`` flag."""
        lines = [
            f"engine stats     : {self.network} "
            f"[{self.route}/{self.policy}/{self.sites}]",
            f"  elapsed        : {self.elapsed_seconds:.3f}s",
            f"  faults         : {self.faults_evaluated:,} "
            f"({self.faults_per_second:,.0f} faults/s)",
        ]
        if self.lanes:
            lines.append(
                f"  fault lanes    : {self.lanes:,} "
                f"({self.lane_chunks} lane chunks)"
            )
        if self.cache == "hit":
            lines.append("  result cache   : hit (analysis skipped)")
        elif self.cache == "miss":
            lines.append("  result cache   : miss (stored for next run)")
        else:
            lines.append("  result cache   : disabled")
        if self.cache_key:
            lines.append(f"  cache key      : {self.cache_key[:16]}…")
        if self.cache_evictions:
            lines.append(
                f"  cache evicted  : {self.cache_evictions} entries (LRU)"
            )
        if self.memo:
            lines.append(
                f"  memo hit rate  : {self.memo_hit_rate:.1%} "
                f"({sum(self.memo.values()):,} lookups)"
            )
        return "\n".join(lines)


@dataclass
class CumulativeEngineStats:
    """Running totals across every ``report()`` call of one engine.

    ``CriticalityEngine.stats`` is intentionally per-call (it is the
    record benchmarks and ``--stats`` print), so before this view each
    call silently discarded its predecessor.  The cumulative record is
    what long-lived holders — the service, the EA loop — read for
    hit-rates and throughput, and it mirrors what
    :func:`repro.obs.metrics.record_engine_stats` feeds the global
    registry.
    """

    reports: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    faults_evaluated: int = 0
    lanes: int = 0
    lane_chunks: int = 0
    #: Fault states scored through ``population_damages`` (EA batches).
    population_states: int = 0
    elapsed_seconds: float = 0.0
    cache_evictions: int = 0

    def update(self, stats: "EngineStats") -> None:
        self.reports += 1
        if stats.cache == "hit":
            self.cache_hits += 1
        elif stats.cache == "miss":
            self.cache_misses += 1
        if stats.cache != "hit":
            self.faults_evaluated += stats.faults_evaluated
        self.lanes += stats.lanes
        self.lane_chunks += stats.lane_chunks
        self.elapsed_seconds += stats.elapsed_seconds
        self.cache_evictions += stats.cache_evictions

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def faults_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.faults_evaluated / self.elapsed_seconds

    def as_dict(self) -> Dict:
        return {
            "reports": self.reports,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "faults_evaluated": self.faults_evaluated,
            "faults_per_second": self.faults_per_second,
            "lanes": self.lanes,
            "lane_chunks": self.lane_chunks,
            "population_states": self.population_states,
            "elapsed_seconds": self.elapsed_seconds,
            "cache_evictions": self.cache_evictions,
        }


def _batch_counters(analysis) -> Dict[str, int]:
    return getattr(analysis, "batch_counters", None) or {}


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------
class CriticalityEngine:
    """Cached front-end over the routed damage analysis.

    Parameters
    ----------
    tree:
        Decomposition tree of ``network``; passing one selects the ``dp``
        route without decomposing again (see :func:`route_analysis`).
    cache_dir:
        Directory of the persistent result cache; ``None`` disables it.
    chunk_lanes:
        Bitset working-set bound: ``uint64`` words of fault lanes per
        kernel chunk (64 words = 4096 faults).
    max_cache_mb:
        Size cap of the disk result cache in megabytes; ``None`` leaves
        it unbounded.  After every store the cache directory is pruned
        back under the cap in LRU order (oldest mtime first — cache hits
        refresh an entry's mtime), and the number of evicted entries is
        reported in :attr:`EngineStats.cache_evictions`.
    """

    def __init__(
        self,
        network: RsnNetwork,
        spec,
        tree: Optional[SPTree] = None,
        policy: str = "max",
        cache_dir: Optional[str] = None,
        chunk_lanes: int = 64,
        max_cache_mb: Optional[float] = None,
    ):
        self.network = network
        self.spec = spec
        self.tree = tree
        self.policy = policy
        self.chunk_lanes = max(1, int(chunk_lanes))
        self.cache_dir = cache_dir
        if max_cache_mb is not None and max_cache_mb <= 0:
            raise ReproError(
                f"max_cache_mb must be positive, got {max_cache_mb}"
            )
        self.max_cache_mb = max_cache_mb
        self.stats: Optional[EngineStats] = None
        self.cumulative = CumulativeEngineStats()
        self._analysis = None
        self._population = None

    # -- public API ------------------------------------------------------
    def report(self, sites: str = "all") -> DamageReport:
        """Compute (or load) the :class:`DamageReport` for ``sites``.

        ``self.stats`` holds the :class:`EngineStats` of this call
        afterwards; ``self.cumulative`` keeps accumulating across calls,
        and every call is folded into the global metrics registry.
        """
        if sites not in _SITES:
            raise ReproError(f"unknown damage-site filter {sites!r}")
        started = time.perf_counter()
        stats = EngineStats(
            network=self.network.name,
            policy=self.policy,
            sites=sites,
        )
        self.stats = stats
        with span(
            "engine.analyze",
            network=self.network.name,
            fingerprint=intern(self.network).fingerprint[:16],
            sites=sites,
        ) as analyze_span:
            report = self._report(sites, stats)
            analyze_span.set_attribute("route", stats.route)
            analyze_span.set_attribute("cache", stats.cache)
            if stats.lanes:
                analyze_span.set_attribute("lanes", stats.lanes)
        stats.elapsed_seconds = time.perf_counter() - started
        if stats.elapsed_seconds > 0:
            stats.faults_per_second = (
                stats.faults_evaluated / stats.elapsed_seconds
            )
        self.cumulative.update(stats)
        record_engine_stats(stats)
        return report

    def _report(self, sites: str, stats: EngineStats) -> DamageReport:
        key = None
        if self.cache_dir:
            key = analysis_fingerprint(
                self.network, self.spec, self.policy, sites
            )
            stats.cache_key = key
            with span("engine.cache_lookup", key=key[:16]) as lookup:
                cached = self._load_cached(key)
                lookup.set_attribute(
                    "outcome", "hit" if cached is not None else "miss"
                )
            if cached is not None:
                stats.cache = "hit"
                stats.route, report = cached
                return report
            stats.cache = "miss"

        evaluated, skipped = partition_primitives(intern(self.network), sites)
        stats.primitives_evaluated = len(evaluated)
        stats.faults_evaluated = self._count_faults(evaluated)

        analysis = self._build_analysis()
        stats.route = analysis.route
        with span("engine.evaluate", primitives=len(evaluated)):
            before = _batch_counters(analysis)
            damages = analysis.primitive_damages(evaluated)
            after = _batch_counters(analysis)
        stats.lanes = after.get("lanes", 0) - before.get("lanes", 0)
        stats.lane_chunks = after.get("chunks", 0) - before.get("chunks", 0)

        report = assemble_report(
            self.network, self.policy, evaluated, damages, skipped
        )
        if key is not None:
            with span("engine.cache_store", key=key[:16]):
                stats.cache_evictions = self._store_cached(key, report)

        if hasattr(analysis, "memo_counters"):
            stats.memo = dict(analysis.memo_counters)
        return report

    # -- fault count -----------------------------------------------------
    def _count_faults(self, names: List[str]) -> int:
        ir = intern(self.network)
        count = 0
        for name in names:
            node_id = ir.id_of(name)
            if ir.kinds[node_id] == IR_MUX:
                count += ir.fanin[node_id]
            else:
                count += 1
        return count

    # -- the routed analysis ---------------------------------------------
    def _build_analysis(self):
        if self._analysis is None:
            self._analysis = route_analysis(
                self.network,
                self.spec,
                tree=self.tree,
                policy=self.policy,
                chunk_lanes=self.chunk_lanes,
            )
        return self._analysis

    # -- population queries ----------------------------------------------
    def population_analysis(self) -> GraphDamageAnalysis:
        """The bitset analysis population (fault-set) queries run on.

        Once the engine has built a ``bitset``-route analysis, that one
        (and its lane kernel); otherwise — the DP cannot answer
        multi-fault state queries, and a cached report built nothing — a
        bitset analysis with the engine's ``chunk_lanes`` is built lazily.
        """
        if self._analysis is not None and self._analysis.route == "bitset":
            return self._analysis
        if self._population is None:
            self._population = GraphDamageAnalysis(
                self.network,
                self.spec,
                policy=self.policy,
                chunk_lanes=self.chunk_lanes,
            )
        return self._population

    def population_damages(self, states):
        """Damage of many ``(broken ids, mux pins)`` fault states — the
        EA's batched objective query, with the kernel's lane counters
        folded into :attr:`cumulative`."""
        states = list(states)
        analysis = self.population_analysis()
        before = _batch_counters(analysis)
        with span("engine.population", states=len(states)):
            damages = analysis.damage_of_states(states)
        after = _batch_counters(analysis)
        self.cumulative.lanes += after.get("lanes", 0) - before.get(
            "lanes", 0
        )
        self.cumulative.lane_chunks += after.get(
            "chunks", 0
        ) - before.get("chunks", 0)
        self.cumulative.population_states += len(states)
        return damages

    def population_damages_packed(self, packed):
        """Damage per lane of a pre-lowered
        :class:`repro.analysis.batch.PackedStates` block — the
        array-form counterpart of :meth:`population_damages` for callers
        that lower whole genome blocks vectorized (consumes ``packed``)."""
        analysis = self.population_analysis()
        before = _batch_counters(analysis)
        with span("engine.population", states=packed.lanes, packed=True):
            damages = analysis.damage_of_packed_states(packed)
        after = _batch_counters(analysis)
        self.cumulative.lanes += after.get("lanes", 0) - before.get(
            "lanes", 0
        )
        self.cumulative.lane_chunks += after.get(
            "chunks", 0
        ) - before.get("chunks", 0)
        self.cumulative.population_states += packed.lanes
        return damages

    # -- disk cache ------------------------------------------------------
    def _cache_path(self, key: str) -> str:
        return os.path.join(self.cache_dir, f"{key}.json")

    def _load_cached(self, key: str) -> Optional[Tuple[str, DamageReport]]:
        """``(route, report)`` of a stored entry, ``None`` on a miss."""
        try:
            with open(self._cache_path(key), encoding="utf-8") as handle:
                payload = json.load(handle)
            route = str(payload["route"])
            primitive_damage = {
                str(name): float(value)
                for name, value in payload["primitive_damage"].items()
            }
            unit_damage = {
                str(name): float(value)
                for name, value in payload["unit_damage"].items()
            }
        except (OSError, ValueError, KeyError, TypeError):
            return None  # absent or corrupt: recompute
        try:
            # LRU touch: a hit refreshes the entry's mtime so the pruner
            # evicts cold entries first.
            os.utime(self._cache_path(key))
        except OSError:
            pass
        return route, DamageReport(
            self.network, self.policy, primitive_damage, unit_damage
        )

    def _store_cached(self, key: str, report: DamageReport) -> int:
        """Store the report; returns how many LRU entries were evicted."""
        payload = {
            "fingerprint": key,
            "analysis_version": ANALYSIS_VERSION,
            "network": self.network.name,
            "route": self._analysis.route,
            "policy": self.policy,
            "primitive_damage": report.primitive_damage,
            "unit_damage": report.unit_damage,
        }
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                dir=self.cache_dir, suffix=".tmp"
            )
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(payload))
            os.replace(tmp_path, self._cache_path(key))
        except OSError:
            return 0  # a read-only cache dir must not fail the analysis
        return self._prune_cache(keep=self._cache_path(key))

    def _prune_cache(self, keep: Optional[str] = None) -> int:
        """Evict LRU entries until the cache fits ``max_cache_mb``.

        ``keep`` (the entry just stored) is never evicted, so a single
        oversized report cannot thrash itself out of its own cache.
        """
        if self.max_cache_mb is None:
            return 0
        budget = self.max_cache_mb * 1024 * 1024
        entries = []  # (mtime, size, path)
        total = 0
        try:
            names = os.listdir(self.cache_dir)
        except OSError:
            return 0
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.cache_dir, name)
            try:
                info = os.stat(path)
            except OSError:
                continue  # concurrently evicted by another engine
            entries.append((info.st_mtime, info.st_size, path))
            total += info.st_size
        evicted = 0
        for mtime, size, path in sorted(entries):
            if total <= budget:
                break
            if path == keep:
                continue
            try:
                os.remove(path)
            except OSError:
                continue  # lost the race; its size is gone either way
            total -= size
            evicted += 1
        return evicted

