"""The streaming campaign executor: blocks, checkpoints, progress.

Every campaign kind decomposes into an ordered sequence of *blocks*,
each a pure function of (plan, block index) that fits the kernel's lane
budget.  The executor owns everything around the block function:

* **checkpointing** — completed payloads are replayed from the block log
  (:mod:`repro.campaigns.checkpoint`) and only missing blocks compute; a
  killed campaign restarts from the last completed block, bit-identical
  because blocks are index-pure;
* **progress** — a callback receives the completed fraction after every
  block (the service wires it to ``Job.set_progress``, so job status
  shows per-campaign progress);
* **cooperative cancellation** — a ``cancelled()`` poll between blocks
  (the service wires ``Job.cancelled``), stopping with partial results;
* **budgets** — a block may raise :class:`CampaignBudgetExceeded` to
  stop the run as *truncated* (k-fault time/cardinality budgets);
* **observability** — ``campaign.run`` / ``campaign.block`` spans and
  ``repro_campaign_*`` counters/histograms in the global metrics
  registry, visible in the service's ``/metrics`` scrape;
* **serialization** — an optional lock held around each block solve, so
  service jobs can share one registry-interned kernel across worker
  threads without interleaving sweeps.

Block sizing mirrors the EA's streaming budget
(:meth:`repro.core.problem.FaultSetHardeningProblem._lane_block`): the
same per-lane byte estimate against ``--max-lane-mb``, rounded to whole
words and clamped to the kernel's chunk capacity.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Callable, Dict, List, Optional

from ..errors import ReproError
from ..ir import LANE_BITS
from ..obs.metrics import global_registry
from ..obs.resources import ResourceProbe
from ..obs.trace import span
from .checkpoint import CheckpointStore

#: Bumped whenever block content or checkpoint layout changes — part of
#: the campaign key, so stale checkpoints can never be replayed.
CAMPAIGN_VERSION = 1

#: Block size when no kernel capacity and no budget apply (an analysis
#: without a lane kernel).
_DEFAULT_BLOCK = 4096


class CampaignBudgetExceeded(ReproError):
    """Raised by a block solve to stop the run as *truncated*."""


def campaign_key(kind: str, material: Dict) -> str:
    """The checkpoint/identity key: sha256 over the canonical JSON of
    the plan plus its execution context (network fingerprint, spec
    token, campaign version)."""
    text = json.dumps(
        {"version": CAMPAIGN_VERSION, "kind": kind, **material},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def spec_token(analysis) -> str:
    """A content hash of the damage weights the analysis runs under —
    the spec's contribution to the campaign key (specs have no
    fingerprint of their own).  Memoized per analysis and spec object."""
    memo = analysis.derived.get("spec_token")
    if memo is not None and memo[0] is analysis.spec:
        return memo[1]
    token = analysis.ir.spec_digest(analysis.spec)
    analysis.derived["spec_token"] = (analysis.spec, token)
    return token


def lane_block(
    analysis,
    block_lanes: Optional[int] = None,
    max_lane_mb: Optional[float] = None,
) -> int:
    """Lanes per campaign block.

    An explicit ``block_lanes`` wins (tests pin exact boundaries); else
    the ``--max-lane-mb`` budget divided by the kernel's per-lane byte
    estimate, rounded down to whole words; always clamped to the
    kernel's chunk capacity so one block is at most one kernel chunk
    schedule."""
    capacity = getattr(analysis, "lane_capacity", None)
    if block_lanes is not None:
        block = max(1, int(block_lanes))
        return min(block, capacity) if capacity else block
    if max_lane_mb is None:
        return capacity if capacity else _DEFAULT_BLOCK
    ir = analysis.ir
    # Same estimate as the EA's streaming evaluate: six word matrices
    # over nodes + one over pred slots (masks, four reach arrays), an
    # eighth of a byte per lane per row, plus the unpacked uint8 bits.
    per_lane = (6 * ir.n_nodes + len(ir.pred_indices)) // 8 + 2 * ir.n_nodes
    budget = int(max_lane_mb * (1 << 20)) // max(1, per_lane)
    budget = max(LANE_BITS, (budget // LANE_BITS) * LANE_BITS)
    return min(budget, capacity) if capacity else budget


class CampaignExecutor:
    """Runs one campaign's block sequence with checkpoint/progress/
    cancel/metrics handling; see the module docstring."""

    def __init__(
        self,
        kind: str,
        key_material: Dict,
        checkpoint_path: Optional[str] = None,
        resume: bool = True,
        progress: Optional[Callable[[float], None]] = None,
        cancelled: Optional[Callable[[], bool]] = None,
        lock=None,
    ):
        self.kind = str(kind)
        self.key = campaign_key(self.kind, key_material)
        self.checkpoint = (
            CheckpointStore(checkpoint_path) if checkpoint_path else None
        )
        self.resume = bool(resume)
        self.progress = progress
        self.cancelled = cancelled
        self.lock = lock
        registry = global_registry()
        self._m_blocks = registry.counter(
            "repro_campaign_blocks_total",
            "Campaign blocks completed, by kind and origin "
            "(computed vs replayed from a checkpoint).",
            ("kind", "origin"),
        )
        self._m_runs = registry.counter(
            "repro_campaign_runs_total",
            "Campaign runs finished, by kind and outcome.",
            ("kind", "outcome"),
        )
        self._m_units = registry.counter(
            "repro_campaign_units_total",
            "Campaign work units processed (samples, combinations, "
            "observations), by kind.",
            ("kind", "unit"),
        )
        self._m_block_seconds = registry.histogram(
            "repro_campaign_block_seconds",
            "Wall-clock latency of computed campaign blocks, by kind.",
            ("kind",),
        )

    def note_units(self, unit: str, count: int) -> None:
        """Campaign-specific throughput counters (samples/combinations/
        observations) folded into the shared ``/metrics`` scrape."""
        if count:
            self._m_units.inc(count, kind=self.kind, unit=unit)

    def run(
        self, n_blocks: int, solve_block: Callable[[int], Dict]
    ) -> Dict:
        """Execute blocks ``0 .. n_blocks-1``; returns::

            {"payloads": [payload | None, ...],   # index-aligned
             "completed": int, "resumed": int,
             "outcome": "completed" | "cancelled" | "truncated",
             "truncated_reason": str | None,
             "elapsed_seconds": float,
             "resources": {wall/cpu seconds, rss delta, lane MB}}

        ``resources`` sums per-block :class:`~repro.obs.resources.
        ResourceProbe` deltas over *computed* blocks only — replayed
        blocks cost a checkpoint read, not a sweep.

        ``None`` payloads mark blocks never executed (cancel/budget).
        """
        started = time.perf_counter()
        cached: Dict[int, Dict] = {}
        if self.checkpoint is not None:
            cached = self.checkpoint.begin(self.key, fresh=not self.resume)
        payloads: List[Optional[Dict]] = [None] * n_blocks
        completed = resumed = 0
        outcome = "completed"
        truncated_reason: Optional[str] = None
        block_resources: List[Dict[str, float]] = []
        with span("campaign.run", kind=self.kind, blocks=n_blocks):
            for index in range(n_blocks):
                payload = cached.get(index)
                if payload is not None:
                    payloads[index] = payload
                    completed += 1
                    resumed += 1
                    self._m_blocks.inc(kind=self.kind, origin="resumed")
                    self._note_progress(completed, n_blocks)
                    continue
                if self.cancelled is not None and self.cancelled():
                    outcome = "cancelled"
                    break
                block_started = time.perf_counter()
                probe = ResourceProbe()
                try:
                    with span(
                        "campaign.block", kind=self.kind, index=index
                    ):
                        if self.lock is not None:
                            with self.lock:
                                payload = solve_block(index)
                        else:
                            payload = solve_block(index)
                except CampaignBudgetExceeded as exc:
                    outcome = "truncated"
                    truncated_reason = str(exc)
                    break
                block_resources.append(probe.delta())
                self._m_block_seconds.observe(
                    time.perf_counter() - block_started, kind=self.kind
                )
                if self.checkpoint is not None:
                    self.checkpoint.append(index, payload)
                payloads[index] = payload
                completed += 1
                self._m_blocks.inc(kind=self.kind, origin="computed")
                self._note_progress(completed, n_blocks)
        self._m_runs.inc(kind=self.kind, outcome=outcome)
        return {
            "payloads": payloads,
            "completed": completed,
            "resumed": resumed,
            "outcome": outcome,
            "truncated_reason": truncated_reason,
            "elapsed_seconds": time.perf_counter() - started,
            "resources": ResourceProbe.merge(block_resources),
        }

    def _note_progress(self, completed: int, n_blocks: int) -> None:
        if self.progress is not None and n_blocks > 0:
            try:
                self.progress(completed / n_blocks)
            except Exception:
                pass  # progress reporting must never break the campaign
