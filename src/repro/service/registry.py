"""Network registry: upload once, intern once, key by fingerprint.

The one-shot CLI re-parses and re-interns a network on every invocation.
The registry is the service-side fix: a network is uploaded once (as ICL
text, as the builder's JSON declaration form, or by benchmark-design
name), elaborated and compiled to its :class:`repro.ir.CompiledNetwork`
exactly once, and from then on every job and every batched fault query
refers to it by the IR's sha256 content fingerprint.  Two uploads of the
same structure — whatever the source format — dedupe onto one entry,
because the fingerprint is computed from the compiled structure, not the
upload bytes.

Derived artifacts hang off the entry and are memoized under the same
lock discipline:

* the paper's randomized specification per ``seed``
  (:func:`repro.spec.spec_for_network` is deterministic in the seed, so
  clients only ever send the seed over the wire);
* one single-fault solver per ``(seed, policy)`` — the coalescer's
  ``/damage`` solver (:mod:`repro.service.batching`), routed by regime
  by :func:`repro.service.solver.single_fault_solver`;
* one :class:`repro.analysis.GraphDamageAnalysis` (plus a serialization
  lock) per ``(seed, policy, backend, chunk_lanes)`` — the campaign
  jobs' analysis.  The embedded kernel is not thread-safe, so campaign
  runners hold the paired lock around every block solve; two campaign
  jobs on the same network interleave at block granularity instead of
  corrupting a shared sweep.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

from ..analysis.graph_analysis import GraphDamageAnalysis
from ..bench import DESIGNS, build_design
from ..errors import ReproError
from ..ir import CompiledNetwork, intern
from ..rsn import icl
from ..rsn.ast import decl_from_dict, elaborate
from ..rsn.network import RsnNetwork
from ..spec.criticality import CriticalitySpec, spec_for_network
from .solver import SingleFaultSolver, single_fault_solver


class RegistryError(ReproError):
    """Raised on malformed uploads or unknown fingerprints."""


@dataclass
class RegisteredNetwork:
    """One interned network plus its memoized derived artifacts."""

    fingerprint: str
    name: str
    source: str  # "icl" | "json" | "design" | "object"
    network: RsnNetwork
    ir: CompiledNetwork
    n_segments: int
    n_muxes: int
    uploaded_at: float = field(default_factory=time.time)

    def describe(self) -> Dict:
        """The JSON the HTTP API returns for this entry."""
        return {
            "fingerprint": self.fingerprint,
            "name": self.name,
            "source": self.source,
            "n_segments": self.n_segments,
            "n_muxes": self.n_muxes,
            "n_nodes": self.ir.n_nodes,
            "n_instruments": len(self.network.instrument_names()),
            "uploaded_at": self.uploaded_at,
        }


class NetworkRegistry:
    """Thread-safe store of interned networks, keyed by IR fingerprint."""

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: Dict[str, RegisteredNetwork] = {}
        self._specs: Dict[Tuple[str, int], CriticalitySpec] = {}
        self._solvers: Dict[Tuple[str, int, str], SingleFaultSolver] = {}
        self._campaigns: Dict[
            Tuple[str, int, str, str, int],
            Tuple[GraphDamageAnalysis, threading.Lock],
        ] = {}

    # -- uploads ---------------------------------------------------------
    def add(self, payload: Mapping) -> RegisteredNetwork:
        """Register from an upload payload; dispatches on its keys.

        Exactly one of:

        * ``{"icl": "<text>"}`` — the textual network format;
        * ``{"network": {...}}`` — the JSON declaration form
          (:func:`repro.rsn.ast.decl_from_dict`);
        * ``{"design": "<name>"}`` — a benchmark-registry design.
        """
        if not isinstance(payload, Mapping):
            raise RegistryError(
                f"upload must be an object, got {type(payload).__name__}"
            )
        sources = [k for k in ("icl", "network", "design") if k in payload]
        if len(sources) != 1:
            raise RegistryError(
                "upload needs exactly one of 'icl', 'network' or 'design'"
            )
        source = sources[0]
        if source == "icl":
            return self.add_icl(payload["icl"])
        if source == "network":
            return self.add_json(payload["network"])
        return self.add_design(payload["design"])

    def add_icl(self, text: str) -> RegisteredNetwork:
        """Register a network from its textual (ICL-style) description."""
        if not isinstance(text, str):
            raise RegistryError("'icl' upload must be a string")
        return self.add_network(elaborate(icl.loads(text)), source="icl")

    def add_json(self, payload: Mapping) -> RegisteredNetwork:
        """Register a network from the JSON declaration form."""
        return self.add_network(
            elaborate(decl_from_dict(dict(payload))), source="json"
        )

    def add_design(self, name: str) -> RegisteredNetwork:
        """Register a benchmark design by registry name."""
        if name not in DESIGNS:
            raise RegistryError(f"unknown benchmark design {name!r}")
        return self.add_network(build_design(name), source="design")

    def add_network(
        self, network: RsnNetwork, source: str = "object"
    ) -> RegisteredNetwork:
        """Register an in-process network object (intern + fingerprint)."""
        ir = intern(network)
        n_segments, n_muxes = network.counts()
        with self._lock:
            existing = self._entries.get(ir.fingerprint)
            if existing is not None:
                return existing  # dedupe: same structure, same entry
            entry = RegisteredNetwork(
                fingerprint=ir.fingerprint,
                name=network.name,
                source=source,
                network=network,
                ir=ir,
                n_segments=n_segments,
                n_muxes=n_muxes,
            )
            self._entries[ir.fingerprint] = entry
            return entry

    # -- lookups ---------------------------------------------------------
    def get(self, fingerprint: str) -> RegisteredNetwork:
        with self._lock:
            entry = self._entries.get(fingerprint)
        if entry is None:
            raise RegistryError(f"unknown network {fingerprint!r}")
        return entry

    def entries(self) -> List[RegisteredNetwork]:
        with self._lock:
            return list(self._entries.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._entries

    # -- memoized derived artifacts --------------------------------------
    def spec(self, fingerprint: str, seed: int = 0) -> CriticalitySpec:
        """The paper's randomized spec for a registered network; memoized
        per (fingerprint, seed)."""
        entry = self.get(fingerprint)
        key = (fingerprint, int(seed))
        with self._lock:
            spec = self._specs.get(key)
        if spec is None:
            # Built outside the lock: spec construction is deterministic,
            # so a racing duplicate is identical and harmless.
            spec = spec_for_network(entry.network, seed=int(seed))
            with self._lock:
                spec = self._specs.setdefault(key, spec)
        return spec

    def damage_solver(
        self, fingerprint: str, seed: int = 0, policy: str = "max"
    ) -> SingleFaultSolver:
        """The coalescer's single-fault solver; memoized per
        (fingerprint, seed, policy).

        The solver is not thread-safe — the service only drives it from
        its one solve thread.
        """
        entry = self.get(fingerprint)
        key = (fingerprint, int(seed), str(policy))
        with self._lock:
            solver = self._solvers.get(key)
        if solver is None:
            solver = single_fault_solver(
                entry.network, self.spec(fingerprint, seed=seed), policy
            )
            with self._lock:
                solver = self._solvers.setdefault(key, solver)
        return solver

    def campaign_analysis(
        self,
        fingerprint: str,
        seed: int = 0,
        policy: str = "max",
        backend: str = "bitset",
        chunk_lanes: int = 64,
    ) -> Tuple[GraphDamageAnalysis, threading.Lock]:
        """The analysis campaign jobs run on, with its serialization
        lock; memoized per (fingerprint, seed, policy, backend,
        chunk_lanes).

        Campaign runners must hold the returned lock around each block
        solve (:class:`repro.campaigns.CampaignExecutor` takes it as
        ``lock=``): the bitset kernel inside is not thread-safe, and two
        queue workers may run campaigns on the same network at once.
        """
        entry = self.get(fingerprint)
        key = (
            fingerprint,
            int(seed),
            str(policy),
            str(backend),
            int(chunk_lanes),
        )
        with self._lock:
            pair = self._campaigns.get(key)
        if pair is None:
            analysis = GraphDamageAnalysis(
                entry.network,
                self.spec(fingerprint, seed=seed),
                policy=policy,
                backend=backend,
                chunk_lanes=int(chunk_lanes),
            )
            with self._lock:
                pair = self._campaigns.setdefault(
                    key, (analysis, threading.Lock())
                )
        return pair
