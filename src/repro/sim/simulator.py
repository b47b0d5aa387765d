"""Cycle-level scan simulation of an RSN (capture–shift–update).

The simulator holds the shift registers and update stages of every scan
segment and executes the three IEEE 1687 scan operations on the currently
*active scan path* — the unique scan-in-to-scan-out chain selected by the
update values of the configuration cells:

* :meth:`ScanSimulator.shift` — clock data through the active path;
* :meth:`ScanSimulator.update` — latch the shift stages of the control
  cells on the active path into their update stages (re-configuring the
  path for the next cycle);
* :meth:`ScanSimulator.capture` — load instrument responses into the
  segments on the active path.

Permanent faults can be injected: broken segments turn every bit shifted
through them (and their own contents) into the unknown value ``None``;
stuck multiplexers ignore their address ports; a broken control cell
breaks like a segment *and* pins its muxes to an assumed port (the unknown
but fixed state the defect leaves the select line in).

This is an independent executable model of the RSN — the property-based
test-suite uses it as ground truth for the static analyses.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..errors import SimulationError
from ..ir import MUX as IR_MUX
from ..ir import intern
from ..rsn.network import RsnNetwork
from ..rsn.primitives import NodeKind, ScanSegment
from ..analysis.faults import ControlCellBreak, Fault, MuxStuck, SegmentBreak

Bit = Optional[int]  # 0, 1 or None (unknown / X)


class ScanSimulator:
    """Executable model of one RSN instance with optional injected faults.

    The active scan path is derived by walking the compiled IR's CSR
    predecessor rows.
    """

    def __init__(
        self,
        network: RsnNetwork,
        faults: Iterable[Fault] = (),
        assumed_ports: Optional[Mapping[str, int]] = None,
    ):
        network.validate()
        self.network = network
        self._ir = intern(network)
        self.broken: set = set()
        self.stuck: Dict[str, int] = {}
        assumed = dict(assumed_ports or {})
        for fault in faults:
            if isinstance(fault, SegmentBreak):
                self.broken.add(fault.segment)
            elif isinstance(fault, MuxStuck):
                self.stuck[fault.mux] = fault.port
            elif isinstance(fault, ControlCellBreak):
                self.broken.add(fault.cell)
                for mux in network.muxes():
                    if mux.control_cell == fault.cell:
                        self.stuck[mux.name] = assumed.get(mux.name, 0)
            else:
                raise SimulationError(f"unknown fault {fault!r}")

        self.shift_regs: Dict[str, List[Bit]] = {}
        self.update_values: Dict[str, Optional[int]] = {}
        for segment in network.segments():
            if segment.name in self.broken:
                self.shift_regs[segment.name] = [None] * segment.length
            else:
                self.shift_regs[segment.name] = [0] * segment.length
            if segment.is_control:
                self.update_values[segment.name] = (
                    None if segment.name in self.broken else 0
                )

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def select_of(self, mux: str) -> int:
        """The input port the mux currently propagates."""
        node = self.network.node(mux)
        if node.kind is not NodeKind.MUX:
            raise SimulationError(f"{mux!r} is not a mux")
        if mux in self.stuck:
            return self.stuck[mux] % node.fanin
        cell = node.control_cell
        if cell is None:
            return 0
        value = self.update_values.get(cell)
        if value is None:
            # Unknown select (e.g. the cell was loaded through a break);
            # the hardware would be in some state — model as port 0.
            return 0
        return value % node.fanin

    def _select_by_id(self, mux_id: int) -> int:
        """The propagated input port of a mux, by compiled-IR node id."""
        ir = self._ir
        stuck = self.stuck.get(ir.names[mux_id])
        if stuck is not None:
            return stuck % ir.fanin[mux_id]
        cell_id = ir.control_cell[mux_id]
        if cell_id < 0:
            return 0
        value = self.update_values.get(ir.names[cell_id])
        if value is None:
            return 0
        return value % ir.fanin[mux_id]

    def active_path(self) -> List[str]:
        """Node names of the active scan path, scan-in first.

        Derived by walking backwards from the scan-out: the active chain is
        unique because every multiplexer propagates exactly one input.
        """
        ir = self._ir
        kinds = ir.kinds
        pred_indptr = ir.pred_indptr
        pred_indices = ir.pred_indices
        current = ir.scan_out
        path_ids = [current]
        seen = bytearray(ir.n_nodes)
        seen[current] = 1
        while current != ir.scan_in:
            slot = pred_indptr[current]
            if kinds[current] == IR_MUX:
                slot += self._select_by_id(current)
            current = pred_indices[slot]
            if seen[current]:
                raise SimulationError(
                    f"active path loops through {ir.names[current]!r}"
                )
            seen[current] = 1
            path_ids.append(current)
        path_ids.reverse()
        names = ir.names
        return [names[i] for i in path_ids]

    def active_segments(self) -> List[ScanSegment]:
        """Segments on the active path, scan-in side first."""
        return [
            self.network.node(name)
            for name in self.active_path()
            if self.network.node(name).kind is NodeKind.SEGMENT
        ]

    def path_length(self) -> int:
        """Shift length (bits) of the active path."""
        return sum(segment.length for segment in self.active_segments())

    # ------------------------------------------------------------------
    # scan operations
    # ------------------------------------------------------------------
    def shift(self, bits: Sequence[Bit]) -> List[Bit]:
        """Clock ``len(bits)`` shift cycles; return the scan-out stream.

        Broken segments cut the chain into independent FIFO runs: each run
        shifts normally, the stream crossing a break degenerates to all-X.
        Both cases process whole runs at once — O(L + n) instead of the
        per-cycle O(n · #segments) reference (equivalence property-tested).
        """
        segments = self.active_segments()
        if not any(segment.name in self.broken for segment in segments):
            return self._shift_fast(segments, bits)
        count = len(list(bits))
        feed: List[Bit] = list(bits)
        run: List = []
        for segment in segments:
            if segment.name not in self.broken:
                run.append(segment)
                continue
            feed = self._shift_fast(run, feed)
            run = []
            # the break swallows the stream; contents of the broken
            # segment stay X and it emits X forever
            feed = [None] * count
        feed = self._shift_fast(run, feed)
        return feed

    def _shift_slow_reference(self, bits: Sequence[Bit]) -> List[Bit]:
        """Per-cycle reference used by the equivalence property tests."""
        segments = self.active_segments()
        out_stream: List[Bit] = []
        for bit in bits:
            carry: Bit = bit
            for segment in segments:
                regs = self.shift_regs[segment.name]
                if segment.name in self.broken:
                    carry = None
                    continue
                out = regs[-1]
                regs.pop()
                regs.insert(0, carry)
                carry = out
            out_stream.append(carry)
        return out_stream

    def _shift_fast(self, segments, bits: Sequence[Bit]) -> List[Bit]:
        """Break-free paths are one long FIFO: shift all cycles at once.

        Equivalent to the per-cycle loop (property-tested) but O(L + n)
        instead of O(n · #segments).
        """
        flat: List[Bit] = []
        for segment in segments:
            flat.extend(self.shift_regs[segment.name])
        length = len(flat)
        combined = list(reversed(list(bits))) + flat
        new_flat = combined[:length]
        out_stream = list(reversed(combined[length:]))
        position = 0
        for segment in segments:
            self.shift_regs[segment.name] = new_flat[
                position : position + segment.length
            ]
            position += segment.length
        return out_stream

    def update(self) -> None:
        """Latch control cells on the active path into their update stages."""
        for segment in self.active_segments():
            if not segment.is_control:
                continue
            if segment.name in self.broken:
                continue
            bits = self.shift_regs[segment.name]
            if any(bit is None for bit in bits):
                self.update_values[segment.name] = None
                continue
            value = 0
            for bit in bits:  # index 0 holds the MSB (shifted in last)
                value = (value << 1) | bit
            self.update_values[segment.name] = value

    def capture(self, responses: Mapping[str, Sequence[Bit]] = ()) -> None:
        """Load instrument responses into segments on the active path.

        ``responses`` maps instrument names to bit vectors; instruments on
        the path without an entry keep their register contents.
        """
        responses = dict(responses)
        for segment in self.active_segments():
            if segment.instrument is None:
                continue
            if segment.instrument not in responses:
                continue
            bits = list(responses.pop(segment.instrument))
            if len(bits) != segment.length:
                raise SimulationError(
                    f"capture for {segment.instrument!r}: expected "
                    f"{segment.length} bits, got {len(bits)}"
                )
            if segment.name not in self.broken:
                self.shift_regs[segment.name] = bits
        if responses:
            raise SimulationError(
                "capture for instruments not on the active path: "
                f"{sorted(responses)}"
            )

    # ------------------------------------------------------------------
    # whole-pattern convenience
    # ------------------------------------------------------------------
    def scan_cycle(
        self, writes: Optional[Mapping[str, Sequence[Bit]]] = None
    ) -> Dict[str, List[Bit]]:
        """One full shift(+update) over the active path.

        ``writes`` maps segment names to target bit vectors; unnamed
        segments are rewritten with their current contents.  Returns the
        bits that came out per segment (their pre-shift contents).
        Control cells on the path are updated afterwards, so path changes
        take effect for the next cycle.
        """
        writes = dict(writes or {})
        segments = self.active_segments()
        stream: List[Bit] = []
        for segment in segments:
            if segment.name in writes:
                bits = list(writes.pop(segment.name))
                if len(bits) != segment.length:
                    raise SimulationError(
                        f"write to {segment.name!r}: expected "
                        f"{segment.length} bits, got {len(bits)}"
                    )
            else:
                bits = list(self.shift_regs[segment.name])
            stream.extend(bits)
        if writes:
            raise SimulationError(
                f"write to segments not on the active path: {sorted(writes)}"
            )

        # The bit destined for the path position closest to the scan-out
        # must be shifted in first.
        out_stream = self.shift(list(reversed(stream)))

        # De-interleave the outgoing stream back into per-segment vectors:
        # the first bit out is the last path position's content.
        result: Dict[str, List[Bit]] = {}
        position = 0
        for segment in reversed(segments):
            chunk = out_stream[position : position + segment.length]
            result[segment.name] = list(reversed(chunk))
            position += segment.length
        self.update()
        return result

    # ------------------------------------------------------------------
    # inspection helpers
    # ------------------------------------------------------------------
    def register(self, segment: str) -> Tuple[Bit, ...]:
        return tuple(self.shift_regs[segment])

    def poke(self, segment: str, bits: Sequence[Bit]) -> None:
        """Directly set a segment's shift register (test helper)."""
        node = self.network.node(segment)
        if len(bits) != node.length:
            raise SimulationError(
                f"poke {segment!r}: expected {node.length} bits"
            )
        if segment not in self.broken:
            self.shift_regs[segment] = list(bits)
