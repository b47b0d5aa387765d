"""Unit and property tests for the compiled array-backed network IR."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.generators import random_network
from repro.errors import UnknownNodeError
from repro.ir import (
    MUX,
    SEGMENT,
    CompiledNetwork,
    IR_VERSION,
    compile_network,
    fingerprint_payload,
    intern,
)
from repro.rsn.ast import elaborate
from repro.rsn.network import RsnNetwork
from repro.rsn.primitives import SegmentRole
from repro.spec import random_spec

seeds = st.integers(min_value=0, max_value=20_000)


def _network(seed=3):
    return elaborate(random_network(seed=seed, max_depth=2, max_items=3))


def _mux_pair(flipped: bool) -> RsnNetwork:
    """Two structurally identical networks except for the order in which
    the mux inputs were wired — i.e. which source drives which port."""
    net = RsnNetwork("pair")
    net.add_scan_in()
    net.add_scan_out()
    net.add_segment("sel", role=SegmentRole.CONTROL)
    net.add_fanout("f")
    net.add_segment("a", instrument="ia")
    net.add_segment("b", instrument="ib")
    net.add_mux("m", fanin=2, control_cell="sel")
    edges = [("scan_in", "sel"), ("sel", "f"), ("f", "a"), ("f", "b")]
    edges += [("b", "m"), ("a", "m")] if flipped else [("a", "m"), ("b", "m")]
    edges += [("m", "scan_out")]
    for edge in edges:
        net.add_edge(*edge)
    net.validate()
    return net


class TestIntern:
    def test_intern_memoizes_per_network_object(self):
        network = _network()
        assert intern(network) is intern(network)

    def test_compile_builds_fresh_objects(self):
        network = _network()
        assert compile_network(network) is not compile_network(network)

    def test_intern_recompiles_after_growth(self):
        network = _network()
        before = intern(network)
        network.add_segment("late_segment")
        network.add_edge("scan_in", "late_segment")
        after = intern(network)
        assert after is not before
        assert after.n_nodes == before.n_nodes + 1


class TestStructureParity:
    @settings(max_examples=25, deadline=None)
    @given(seed=seeds)
    def test_adjacency_matches_dict_graph(self, seed):
        network = _network(seed)
        compiled = intern(network)
        for name in network.node_names():
            node_id = compiled.id_of(name)
            assert tuple(
                compiled.names[s] for s in compiled.successors(node_id)
            ) == network.successors(name)
            assert tuple(
                compiled.names[p] for p in compiled.predecessors(node_id)
            ) == network.predecessors(name)

    @settings(max_examples=25, deadline=None)
    @given(seed=seeds)
    def test_succ_ports_pair_with_pred_slots(self, seed):
        """succ_ports[slot] names the position of that edge occurrence in
        the destination's predecessor row — the mux port it drives."""
        network = _network(seed)
        compiled = intern(network)
        consumed = {}
        for src in range(compiled.n_nodes):
            lo = compiled.succ_indptr[src]
            hi = compiled.succ_indptr[src + 1]
            for slot in range(lo, hi):
                dst = compiled.succ_indices[slot]
                port = compiled.succ_ports[slot]
                assert compiled.mux_port_source(dst, port) == src
                # each (dst, port) pred slot is claimed exactly once
                assert (dst, port) not in consumed
                consumed[(dst, port)] = src
        assert len(consumed) == compiled.n_edges

    @settings(max_examples=25, deadline=None)
    @given(seed=seeds)
    def test_topological_order_is_valid(self, seed):
        compiled = intern(_network(seed))
        position = {v: i for i, v in enumerate(compiled.topo)}
        assert sorted(position) == list(range(compiled.n_nodes))
        for src in range(compiled.n_nodes):
            for dst in compiled.successors(src):
                assert position[src] < position[dst]

    def test_kind_codes_and_attributes(self):
        network = _mux_pair(flipped=False)
        compiled = intern(network)
        assert compiled.kinds[compiled.id_of("m")] == MUX
        assert compiled.kinds[compiled.id_of("a")] == SEGMENT
        assert compiled.fanin[compiled.id_of("m")] == 2
        assert compiled.control_cell[compiled.id_of("m")] == (
            compiled.id_of("sel")
        )
        assert list(compiled.stuck_values(compiled.id_of("m"))) == [0, 1]
        assert compiled.scan_in == compiled.id_of(network.scan_in)
        assert compiled.scan_out == compiled.id_of(network.scan_out)

    def test_primitive_ids_are_segments_and_muxes(self):
        network = _network()
        compiled = intern(network)
        names = {compiled.names[i] for i in compiled.primitive_ids()}
        expected = {
            node.name
            for node in network.nodes()
            if node.kind.name in ("SEGMENT", "MUX")
        }
        assert names == expected

    def test_unknown_name_raises(self):
        compiled = intern(_network())
        with pytest.raises(UnknownNodeError):
            compiled.id_of("no_such_node")

    def test_bad_mux_port_raises(self):
        compiled = intern(_mux_pair(flipped=False))
        with pytest.raises(UnknownNodeError):
            compiled.mux_port_source(compiled.id_of("m"), 2)


class TestFingerprint:
    def test_stable_across_rebuilds(self):
        assert (
            intern(_network(7)).fingerprint
            == compile_network(_network(7)).fingerprint
        )

    def test_differs_between_networks(self):
        assert intern(_network(1)).fingerprint != intern(
            _network(2)
        ).fingerprint

    def test_sensitive_to_mux_port_order(self):
        """Swapping which source drives which mux port is a different
        network (different selected paths) and must never share a
        fingerprint — the pre-IR edges()-based payload missed this."""
        straight = _mux_pair(flipped=False)
        flipped = _mux_pair(flipped=True)
        assert (
            fingerprint_payload(straight) != fingerprint_payload(flipped)
        )
        assert (
            intern(straight).fingerprint != intern(flipped).fingerprint
        )

    def test_folds_ir_version(self):
        import repro.ir.compiled as compiled_mod

        network = _network()
        original = compile_network(network).fingerprint
        old_version = compiled_mod.IR_VERSION
        compiled_mod.IR_VERSION = old_version + ".test"
        try:
            assert compile_network(network).fingerprint != original
        finally:
            compiled_mod.IR_VERSION = old_version
        assert IR_VERSION == old_version


class TestRoundTrip:
    @settings(max_examples=20, deadline=None)
    @given(seed=seeds)
    def test_to_network_reproduces_fingerprint(self, seed):
        compiled = intern(_network(seed))
        rebuilt = compiled.to_network()
        rebuilt.validate()
        # A fresh compile, not intern: intern returns ``compiled`` itself.
        assert compile_network(rebuilt).fingerprint == compiled.fingerprint

    def test_rebuilt_network_interns_to_its_ir(self):
        compiled = intern(_network(3))
        assert intern(compiled.to_network()) is compiled
        clone = pickle.loads(pickle.dumps(compiled))
        assert intern(clone.to_network()) is clone

    def test_to_network_preserves_mux_port_order(self):
        rebuilt = intern(_mux_pair(flipped=True)).to_network()
        assert rebuilt.predecessors("m") == ("b", "a")

    def test_pickle_round_trip(self):
        compiled = intern(_network(11))
        clone = pickle.loads(pickle.dumps(compiled))
        assert isinstance(clone, CompiledNetwork)
        assert clone.fingerprint == compiled.fingerprint
        assert clone.names == compiled.names
        assert list(clone.succ_indices) == list(compiled.succ_indices)
        assert compile_network(clone.to_network()).fingerprint == (
            compiled.fingerprint
        )

    def test_frozen_after_build_and_unpickle(self):
        compiled = intern(_network())
        with pytest.raises(AttributeError):
            compiled.scan_in = 0
        clone = pickle.loads(pickle.dumps(compiled))
        with pytest.raises(AttributeError):
            clone.names = ()


class TestWeights:
    @settings(max_examples=20, deadline=None)
    @given(seed=seeds)
    def test_weight_vectors_align_with_spec(self, seed):
        network = _network(seed)
        spec = random_spec(network.instrument_names(), seed=seed)
        compiled = intern(network)
        do_w, ds_w = compiled.weight_vectors(spec)
        assert len(do_w) == len(ds_w) == compiled.n_nodes
        by_segment = {}
        for instrument in network.instruments():
            by_segment[instrument.segment] = spec.weight(instrument.name)
        for node_id, name in enumerate(compiled.names):
            expected = by_segment.get(name, (0.0, 0.0))
            assert (do_w[node_id], ds_w[node_id]) == expected
