"""Shared-memory shipping of compiled networks (`repro.ir.shm`).

Pack/attach round-trip fidelity (every array field and every metadata
field), zero-copy semantics of the attached views, the refcounted
owner-side segment lifecycle, and the pickle fallback transport.
"""

import pickle

import pytest

from repro.bench import build_design
from repro.errors import ReproError
from repro.ir import compile_network, intern
from repro.ir.shm import (
    ShmSegment,
    ShmUnavailable,
    attach,
    detach,
    pack,
    receive,
    ship,
    shm_available,
)
from repro.ir.shm import _ARRAY_FIELDS, _META_FIELDS

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="shared memory unavailable on this host"
)


@pytest.fixture(scope="module")
def ir():
    return intern(build_design("TreeUnbalanced"))


class TestRoundTrip:
    def test_arrays_and_meta_survive(self, ir):
        segment = pack(ir)
        try:
            other, shm = attach(segment.name)
            try:
                for slot, _code in _ARRAY_FIELDS:
                    assert list(getattr(other, slot)) == list(
                        getattr(ir, slot)
                    ), slot
                for slot in _META_FIELDS:
                    assert getattr(other, slot) == getattr(ir, slot), slot
                assert other.n_nodes == ir.n_nodes
                assert other.id_of(ir.names[0]) == 0
            finally:
                detach(other, shm)
        finally:
            segment.unlink()

    def test_attached_fields_are_zero_copy_views(self, ir):
        segment = pack(ir)
        try:
            other, shm = attach(segment.name)
            try:
                # int fields come back as memoryviews over the shared
                # pages, not copies.
                assert isinstance(other.succ_indices, memoryview)
                assert isinstance(other.topo, memoryview)
                assert other.succ_indices.obj is not None
                # ... and numpy can wrap them without copying either.
                np = pytest.importorskip("numpy")
                arr = np.frombuffer(other.succ_indices, dtype=np.int32)
                assert not arr.flags["OWNDATA"]
                assert list(arr) == list(ir.succ_indices)
                del arr
            finally:
                detach(other, shm)
        finally:
            segment.unlink()

    def test_attached_ir_rebuilds_same_network(self, ir):
        segment = pack(ir)
        try:
            other, shm = attach(segment.name)
            try:
                rebuilt = other.to_network()
                assert compile_network(rebuilt).fingerprint == ir.fingerprint
                # The worker's DP and analyze jobs intern the rebuilt
                # network: they must get the attached IR, not a
                # second compile.
                assert intern(rebuilt) is other
                del rebuilt
            finally:
                detach(other, shm)
        finally:
            segment.unlink()

    def test_attach_unknown_name_raises(self):
        with pytest.raises(ShmUnavailable):
            attach("repro-ir-does-not-exist")


class TestSegmentLifecycle:
    def test_refcount_unlinks_at_zero(self, ir):
        segment = pack(ir)
        segment.acquire()
        segment.acquire()
        assert segment.refs == 2
        segment.release()
        assert not segment.closed
        # The name still resolves while one reference is held.
        other, shm = attach(segment.name)
        detach(other, shm)
        segment.release()
        assert segment.closed
        with pytest.raises(ShmUnavailable):
            attach(segment.name)

    def test_acquire_after_unlink_raises(self, ir):
        segment = pack(ir)
        segment.unlink()
        with pytest.raises(ReproError):
            segment.acquire()

    def test_unlink_is_idempotent(self, ir):
        segment = pack(ir)
        segment.unlink()
        segment.unlink()
        assert segment.refs == 0

    def test_release_without_acquire_unlinks(self, ir):
        segment = pack(ir)
        segment.release()
        assert segment.closed


class TestShipReceive:
    def test_shm_transport_round_trip(self, ir):
        transport, payload = ship(ir, prefer_shm=True)
        assert transport == "shm"
        assert isinstance(payload, ShmSegment)
        assert payload.refs == 1
        other, shm = receive(transport, payload.name)
        try:
            assert other.fingerprint == ir.fingerprint
            assert list(other.topo) == list(ir.topo)
        finally:
            detach(other, shm)
            payload.release()

    def test_pickle_fallback_round_trip(self, ir):
        transport, payload = ship(ir, prefer_shm=False)
        assert transport == "pickle"
        assert isinstance(payload, bytes)
        other, shm = receive(transport, payload)
        assert shm is None
        assert other.fingerprint == ir.fingerprint
        assert list(other.succ_indptr) == list(ir.succ_indptr)

    def test_unknown_transport_raises(self):
        with pytest.raises(ReproError):
            receive("carrier-pigeon", b"")

    def test_attached_ir_does_not_pickle(self, ir):
        # memoryview fields are process-local: shipping an *attached* IR
        # onward is a bug, and it fails loudly.
        segment = pack(ir)
        try:
            other, shm = attach(segment.name)
            try:
                with pytest.raises(TypeError):
                    pickle.dumps(other)
            finally:
                detach(other, shm)
        finally:
            segment.unlink()
