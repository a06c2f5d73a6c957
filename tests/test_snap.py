"""repro.snap unit tests: COW layers, system snapshots, and the S1
BackingStore discard/digest fixes."""

import pickle

import pytest

from repro.devices.backing import PAGE_SIZE, BackingStore, digest_page
from repro.errors import ReplayDivergence, SnapshotError
from repro.scenarios.batching import BatchingProgram
from repro.snap import (
    SnapshotLayer,
    SnapshotStack,
    SystemSnapshot,
    snapshot_run,
    straight_run,
)

CAP = 64 * PAGE_SIZE


# ----------------------------------------------------------------------
# S1: BackingStore discard + page digests
# ----------------------------------------------------------------------
class TestBackingStoreS1:
    def test_discard_of_unwritten_range_materializes_nothing(self):
        """The S1 regression: a partial-page TRIM over never-written
        space used to allocate the edge pages just to zero them."""
        store = BackingStore(CAP)
        store.discard(100, 3 * PAGE_SIZE)  # unaligned head + tail
        assert store.resident_bytes == 0
        assert list(store.page_numbers()) == []

    def test_partial_discard_zeroes_only_resident_edges(self):
        store = BackingStore(CAP)
        store.write(0, b"A" * PAGE_SIZE)
        store.write(PAGE_SIZE, b"B" * PAGE_SIZE)
        # discard the tail half of page 0 and all of page 1
        store.discard(PAGE_SIZE // 2, PAGE_SIZE + PAGE_SIZE // 2)
        assert store.read(0, PAGE_SIZE // 2) == b"A" * (PAGE_SIZE // 2)
        assert store.read(PAGE_SIZE // 2, PAGE_SIZE // 2) == bytes(PAGE_SIZE // 2)
        assert store.read(PAGE_SIZE, PAGE_SIZE) == bytes(PAGE_SIZE)
        assert store.resident_bytes == PAGE_SIZE  # page 1 was dropped

    def test_page_helpers(self):
        store = BackingStore(CAP)
        store.write(2 * PAGE_SIZE, b"x" * 10)
        assert list(store.page_numbers()) == [2]
        assert store.page_bytes(2)[:10] == b"x" * 10
        assert store.page_bytes(5) == bytes(PAGE_SIZE)  # absent reads zeros
        assert store.page_digest(2) == digest_page(store.page_bytes(2))

    def test_content_digest_ignores_sparse_materialization(self):
        """A resident all-zero page and an absent page digest alike."""
        a, b = BackingStore(CAP), BackingStore(CAP)
        a.write(0, b"data")
        b.write(0, b"data")
        b.write(3 * PAGE_SIZE, bytes(PAGE_SIZE))  # explicit zero page
        assert a.content_digest() == b.content_digest()
        assert a.page_digests() == b.page_digests()


# ----------------------------------------------------------------------
# COW layer stack
# ----------------------------------------------------------------------
class TestSnapshotStack:
    def _stack(self):
        base = BackingStore(CAP)
        base.write(0, b"base" * (PAGE_SIZE // 4))
        return base, SnapshotStack(base)

    def test_reads_fall_through_to_base(self):
        base, stack = self._stack()
        assert stack.read(0, 8) == base.read(0, 8)
        assert stack.capacity_bytes == CAP

    def test_writes_land_in_top_layer_not_base(self):
        base, stack = self._stack()
        before = base.content_digest()
        stack.write(0, b"overlaid")
        assert stack.read(0, 8) == b"overlaid"
        assert base.content_digest() == before
        assert stack.top.dirty_pages == 1

    def test_partial_write_cow_reads_through_first(self):
        _base, stack = self._stack()
        stack.write(4, b"XY")
        got = stack.read(0, 8)
        assert got == b"base"[:4] + b"XY" + b"se"[:2]

    def test_snapshot_freezes_top_and_opens_fresh_layer(self):
        _base, stack = self._stack()
        stack.write(0, b"v1" * (PAGE_SIZE // 2))
        frozen = stack.snapshot("t1")
        assert frozen[-1].frozen and frozen[-1].dirty_pages == 1
        # post-snapshot writes land in the fresh top, not the frozen chain
        stack.write(0, b"v2" * (PAGE_SIZE // 2))
        assert bytes(frozen[-1].pages[0][:2]) == b"v1"
        assert stack.read(0, 2) == b"v2"

    def test_from_frozen_rejects_mutable_chain(self):
        layer = SnapshotLayer("x")  # never frozen
        with pytest.raises(SnapshotError):
            SnapshotStack.from_frozen(BackingStore(CAP), [layer], tag="bad",
                                      capacity_bytes=CAP)

    def test_commit_folds_top_into_base(self):
        base, stack = self._stack()
        stack.write(PAGE_SIZE, b"folded")
        stack.commit()
        assert base.read(PAGE_SIZE, 6) == b"folded"
        assert len(stack.layers) == 1

    def test_drop_discards_top_writes(self):
        base, stack = self._stack()
        stack.write(0, b"scratch!")
        stack.drop()
        assert stack.read(0, 4) == b"base"
        assert base.read(0, 4) == b"base"

    def test_from_frozen_shares_layers_copy_on_write(self):
        _base, stack = self._stack()
        stack.write(0, b"gen1gen1")
        frozen = stack.snapshot("gen1")
        clone = SnapshotStack.from_frozen(stack.base, frozen, tag="clone",
                                          capacity_bytes=stack.capacity_bytes)
        clone.write(0, b"gen2gen2")
        assert clone.read(0, 8) == b"gen2gen2"
        assert stack.read(0, 8) == b"gen1gen1"  # original untouched

    def test_discard_through_stack_reads_zero(self):
        _base, stack = self._stack()
        stack.discard(0, PAGE_SIZE)
        assert stack.read(0, PAGE_SIZE) == bytes(PAGE_SIZE)

    def test_content_digest_matches_equivalent_flat_store(self):
        base, stack = self._stack()
        stack.snapshot("t")
        stack.write(PAGE_SIZE, b"Q" * PAGE_SIZE)
        flat = BackingStore(CAP)
        flat.write(0, b"base" * (PAGE_SIZE // 4))
        flat.write(PAGE_SIZE, b"Q" * PAGE_SIZE)
        assert stack.content_digest() == flat.content_digest()

    def test_promote_is_idempotent(self):
        base, stack = self._stack()
        assert SnapshotStack.promote(stack) is stack


# ----------------------------------------------------------------------
# SystemSnapshot
# ----------------------------------------------------------------------
class TestSystemSnapshot:
    def _run_and_capture(self):
        from repro.mods.generic_kvs import GenericKVS
        from repro.sim.check import reset_global_counters
        from repro.system import LabStorSystem

        reset_global_counters()
        sys_ = LabStorSystem(devices=("nvme",))
        sys_.mount_kvs_stack("kvs::/s", variant="min", uuid_prefix="sn")
        kvs = GenericKVS(sys_.client(), "kvs::/s")

        def fill():
            for i in range(8):
                yield from kvs.put(f"k{i}", bytes([i + 1]) * 600)

        sys_.run(sys_.process(fill()))
        snap = SystemSnapshot.capture(sys_, tag="t0", drain=True)
        return sys_, kvs, snap

    def test_capture_then_verify_clean(self):
        sys_, _kvs, snap = self._run_and_capture()
        assert snap.verify_against(sys_) == []
        sys_.shutdown()

    def test_restore_into_fresh_system_reproduces_state(self):
        from repro.mods.generic_kvs import GenericKVS
        from repro.sim.check import reset_global_counters
        from repro.system import LabStorSystem

        sys_, _kvs, snap = self._run_and_capture()
        sys_.shutdown()
        reset_global_counters()
        fresh = LabStorSystem(devices=("nvme",))
        fresh.mount_kvs_stack("kvs::/s", variant="min", uuid_prefix="sn")
        kvs2 = GenericKVS(fresh.client(), "kvs::/s")
        snap.restore_into(fresh)
        # before driving any ops, the restored state digests must match
        snap2 = SystemSnapshot.capture(fresh, tag="t1")
        assert snap2.state_digests() == snap.state_digests()

        def check():
            return (yield from kvs2.get("k3"))

        assert fresh.run(fresh.process(check())) == bytes([4]) * 600
        fresh.shutdown()

    def test_telemetry_counters_ride_the_snapshot(self):
        """capture/restore_into used to die with AttributeError on any
        telemetry-enabled target (they read ``telemetry.metrics``; the
        attribute is ``registry``)."""
        from repro.system import LabStorSystem

        sys_ = LabStorSystem(devices=("nvme",), telemetry=True)
        sys_.telemetry.registry.inc("probe_total", 3)
        snap = SystemSnapshot.capture(sys_, tag="tel")
        fresh = LabStorSystem(devices=("nvme",), telemetry=True)
        snap.restore_into(fresh)
        assert fresh.telemetry.registry.counter("probe_total") == 3
        sys_.shutdown()
        fresh.shutdown()

    def test_snapshot_is_picklable_and_sized(self):
        sys_, _kvs, snap = self._run_and_capture()
        blob = pickle.dumps(snap)
        assert len(blob) == snap.size_bytes() or len(blob) > 0
        back = pickle.loads(blob)
        assert back.state_digests() == snap.state_digests()
        sys_.shutdown()

    def test_capture_does_not_perturb_digest(self):
        """The core COW property at system level: capturing between two
        env.run calls injects zero events."""
        out, _snap = snapshot_run(BatchingProgram())
        base = straight_run(BatchingProgram())
        assert out.digest == base.digest
        assert out.result == base.result


# ----------------------------------------------------------------------
# ReplaySnapshot: the restore seam refuses what it cannot honour
# ----------------------------------------------------------------------
class TestReplaySnapshot:
    def test_restore_detects_divergent_state(self):
        _out, snap = snapshot_run(BatchingProgram())
        # corrupt the captured digest ledger: restore must refuse
        cap = next(iter(snap.state.deployments.values()))
        cap.devices["nvme"].content_digest = "0" * 64
        with pytest.raises(ReplayDivergence):
            snap.restore()

    def test_pause_past_completion_rejected(self):
        with pytest.raises(SnapshotError, match="finished before the pause point"):
            snapshot_run(BatchingProgram(), at_ns=10**8)
