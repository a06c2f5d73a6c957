"""repro.snap unit tests: COW layers, system snapshots, the snapshot
tree, and the S1 BackingStore discard/digest fixes."""

import pickle
from types import SimpleNamespace

import pytest

from repro.devices.backing import PAGE_SIZE, BackingStore, digest_page
from repro.errors import ReplayDivergence, SnapshotError
from repro.scenarios import Program
from repro.scenarios.batching import BatchingProgram
from repro.snap import (
    SnapshotLayer,
    SnapshotStack,
    SnapshotTree,
    SystemSnapshot,
    snapshot_run,
)
from repro.units import msec, usec

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

    def test_diff_reports_pages_dirtied_after_capture(self):
        from repro.mods.generic_kvs import GenericKVS

        sys_, kvs, snap = self._run_and_capture()

        def more():
            yield from kvs.put("extra", b"Z" * 5000)

        sys_.run(sys_.process(more()))
        snap2 = SystemSnapshot.capture(sys_, tag="t1")
        d = snap.diff(snap2)
        assert any(v["changed_pages"] for v in d["pages"].values())
        sys_.shutdown()

    def test_capture_does_not_perturb_digest(self):
        """The core COW property at system level: capturing between two
        env.run calls injects zero events."""
        out, _snap = snapshot_run(BatchingProgram())
        from repro.snap import straight_run

        base = straight_run(BatchingProgram())
        assert out.digest == base.digest
        assert out.result == base.result


# ----------------------------------------------------------------------
# snapshot tree
# ----------------------------------------------------------------------
class TestSnapshotTree:
    def test_plant_branch_rewind_diff(self):
        tree = SnapshotTree(BatchingProgram())
        root = tree.plant(label="root")
        a = tree.branch(root, label="a", run_ns=100_000)
        b = tree.branch(root, label="b", run_ns=200_000)
        assert root.children == [a, b]
        assert a.time_ns == root.time_ns + 100_000
        assert b.path() == [root, b]
        # rewinding a branch must verify byte-identical replayed state
        restored = tree.rewind(a)
        assert restored.env.now == a.time_ns
        d = tree.diff(root, b)
        assert "pages" in d and "mods" in d
        s = tree.summary()
        assert s["nodes"] == 3 and s["leaves"] == 2

    def test_branch_past_completion_rejected(self):
        tree = SnapshotTree(BatchingProgram())
        root = tree.plant()
        with pytest.raises(SnapshotError, match="completion"):
            tree.branch(root, label="too-far", run_ns=10**9)

    def test_rewind_detects_divergent_state(self):
        tree = SnapshotTree(BatchingProgram())
        root = tree.plant()
        # corrupt the captured digest ledger: restore must refuse
        cap = next(iter(root.snapshot.state.deployments.values()))
        dev = cap.devices["nvme"]
        dev.content_digest = "0" * 64
        with pytest.raises(ReplayDivergence):
            tree.rewind(root)


# ----------------------------------------------------------------------
# snapshot tree × crash-consistency audit (time-travel debugging)
# ----------------------------------------------------------------------
class _AuditFsProgram(Program):
    """Test-local FS workload with NO baked-in faults: power cuts are
    injected per tree branch, then every node is audited after rewind."""

    default_pause_ns = int(msec(0.5))
    NFILES = 56

    def build(self, env):
        from repro.faults import CrashConsistencyChecker, RetryPolicy
        from repro.mods.generic_fs import GenericFS
        from repro.system import LabStorSystem

        system = LabStorSystem(env=env, seed=self.seed, devices=("nvme",))
        system.mount_fs_stack("fs::/audit", variant="min")
        retry = RetryPolicy(max_attempts=6, timeout_ns=int(msec(50)))
        gfs = GenericFS(system.client(), retry=retry)
        return SimpleNamespace(
            system=system, gfs=gfs, checker=CrashConsistencyChecker(),
        )

    def drive(self, ctx):
        system, gfs, checker = ctx.system, ctx.gfs, ctx.checker
        env = system.env

        def go():
            acked = 0
            for i in range(self.NFILES):
                path = f"fs::/audit/f{i}"
                data = bytes([(i + 1) % 251]) * 4096
                checker.begin(path, data)
                try:
                    yield from gfs.write_file(path, data)
                except Exception:  # noqa: BLE001 - injected cut: move on
                    continue
                checker.ack(path)
                acked += 1
                yield env.timeout(int(usec(40)))  # spread the write stream
            # idle tail: branches need the run still alive to grow from
            yield env.timeout(int(msec(60)))
            return acked

        return system.process(go())

    def finish(self, ctx, value):
        report = ctx.system.run(ctx.system.process(ctx.checker.verify(ctx.gfs)))
        return {"acked": value, "consistency": report}


class _InstallFaults:
    """Deterministic branch mutation: replays identically on every
    later rewind of the branched node."""

    def __init__(self, plan: str) -> None:
        self.plan = plan

    def __call__(self, ctx) -> None:
        ctx.system.install_faults(self.plan)


def _ledger(restored):
    return {"checker": restored.ctx.checker.export_state()}


class TestSnapshotTreeCrashAudit:
    # covers cut offset + restart_after + the 5ms restart exec window
    RUN_NS = int(msec(7.0))

    @staticmethod
    def _cut(node):
        at = node.time_ns + int(usec(200))
        return _InstallFaults(
            f"power_cut:at={at},restart_after={int(usec(300))}")

    def test_audit_every_node_after_branched_power_cuts(self):
        from repro.faults import CrashConsistencyChecker

        tree = SnapshotTree(_AuditFsProgram())
        root = tree.plant(label="pristine")
        a = tree.branch(root, label="cut", run_ns=self.RUN_NS,
                        mutate=self._cut(root), meta_fn=_ledger)
        torn_at = root.time_ns + int(usec(200))
        b = tree.branch(
            root, label="torn+cut", run_ns=self.RUN_NS,
            mutate=_InstallFaults(
                f"torn_write:at={torn_at},device=nvme,op=write;"
                f"power_cut:at={torn_at},restart_after={int(usec(300))}"),
            meta_fn=_ledger)
        a2 = tree.branch(a, label="cut-again", run_ns=self.RUN_NS,
                         mutate=self._cut(a), meta_fn=_ledger)
        assert tree.summary()["nodes"] == 4

        def checker_of(node, ctx):
            if "checker" in node.meta:
                return CrashConsistencyChecker.load_state(node.meta["checker"])
            return ctx.checker  # root: the replayed ledger is the live one

        # the audit rewinds every node (replaying each branch's injected
        # cuts) and verifies prefix consistency of the recovered namespace
        reports = tree.audit_crash_consistency(checker_of, lambda ctx: ctx.gfs)
        assert set(reports) == {n.id for n in tree.walk()}
        assert all(r["acked_ok"] >= 1 for r in reports.values())
        # acked only grows down an edge: every branch replays its parent
        for child in (a, b, a2):
            assert len(child.meta["checker"]["acked"]) >= reports[root.id]["acked_ok"]
        assert len(a2.meta["checker"]["acked"]) >= len(a.meta["checker"]["acked"])
        # the mutation history replays: one crash on a's timeline, two on a2's
        assert tree.rewind(root).ctx.system.runtime.crashes == 0
        assert tree.rewind(a).ctx.system.runtime.crashes == 1
        assert tree.rewind(a2).ctx.system.runtime.crashes == 2
        # and the cut branch visibly dirtied device pages vs the root
        d = tree.diff(root, a)
        assert any(v["changed_pages"] for v in d["pages"].values())
