"""Tests for ConsistencyMod and the allocator baseline."""

import pytest

from repro.core import NodeSpec
from repro.errors import LabStorError, OutOfSpaceError
from repro.mods.consistency import ConsistencyMod
from repro.mods.generic_fs import GenericFS
from repro.mods.labfs.alloc import CentralizedBlockAllocator
from repro.sim import Environment
from repro.system import LabStorSystem


def _mount_with_insert(sys_, mount, mod_name, uuid, attrs=None, after="labfs"):
    spec = sys_.stack(mount).fs(variant="min").build()
    anchor = next(n for n in spec.nodes if n.uuid.endswith(after))
    node = NodeSpec(mod_name=mod_name, uuid=uuid, attrs=attrs or {})
    node.outputs = list(anchor.outputs)
    anchor.outputs = [uuid]
    spec.nodes.insert(spec.nodes.index(anchor) + 1, node)
    return sys_.runtime.mount_stack(spec)


# --- ConsistencyMod ----------------------------------------------------------
def test_consistency_strict_flushes_every_write():
    sys_ = LabStorSystem(devices=("nvme",))
    _mount_with_insert(sys_, "fs::/s", "ConsistencyMod", "cons0", {"policy": "strict"})
    gfs = GenericFS(sys_.client())

    def proc():
        yield from gfs.write_file("fs::/s/f", b"x" * 8192)

    sys_.run(sys_.process(proc()))
    cons = sys_.runtime.registry.get("cons0")
    assert cons.flushes_issued >= 1


def test_consistency_relaxed_absorbs_fsync():
    sys_ = LabStorSystem(devices=("nvme",))
    _mount_with_insert(sys_, "fs::/r", "ConsistencyMod", "cons1", {"policy": "relaxed"})
    gfs = GenericFS(sys_.client())
    dev = sys_.devices["nvme"]

    def proc():
        fd = yield from gfs.open("fs::/r/f", create=True)
        yield from gfs.write(fd, b"y" * 4096, offset=0)
        flushes_before = dev.completed
        yield from gfs.fsync(fd)
        return dev.completed - flushes_before

    extra_device_ops = sys_.run(sys_.process(proc()))
    cons = sys_.runtime.registry.get("cons1")
    assert cons.flushes_absorbed == 1
    assert extra_device_ops == 0  # the flush never reached the device


def test_consistency_strict_slower_than_relaxed():
    def elapsed(policy):
        sys_ = LabStorSystem(devices=("nvme",))
        _mount_with_insert(sys_, "fs::/t", "ConsistencyMod", f"c_{policy}", {"policy": policy})
        gfs = GenericFS(sys_.client())

        def proc():
            fd = yield from gfs.open("fs::/t/f", create=True)
            for i in range(10):
                yield from gfs.write(fd, b"z" * 4096, offset=i * 4096)
            return sys_.env.now

        return sys_.run(sys_.process(proc()))

    assert elapsed("strict") > elapsed("relaxed")


def test_consistency_policy_hot_retune():
    sys_ = LabStorSystem(devices=("nvme",))
    _mount_with_insert(sys_, "fs::/h", "ConsistencyMod", "cons2", {"policy": "standard"})
    cons = sys_.runtime.registry.get("cons2")
    cons.set_policy("relaxed")
    assert cons.policy == "relaxed"
    with pytest.raises(LabStorError):
        cons.set_policy("eventual-maybe")


def test_consistency_bad_policy_attr():
    sys_ = LabStorSystem(devices=("nvme",))
    with pytest.raises(LabStorError):
        _mount_with_insert(sys_, "fs::/b", "ConsistencyMod", "cons3", {"policy": "weird"})


def test_consistency_state_survives_upgrade():
    sys_ = LabStorSystem(devices=("nvme",))
    _mount_with_insert(sys_, "fs::/u", "ConsistencyMod", "cons4", {"policy": "relaxed"})

    class ConsistencyModV2(ConsistencyMod):
        pass

    new = sys_.runtime.registry.hot_swap("cons4", ConsistencyModV2)
    assert new.policy == "relaxed"
    assert new.version == 2


# --- CentralizedBlockAllocator ----------------------------------------------
def test_centralized_allocator_basic():
    env = Environment()
    a = CentralizedBlockAllocator(env, 10, base_block=5)
    b1 = a.alloc()
    assert b1 == 5
    a.free(b1)
    assert a.alloc() == b1
    with pytest.raises(OutOfSpaceError):
        a.free(999)


def test_centralized_allocator_exhaustion():
    env = Environment()
    a = CentralizedBlockAllocator(env, 2)
    a.alloc()
    a.alloc()
    with pytest.raises(OutOfSpaceError):
        a.alloc()


def test_centralized_allocator_serializes_under_concurrency():
    env = Environment()
    a = CentralizedBlockAllocator(env, 1000, lock_hold_ns=1000)
    done = []

    def worker(wid):
        for _ in range(5):
            block = yield from a.alloc_block(wid, None)
            done.append(block)

    for w in range(4):
        env.process(worker(w))
    env.run()
    assert len(set(done)) == 20
    # 20 allocations x 1000ns hold, fully serialized
    assert env.now == 20 * 1000


def test_labfs_with_centralized_allocator_still_correct():
    sys_ = LabStorSystem(devices=("nvme",))
    spec = sys_.stack("fs::/c").fs(variant="min").build()
    labfs_node = next(n for n in spec.nodes if n.uuid.endswith("labfs"))
    labfs_node.attrs["allocator"] = "centralized"
    sys_.runtime.mount_stack(spec)
    gfs = GenericFS(sys_.client())

    def proc():
        yield from gfs.write_file("fs::/c/f", b"central" * 1000)
        return (yield from gfs.read_file("fs::/c/f"))

    assert sys_.run(sys_.process(proc())) == b"central" * 1000


def test_perworker_outscales_centralized_allocator():
    """The ablation the paper's design implies: under concurrent writers,
    the per-worker allocator sustains higher throughput."""

    def elapsed(allocator):
        from repro.core import RuntimeConfig

        sys_ = LabStorSystem(devices=("nvme",),
                             config=RuntimeConfig(nworkers=8, ncores=32))
        spec = sys_.stack("fs::/a").fs(variant="min").build()
        next(n for n in spec.nodes if n.uuid.endswith("labfs")).attrs["allocator"] = allocator
        sys_.runtime.mount_stack(spec)

        def writer(gfs, tid):
            for i in range(10):
                fd = yield from gfs.open(f"fs::/a/t{tid}_{i}", create=True)
                yield from gfs.write(fd, b"w" * 65536, offset=0)
                yield from gfs.close(fd)

        procs = [sys_.process(writer(GenericFS(sys_.client()), t)) for t in range(8)]
        sys_.run(sys_.env.all_of(procs))
        return sys_.env.now

    # centralized lock (900ns x 16 blocks x 80 files) serializes allocation
    assert elapsed("centralized") > 1.1 * elapsed("perworker")
