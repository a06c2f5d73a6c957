"""Tests for drivers, schedulers, compression, KVS and KO manager."""

import pytest

from repro.core import KernelOpsManager, KthreadState, LabRequest, StackSpec
from repro.core.labmod import ExecContext, ModContext
from repro.errors import FsError, LabStorError
from repro.kernel import DEFAULT_COST
from repro.mods import (
    BlkSwitchSchedMod,
    CompressionMod,
    DaxDriverMod,
    KernelDriverMod,
    NoOpSchedMod,
    SpdkDriverMod,
)
from repro.devices import make_device
from repro.mods.generic_kvs import GenericKVS
from repro.sim import Environment, Tracer
from repro.system import LabStorSystem
from repro.units import KiB, MiB


def ctx_with(env, devices, attrs=None):
    return ModContext(env, DEFAULT_COST, Tracer(), devices, attrs or {})


def run1(env, gen):
    return env.run(env.process(gen))


# --- drivers -------------------------------------------------------------
def test_kernel_driver_write_read():
    env = Environment()
    dev = make_device(env, "nvme")
    drv = KernelDriverMod("d0", ctx_with(env, {"nvme": dev}))
    x = ExecContext(env, Tracer())

    def proc():
        yield from drv.handle(
            LabRequest(op="blk.write", payload={"offset": 0, "size": 4096, "data": b"K" * 4096}), x
        )
        return (
            yield from drv.handle(
                LabRequest(op="blk.read", payload={"offset": 0, "size": 4096}), x
            )
        )

    assert run1(env, proc()) == b"K" * 4096
    assert drv.ios == 2


def test_kernel_driver_blk_path_slower_than_hctx():
    def one_write(io_path):
        env = Environment()
        dev = make_device(env, "nvme")
        drv = KernelDriverMod("d0", ctx_with(env, {"nvme": dev}, {"io_path": io_path}))
        x = ExecContext(env, Tracer())

        def proc():
            yield from drv.handle(
                LabRequest(op="blk.write", payload={"offset": 0, "size": 4096, "data": b"x" * 4096}),
                x,
            )
            return env.now

        return run1(env, proc())

    assert one_write("hctx") < one_write("blk")


def test_kernel_driver_bad_io_path():
    env = Environment()
    dev = make_device(env, "nvme")
    with pytest.raises(LabStorError):
        KernelDriverMod("d0", ctx_with(env, {"nvme": dev}, {"io_path": "warp"}))


def test_spdk_requires_nvme():
    env = Environment()
    hdd = make_device(env, "hdd")
    with pytest.raises(LabStorError, match="requires device"):
        SpdkDriverMod("s0", ctx_with(env, {"hdd": hdd}))


def test_spdk_faster_than_kernel_driver():
    def one(cls):
        env = Environment()
        dev = make_device(env, "nvme")
        drv = cls("d", ctx_with(env, {"nvme": dev}))
        x = ExecContext(env, Tracer())

        def proc():
            yield from drv.handle(
                LabRequest(op="blk.write", payload={"offset": 0, "size": 4096, "data": b"x" * 4096}),
                x,
            )
            return env.now

        return run1(env, proc())

    assert one(SpdkDriverMod) < one(KernelDriverMod)


def test_dax_driver_roundtrip_on_pmem():
    env = Environment()
    pmem = make_device(env, "pmem")
    drv = DaxDriverMod("x0", ctx_with(env, {"pmem": pmem}))
    x = ExecContext(env, Tracer())

    def proc():
        yield from drv.handle(
            LabRequest(op="blk.write", payload={"offset": 4096, "size": 11, "data": b"persist me!"}),
            x,
        )
        return (
            yield from drv.handle(
                LabRequest(op="blk.read", payload={"offset": 4096, "size": 11}), x
            )
        )

    assert run1(env, proc()) == b"persist me!"


def test_dax_requires_pmem():
    env = Environment()
    nvme = make_device(env, "nvme")
    with pytest.raises(LabStorError, match="requires device"):
        DaxDriverMod("x0", ctx_with(env, {"nvme": nvme}))


def test_driver_device_attr_required_when_ambiguous():
    env = Environment()
    devs = {"nvme": make_device(env, "nvme"), "hdd": make_device(env, "hdd")}
    with pytest.raises(LabStorError, match="'device' attr required"):
        KernelDriverMod("d0", ctx_with(env, devs))


def test_driver_rejects_non_blk_request():
    env = Environment()
    dev = make_device(env, "nvme")
    drv = KernelDriverMod("d0", ctx_with(env, {"nvme": dev}))
    x = ExecContext(env, Tracer())

    def proc():
        with pytest.raises(LabStorError, match="non-blk"):
            yield from drv.handle(LabRequest(op="fs.open", payload={}), x)
        return True

    assert run1(env, proc())


# --- schedulers ------------------------------------------------------------
def _chain_sched_to_sink(env, sched):
    seen = []

    class Sink:
        uuid = "sink"

        def handle(self, req, x):
            seen.append(req.payload.get("hctx"))
            yield x.env.timeout(1)
            return None

    sched.next = [Sink()]
    return seen


def test_noop_maps_by_origin_core():
    env = Environment()
    dev = make_device(env, "nvme", nqueues=4)
    sched = NoOpSchedMod("n0", ctx_with(env, {"nvme": dev}))
    seen = _chain_sched_to_sink(env, sched)
    x = ExecContext(env, Tracer())

    def proc():
        yield from sched.handle(
            LabRequest(op="blk.write", payload={"origin_core": 6, "data": b"z"}), x
        )

    run1(env, proc())
    assert seen == [2]


def test_blkswitch_large_requests_pick_least_loaded_throughput_lane():
    env = Environment()
    dev = make_device(env, "nvme", nqueues=4)
    sched = BlkSwitchSchedMod("b0", ctx_with(env, {"nvme": dev}))
    # queue 0 is the latency lane (nqueues//4 = 1); 1..3 are throughput
    sched.inflight_bytes = [0, 100, 5, 50]
    seen = _chain_sched_to_sink(env, sched)
    x = ExecContext(env, Tracer())
    big = b"z" * (64 * KiB)

    def proc():
        yield from sched.handle(
            LabRequest(op="blk.write", payload={"data": big, "size": len(big)}), x
        )

    run1(env, proc())
    assert seen == [2]  # least-loaded throughput queue, never queue 0
    assert sched.inflight_bytes == [0, 100, 5, 50]  # restored after completion


def test_blkswitch_small_requests_confined_to_latency_lane():
    env = Environment()
    dev = make_device(env, "nvme", nqueues=4)
    sched = BlkSwitchSchedMod("b0", ctx_with(env, {"nvme": dev}))
    sched.inflight_bytes = [100, 0, 0, 0]  # latency lane busy, others idle
    seen = _chain_sched_to_sink(env, sched)
    x = ExecContext(env, Tracer())

    def proc():
        yield from sched.handle(
            LabRequest(op="blk.write", payload={"data": b"z", "size": 1}), x
        )

    run1(env, proc())
    assert seen == [0]  # small I/O stays in its lane


# --- compression ---------------------------------------------------------
def test_compression_roundtrip_through_stack():
    sys_ = LabStorSystem(devices=("nvme",))
    spec = sys_.stack("fs::/c").fs(variant="min").build()
    # splice a compression stage between LabFS and the cache
    fs_node = next(n for n in spec.nodes if "labfs" in n.uuid)
    from repro.core import NodeSpec

    comp = NodeSpec(mod_name="CompressionMod", uuid="comp0", attrs={})
    comp.outputs = list(fs_node.outputs)
    fs_node.outputs = ["comp0"]
    spec.nodes.insert(spec.nodes.index(fs_node) + 1, comp)
    sys_.runtime.mount_stack(spec)
    from repro.mods.generic_fs import GenericFS

    gfs = GenericFS(sys_.client())
    payload = b"compressible " * 300  # repetitive: compresses well

    def proc():
        yield from gfs.write_file("fs::/c/z", payload)
        return (yield from gfs.read_file("fs::/c/z"))

    assert sys_.run(sys_.process(proc())) == payload
    comp_mod = sys_.runtime.registry.get("comp0")
    assert comp_mod.bytes_out < comp_mod.bytes_in


def test_compression_incompressible_stored_raw():
    import numpy as np

    env = Environment()
    comp = CompressionMod("c0", ctx_with(env, {}))
    stored = {}

    class Sink:
        uuid = "sink"

        def handle(self, req, x):
            stored["data"] = req.payload["data"]
            yield x.env.timeout(1)

    comp.next = [Sink()]
    x = ExecContext(env, Tracer())
    noise = np.random.default_rng(1).integers(0, 256, 1000, dtype=np.uint8).tobytes()

    def proc():
        yield from comp.handle(LabRequest(op="blk.write", payload={"data": noise}), x)

    run1(env, proc())
    assert stored["data"] == noise  # incompressible: raw passthrough


def test_compression_synthetic_path_for_large_payloads():
    env = Environment()
    comp = CompressionMod("c0", ctx_with(env, {}, {"ratio": 0.25}))
    sizes = {}

    class Sink:
        uuid = "sink"

        def handle(self, req, x):
            sizes["n"] = len(req.payload["data"])
            yield x.env.timeout(1)

    comp.next = [Sink()]
    x = ExecContext(env, Tracer())
    big = b"q" * (1 * MiB)

    def proc():
        yield from comp.handle(LabRequest(op="blk.write", payload={"data": big}), x)

    run1(env, proc())
    assert sizes["n"] == len(big) // 4


# --- LabKVS details ---------------------------------------------------------
def test_kvs_overwrite_replaces_value():
    sys_ = LabStorSystem(devices=("nvme",))
    sys_.mount_kvs_stack("kvs::/k", variant="min")
    kvs = GenericKVS(sys_.client(), "kvs::/k")

    def proc():
        yield from kvs.put("k1", b"short")
        yield from kvs.put("k1", b"a much longer replacement value" * 100)
        return (yield from kvs.get("k1"))

    assert sys_.run(sys_.process(proc())) == b"a much longer replacement value" * 100


def test_kvs_get_missing_key_raises():
    sys_ = LabStorSystem(devices=("nvme",))
    sys_.mount_kvs_stack("kvs::/k", variant="min")
    kvs = GenericKVS(sys_.client(), "kvs::/k")

    def proc():
        with pytest.raises(FsError, match="ENOENT"):
            yield from kvs.get("ghost")
        return True

    assert sys_.run(sys_.process(proc()))


def test_kvs_state_repair_rebuilds_table():
    sys_ = LabStorSystem(devices=("nvme",))
    sys_.mount_kvs_stack("kvs::/k", variant="min", uuid_prefix="kv")
    kvs = GenericKVS(sys_.client(), "kvs::/k")
    labkvs = sys_.runtime.registry.get("kv.labkvs")

    def proc():
        yield from kvs.put("stable", b"S" * 5000)
        labkvs.table = {}
        labkvs.state_repair()
        return (yield from kvs.get("stable"))

    assert sys_.run(sys_.process(proc())) == b"S" * 5000


# --- KO manager ----------------------------------------------------------
def test_komgr_driver_deploy_lifecycle():
    env = Environment()
    ko = KernelOpsManager(env)
    dev = make_device(env, "nvme")
    ko.register_device("nvme", dev)

    def proc():
        yield env.process(ko.insmod())
        yield env.process(ko.deploy_driver("drv0", "nvme"))
        return ko.device_for("drv0")

    assert run1(env, proc()) is dev


def test_komgr_requires_insmod_first():
    env = Environment()
    ko = KernelOpsManager(env)
    ko.register_device("nvme", make_device(env, "nvme"))
    with pytest.raises(LabStorError, match="not inserted"):
        # deploy_driver raises before the first yield
        gen = ko.deploy_driver("d", "nvme")
        next(gen)


def test_komgr_kthread_lifecycle():
    env = Environment()
    ko = KernelOpsManager(env)

    def proc():
        kid = yield env.process(ko.spawn_kthread())
        ko.freeze_kthread(kid)
        assert ko.kthreads[kid] is KthreadState.FROZEN
        ko.thaw_kthread(kid)
        ko.terminate_kthread(kid)
        return ko.kthreads[kid]

    assert run1(env, proc()) is KthreadState.TERMINATED


def test_komgr_unknown_kthread():
    env = Environment()
    ko = KernelOpsManager(env)
    with pytest.raises(LabStorError):
        ko.freeze_kthread(99)
