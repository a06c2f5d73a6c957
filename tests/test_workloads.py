"""Tests for the workload generators (fio, fxmark, filebench, labios, vpic)."""

import pytest

from repro.devices import make_device
from repro.kernel import make_filesystem, make_interface
from repro.mods.generic_fs import GenericFS
from repro.mods.generic_kvs import GenericKVS
from repro.pfs import OrangeFs
from repro.sim import Environment
from repro.system import LabStorSystem
from repro.units import KiB
from repro.workloads import (
    FioJob,
    GenericFsAdapter,
    KernelFsAdapter,
    LabStackEngine,
    RawDeviceEngine,
    VpicConfig,
    run_bdcats,
    run_create,
    run_fio,
    run_labios_fs,
    run_labios_kvs,
    run_personality,
    run_vpic,
)


# --- fio -------------------------------------------------------------------
def test_fio_randwrite_on_posix_interface():
    env = Environment()
    dev = make_device(env, "nvme")
    engine = RawDeviceEngine(make_interface("posix", env, dev))
    result = run_fio(env, engine, [FioJob(rw="randwrite", bs=4096, nops=50)])
    assert result.ops == 50
    assert result.iops > 0
    assert result.latency.count == 50
    assert dev.bytes_written == 50 * 4096


def test_fio_seq_read_returns_data_path():
    env = Environment()
    dev = make_device(env, "nvme")
    engine = RawDeviceEngine(make_interface("io_uring", env, dev))
    result = run_fio(env, engine, [FioJob(rw="read", bs=4096, nops=20)])
    assert result.ops == 20
    assert dev.bytes_read == 20 * 4096


def test_fio_iodepth_increases_throughput():
    def iops(depth):
        env = Environment()
        dev = make_device(env, "nvme")
        engine = RawDeviceEngine(make_interface("libaio", env, dev))
        jobs = [FioJob(rw="randwrite", bs=4096, nops=200, iodepth=depth, core=c) for c in range(2)]
        return run_fio(env, engine, jobs).iops

    assert iops(8) > iops(1) * 2


def test_fio_multiple_jobs_aggregate():
    env = Environment()
    dev = make_device(env, "nvme")
    engine = RawDeviceEngine(make_interface("posix", env, dev))
    result = run_fio(env, engine, [FioJob(nops=30, core=c) for c in range(4)])
    assert result.ops == 120


def test_fio_labstack_engine():
    sys_ = LabStorSystem(devices=("nvme",))
    from repro.core import StackSpec

    spec = StackSpec.linear("blk::/raw", [("KernelDriverMod", "rawdrv")])
    spec.nodes[0].attrs = {"device": "nvme"}
    stack = sys_.runtime.mount_stack(spec)
    client = sys_.client()
    engine = LabStackEngine(client, stack, sys_.devices["nvme"])
    result = run_fio(sys_.env, engine, [FioJob(rw="randwrite", bs=4096, nops=40)])
    assert result.ops == 40
    assert sys_.devices["nvme"].bytes_written == 40 * 4096


def test_fio_deterministic_given_seed():
    def one():
        env = Environment()
        dev = make_device(env, "nvme")
        engine = RawDeviceEngine(make_interface("posix", env, dev))
        r = run_fio(env, engine, [FioJob(rw="randwrite", nops=50)], seed=7)
        return (r.elapsed_ns, r.latency.summary()["p99"])

    assert one() == one()


# --- fxmark ----------------------------------------------------------------
def test_fxmark_create_kernel_fs():
    env = Environment()
    fs = make_filesystem("ext4", env, make_device(env, "nvme"))
    api = KernelFsAdapter(fs)
    result = run_create(env, lambda tid: api, nthreads=2, files_per_thread=10)
    assert result.ops == 20
    assert result.ops_per_sec > 0


def test_fxmark_create_labstor():
    sys_ = LabStorSystem(devices=("nvme",))
    sys_.mount_fs_stack("fs::/x", variant="min")
    apis = {}

    def factory(tid):
        if tid not in apis:
            apis[tid] = GenericFsAdapter(GenericFS(sys_.client()), "fs::/x")
        return apis[tid]

    result = run_create(sys_.env, factory, nthreads=2, files_per_thread=10)
    assert result.ops == 20


# --- filebench --------------------------------------------------------------
@pytest.mark.parametrize("name", ["varmail", "webserver", "webproxy", "fileserver"])
def test_filebench_personalities_kernel(name):
    env = Environment()
    fs = make_filesystem("ext4", env, make_device(env, "nvme"))
    api = KernelFsAdapter(fs)
    result = run_personality(env, lambda tid: api, name, nthreads=2, loops=2)
    assert result.ops > 0
    assert result.ops_per_sec > 0
    assert result.bytes_moved > 0


def test_filebench_varmail_labstor():
    sys_ = LabStorSystem(devices=("nvme",))
    sys_.mount_fs_stack("fs::/fb", variant="min")
    apis = {}

    def factory(tid):
        if tid not in apis:
            apis[tid] = GenericFsAdapter(GenericFS(sys_.client()), "fs::/fb")
        return apis[tid]

    result = run_personality(sys_.env, factory, "varmail", nthreads=2, loops=2)
    assert result.ops > 0


# --- labios ------------------------------------------------------------------
def test_labios_fs_vs_kvs_backends():
    env = Environment()
    fs = make_filesystem("ext4", env, make_device(env, "nvme"))
    r_fs = run_labios_fs(env, KernelFsAdapter(fs), nlabels=20)
    assert r_fs.labels == 20
    assert r_fs.throughput_MBps > 0

    sys_ = LabStorSystem(devices=("nvme",))
    sys_.mount_kvs_stack("kvs::/lb", variant="min")
    kvs = GenericKVS(sys_.client(), "kvs::/lb")
    r_kvs = run_labios_kvs(sys_.env, kvs, nlabels=20)
    assert r_kvs.labels == 20
    # KVS path does 1 op per label instead of open/seek/write/close
    assert r_kvs.labels_per_sec > r_fs.labels_per_sec


# --- pfs + vpic ----------------------------------------------------------------
def _make_pfs(env, mds_fs="ext4", ndata=2, data_dev="ssd"):
    mds = KernelFsAdapter(make_filesystem(mds_fs, env, make_device(env, "nvme")))
    data = [
        KernelFsAdapter(make_filesystem("ext4", env, make_device(env, data_dev)))
        for _ in range(ndata)
    ]
    return OrangeFs(env, mds, data)


def test_pfs_write_read_roundtrip():
    env = Environment()
    pfs = _make_pfs(env)
    payload = bytes(range(256)) * 1024  # 256 KiB -> 4 stripes

    def proc():
        yield from pfs.write_file("/f", payload)
        return (yield from pfs.read_file("/f"))

    assert env.run(env.process(proc())) == payload
    assert pfs.metadata_ops == 8  # 4 record + 4 lookup


def test_pfs_stripes_round_robin_across_servers():
    env = Environment()
    pfs = _make_pfs(env, ndata=2)
    payload = b"s" * (256 * KiB)

    def proc():
        yield from pfs.write_file("/rr", payload)

    env.run(env.process(proc()))
    # both data servers hold stripes
    assert pfs.data[0].fs.exists("/data/rr.s0")
    assert pfs.data[1].fs.exists("/data/rr.s1")


def test_pfs_unknown_file():
    env = Environment()
    pfs = _make_pfs(env)

    def proc():
        with pytest.raises(KeyError):
            yield from pfs.read_file("/ghost")
        return True

    assert env.run(env.process(proc()))


def test_vpic_then_bdcats():
    env = Environment()
    pfs = _make_pfs(env)
    cfg = VpicConfig(nprocs=2, timesteps=2, particles_per_proc=512)
    w = run_vpic(env, pfs, cfg)
    r = run_bdcats(env, pfs, cfg)
    assert w.bytes_moved == cfg.total_bytes
    assert r.bytes_moved == cfg.total_bytes
    assert w.metadata_ops == r.metadata_ops > 0
    assert w.bandwidth_MBps > 0
