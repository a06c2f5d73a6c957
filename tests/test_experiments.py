"""Shape tests for every experiment harness (scaled-down parameters).

Each test asserts the *qualitative* result the paper reports — who wins,
roughly by how much, where the crossovers are — on an explicit, reduced
grid through the one figure runner, so the suite stays fast.  The
committed full-scale grids run in benchmarks/test_bench_figures.py.
"""

from repro.experiments.report import format_table, normalize
from repro.experiments.runner import EXPERIMENTS, run_experiment
from repro.units import MiB


def run(name, grid):
    return run_experiment(EXPERIMENTS[name], grid=grid, processes=1)


def point(name, **params):
    return run(name, [params]).rows[0]


def shrunk(name, keep=lambda p: True, **override):
    """The figure's committed grid, filtered and scaled down."""
    return [{**p, **override} for p in EXPERIMENTS[name].grid if keep(p)]


# --- E1: anatomy ----------------------------------------------------------
def anatomy(op, nops):
    return point("anatomy", op=op, nops=nops, bs=4096, config="lab-all")


def test_anatomy_write_fractions_match_paper_shape():
    r = anatomy("write", nops=32)
    f = r["fractions"]
    # device I/O dominates (paper ~66%)
    assert 0.45 < f["Device I/O"] < 0.80
    # page cache is the biggest software slice (paper ~17%)
    assert f["Page cache (LRU)"] == max(
        v for k, v in f.items() if k != "Device I/O"
    )
    assert 0.08 < f["Page cache (LRU)"] < 0.25
    # IPC ~8.4%; permissions and FS metadata ~3% each
    assert 0.03 < f["IPC (shm queues)"] < 0.15
    assert 0.01 < f["Permissions"] < 0.06
    assert 0.01 < f["FS metadata"] < 0.06
    assert abs(sum(f.values()) - 1.0) < 1e-9


def test_anatomy_read_similar_to_write():
    r = anatomy("read", nops=32)
    assert 0.40 < r["fractions"]["Device I/O"] < 0.80


def test_anatomy_formatting():
    text = run("anatomy", shrunk("anatomy", nops=8)).table()
    assert "Device I/O" in text and "Fig 4(a)" in text


# --- E2: live upgrade --------------------------------------------------------
def live_upgrade(nmessages, nupgrades, upgrade_type="centralized"):
    return point("table1", nmessages=nmessages, nupgrades=nupgrades,
                 upgrade_type=upgrade_type)


def test_live_upgrade_cost_approx_5ms_each():
    base = live_upgrade(nmessages=800, nupgrades=0)
    with_up = live_upgrade(nmessages=800, nupgrades=8)
    per_upgrade_ms = (with_up["elapsed_s"] - base["elapsed_s"]) * 1000 / 8
    assert 2.0 < per_upgrade_ms < 10.0  # paper: ~5ms
    assert with_up["upgrades_done"] == 8


def test_live_upgrade_decentralized_slower():
    cen = live_upgrade(nmessages=600, nupgrades=8)
    dec = live_upgrade(nmessages=600, nupgrades=8, upgrade_type="decentralized")
    assert dec["elapsed_s"] > cen["elapsed_s"]


# --- E3: orchestration CPU ---------------------------------------------------
def test_single_worker_saturates_dynamic_tracks():
    one, eight, dyn = run("fig5a", [
        {"nclients": 8, "workers": workers, "ops_per_client": 300}
        for workers in ("1worker", "8workers", "dynamic")]).rows
    # paper: 1 worker loses ~50% vs 8 workers at high client counts
    assert one["iops"] < 0.6 * eight["iops"]
    # dynamic uses clearly fewer cores than the 8-worker config
    assert dyn["busy_cores"] < 0.75 * eight["busy_cores"]
    # while recovering most of the performance
    assert dyn["iops"] > 1.4 * one["iops"]


# --- E4: partitioning ---------------------------------------------------------
def partition(nworkers, policy, creates_per_thread):
    return point("fig5b", nworkers=nworkers, policy=policy, write_size=2 * MiB,
                 creates_per_thread=creates_per_thread, writes_per_thread=3)


def test_dynamic_partitioning_protects_latency():
    rr = partition(4, "rr", creates_per_thread=60)
    dyn = partition(4, "dynamic", creates_per_thread=60)
    # paper: RR destroys L-App tail latency; dynamic restores it
    assert dyn["l_lat_p99_us"] < rr["l_lat_p99_us"] / 5
    # at a bandwidth cost
    assert dyn["c_bw_MBps"] <= rr["c_bw_MBps"]


def test_partition_bandwidth_cost_shrinks_with_workers():
    def cost(n):
        rr = partition(n, "rr", creates_per_thread=40)
        dyn = partition(n, "dynamic", creates_per_thread=40)
        return 1 - dyn["c_bw_MBps"] / rr["c_bw_MBps"]

    assert cost(8) < cost(2)  # paper: 30% -> 6%


# --- E5: storage APIs ----------------------------------------------------------
def storage_api(device, bs, nops):
    return run("fig6", shrunk(
        "fig6", lambda p: p["device"] == device and p["bs"] == bs, nops=nops)).rows


def test_storage_api_nvme_ordering():
    rows = storage_api("nvme", 4096, nops=120)
    iops = {r["interface"]: r["iops"] for r in rows}
    # paper Fig 6 ordering on NVMe 4KB
    assert iops["lab_spdk"] > iops["lab_kernel_driver"] > iops["io_uring"]
    assert iops["io_uring"] > iops["posix"] > iops["posix_aio"]
    # Kernel Driver beats io_uring by >= 15%
    assert iops["lab_kernel_driver"] > 1.15 * iops["io_uring"]
    # SPDK adds ~12% over the Kernel Driver (5..20% window)
    assert 1.05 < iops["lab_spdk"] / iops["lab_kernel_driver"] < 1.25


def test_storage_api_gap_collapses_at_128k():
    small = storage_api("nvme", 4096, nops=100)
    large = storage_api("nvme", 128 * 1024, nops=100)

    def spread(rows):
        n = normalize({r["interface"]: r["iops"] for r in rows})
        return 1 - min(v for k, v in n.items() if k != "posix_aio")

    assert spread(large) < spread(small) / 2


def test_storage_api_hdd_ties():
    rows = storage_api("hdd", 4096, nops=25)
    norm = normalize({r["interface"]: r["iops"] for r in rows})
    assert min(norm.values()) > 0.95  # seek-dominated: everything ties


def test_storage_api_dax_dominates_pmem():
    rows = storage_api("pmem", 4096, nops=120)
    iops = {r["interface"]: r["iops"] for r in rows}
    assert iops["lab_dax"] > 2 * iops["lab_kernel_driver"]
    assert iops["lab_dax"] > 5 * iops["posix"]


# --- E6: metadata -------------------------------------------------------------
def test_metadata_labfs_beats_kernel_and_scales():
    rows = run("fig7", [
        {"config": config, "nthreads": n, "files_per_thread": 30}
        for config in ("ext4", "labfs-all", "labfs-min", "labfs-d")
        for n in (1, 8)]).rows
    by = {(r["config"], r["nthreads"]): r["kops_per_sec"] for r in rows}
    # paper: LabFS up to ~3x single-threaded
    assert by[("labfs-all", 1)] > 1.8 * by[("ext4", 1)]
    # removing permissions helps; removing IPC helps more
    assert by[("labfs-min", 1)] > by[("labfs-all", 1)]
    assert by[("labfs-d", 1)] > 1.10 * by[("labfs-min", 1)]
    # LabFS scales with threads; ext4 flatlines on the journal
    assert by[("labfs-all", 8)] > 4 * by[("labfs-all", 1)]
    assert by[("ext4", 8)] < 1.5 * by[("ext4", 1)]


# --- E7: schedulers -----------------------------------------------------------
def test_schedulers_hol_blocking_and_blkswitch_rescue():
    iso, noop, blk, lab_noop, lab_blk = run("fig8", [
        {"scheduler": sched, "colocated": colocated, "l_nops": 60, "t_nops": 50}
        for sched, colocated in (("linux-noop", False), ("linux-noop", True),
                                 ("linux-blk", True), ("lab-noop", True),
                                 ("lab-blk", True))]).rows
    # colocation destroys noop's tail latency (paper: 110us -> 945us mean)
    assert noop["l_lat_p99_us"] > 5 * iso["l_lat_p99_us"]
    # blk-switch restores QoS
    assert blk["l_lat_p99_us"] < noop["l_lat_p99_us"] / 3
    assert lab_blk["l_lat_p99_us"] < lab_noop["l_lat_p99_us"] / 3


# --- E8: PFS ------------------------------------------------------------------
def test_pfs_gain_grows_with_device_speed():
    def gain(device):
        ext4, lab = run("fig9a", [
            {"mds_backend": backend, "data_device": device, "ndata": 4,
             "nprocs": 4, "timesteps": 2, "particles_per_proc": 2048}
            for backend in ("ext4", "labfs-min")]).rows
        return ext4["vpic_s"] / lab["vpic_s"] - 1

    g_hdd = gain("hdd")
    g_nvme = gain("nvme")
    assert g_nvme > 0.04       # paper: 6-12% on fast devices
    assert g_nvme > g_hdd + 0.03  # the benefit grows as I/O cost shrinks


# --- E9: LABIOS -----------------------------------------------------------------
def test_labios_kvs_beats_filesystems():
    rows = run("fig9b", shrunk("fig9b", lambda p: p["device"] == "nvme",
                               nlabels=80)).rows
    mbps = {r["backend"]: r["MBps"] for r in rows}
    best_fs = max(mbps["ext4"], mbps["xfs"], mbps["f2fs"])
    # paper: filesystems degrade >= 12% vs LabKVS
    assert mbps["labkvs-all"] > 1.12 * best_fs
    # relaxing access control buys more (paper: up to +16%)
    assert mbps["labkvs-d"] > mbps["labkvs-min"] > mbps["labkvs-all"]


# --- E10: Filebench ----------------------------------------------------------------
def test_filebench_lab_wins_metadata_workloads():
    # 4 threads: enough concurrency for the kernel journal contention the
    # paper's 16-thread runs exhibit
    rows = run("fig9c", shrunk(
        "fig9c", lambda p: p["personality"] in ("varmail", "webproxy"),
        nthreads=4, loops=3)).rows
    by = {(r["config"], r["personality"]): r["kops_per_sec"] for r in rows}
    for wl in ("varmail", "webproxy"):
        best_kernel = max(by[(fs, wl)] for fs in ("ext4", "xfs", "f2fs"))
        assert by[("lab-min", wl)] > best_kernel


def test_filebench_fileserver_is_the_exception():
    rows = run("fig9c", shrunk(
        "fig9c", lambda p: (p["personality"] == "fileserver"
                            and p["config"] in ("ext4", "lab-min")),
        nthreads=2, loops=3)).rows
    by = {r["config"]: r["kops_per_sec"] for r in rows}
    # bandwidth-bound: LabFS does not win here (paper: parity/exception)
    assert by["lab-min"] < 1.2 * by["ext4"]


# --- report helpers ------------------------------------------------------------
def test_format_table_alignment():
    text = format_table(["a", "bb"], [[1, 2.5], [10, 3.25]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    assert len(lines) == 5


def test_normalize_best_is_one():
    n = normalize({"x": 50.0, "y": 100.0})
    assert n == {"x": 0.5, "y": 1.0}
