"""The seven workloads.  Each is one function ``rep(seed, size, telemetry,
profiler) -> Rep`` that builds a fresh system, runs one timed section and
checks its outputs.  See README.md for why each exists.

The seed reaches the model through ``LabStorSystem(seed=)`` /
``cluster(seed=)`` (device service-time jitter, YCSB keys and mixes), and
the generators through ``run_fio(seed=)`` / ``run_personality(seed=)``.
The stock NVMe profile has no jitter, which would make every virtual
number seed-blind; ``JITTER`` gives the device a 5 % log-normal service
time so that different seeds are different inputs.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable


from repro.cluster import cluster
from repro.cluster.fabric import FabricCost
from repro.core.labstack import StackSpec
from repro.core.runtime import RuntimeConfig
from repro.devices.profiles import DeviceSpec, make_device
from repro.experiments.common import LabFsFixture
from repro.kernel import make_filesystem
from repro.mods.cache_lru import LruCacheMod
from repro.mods.generic_kvs import GenericKVS
from repro.sim import Environment, RngRegistry
from repro.system import LabStorSystem
from repro.traffic.engine import OpenLoopEngine
from repro.traffic.presets import MOUNT as KVS_MOUNT
from repro.traffic.presets import overload_tenants
from repro.traffic.ycsb import YcsbWorkload
from repro.units import msec, usec
from repro.workloads.filebench import PERSONALITIES, run_personality
from repro.workloads.fio import FioJob, LabStackEngine, run_fio
from repro.workloads.fsapi import KernelFsAdapter

from measure import Rep, Section, lat_stats, layer_self_seconds

JITTER = 0.05
NVME = DeviceSpec("nvme", jitter=JITTER)


def _events(env) -> int:
    # the engine's monotone count of scheduled events; repro.sim.profile
    # and repro.sim.par read the same attribute for their events/s
    return env._eid


# ----------------------------------------------------------------------
# shared helpers for LabStor deployments
# ----------------------------------------------------------------------
def _engine_raw(env, dev) -> dict:
    """Running totals every workload has: the engine's and the device's."""
    return {
        "events": _events(env),
        "pool_reused": env.pool_reused,
        "dev_ops": dev.completed,
        "dev_bytes": dev.bytes_read + dev.bytes_written,
    }


def _engine_counters(d: dict, ops: int, user_bytes: int) -> dict:
    return {
        "sim.events_per_op": d["events"] / ops,
        "sim.pool_reuse_frac": d["pool_reused"] / d["events"],
        "devices.ops_per_op": d["dev_ops"] / ops,
        "devices.bytes_per_user_byte": d["dev_bytes"] / user_bytes,
    }


def _raw(system: LabStorSystem) -> dict:
    """Running totals of one LabStorSystem's public counters; the timed
    section's share is the difference of two of these."""
    caches = system.runtime.registry.instances_of(LruCacheMod)
    qps = system.runtime.ipc.primary_qps()
    return {
        **_engine_raw(system.env, system.devices["nvme"]),
        "cache_hits": sum(c.hits for c in caches),
        "cache_lookups": sum(c.hits + c.misses for c in caches),
        "qp_submitted": sum(qp.submitted_total for qp in qps),
    }


def _finish(system: LabStorSystem, before: dict, ops: int, user_bytes: int,
            problems: list) -> tuple[dict, int]:
    """Shut the system down, check queue-pair conservation, and return
    the exact per-layer counters of the timed section plus its events."""
    d = {k: v - before[k] for k, v in _raw(system).items()}
    workers = system.runtime.stats()["workers"]
    qps = system.runtime.ipc.primary_qps()
    system.shutdown()
    conserved = all(qp.submitted_total == qp.completed_total for qp in qps)
    if not conserved:
        problems.append("queue pair submitted_total != completed_total")
    out = {
        **_engine_counters(d, ops, user_bytes),
        "ipc.qp_submitted_per_op": d["qp_submitted"] / ops,
        "ipc.qp_conserved": int(conserved),
        "core.workers": workers,
    }
    if d["cache_lookups"]:
        out["mods.cache_hit_frac"] = d["cache_hits"] / d["cache_lookups"]
    return out, d["events"]


# ----------------------------------------------------------------------
# fio_randrw
# ----------------------------------------------------------------------
def fio_randrw(seed, size, telemetry, profiler) -> Rep:
    nops = size
    sec = Section(profiler)
    system = LabStorSystem(seed=seed, devices=(NVME,), telemetry=telemetry,
                           config=RuntimeConfig(nworkers=2))
    spec = StackSpec.linear(
        "blk::/bench",
        [("NoOpSchedMod", "bench.noop"), ("KernelDriverMod", "bench.drv")])
    spec.nodes[0].attrs = {"nqueues": 8}
    spec.nodes[1].attrs = {"device": "nvme"}
    stack = system.runtime.mount_stack(spec)
    engine = LabStackEngine(system.client(), stack, system.devices["nvme"])
    jobs = [FioJob(rw="randwrite" if i % 2 else "randread", bs=4096,
                   nops=nops, iodepth=4, core=i) for i in range(4)]
    before = _raw(system)
    sec.start()
    res = run_fio(system.env, engine, jobs, seed=seed)
    sec.stop()

    attempted = 4 * nops
    problems: list = []
    counters, events = _finish(system, before, attempted, attempted * 4096,
                               problems)
    if res.bytes_moved != attempted * 4096:
        problems.append(f"fio moved {res.bytes_moved} bytes, "
                        f"expected {attempted * 4096}")
    # FioResult.latency keeps every sample while below its 20 000 reservoir
    if res.latency.count != res.ops:
        problems.append(f"FioResult.latency holds {res.latency.count} "
                        f"samples, expected {res.ops}")
    p50, p99 = res.latency.pcts((50, 99))
    return Rep(
        section=sec, attempted=attempted, failed=attempted - res.ops,
        good=res.ops, virtual_ns=res.elapsed_ns,
        lat_n=res.latency.count, lat_p50_ns=p50, lat_p99_ns=p99,
        counters=counters, host={"events": events},
        phases=_phases(system), problems=problems,
    )


def _phases(system) -> dict | None:
    tel = system.telemetry
    if tel is None:
        return None
    out = tel.breakdown()
    out["closed_total"] = tel.closed_total
    out["open_left"] = len(tel.open_spans())
    return out


# ----------------------------------------------------------------------
# filebench personalities through a recording FsApi proxy
# ----------------------------------------------------------------------
class FsRecorder:
    """Shared by the per-thread proxies of one rep.  ``run_personality``
    prefills every thread's fileset (3 calls per file) before any worker
    starts, so the first call after ``prefill_calls`` opens the timed
    section."""

    def __init__(self, env, section: Section, prefill_calls: int,
                 snapshot: Callable[[], dict]) -> None:
        self.env = env
        self.section = section
        self.prefill_left = prefill_calls
        self.snapshot = snapshot
        self.before: dict = {}
        self.attempted = 0
        self.latencies: list[int] = []

    def call(self, gen):
        if self.prefill_left:
            self.prefill_left -= 1
            result = yield from gen
            if not self.prefill_left:
                self.before = self.snapshot()
                self.section.start()
            return result
        self.attempted += 1
        t0 = self.env.now
        result = yield from gen
        self.latencies.append(self.env.now - t0)
        return result


class RecordingFs:
    """FsApi proxy: virtual latency of each call, taken from outside."""

    def __init__(self, inner, recorder: FsRecorder) -> None:
        self._inner = inner
        self._rec = recorder

    def open(self, path, create=False):
        return self._rec.call(self._inner.open(path, create=create))

    def close(self, fd):
        return self._rec.call(self._inner.close(fd))

    def write(self, fd, data, offset=None):
        return self._rec.call(self._inner.write(fd, data, offset=offset))

    def read(self, fd, size, offset=None):
        return self._rec.call(self._inner.read(fd, size, offset=offset))

    def fsync(self, fd):
        return self._rec.call(self._inner.fsync(fd))

    def unlink(self, path):
        return self._rec.call(self._inner.unlink(path))


NTHREADS = 4
#: per loop: (FsApi calls, ops filebench counts, bytes moved / io_size)
_LOOP_SHAPE = {"varmail": (13, 13, 4), "webserver": (33, 21, 11)}


def _personality(name: str, env, api_of: Callable, loops: int, seed: int,
                 sec: Section, snapshot: Callable[[], dict]):
    pdef = PERSONALITIES[name]
    rec = FsRecorder(env, sec, NTHREADS * 3 * pdef.nfiles, snapshot)
    proxies: dict = {}

    def factory(tid: int):
        if tid not in proxies:
            proxies[tid] = RecordingFs(api_of(tid), rec)
        return proxies[tid]

    res = run_personality(env, factory, name, nthreads=NTHREADS,
                          loops=loops, seed=seed)
    sec.stop()
    calls, fb_ops, io_units = _LOOP_SHAPE[name]
    problems = []
    if res.ops != NTHREADS * loops * fb_ops:
        problems.append(f"{name}: {res.ops} filebench ops, "
                        f"expected {NTHREADS * loops * fb_ops}")
    # every read returned its full length, or bytes_moved falls short
    want = NTHREADS * loops * io_units * pdef.io_size
    if res.bytes_moved != want:
        problems.append(f"{name}: moved {res.bytes_moved} bytes, expected {want}")
    if rec.attempted != NTHREADS * loops * calls:
        problems.append(f"{name}: {rec.attempted} FsApi calls, "
                        f"expected {NTHREADS * loops * calls}")
    return res, rec, problems


def _lab_fs(name: str):
    def rep(seed, size, telemetry, profiler) -> Rep:
        sec = Section(profiler)
        cfg = RuntimeConfig(nworkers=8, min_workers=8, max_workers=16, ncores=32)
        system = LabStorSystem(seed=seed, devices=(NVME,), config=cfg,
                               telemetry=telemetry)
        system.stack("fs::/x").fs(variant="all").device("nvme").mount()
        fixture = LabFsFixture(system=system, mount="fs::/x")
        res, rec, problems = _personality(
            name, system.env, fixture.api_factory(), size, seed, sec,
            lambda: _raw(system))
        ops = rec.attempted
        counters, events = _finish(system, rec.before, ops, res.bytes_moved,
                                   problems)
        done = len(rec.latencies)
        return Rep(section=sec, attempted=ops, failed=ops - done, good=done,
                   virtual_ns=res.elapsed_ns, **lat_stats(rec.latencies),
                   counters=counters, host={"events": events},
                   phases=_phases(system), problems=problems)

    return rep


def varmail_ext4(seed, size, telemetry, profiler) -> Rep:
    sec = Section(profiler)
    env = Environment()
    dev = make_device(env, "nvme", jitter=JITTER,
                      rng=RngRegistry(seed).stream("device.nvme"))
    # page cache sized as in E10, so fsync-driven writeback is on the path
    fs = make_filesystem("ext4", env, dev, cache_pages=4096)
    api = KernelFsAdapter(fs)

    def raw() -> dict:
        return {**_engine_raw(env, dev),
                "pc_hits": fs.cache.hits,
                "pc_lookups": fs.cache.hits + fs.cache.misses,
                "bios": fs.block_layer.submitted}

    res, rec, problems = _personality(
        "varmail", env, lambda tid: api, size, seed, sec, raw)
    d = {k: v - rec.before[k] for k, v in raw().items()}
    events = d["events"]
    ops = rec.attempted
    counters = {
        **_engine_counters(d, ops, res.bytes_moved),
        "kernel.page_cache_hit_frac": d["pc_hits"] / d["pc_lookups"],
        "kernel.bios_per_op": d["bios"] / ops,
    }
    done = len(rec.latencies)
    return Rep(section=sec, attempted=ops, failed=ops - done, good=done,
               virtual_ns=res.elapsed_ns, **lat_stats(rec.latencies),
               counters=counters, host={"events": events}, problems=problems)


# ----------------------------------------------------------------------
# openloop_kvs_obs
# ----------------------------------------------------------------------
class _FixedArrivals:
    """Stands in for ``system.rngs`` inside the open-loop engine.

    Arrival *times* come from a constant-seeded registry: the diurnal and
    bursty schedules are the workload's definition, a trace every seed
    replays.  Left seeded, the handful of analytics bursts inside the
    window decide p99 and goodput, and ten seeds disagree by 20-30 %;
    the benchmark could then not tell a regression from a seed.  Keys,
    op mixes, reservoirs and device jitter still follow ``--seed``.
    """

    def __init__(self, seeded: RngRegistry) -> None:
        self._seeded = seeded
        self._trace = RngRegistry(0)

    def stream(self, name: str):
        source = self._trace if name.endswith(".arrivals") else self._seeded
        return source.stream(name)


class _EngineHost:
    """What OpenLoopEngine reads off a system, with the arrival streams
    swapped as above."""

    def __init__(self, system: LabStorSystem) -> None:
        self.env = system.env
        self.telemetry = system.telemetry
        self.rngs = _FixedArrivals(system.rngs)


class CheckedKVS:
    """GenericKVS proxy: every get must return the value YCSB stored
    (YCSB values are a function of the key, so updates never change it)."""

    def __init__(self, inner: GenericKVS, expected: dict[str, bytes]) -> None:
        self._inner = inner
        self._expected = expected
        self.bad = 0

    def put(self, key, value):
        return self._inner.put(key, value)

    def get(self, key):
        got = yield from self._inner.get(key)
        if got != self._expected[key]:
            self.bad += 1
        return got


NKEYS = 128
KVS_VALUE = 512


def openloop_kvs_obs(seed, size, telemetry, profiler) -> Rep:
    duration_ms = size
    sec = Section(profiler)
    system = LabStorSystem(seed=seed, devices=(NVME,), telemetry=telemetry,
                           config=RuntimeConfig(nworkers=2))
    system.mount_kvs_stack(KVS_MOUNT, variant="all")
    env = system.env
    engine = OpenLoopEngine(_EngineHost(system), duration_ns=msec(duration_ms))
    mixes = {"frontend": dict(mix="C", theta=0.99),
             "analytics": dict(mix="A", theta=0.6)}
    latencies: list[int] = []
    deadlines: list[int] = []
    proxies = []

    def timed(make_op, deadline_ns):
        def make(rng):
            return _timed_op(env, make_op(rng), latencies, deadlines, deadline_ns)
        return make

    for spec in overload_tenants():
        wl = YcsbWorkload(GenericKVS(system.client(), KVS_MOUNT),
                          nkeys=NKEYS, value_size=KVS_VALUE, **mixes[spec.name])
        wl.kvs = CheckedKVS(
            wl.kvs, {wl.key(i): wl.value(i) for i in range(NKEYS)})
        proxies.append(wl.kvs)
        if len(proxies) == 1:  # tenants share the keyspace: one load phase
            system.run(system.process(wl.preload()))
        engine.add_tenant(spec, timed(wl.make_op, spec.slo.deadline_ns),
                          load_factor=1.0)
    before = _raw(system)
    sec.start()
    summary = engine.run()
    sec.stop()

    tot = summary["totals"]
    bad = sum(p.bad for p in proxies)
    problems = []
    if bad:
        problems.append(f"{bad} KVS gets returned the wrong value")
    attempted = tot["launched"] + tot["rejected"]
    failed = tot["rejected"] + tot["errors"] + (tot["launched"] - tot["completed"])
    in_deadline = sum(1 for lat, dl in zip(latencies, deadlines) if lat <= dl)
    if in_deadline != tot["good"]:
        problems.append("benchmark-side deadline count disagrees with the "
                        f"engine's: {in_deadline} vs {tot['good']}")
    ops = tot["completed"]
    # each op moves one value, whichever way
    counters, events = _finish(system, before, ops, ops * KVS_VALUE, problems)
    counters.update({
        "traffic.launched": tot["launched"],
        "traffic.rejected": tot["rejected"],
        "traffic.slo_violations": tot["violations"],
        "traffic.peak_inflight": summary["peak_inflight"],
    })
    return Rep(section=sec, attempted=attempted, failed=failed + bad,
               good=tot["good"] - bad, virtual_ns=summary["elapsed_ns"],
               **lat_stats(latencies), counters=counters,
               host={"events": events}, phases=_phases(system),
               problems=problems)


def _timed_op(env, gen, latencies, deadlines, deadline_ns):
    t0 = env.now
    result = yield from gen
    latencies.append(env.now - t0)
    deadlines.append(deadline_ns)
    return result


# ----------------------------------------------------------------------
# cluster_kvs_s1 / cluster_kvs_s2
# ----------------------------------------------------------------------
NNODES = 4
NCLIENTS = 96
VALUE_SIZE = 256
CLUSTER_MOUNT = "kvs::/bench"


@dataclass
class _ClusterProgram:
    """The callbacks ``ParHandle.run`` takes.  They run inside whichever
    process hosts the node's world, so what they learn travels home in
    the dict ``finish`` returns."""

    ops_per_client: int
    profiler: object = None
    parent_pid: int = 0
    drive_mark: tuple | None = None   # (perf_counter, process_time) at build end

    def setup(self, view) -> None:
        view.kvs = view.shard_kvs(CLUSTER_MOUNT, replicas=1)
        view.latencies = []
        view.bad = 0
        view.started = 0

    def drivers(self, view):
        if self.drive_mark is None:
            # every world of this process is built and aligned by now
            self.drive_mark = (time.perf_counter(), time.process_time())
        idx = int(view.node_name[1:])
        return [(f"bench.loop{i}", self._loop(view, i))
                for i in range(NCLIENTS) if i % NNODES == idx]

    def _loop(self, view, i: int):
        kvs, env, lat = view.kvs, view.env, view.latencies
        value = bytes([i % 251]) * VALUE_SIZE
        for j in range(self.ops_per_client):
            view.started += 1
            t0 = env.now
            yield from kvs.put(f"c{i}.k{j}", value)
            lat.append(env.now - t0)
        for j in range(self.ops_per_client):
            view.started += 1
            t0 = env.now
            got = yield from kvs.get(f"c{i}.k{j}")
            lat.append(env.now - t0)
            if got != value:
                view.bad += 1

    def finish(self, view) -> dict:
        stats = view.stats()
        routes = [view.route(*name.split("->")) for name in stats["routes"]]
        out = {
            "pid": os.getpid(),
            "drive_mark": self.drive_mark,
            "latencies": view.latencies,
            "started": view.started,
            "bad": view.bad,
            "now": view.env.now,
            "pool_reused": view.env.pool_reused,
            "remote_calls": sum(r["remote_calls"] for r in stats["routes"].values()),
            "nacks": sum(r["nacks"] for r in stats["routes"].values()),
            "fabric_bytes": sum(l["bytes"] for l in stats["fabric"].values()),
            "failovers": view.kvs.failovers,
            "workers": view.node.runtime.stats()["workers"],
            "device_ops": view.node.devices["nvme"].completed,
        }
        qps = view.node.runtime.ipc.primary_qps() + [r.qp for r in routes]
        view.shutdown()
        out["qp_submitted"] = sum(qp.submitted_total for qp in qps)
        out["qp_conserved"] = all(
            qp.submitted_total == qp.completed_total for qp in qps)
        if self.profiler is not None and os.getpid() != self.parent_pid:
            # a forked shard inherited rep P's running profiler; report
            # what it has seen so far (the last world's report is complete)
            self.profiler.disable()
            out["profile"] = layer_self_seconds(self.profiler)
            out["profile_until"] = time.perf_counter()
            self.profiler.enable()
        return out


EPOCH_NS = int(msec(1))


def _cluster_kvs(shards: int):
    def rep(seed, size, telemetry, profiler) -> Rep:
        # rep P's profiler goes on before the fork, so shards inherit it
        sec = Section(profiler)
        builder = cluster(seed=seed,
                          fabric_cost=FabricCost(link_lat_ns=int(usec(100))))
        cfg = RuntimeConfig(nworkers=1, min_workers=1, max_workers=1)
        for i in range(NNODES):
            builder = builder.node(f"n{i}", devices=(NVME,), config=cfg)
        handle = builder.build(shards=shards)
        prog = _ClusterProgram(ops_per_client=size, profiler=profiler,
                               parent_pid=os.getpid())
        cpu_before_run = time.process_time()
        sec.start()
        res = handle.run(drivers=prog.drivers, setup=prog.setup,
                         finish=prog.finish, epoch_ns=EPOCH_NS)
        sec.stop()

        nodes = res.results
        by_pid: dict = {}
        for r in nodes.values():
            by_pid.setdefault(r["pid"], []).append(r)
        marks = [rs[0]["drive_mark"] for rs in by_pid.values()]
        # a forked shard's process_time starts at 0, so its mark is the
        # CPU its build burned; the in-process shard's is since run start
        build_cpu = sum(m[1] - (cpu_before_run if pid == os.getpid() else 0.0)
                        for pid, m in zip(by_pid, marks))
        sec.move_start(max(m[0] for m in marks), build_cpu)

        ops = NCLIENTS * size * 2
        latencies = [x for name in sorted(nodes) for x in nodes[name]["latencies"]]
        bad = sum(r["bad"] for r in nodes.values())
        started = sum(r["started"] for r in nodes.values())
        problems = []
        if bad:
            problems.append(f"{bad} KVS gets returned the wrong value")
        if started != ops:
            problems.append(f"drivers started {started} ops, expected {ops}")
        conserved = all(r["qp_conserved"] for r in nodes.values())
        if not conserved:
            problems.append("queue pair submitted_total != completed_total")
        done = len(latencies)
        end_ns = max(r["now"] for r in nodes.values())
        counters = {
            "sim.events_per_op": res.events / ops,
            "sim.pool_reuse_frac":
                sum(r["pool_reused"] for r in nodes.values()) / res.events,
            "par.rounds": res.rounds,
            "par.messages_per_round": res.messages / res.rounds,
            "ipc.qp_submitted_per_op":
                sum(r["qp_submitted"] for r in nodes.values()) / ops,
            "ipc.qp_conserved": int(conserved),
            "core.workers": sum(r["workers"] for r in nodes.values()),
            "devices.ops_per_op":
                sum(r["device_ops"] for r in nodes.values()) / ops,
            "cluster.remote_calls_per_op":
                sum(r["remote_calls"] for r in nodes.values()) / ops,
            "cluster.nacks": sum(r["nacks"] for r in nodes.values()),
            "cluster.fabric_bytes_per_op":
                sum(r["fabric_bytes"] for r in nodes.values()) / ops,
            "cluster.failovers": sum(r["failovers"] for r in nodes.values()),
        }
        busy = [s["busy_s"] for s in res.shard_stats]
        cpus = [s["cpu_s"] for s in res.shard_stats]
        host = {
            "events": res.events,
            "par.shard_cpu_max_s": max(cpus),
            "par.shard_cpu_sum_s": sum(cpus),
            "par.sync_overhead_s": res.wall_s - max(busy),
        }
        children = []
        for pid, rs in by_pid.items():
            reports = [r for r in rs if "profile" in r]
            if reports:
                last = max(reports, key=lambda r: r["profile_until"])
                children.append(last["profile"])
        return Rep(section=sec, attempted=started, failed=started - done + bad,
                   good=done - bad, virtual_ns=end_ns - EPOCH_NS,
                   **lat_stats(latencies), counters=counters, host=host,
                   child_profiles=children, problems=problems)

    return rep


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    rep: Callable
    size: int            # the workload's own size knob (see each rep)
    quick_size: int      # for --quick and the self-check
    loop: str            # "closed" | "open"
    min_reps: int = 5
    telemetry: bool = False       # on in the timed reps?
    rep_s: bool = False           # has a telemetry-flipped rep S


WORKLOADS = {w.name: w for w in (
    Workload("fio_randrw", fio_randrw, size=2000, quick_size=120,
             loop="closed", rep_s=True),
    Workload("varmail_lab", _lab_fs("varmail"), size=100, quick_size=6,
             loop="closed", rep_s=True),
    Workload("webserver_lab", _lab_fs("webserver"), size=75, quick_size=4,
             loop="closed", rep_s=True),
    Workload("varmail_ext4", varmail_ext4, size=100, quick_size=6,
             loop="closed", min_reps=9),
    Workload("openloop_kvs_obs", openloop_kvs_obs, size=100, quick_size=6,
             loop="open", telemetry=True, rep_s=True),
    Workload("cluster_kvs_s1", _cluster_kvs(1), size=28, quick_size=2,
             loop="closed"),
    Workload("cluster_kvs_s2", _cluster_kvs(2), size=28, quick_size=2,
             loop="closed"),
)}
