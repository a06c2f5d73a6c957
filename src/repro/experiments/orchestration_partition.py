"""E4 — Work Orchestrator: request partitioning (paper Fig 5(b)).

Two LabStacks share the Runtime: a latency-sensitive stack (LRU, NoOp,
Kernel Driver) serving a metadata-heavy L-App (file creates), and a
compressor stack (adds CompressionMod) serving a C-App that writes large
requests.  Round-robin vs dynamic queue partitioning, workers 1..8.

Paper shape: RR maximizes C-App bandwidth but destroys L-App latency
(creates wait behind ~20ms compressions); dynamic isolates LQ workers
from CQ workers, dropping L-App latency by orders of magnitude at a
bandwidth cost that shrinks from ~30% (few workers) to ~6% (8 workers).

Scaling: C-App writes 2MB requests instead of 32MB and both apps run
fewer iterations; compression cost is linear so the contention pattern
is identical.
"""

from __future__ import annotations

from ..core.runtime import RuntimeConfig
from ..mods.generic_fs import GenericFS
from ..sim import LatencyRecorder
from ..system import LabStorSystem
from ..units import MiB, msec, sec
from .registry import Experiment, Table, register

__all__ = []


def run_partition(env, p: dict, seed: int = 0) -> dict:
    nworkers, policy = p["nworkers"], p["policy"]
    creates_per_thread, writes_per_thread = p["creates_per_thread"], p["writes_per_thread"]
    l_threads = c_threads = 8
    write_size = p["write_size"]
    cfg = RuntimeConfig(
        nworkers=nworkers,
        policy=policy,
        min_workers=nworkers,
        max_workers=nworkers,  # Fig 5(b) fixes the worker count; only the
        orchestrator_interval_ns=msec(1.0),  # partitioning policy varies
    )
    sys_ = LabStorSystem(env=env, seed=seed, devices=("nvme",), config=cfg)
    sys_.mount_fs_stack("fs::/L", variant="min", uuid_prefix="pl")
    spec = sys_.stack("fs::/C").fs(variant="min").uuid_prefix("pc").build()
    # splice compression after LabFS (the C-LabStack "adds compression")
    from ..core.labstack import NodeSpec

    fs_node = next(n for n in spec.nodes if n.uuid.endswith("labfs"))
    comp = NodeSpec(mod_name="CompressionMod", uuid="pc.comp", attrs={"ratio": 0.5})
    comp.outputs = list(fs_node.outputs)
    fs_node.outputs = ["pc.comp"]
    spec.nodes.insert(spec.nodes.index(fs_node) + 1, comp)
    sys_.runtime.mount_stack(spec)

    l_lat = LatencyRecorder(reservoir=20_000)
    c_bytes = [0]
    l_gfs = [GenericFS(sys_.client()) for _ in range(l_threads)]
    c_gfs = [GenericFS(sys_.client()) for _ in range(c_threads)]

    # warm-up: one loop of each app so the orchestrator's queue classifier
    # sees real request estimates, then a rebalance epoch passes
    def warmup():
        for t, gfs in enumerate(c_gfs):
            fd = yield from gfs.open(f"fs::/C/warm{t}", create=True)
            yield from gfs.write(fd, b"w" * write_size, offset=0)
            yield from gfs.close(fd)
        for t, gfs in enumerate(l_gfs):
            fd = yield from gfs.open(f"fs::/L/warm{t}", create=True)
            yield from gfs.close(fd)
        yield sys_.env.timeout(2 * cfg.orchestrator_interval_ns)

    sys_.run(sys_.process(warmup()))

    def l_app(tid: int):
        gfs = l_gfs[tid]
        for i in range(creates_per_thread):
            start = sys_.env.now
            fd = yield from gfs.open(f"fs::/L/t{tid}/f{i}", create=True)
            yield from gfs.close(fd)
            l_lat.add(sys_.env.now - start)

    c_rates: list[float] = []  # per-thread bytes/sec (fio-style aggregate)

    def c_app(tid: int):
        gfs = c_gfs[tid]
        fd = yield from gfs.open(f"fs::/C/big{tid}", create=True)
        payload = b"c" * write_size
        t0 = sys_.env.now
        for i in range(writes_per_thread):
            yield from gfs.write(fd, payload, offset=i * write_size)
            c_bytes[0] += write_size
        c_rates.append(writes_per_thread * write_size / ((sys_.env.now - t0) / sec(1)))

    l_procs = [sys_.process(l_app(t)) for t in range(l_threads)]
    c_procs = [sys_.process(c_app(t)) for t in range(c_threads)]
    sys_.run(sys_.env.all_of(c_procs))
    sys_.run(sys_.env.all_of(l_procs))
    return {
        "policy": policy,
        "nworkers": nworkers,
        "l_lat_mean_us": l_lat.mean / 1000,
        "l_lat_p99_us": l_lat.p99 / 1000,
        # aggregate bandwidth = sum of per-thread rates, matching a
        # fixed-duration fio aggregate rather than a straggler-bound window
        "c_bw_MBps": sum(c_rates) / 1e6,
    }


def _gates(result: dict) -> None:
    by = {(r["policy"], r["nworkers"]): r for r in result["rows"]}
    # RR achieves the highest bandwidth at every worker count
    for n in (2, 4, 8):
        assert by[("rr", n)]["c_bw_MBps"] >= by[("dynamic", n)]["c_bw_MBps"] * 0.99
    # ...but destroys L-App tail latency; dynamic protects it
    assert by[("dynamic", 2)]["l_lat_p99_us"] < by[("rr", 2)]["l_lat_p99_us"] / 5
    assert by[("dynamic", 4)]["l_lat_p99_us"] < by[("rr", 4)]["l_lat_p99_us"] / 5
    # the bandwidth cost of separation shrinks as workers grow (30% -> 6%)
    cost2 = 1 - by[("dynamic", 2)]["c_bw_MBps"] / by[("rr", 2)]["c_bw_MBps"]
    cost8 = 1 - by[("dynamic", 8)]["c_bw_MBps"] / by[("rr", 8)]["c_bw_MBps"]
    assert cost8 < cost2


register(Experiment(
    name="fig5b", figure="Fig 5(b)", artifact="orchestrator_partition",
    point=run_partition,
    grid=tuple({"policy": policy, "nworkers": n, "creates_per_thread": 150,
                "writes_per_thread": 8, "write_size": 2 * MiB}
               for policy in ("rr", "dynamic") for n in (1, 2, 4, 8)),
    seeds="base",
    table=Table(
        title="Fig 5(b) — request partitioning: RR vs dynamic",
        columns=(("policy", "{policy}"), ("workers", "{nworkers}"),
                 ("L-App mean (us)", "{l_lat_mean_us:.2f}"),
                 ("L-App p99 (us)", "{l_lat_p99_us:.2f}"),
                 ("C-App BW (MB/s)", "{c_bw_MBps:.2f}")),
    ),
    gates=_gates,
    smoke={"policy": "dynamic", "nworkers": 2, "creates_per_thread": 8,
           "writes_per_thread": 1, "write_size": 128 * 1024},
))
