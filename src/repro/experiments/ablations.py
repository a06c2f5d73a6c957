"""Ablations of LabStor's design choices (beyond the paper's figures).

The paper motivates several design decisions without isolating them; these
harnesses do the isolation:

- **allocator**: LabFS's per-worker block allocator vs a single-lock
  central free list (what kernel FS bitmap locks look like).
- **ipc_cost**: sensitivity of metadata throughput to the shared-memory
  hop price — quantifies why LabStor insists on shm queues instead of
  sockets/pipes (which would sit at several µs per hop).
- **exec_mode**: centralized (async, via Runtime workers) vs
  decentralized (sync, client-side) execution across request sizes — the
  crossover where IPC amortizes away.
- **consistency**: the throughput price of each guarantee level
  (strict / standard / relaxed).
- **cache**: LRU capacity vs read latency (hit-rate curve).
"""

from __future__ import annotations

from ..core.labstack import NodeSpec
from ..core.runtime import RuntimeConfig
from ..kernel.cpu import CostModel
from ..mods.generic_fs import GenericFS
from ..system import LabStorSystem
from ..units import KiB, sec
from .registry import Experiment, Table, register

__all__ = [
]


def _fleet_rate(sys_, nthreads: int, per_thread: int, worker) -> float:
    """Run ``worker(gfs, tid)`` on ``nthreads`` clients; items per second."""
    start = sys_.env.now
    procs = [sys_.process(worker(GenericFS(sys_.client()), t)) for t in range(nthreads)]
    sys_.run(sys_.env.all_of(procs))
    return nthreads * per_thread / ((sys_.env.now - start) / sec(1))


def ablate_allocator(env, p: dict, seed: int = 0) -> dict:
    sys_ = LabStorSystem(env=env, seed=seed, devices=("nvme",),
                         config=RuntimeConfig(nworkers=8, ncores=32))
    spec = sys_.stack("fs::/a").fs(variant="min").build()
    next(n for n in spec.nodes if n.uuid.endswith("labfs")).attrs["allocator"] = p["allocator"]
    sys_.runtime.mount_stack(spec)

    def writer(gfs, tid):
        for i in range(p["files_per_thread"]):
            fd = yield from gfs.open(f"fs::/a/t{tid}_{i}", create=True)
            yield from gfs.write(fd, b"w" * (64 * KiB), offset=0)
            yield from gfs.close(fd)

    return {"config": p["allocator"],
            "files_per_sec": _fleet_rate(sys_, p["nthreads"], p["files_per_thread"], writer)}


def ablate_ipc_cost(env, p: dict, seed: int = 0) -> dict:
    """Metadata throughput as the queue-hop price grows (950ns = shm;
    3-8µs ≈ pipe/socket-grade IPC)."""
    cost = CostModel().with_overrides(shm_hop_ns=p["hop_ns"])
    sys_ = LabStorSystem(env=env, seed=seed, devices=("nvme",), cost=cost,
                         config=RuntimeConfig(nworkers=8, ncores=32))
    sys_.mount_fs_stack("fs::/i", variant="min")

    def creator(gfs, tid):
        for i in range(p["files_per_thread"]):
            fd = yield from gfs.open(f"fs::/i/t{tid}_{i}", create=True)
            yield from gfs.close(fd)

    rate = _fleet_rate(sys_, p["nthreads"], p["files_per_thread"], creator)
    return {"config": f"hop={p['hop_ns']}ns", "kops_per_sec": rate / 1000}


def ablate_exec_mode(env, p: dict, seed: int = 0) -> dict:
    """Async (Runtime) vs sync (client) execution across write sizes."""
    variant, size, nops = p["variant"], p["size"], p["nops"]
    sys_ = LabStorSystem(env=env, seed=seed, devices=("nvme",))
    sys_.mount_fs_stack("fs::/x", variant=variant)
    gfs = GenericFS(sys_.client())

    def proc():
        fd = yield from gfs.open("fs::/x/f", create=True)
        start = sys_.env.now
        for i in range(nops):
            yield from gfs.write(fd, b"e" * size, offset=i * size)
        return (sys_.env.now - start) / nops

    lat = sys_.run(sys_.process(proc()))
    return {"config": f"{'async' if variant == 'min' else 'sync'} {size // 1024}KB",
            "lat_us": lat / 1000}


def ablate_consistency(env, p: dict, seed: int = 0) -> dict:
    policy, nops = p["policy"], p["nops"]
    sys_ = LabStorSystem(env=env, seed=seed, devices=("nvme",))
    spec = sys_.stack("fs::/c").fs(variant="min").build()
    anchor = next(n for n in spec.nodes if n.uuid.endswith("labfs"))
    node = NodeSpec(mod_name="ConsistencyMod", uuid=f"abl.{policy}",
                    attrs={"policy": policy})
    node.outputs = list(anchor.outputs)
    anchor.outputs = [node.uuid]
    spec.nodes.insert(spec.nodes.index(anchor) + 1, node)
    sys_.runtime.mount_stack(spec)
    gfs = GenericFS(sys_.client())

    def proc():
        fd = yield from gfs.open("fs::/c/f", create=True)
        start = sys_.env.now
        for i in range(nops):
            yield from gfs.write(fd, b"c" * 4096, offset=i * 4096)
            yield from gfs.fsync(fd)
        return nops / ((sys_.env.now - start) / sec(1))

    return {"config": policy, "ops_per_sec": sys_.run(sys_.process(proc()))}


def ablate_cache_capacity(env, p: dict, seed: int = 0) -> dict:
    cap, nfiles = p["capacity_pages"], p["nfiles"]
    sys_ = LabStorSystem(env=env, seed=seed, devices=("nvme",))
    spec = sys_.stack("fs::/l").fs(variant="min").build()
    next(n for n in spec.nodes if n.uuid.endswith("lru")).attrs["capacity_pages"] = cap
    stack = sys_.runtime.mount_stack(spec)
    gfs = GenericFS(sys_.client())

    def proc():
        for i in range(nfiles):
            yield from gfs.write_file(f"fs::/l/f{i}", b"r" * (16 * KiB))
        start = sys_.env.now
        for rnd in range(3):
            for i in range(nfiles):
                yield from gfs.read_file(f"fs::/l/f{i}")
        return (sys_.env.now - start) / (3 * nfiles)

    lat = sys_.run(sys_.process(proc()))
    lru = next(m for u, m in stack.mods.items() if u.endswith("lru"))
    return {"config": f"{cap} pages", "read_lat_us": lat / 1000,
            "hit_rate": lru.hits / max(1, lru.hits + lru.misses)}


def _allocator_gates(result: dict) -> None:
    by = {r["config"]: r["files_per_sec"] for r in result["rows"]}
    assert by["perworker"] > 1.1 * by["centralized"]


def _ipc_cost_gates(result: dict) -> None:
    # throughput strictly degrades as the hop price rises; socket-grade
    # IPC (8us) loses badly vs shared memory (950ns)
    vals = [r["kops_per_sec"] for r in result["rows"]]
    assert vals == sorted(vals, reverse=True)
    assert vals[0] > 1.3 * vals[-1]


def _exec_mode_gates(result: dict) -> None:
    by = {r["config"]: r["lat_us"] for r in result["rows"]}
    # sync saves the IPC round trip on small requests...
    assert by["sync 4KB"] < by["async 4KB"]
    # ...but the gap closes (relatively) as device time dominates
    rel_small = by["async 4KB"] / by["sync 4KB"]
    rel_big = by["async 1024KB"] / by["sync 1024KB"]
    assert rel_big < rel_small


def _consistency_gates(result: dict) -> None:
    by = {r["config"]: r["ops_per_sec"] for r in result["rows"]}
    assert by["relaxed"] > by["standard"] > by["strict"]


def _cache_gates(result: dict) -> None:
    # bigger cache -> higher hit rate -> lower read latency
    rows = result["rows"]
    assert rows[0]["hit_rate"] < rows[-1]["hit_rate"]
    assert rows[-1]["read_lat_us"] < rows[0]["read_lat_us"]


def _ablation(name, label, title, point, grid, metrics, gates, smoke):
    register(Experiment(
        name=f"ablation-{name.replace('_', '-')}", figure=f"ablation: {label}",
        artifact=f"ablation_{name}", point=point, grid=tuple(grid), seeds="base",
        table=Table(title=f"Ablation — {title}",
                    columns=(("config", "{config}"),
                             *((m, f"{{{m}:.2f}}") for m in metrics))),
        gates=gates, smoke=smoke,
    ))


_ablation("allocator", "allocator", "per-worker vs centralized allocator",
          ablate_allocator,
          [{"allocator": a, "nthreads": 8, "files_per_thread": 12}
           for a in ("perworker", "centralized")],
          ("files_per_sec",), _allocator_gates,
          {"allocator": "centralized", "nthreads": 2, "files_per_thread": 3})
_ablation("ipc_cost", "ipc", "IPC hop cost sensitivity", ablate_ipc_cost,
          [{"hop_ns": hop, "nthreads": 4, "files_per_thread": 40}
           for hop in (250, 950, 3000, 8000)],
          ("kops_per_sec",), _ipc_cost_gates,
          {"hop_ns": 3000, "nthreads": 2, "files_per_thread": 6})
_ablation("exec_mode", "exec mode", "async (Runtime) vs sync (client)",
          ablate_exec_mode,
          [{"variant": variant, "size": size, "nops": 30}
           for variant in ("min", "d") for size in (4 * KiB, 64 * KiB, 1024 * KiB)],
          ("lat_us",), _exec_mode_gates,
          {"variant": "d", "size": 64 * KiB, "nops": 6})
_ablation("consistency", "consistency", "consistency guarantee levels",
          ablate_consistency,
          [{"policy": policy, "nops": 40}
           for policy in ("strict", "standard", "relaxed")],
          ("ops_per_sec",), _consistency_gates,
          {"policy": "strict", "nops": 6})
_ablation("cache_capacity", "cache", "LRU cache capacity", ablate_cache_capacity,
          [{"capacity_pages": cap, "nfiles": 32} for cap in (64, 1024, 16_384)],
          ("read_lat_us", "hit_rate"), _cache_gates,
          {"capacity_pages": 64, "nfiles": 8})
