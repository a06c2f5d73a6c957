"""E12 — Batched submission amortization (throughput vs batch size).

Sequential 4KB writes through Lab-All on NVMe, unbatched (one doorbell,
one worker wakeup, one device command per op) vs batched at increasing
widths: ``writev`` rides one doorbell per batch through
``Client.submit_batch``, the worker batch-pops up to ``batch`` SQEs per
wakeup, ``BatchSchedMod`` front/back-merges the contiguous block
requests, and the device coalesces what arrives together — so the fixed
per-request costs (doorbell, wakeup, device command overhead) amortize
across the batch while only the marginal per-op terms scale.

Expected shape: ops/s climbs steeply from batch=1 and the curve flattens
as the fixed costs vanish into the batch — well over the 30% mark by
batch=16 — while per-op p99 latency rises (a batch settles together).
"""

from __future__ import annotations

from ..core.runtime import RuntimeConfig
from ..devices.profiles import DeviceSpec
from ..mods.generic_fs import GenericFS
from ..obs.telemetry import Telemetry
from ..system import LabStorSystem
from .registry import Experiment, Table, register

__all__ = []

BATCH_SIZES = (1, 2, 4, 8, 16)


def _percentile(sorted_vals: list[int], q: float) -> int:
    if not sorted_vals:
        return 0
    i = min(len(sorted_vals) - 1, int(q * len(sorted_vals)))
    return sorted_vals[i]


def run_batching(env, p: dict, seed: int = 0) -> dict:
    """One point on the amortization curve: ``nops`` sequential 4KB
    writes through Lab-All/NVMe at batch width ``batch`` (1 = the plain
    per-op path: no vectored submission, no merging, no coalescing)."""
    batch, nops, bs = p["batch"], p["nops"], 4096
    telemetry = Telemetry()
    if batch == 1:
        system = LabStorSystem(
            env=env, seed=seed, devices=("nvme",),
            config=RuntimeConfig(nworkers=1), telemetry=telemetry,
        )
        system.stack("fs::/e12").fs(variant="all").mount()
    else:
        system = LabStorSystem(
            env=env, seed=seed,
            devices=(DeviceSpec("nvme", coalesce_max=batch, coalesce_window_ns=2000),),
            config=RuntimeConfig(nworkers=1, worker_batch_max=batch),
            telemetry=telemetry,
        )
        (system.stack("fs::/e12")
         .fs(variant="all")
         .sched("BatchSchedMod", window_ns=10_000, batch_max=batch)
         .mount())
    gfs = GenericFS(system.client())
    payload = b"\xab" * bs

    def go():
        fd = yield from gfs.open("fs::/e12/data", create=True)
        t0 = system.env.now
        if batch == 1:
            for i in range(nops):
                yield from gfs.write(fd, payload, offset=i * bs)
        else:
            for g in range(nops // batch):
                yield from gfs.writev(fd, [payload] * batch,
                                      offset=g * batch * bs)
        elapsed = system.env.now - t0
        yield from gfs.close(fd)
        return elapsed

    elapsed_ns = system.run(system.process(go()))
    lats = sorted(s.e2e_ns for s in telemetry.spans if s.op == "fs.write")
    return {
        "batch": batch,
        "bs": bs,
        "nops": nops,
        "ops_s": nops / (elapsed_ns / 1e9),
        "p50_ns": _percentile(lats, 0.50),
        "p99_ns": _percentile(lats, 0.99),
    }


def _gates(result: dict) -> None:
    by = {r["batch"]: r for r in result["rows"]}
    # acceptance floor: >=30% more ops/s at batch=16 than unbatched
    assert by[16]["ops_s"] >= 1.3 * by[1]["ops_s"], (
        f"batch=16 only reached {by[16]['ops_s'] / by[1]['ops_s']:.2f}x"
    )
    # the curve is monotone non-decreasing: more batching never hurts here
    batches = sorted(by)
    for a, b in zip(batches, batches[1:]):
        assert by[b]["ops_s"] >= by[a]["ops_s"], f"throughput dip at batch={b}"
    # per-op latency is the price: a batch settles together
    assert by[16]["p99_ns"] > by[1]["p99_ns"]


register(Experiment(
    name="batching", figure="E12 — batching amortization", artifact="batching",
    point=run_batching,
    grid=tuple({"batch": b, "nops": 256} for b in BATCH_SIZES),
    seeds="base",
    table=Table(
        title="E12 — batched submission, 4KB sequential writes (NVMe, Lab-All)",
        columns=(("batch", "{batch}"), ("ops/s", "{ops_s:.0f}"),
                 ("speedup", "{speedup:.2f}x"), ("p50 us", "{p50_us:.1f}"),
                 ("p99 us", "{p99_us:.1f}")),
        derive=lambda rows: [
            {**r, "speedup": r["ops_s"] / rows[0]["ops_s"],
             "p50_us": r["p50_ns"] / 1000, "p99_us": r["p99_ns"] / 1000}
            for r in rows],
    ),
    gates=_gates,
))
