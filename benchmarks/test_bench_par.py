"""Par — sharded-runner wall clock on the 4-node E14 workload.

Gates the tentpole claim: executing the 4-node E14 point at 4 shards
must beat the shards=1 baseline of the same windowed architecture by
>=1.5x (the measured target is >=1.8x; the gate sits below it so host
jitter cannot flake CI).

Speedup is measured two ways and the honest one is gated:

- ``measured``: plain wall-clock ratio — used when the host actually
  grants this process >= 4 CPUs, because forked shards can only
  overlap in real time if there are cores to run them on.
- ``projected``: on core-starved hosts (CI containers are routinely
  pinned to 1 CPU) the forked processes time-slice one core, so wall
  clock *cannot* improve no matter how good the decomposition is.
  What the run still measures faithfully is each shard's CPU seconds
  (``time.process_time`` — immune to time-slicing) and everything
  else (fork, pickling, routing, barrier wake-ups) as
  ``wall_par - sum(shard_cpu)``.  The critical path on an unstarved
  host is then at most ``max(shard_cpu) + that overhead`` — a
  *conservative* projection, since real barrier overhead overlaps
  shard compute.  The projected ratio is gated with the same bar.

Both numbers, the mode, and every per-shard stat land in
``BENCH_par.json`` so the trajectory across PRs records which kind of
host produced each point.
"""

import os

from repro.experiments.runner import EXPERIMENTS, run_experiment

from conftest import write_bench_artifact

SHARDS = 4
GATE = 1.5


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def test_bench_par(benchmark):
    # the 4-node column of the ``cluster-par`` grid, serial then sharded
    grid = [p for p in EXPERIMENTS["cluster-par"].grid
            if p["nnodes"] == 4 and p["shards"] in (1, SHARDS)]
    out = benchmark.pedantic(run_experiment, args=(EXPERIMENTS["cluster-par"],),
                             kwargs={"grid": grid, "processes": 1},
                             rounds=1, iterations=1)
    serial, par = out.rows

    # the decomposition must not change the simulation itself
    for key in ("ops", "kops_s", "remote_calls", "fabric_MB", "rounds"):
        assert par[key] == serial[key], f"{key} diverged across shard counts"

    measured = serial["wall_s"] / par["wall_s"] if par["wall_s"] else 0.0
    overhead_s = max(0.0, par["wall_s"] - par["total_cpu_s"])
    critical_path_s = par["max_shard_cpu_s"] + overhead_s
    projected = serial["wall_s"] / critical_path_s if critical_path_s else 0.0

    cpus = _usable_cpus()
    mode = "measured" if cpus >= SHARDS else "projected"
    speedup = measured if mode == "measured" else projected

    table_rows = [serial, par]
    for r, label in ((serial, "serial"), (par, f"{SHARDS} shards")):
        r["label"] = label
    write_bench_artifact(
        "par", table_rows,
        figure="Par — conservative sharded runner, 4-node E14",
        shards=SHARDS, cpus=cpus, mode=mode, gate=GATE,
        speedup=speedup, speedup_measured=measured,
        speedup_projected=projected,
    )
    benchmark.extra_info.update(mode=mode, cpus=cpus, speedup=speedup,
                                measured=measured, projected=projected)
    print(f"\npar: serial {serial['wall_s']:.3f}s vs {SHARDS} shards "
          f"{par['wall_s']:.3f}s wall ({measured:.2f}x measured); "
          f"critical path {critical_path_s:.3f}s ({projected:.2f}x "
          f"projected); {cpus} usable cpu(s) -> gating {mode}")

    assert speedup >= GATE, (
        f"sharded runner too slow: {speedup:.2f}x ({mode}, {cpus} cpus) "
        f"< {GATE}x gate — serial {serial['wall_s']:.3f}s, "
        f"par wall {par['wall_s']:.3f}s, "
        f"critical path {critical_path_s:.3f}s")
