#!/usr/bin/env python
"""Watching the Work Orchestrator scale the worker pool.

Clients arrive in waves; the dynamic policy measures the pool's consumed
CPU every epoch and grows/shrinks the worker count, keeping utilization
near its set-point (Fig 5a's "dynamic" line).

Run:  python examples/orchestrator_demo.py
"""

from repro.core import LabRequest, RuntimeConfig, StackSpec
from repro.system import LabStorSystem
from repro.units import msec
from repro.workloads.fio import FioJob, LabStackEngine, run_fio


def main() -> None:
    system = LabStorSystem(
        devices=("nvme",),
        config=RuntimeConfig(nworkers=1, policy="dynamic", max_workers=8,
                             orchestrator_interval_ns=msec(1.0)),
    )
    spec = StackSpec.linear("blk::/w", [("NoOpSchedMod", "demo.noop"),
                                        ("KernelDriverMod", "demo.drv")])
    spec.nodes[0].attrs = {"device": "nvme"}
    spec.nodes[1].attrs = {"device": "nvme"}
    stack = system.runtime.mount_stack(spec)

    log = []

    def monitor():
        while True:
            yield system.env.timeout(msec(2.0))
            log.append((system.env.now, system.runtime.orchestrator.worker_count()))

    system.env.process(monitor())

    print("wave 1: 2 clients (light load)")
    engines = [LabStackEngine(system.client(), stack, system.devices["nvme"])
               for _ in range(2)]

    def wave(engines, ops):
        import numpy as np
        from repro.workloads.fio import FioResult, _job_proc

        result = FioResult()
        start = system.env.now
        procs = []
        for i, engine in enumerate(engines):
            job = FioJob(rw="randwrite", bs=4096, nops=ops, core=i)
            procs.append(system.process(
                _job_proc(system.env, engine, job, np.random.default_rng(i),
                          result, b"x" * 4096)))
        system.run(system.env.all_of(procs))
        result.elapsed_ns = system.env.now - start
        return result

    wave(engines, 400)
    print(f"  workers now: {system.runtime.orchestrator.worker_count()}")

    print("wave 2: 12 clients (heavy load)")
    engines += [LabStackEngine(system.client(), stack, system.devices["nvme"])
                for _ in range(10)]
    r = wave(engines, 400)
    print(f"  workers now: {system.runtime.orchestrator.worker_count()}")
    print(f"  aggregate: {r.iops / 1000:.0f} KIOPS")

    print("wave 3: back to 1 client (scale down)")
    wave(engines[:1], 800)
    print(f"  workers now: {system.runtime.orchestrator.worker_count()}")

    print("\nworker count over time:")
    for t, n in log[:: max(1, len(log) // 12)]:
        print(f"  t={t / 1e6:7.1f}ms  workers={'#' * n} ({n})")


if __name__ == "__main__":
    main()
