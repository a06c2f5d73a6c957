"""Dynamic-policy scaling: a heavy wave then a light one, so the
orchestrator both spawns and decommissions workers (scale-out *and*
scale-in)."""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any

from ..units import msec
from .catalogue import Program, register


class OrchestrationProgram(Program):
    def build(self, env) -> SimpleNamespace:
        from ..core import RuntimeConfig, StackSpec
        from ..system import LabStorSystem
        from ..workloads.fio import LabStackEngine

        system = LabStorSystem(
            env=env,
            seed=self.seed,
            devices=("nvme",),
            config=RuntimeConfig(nworkers=1, policy="dynamic", max_workers=6,
                                 orchestrator_interval_ns=msec(1.0)),
        )
        spec = StackSpec.linear("blk::/w", [("NoOpSchedMod", "chk.noop"),
                                            ("KernelDriverMod", "chk.drv")])
        spec.nodes[0].attrs = {"device": "nvme"}
        spec.nodes[1].attrs = {"device": "nvme"}
        stack = system.runtime.mount_stack(spec)
        engines = [LabStackEngine(system.client(), stack, system.devices["nvme"])
                   for _ in range(4)]
        ctx = SimpleNamespace(system=system, engines=engines)
        # heavy: the pool scales out.  Run here rather than in drive() so
        # the light wave stays the program's one main event
        system.run(self._wave(ctx, engines, 150))
        ctx.start_ns = env.now
        return ctx

    def _wave(self, ctx, engines, ops):
        import numpy as np

        from ..workloads.fio import FioJob, FioResult, _job_proc

        system = ctx.system
        result = FioResult()
        return system.env.all_of([
            system.process(_job_proc(
                system.env, e, FioJob(rw="randwrite", bs=4096, nops=ops, core=i),
                np.random.default_rng(i), result, b"x" * 4096))
            for i, e in enumerate(engines)
        ])

    def pause_point(self, ctx, env) -> int:
        return ctx.start_ns + int(msec(2))

    def drive(self, ctx):
        # light: the pool scales back in
        return self._wave(ctx, ctx.engines[:1], 250)

    def finish(self, ctx, value) -> dict[str, Any]:
        orch = ctx.system.runtime.orchestrator
        return {"workers": orch.worker_count(), "rebalances": orch.rebalances}


register("orchestration", serial=OrchestrationProgram)
