"""The "faults" scenario: a chaos storm under audit."""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any

from ..units import msec, usec
from .catalogue import Program, register


class FaultsProgram(Program):
    """Probabilistic media errors + queue rejections + a worker crash +
    a power cut with auto-restart, driven against a retrying GenericFS
    and audited for crash consistency.  Every injection draws from the
    seeded "faults" RNG stream, so the whole storm must replay
    digest-identical."""

    default_pause_ns = int(msec(1.2))

    def __init__(self, seed: int = 0, nfiles: int = 56) -> None:
        super().__init__(seed)
        self.nfiles = nfiles

    def build(self, env) -> SimpleNamespace:
        from ..faults import CrashConsistencyChecker, FaultPlan, FaultSpec, RetryPolicy
        from ..mods.generic_fs import GenericFS
        from ..system import LabStorSystem

        plan = FaultPlan.of(
            FaultSpec(kind="media_error", device="nvme", op="write", probability=0.08, count=6),
            FaultSpec(kind="latency", device="nvme", probability=0.1, count=8,
                      extra_ns=int(usec(80))),
            FaultSpec(kind="qp_reject", probability=0.05, count=3),
            FaultSpec(kind="worker_crash", at=int(msec(0.9))),
            FaultSpec(kind="torn_write", at=int(msec(2.0)), device="nvme", op="write"),
            FaultSpec(kind="power_cut", at=int(msec(2.0)), restart_after=int(msec(1.0))),
        )
        system = LabStorSystem(env=env, seed=self.seed, devices=("nvme",), fault_plan=plan)
        system.mount_fs_stack("fs::/chaos", variant="min")
        retry = RetryPolicy(max_attempts=6, timeout_ns=int(msec(50)))
        gfs = GenericFS(system.client(), retry=retry)
        checker = CrashConsistencyChecker()
        return SimpleNamespace(
            system=system, gfs=gfs, checker=checker, retry=retry,
        )

    def drive(self, ctx):
        system, gfs, checker = ctx.system, ctx.gfs, ctx.checker

        def go():
            acked = 0
            for i in range(self.nfiles):
                path = f"fs::/chaos/f{i}"
                data = bytes([(i + self.seed) % 251]) * 4096
                checker.begin(path, data)
                try:
                    yield from gfs.write_file(path, data)
                except Exception:  # noqa: BLE001 - gave up after retries: move on
                    continue
                checker.ack(path)
                acked += 1
            return acked

        return system.process(go())

    def finish(self, ctx, value) -> dict[str, Any]:
        system, retry = ctx.system, ctx.retry
        acked = value
        report = system.run(system.process(ctx.checker.verify(ctx.gfs)))
        assert report["acked_ok"] == acked, "acknowledged write lost after recovery"
        engine = system.faults
        assert engine is not None and engine.total_injected > 0, "no faults fired"
        return {
            "acked": acked,
            "injected": dict(sorted(engine.injected.items())),
            "retries": retry.retries,
            "crashes": system.runtime.crashes,
            "consistency": report,
        }


register("faults", serial=FaultsProgram)
