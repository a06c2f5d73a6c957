"""The "openloop" scenario: open-loop tenant traffic under overload."""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any

from ..units import msec, usec
from .catalogue import Program, register


class OpenloopProgram(Program):
    """The canonical two-tenant population (diurnal YCSB-C frontend +
    bursty YCSB-A analytics) at 2.5x nominal load behind queue-depth
    admission.  Every arrival, key choice and op-mix draw comes from the
    seeded per-tenant streams, so the whole storm — admissions,
    rejections, queue growth, drain — must replay digest-identical."""

    def build(self, env) -> SimpleNamespace:
        from ..traffic.engine import QueueDepthAdmission
        from ..traffic.presets import build_overload_engine

        system, engine = build_overload_engine(
            env=env, seed=self.seed, duration_ns=msec(1.5), load=2.5,
            policy=QueueDepthAdmission(8),
        )
        # the YCSB preload advances the clock during build
        return SimpleNamespace(system=system, engine=engine, start_ns=env.now)

    def pause_point(self, ctx, env) -> int:
        return ctx.start_ns + int(usec(700))

    def drive(self, ctx):
        return ctx.system.process(ctx.engine.drive(), name="traffic.drive")

    def finish(self, ctx, value) -> dict[str, Any]:
        engine, tot = ctx.engine, value["totals"]
        assert tot["completed"] > 0, "open-loop run completed no ops"
        assert tot["completed"] == tot["launched"], "drain lost in-flight ops"
        assert tot["rejected"] > 0, "overload never tripped admission control"
        assert engine.inflight == 0, "inflight accounting leaked"
        return {
            "launched": tot["launched"],
            "good": tot["good"],
            "violations": tot["violations"],
            "rejected": tot["rejected"],
            "peak_inflight": value["peak_inflight"],
            "elapsed_ns": value["elapsed_ns"],
        }


register("openloop", serial=OpenloopProgram)
