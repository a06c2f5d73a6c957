"""The "control" scenario: closed-loop control under chaos.

The canonical 2-worker KVS storm (two worker crashes with inline respawn
off, an unattended power cut, a latency tax, a device stall) steered by a
ControlDaemon — healer, retry-tuner and worker-scaler acting through
hysteresis-gated actuator seams.  Every control draw comes from the
seeded "ctl" stream and every repair flows through declared actuators,
so sample -> check -> actuate must replay digest-identical.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any

from ..cluster.fabric import FabricCost, FabricLink
from ..cluster.routing import join_pair
from ..units import msec, usec
from .catalogue import Program, register


class ControlProgram(Program):
    """One chaos-control deployment on the audited run's clock."""

    # after the 2 ms / 3 ms worker crashes, before the 6 ms power cut
    default_pause_ns = int(msec(4))

    def build(self, env) -> SimpleNamespace:
        from ..ctl.presets import build_chaos_control

        system, engine, daemon = build_chaos_control(env=env, seed=self.seed)
        return SimpleNamespace(system=system, engine=engine, daemon=daemon)

    def drive(self, ctx):
        return ctx.system.process(ctx.engine.drive(), name="traffic.drive")

    def finish(self, ctx, value) -> dict[str, Any]:
        system, daemon, tot = ctx.system, ctx.daemon, value["totals"]
        assert daemon is not None and daemon.ticks > 0, "daemon never ticked"
        assert daemon.actions_taken > 0, "chaos storm provoked no repairs"
        assert system.runtime.online, "daemon failed to restart the runtime"
        assert not system.runtime.orchestrator.dead_workers, \
            "daemon left crashed workers dead"
        assert tot["completed"] > 0, "controlled run completed no ops"
        return {
            "launched": tot["launched"],
            "good": tot["good"],
            "rejected": tot["rejected"],
            "ticks": daemon.ticks,
            "actions": daemon.actions_taken,
            "suppressed": daemon.actuators.suppressed,
        }


class ControlParProgram:
    """The "control" scenario sharded: two independent chaos-control
    deployments (open-loop tenants, fault plan, self-healing daemon) on
    their own nodes, plus a cross-node KVS exchange so every barrier
    round carries real fabric traffic — including NACKs while the peer
    rides out its 6 ms power cut."""

    names = ("ctl0", "ctl1")

    def __init__(self, seed: int = 0, *,
                 duration_ns: int = int(msec(8))) -> None:
        self.seed = seed
        self.duration_ns = int(duration_ns)
        self._cost = FabricCost()
        # the YCSB preload advances the clock during build; 2 ms clears
        # it with margin while keeping the 2/3/6 ms chaos plan intact
        self.epoch_ns = int(msec(2))

    def nodes(self) -> list[str]:
        return list(self.names)

    def lookahead_ns(self) -> int:
        return self._cost.link_lat_ns

    def build(self, world) -> SimpleNamespace:
        from ..ctl.presets import build_chaos_control

        me = world.node_name
        idx = self.names.index(me)
        system, engine, daemon = build_chaos_control(
            env=world.env, seed=self.seed + 17 * idx,
            duration_ns=self.duration_ns,
        )
        peer = self.names[1 - idx]
        # the deployments are LabStorSystems, not spec-built Nodes, so
        # this program joins its one pair itself
        host = SimpleNamespace(name=me, runtime=system.runtime,
                               client=system.client)
        route, executor = join_pair(
            world.env, host, peer, FabricLink(world.env, me, peer, self._cost),
            world.out_port(peer), world.on_message)
        world.register_route(route)
        world.register_executor(executor)
        return SimpleNamespace(system=system, engine=engine, daemon=daemon,
                               route=route, executor=executor, me=me,
                               summary=None, cross=None)

    def drivers(self, world):
        ctx = world.ctx
        return [
            (f"traffic.drive.{ctx.me}", self._engine(ctx)),
            (f"cross.drive.{ctx.me}", self._cross(ctx, world.env)),
        ]

    def _engine(self, ctx):
        ctx.summary = yield from ctx.engine.drive()

    def _cross(self, ctx, env):
        from ..core.requests import LabRequest
        from ..ctl.presets import MOUNT

        nops = 24
        val = bytes([33]) * 64
        oks = errors = hit = 0
        for i in range(nops):
            req = LabRequest(op="kvs.put",
                             payload={"key": f"x.{ctx.me}.{i}", "value": val})
            try:
                yield from ctx.route.call(MOUNT, req, timeout_ns=int(msec(2)))
                oks += 1
            except Exception:  # noqa: BLE001 - NACKed puts are the point
                errors += 1
            yield env.timeout(int(usec(250)))
        for i in range(nops):
            req = LabRequest(op="kvs.get", payload={"key": f"x.{ctx.me}.{i}"})
            try:
                if (yield from ctx.route.call(
                        MOUNT, req, timeout_ns=int(msec(2)))) == val:
                    hit += 1
            except Exception:  # noqa: BLE001
                errors += 1
        ctx.cross = {"puts_ok": oks, "gets_hit": hit, "remote_errors": errors}

    def finish(self, world) -> dict:
        ctx = world.ctx
        if ctx.daemon is not None:
            ctx.daemon.stop()
        env = world.env
        env.run(ctx.route.qp.drained())
        out = {
            "node": ctx.me,
            "summary": ctx.summary,
            "cross": ctx.cross,
            "remote_calls": ctx.route.remote_calls,
            "nacks": ctx.route.nacks,
            "handled": ctx.executor.handled,
            "ticks": ctx.daemon.ticks if ctx.daemon is not None else 0,
        }
        ctx.route.close()
        ctx.executor.close()
        ctx.system.shutdown()
        qp = ctx.route.qp
        assert qp.submitted_total == qp.completed_total, (
            f"{ctx.me}: NIC conservation broken after shutdown")
        return out

    def reduce(self, results: dict) -> dict:
        for name in self.names:
            r = results[name]
            assert r["summary"] is not None, f"{name}: engine never finished"
            assert r["cross"] is not None, f"{name}: cross driver never finished"
            assert r["handled"] > 0, f"{name}: executed no remote requests"
            assert r["cross"]["puts_ok"] > 0, f"{name}: every remote put failed"
        return {
            "remote_calls": sum(r["remote_calls"] for r in results.values()),
            "nacks": sum(r["nacks"] for r in results.values()),
            "ticks": {n: results[n]["ticks"] for n in self.names},
            "cross": {n: results[n]["cross"] for n in self.names},
        }


register("control", serial=ControlProgram, par=ControlParProgram)
