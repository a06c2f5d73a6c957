"""The "upgrade_under_load" scenario: E2 live upgrade under open-loop load."""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any

from ..units import msec, usec
from .catalogue import Program, register


class UpgradeUnderLoadProgram(Program):
    """E2 under load: live-upgrade the KVS LabMod while the open-loop
    overload tenants keep firing, proving module state transfer loses no
    in-flight work.  A snapshot pauses mid-upgrade (``pause_point``
    lands between the upgrade trigger and the admin thread completing the
    swap) — the paper's Table I claim with teeth."""

    def __init__(
        self,
        seed: int = 0,
        *,
        duration_ns: int = int(msec(1.5)),
        load: float = 1.0,
        nupgrades: int = 1,
        upgrade_type: str = "centralized",
        upgrade_at_ns: int = int(msec(0.6)),
    ) -> None:
        super().__init__(seed)
        self.duration_ns = int(duration_ns)
        self.load = load
        self.nupgrades = nupgrades
        self.upgrade_type = upgrade_type
        # offset past build end (the preload phase advances the clock, so
        # absolute timestamps would land inside the build)
        self.upgrade_at_ns = int(upgrade_at_ns)

    def build(self, env) -> SimpleNamespace:
        from ..traffic.presets import build_overload_engine

        system, engine = build_overload_engine(
            env=env, seed=self.seed, duration_ns=self.duration_ns, load=self.load,
        )
        return SimpleNamespace(system=system, engine=engine, start_ns=env.now)

    def pause_point(self, ctx, env) -> int:
        # the admin thread polls every admin_poll_ns (1ms default): pause
        # while the upgrade request is queued/in flight, not after
        return ctx.start_ns + self.upgrade_at_ns + int(usec(50))

    def drive(self, ctx):
        from ..core.module_manager import UpgradeRequest
        from ..mods.labkvs import LabKvs, LabKvsV2

        system, engine = ctx.system, ctx.engine
        env = system.env

        def go():
            drive_proc = env.process(engine.drive(), name="traffic.drive")
            trigger = ctx.start_ns + self.upgrade_at_ns
            if trigger > env.now:
                yield env.timeout(trigger - env.now)
            ctx.pre_upgrade = [
                (m.uuid, m.version, m.processed)
                for m in system.runtime.registry.instances_of(LabKvs)
            ]
            for _ in range(self.nupgrades):
                system.runtime.modify_mods(UpgradeRequest(
                    mod_name="LabKvs", new_cls=LabKvsV2,
                    upgrade_type=self.upgrade_type,
                ))
            summary = yield drive_proc
            return summary

        return system.process(go())

    def finish(self, ctx, value) -> dict[str, Any]:
        from ..mods.labkvs import LabKvsV2

        system = ctx.system
        summary = value
        tot = summary["totals"]
        assert tot["completed"] == tot["launched"], "upgrade lost in-flight ops"
        assert tot["completed"] > 0, "no traffic ran"
        upgraded = system.runtime.registry.instances_of(LabKvsV2)
        assert upgraded, "LabKvs was never hot-swapped"
        pre = {uuid: (version, processed) for uuid, version, processed in ctx.pre_upgrade}
        for mod in upgraded:
            version, processed = pre[mod.uuid]
            assert mod.version == version + self.nupgrades, "version chain broken"
            assert mod.processed >= processed, "processed counter lost in transfer"
            assert mod.table, "KVS table lost in state transfer"
        return {
            "launched": tot["launched"],
            "completed": tot["completed"],
            "good": tot["good"],
            "violations": tot["violations"],
            "upgrades_done": system.runtime.module_manager.upgrades_done,
            "upgraded_mods": len(upgraded),
            "elapsed_ns": summary["elapsed_ns"],
        }


register("upgrade_under_load", serial=UpgradeUnderLoadProgram)
