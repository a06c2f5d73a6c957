"""Deterministic, seed-parameterized programs with a split-phase protocol.

A :class:`Program` factors a ``repro.sim.check`` scenario into three
phases so snapshot machinery can pause the clock between them::

    ctx   = program.build(env)      # construct system/cluster + workload
    event = program.drive(ctx)      # start the main process, return its event
    ...   = env.run(until=T)        # (snapshot seam: pause anywhere here)
    value = env.run(until=event)
    out   = program.finish(ctx, value)   # asserts + result dict

The ``"faults"``, ``"batching"`` and ``"cluster"`` determinism scenarios
in :mod:`repro.sim.check` delegate to the programs below with default
parameters, so one definition serves both the determinism checker and
the replay-to-point property tests.  ``seed`` perturbs the workload and
system RNG streams: every seed is its own fully deterministic timeline.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any

from ..units import msec, usec

__all__ = [
    "Program",
    "FaultsProgram",
    "BatchingProgram",
    "ClusterProgram",
    "UpgradeUnderLoadProgram",
    "PROGRAMS",
    "program_named",
]


class Program:
    """Base protocol; subclasses define build/drive/finish."""

    name = "program"
    #: a virtual timestamp strictly inside the run — the default
    #: snapshot pause point (after build, before the main event fires)
    default_pause_ns = 0

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def build(self, env) -> SimpleNamespace:
        raise NotImplementedError

    def drive(self, ctx):
        raise NotImplementedError

    def finish(self, ctx, value) -> dict[str, Any]:
        raise NotImplementedError

    def target(self, ctx):
        """The deployment a snapshot captures (system or cluster)."""
        return ctx.system

    def pause_point(self, ctx, env) -> int:
        """Resolve the default pause timestamp once the run is built
        (programs whose build phase advances the clock override this)."""
        return self.default_pause_ns

    def __repr__(self) -> str:  # pragma: no cover - diagnostics
        return f"{type(self).__name__}(seed={self.seed})"


class FaultsProgram(Program):
    """The "faults" chaos storm: media errors + qp rejects + a worker
    crash + a power cut with auto-restart against a retrying GenericFS,
    audited for crash consistency."""

    name = "faults"
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


class BatchingProgram(Program):
    """The "batching" fast path: vectored writev/readv waves through
    Client.submit_batch, worker batch-pop, BatchSchedMod merging and
    device-level coalescing."""

    name = "batching"
    default_pause_ns = int(usec(120))

    def build(self, env) -> SimpleNamespace:
        from ..core import RuntimeConfig
        from ..devices.profiles import DeviceSpec
        from ..mods.generic_fs import GenericFS
        from ..system import LabStorSystem

        system = LabStorSystem(
            env=env,
            seed=self.seed,
            devices=(DeviceSpec("nvme", coalesce_max=8, coalesce_window_ns=2000),),
            config=RuntimeConfig(nworkers=1, worker_batch_max=8),
        )
        (system.stack("fs::/batch")
         .fs(variant="all")
         .sched("BatchSchedMod", window_ns=10_000, batch_max=8)
         .mount())
        gfs = GenericFS(system.client())
        return SimpleNamespace(system=system, gfs=gfs)

    def _chunk(self, wave: int, i: int) -> bytes:
        return bytes([(wave * 16 + i + self.seed) % 251]) * 4096

    def drive(self, ctx):
        system, gfs = ctx.system, ctx.gfs

        def go():
            fd = yield from gfs.open("fs::/batch/vec.dat", create=True)
            total = 0
            for wave in range(4):
                bufs = [self._chunk(wave, i) for i in range(8)]
                counts = yield from gfs.writev(fd, bufs, offset=wave * 8 * 4096)
                total += sum(counts)
            yield from gfs.fsync(fd)
            chunks = yield from gfs.readv(fd, [4096] * 32, offset=0)
            yield from gfs.close(fd)
            return total, chunks

        return system.process(go())

    def finish(self, ctx, value) -> dict[str, Any]:
        system = ctx.system
        total, chunks = value
        assert total == 32 * 4096, f"writev short ({total} bytes)"
        for wave in range(4):
            for i in range(8):
                want = self._chunk(wave, i)
                assert chunks[wave * 8 + i] == want, f"readv mismatch at chunk {wave * 8 + i}"
        sched = system.runtime.namespace.resolve("fs::/batch")[0].mods["s1.sched"]
        dev = system.devices["nvme"]
        assert sched.merged_ops > 0, "BatchSchedMod never merged"
        return {
            "bytes": total,
            "merged_groups": sched.merged_groups,
            "merged_ops": sched.merged_ops,
            "coalesced_groups": dev.coalesced_groups,
            "coalesced_ops": dev.coalesced_ops,
        }


class ClusterProgram(Program):
    """The "cluster" scenario on the all-nodes-on-one-clock placement:
    spec, setup and driver body are
    :class:`repro.cluster.par.ClusterParProgram`'s, here hosted by one
    Cluster in the audited Environment."""

    name = "cluster"
    default_pause_ns = int(msec(2.0))

    def build(self, env) -> SimpleNamespace:
        from ..cluster import Cluster
        from ..cluster.par import ClusterParProgram

        scenario = ClusterParProgram(self.seed)
        cl = Cluster(scenario.spec, env=env)
        scenario.setup(cl)
        return SimpleNamespace(cluster=cl, scenario=scenario)

    def target(self, ctx):
        return ctx.cluster

    def drive(self, ctx):
        return ctx.cluster.process(ctx.scenario.drive(ctx.cluster))

    def finish(self, ctx, value) -> dict[str, Any]:
        from ..cluster.par import assert_nic_conservation

        cl, nkeys = ctx.cluster, ctx.scenario.nkeys
        kvs, hits = cl.kvs, value
        assert hits == nkeys, f"failover reads lost keys ({hits}/{nkeys})"
        assert not cl.nodes["b"].online, "power cut never fired"
        assert kvs.failovers > 0, "no replica branch ever failed over"
        remote = sum(r.remote_calls for r in cl._routes.values())
        assert remote > 0, "no call ever crossed the fabric"
        stats = cl.stats()
        cl.shutdown()
        assert_nic_conservation(cl)
        return {
            "hits": hits,
            "remote_calls": remote,
            "failovers": kvs.failovers,
            "nacks": sum(r.nacks for r in cl._routes.values()),
            "fabric": stats["fabric"],
        }


class UpgradeUnderLoadProgram(Program):
    """E2 under load: live-upgrade the KVS LabMod while the open-loop
    overload tenants keep firing, proving module state transfer loses no
    in-flight work.  A snapshot pauses mid-upgrade (``default_pause_ns``
    lands between the upgrade trigger and the admin thread completing the
    swap) — the paper's Table I claim with teeth."""

    name = "upgrade_under_load"

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


PROGRAMS: dict[str, type[Program]] = {
    cls.name: cls
    for cls in (FaultsProgram, BatchingProgram, ClusterProgram, UpgradeUnderLoadProgram)
}


def program_named(name: str, seed: int = 0, **kw) -> Program:
    if name not in PROGRAMS:
        raise KeyError(f"unknown program {name!r}; known: {sorted(PROGRAMS)}")
    return PROGRAMS[name](seed=seed, **kw)
