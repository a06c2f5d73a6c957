"""The LabStor Runtime: warehouse and execution engine of LabStacks.

Wires together the IPC Manager, Module Manager (+ Registry), LabStack
Namespace, Workers and Work Orchestrator, and the KO Manager (Fig 2 of
the paper), plus the admin thread that polls the upgrade queue and the
crash/restart machinery of Section III-C3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..devices.base import BlockDevice
from ..errors import LabStorError
from ..ipc.manager import IpcManager
from ..kernel.cpu import DEFAULT_COST, CostModel, Cpu
from ..sim import Environment, Interrupt
from ..units import msec
from .komgr import KernelOpsManager
from .labmod import ExecContext, ModContext
from .labstack import LabStack, StackSpec
from .module_manager import ModuleManager, UpgradeRequest
from .namespace import StackNamespace
from .orchestrator import DynamicPolicy, OrchestratorPolicy, RoundRobinPolicy, WorkOrchestrator
from .registry import ModuleRegistry
from .requests import LabRequest
from .spec import parse_spec

__all__ = ["RuntimeConfig", "LabStorRuntime"]


@dataclass
class RuntimeConfig:
    """The Runtime configuration YAML, as a dataclass."""

    ncores: int = 24
    nworkers: int = 1
    policy: str | OrchestratorPolicy = "rr"     # "rr" | "dynamic" | instance
    min_workers: int = 1
    max_workers: int = 16
    orchestrator_interval_ns: int = msec(1.0)   # rebalance every t ms
    admin_poll_ns: int = msec(1.0)              # upgrade-queue poll every t ms
    worker_idle_sleep_ns: int = 50_000          # busy-wait window before sleeping
    worker_poll_quantum_ns: int = 2_000
    worker_batch_max: int = 1                   # SQEs a worker drains per wakeup
    worker_auto_respawn: bool = True            # replace crashed workers inline
    restart_wait_ns: int = msec(100.0)          # client Wait crash patience
    trace: bool = False

    def make_policy(self) -> OrchestratorPolicy:
        if isinstance(self.policy, OrchestratorPolicy):
            return self.policy
        if self.policy == "rr":
            return RoundRobinPolicy()
        if self.policy == "dynamic":
            return DynamicPolicy()
        raise LabStorError(f"unknown orchestration policy {self.policy!r}")


class LabStorRuntime:
    def __init__(
        self,
        env: Environment,
        devices: dict[str, BlockDevice] | None = None,
        cost: CostModel = DEFAULT_COST,
        config: RuntimeConfig | None = None,
    ) -> None:
        self.env = env
        self.cost = cost
        self.config = config or RuntimeConfig()
        self.devices = devices or {}
        # Share the environment's tracer so sim-kernel audit hooks and
        # runtime span emission ride one pub/sub seam.
        self.tracer = env.tracer
        if self.config.trace:
            self.tracer.enabled = True
        self.cpu = Cpu(env, ncores=self.config.ncores, cost=cost)
        self.ipc = IpcManager(env, cost=cost)
        self.mod_ctx = ModContext(env, cost, self.tracer, self.devices)
        self.registry = ModuleRegistry(self.mod_ctx)
        self.namespace = StackNamespace()
        self.komgr = KernelOpsManager(env)
        for name, dev in self.devices.items():
            self.komgr.register_device(name, dev)
        self.orchestrator = WorkOrchestrator(
            env,
            self.cpu,
            self._execute,
            policy=self.config.make_policy(),
            nworkers=self.config.nworkers,
            min_workers=self.config.min_workers,
            max_workers=self.config.max_workers,
            interval_ns=self.config.orchestrator_interval_ns,
            tracer=self.tracer,
            auto_respawn=self.config.worker_auto_respawn,
            worker_kw={
                "idle_sleep_ns": self.config.worker_idle_sleep_ns,
                "poll_quantum_ns": self.config.worker_poll_quantum_ns,
                "batch_max": self.config.worker_batch_max,
            },
        )
        self.module_manager = ModuleManager(
            env,
            self.registry,
            self.ipc,
            module_device=self.devices.get("nvme"),
            cost=cost,
            orchestrator=self.orchestrator,
        )
        self.ipc.on_connect(self.orchestrator.on_client_connect)
        self.online = True
        self.crashes = 0
        self._crash_ns: int | None = None
        self._online_waiters: list = []
        self._restart_callbacks: list = []
        self._admin = env.process(self._admin_loop(), name="runtime-admin", daemon=True)

    # ------------------------------------------------------------------
    # deployment API (mount.repo / mount.stack / modify.*)
    # ------------------------------------------------------------------
    def mount_repo(self, name: str, mods: dict[str, type], owner_uid: int = 0) -> None:
        self.registry.mount_repo(name, mods, owner_uid)

    def unmount_repo(self, name: str) -> None:
        self.registry.unmount_repo(name)

    def mount_stack(self, spec: StackSpec | dict | str) -> LabStack:
        """The overloaded ``mount`` command: validate + instantiate + register."""
        if isinstance(spec, str):
            spec = StackSpec.from_dict(parse_spec(spec))
        elif isinstance(spec, dict):
            spec = StackSpec.from_dict(spec)
        stack = LabStack(spec, self.registry)
        self.namespace.register(stack)
        return stack

    def unmount_stack(self, mount: str) -> None:
        self.namespace.unregister(mount)

    def modify_mods(self, upgrade: UpgradeRequest) -> None:
        """Queue a live upgrade (picked up by the admin thread)."""
        self.module_manager.request_upgrade(upgrade)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _execute(self, req: LabRequest, x: ExecContext):
        """Executor installed into every Worker: run the request's stack."""
        if req.mod_uuid is not None:
            entry = self.registry.get(req.mod_uuid)
        elif req.stack_id is not None:
            entry = self.namespace.get_by_id(req.stack_id).entry
        else:
            raise LabStorError(f"request {req.req_id} has no routing information")
        sc = x.sc
        if sc is None:
            return (yield from entry.handle(req, x))
        frame = sc.enter_mod(entry.uuid, type(entry).__name__, self.env.now)
        try:
            return (yield from entry.handle(req, x))
        finally:
            sc.exit_mod(frame, self.env.now)

    def execute_sync(self, req: LabRequest):
        """Process generator: run a stack synchronously (client-side),
        bypassing the Runtime's queues and workers entirely."""
        x = ExecContext(self.env, self.tracer, core_resource=None)
        if req.obs is not None:
            x.sc = req.obs
        # File/KV ops pay the client library's namespace+fd bookkeeping;
        # raw block ops go through a pre-resolved stack handle (the
        # decentralized data-path design of Section III-B).
        if req.op.startswith("blk."):
            yield from x.work(300, span="runtime")
        else:
            yield from x.work(self.cost.client_dispatch_ns, span="runtime")
        return (yield from self._execute(req, x))

    # ------------------------------------------------------------------
    # admin thread: upgrade-queue polling
    # ------------------------------------------------------------------
    def _admin_loop(self):
        try:
            while True:
                yield self.env.timeout(self.config.admin_poll_ns)
                if self.online and self.module_manager.pending():
                    yield self.env.process(self.module_manager.process_upgrades())
        except Interrupt:
            return  # runtime shut down

    def shutdown(self) -> None:
        """Stop the Runtime's daemon processes (admin poller, orchestrator
        epoch loop, workers).  The Runtime is not restartable afterwards;
        use :meth:`crash`/:meth:`restart` to model failures instead."""
        if self._admin is not None and self._admin.is_alive:
            self._admin.interrupt("runtime shutdown")
        self.online = False
        self.orchestrator.shutdown()

    # ------------------------------------------------------------------
    # crash / restart (Section III-C3)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Kill the Runtime: workers die; shared-memory queues survive.
        Every mounted LabMod loses its volatile state via ``on_crash``
        (durable structures — metadata logs, allocators, device contents —
        survive and seed :meth:`state_repair` at restart)."""
        if not self.online:
            raise LabStorError("runtime already offline")
        self.online = False
        self.crashes += 1
        self._crash_ns = self.env.now
        self.orchestrator.paused = True
        for w in list(self.orchestrator.workers):
            self.orchestrator.decommission_worker(w)
        for uuid in self.registry.uuids():
            self.registry.get(uuid).on_crash()
        t = self.tracer
        if t.enabled:
            t.emit(self.env.now, "fault.runtime", action="crash", crashes=self.crashes)

    def restart(self):
        """Process generator: bring the Runtime back; queues reattach and
        every LabMod gets a StateRepair call."""
        if self.online:
            raise LabStorError("runtime is not offline")
        yield self.env.timeout(msec(5.0))  # exec + re-attach shared memory
        self.orchestrator.paused = False
        self.orchestrator.dead_workers = 0  # the fresh pool covers old crashes
        for _ in range(self.config.nworkers):
            self.orchestrator.spawn_worker()
        for uuid in self.registry.uuids():
            self.registry.get(uuid).state_repair()
        self.online = True
        self.orchestrator.rebalance()
        t = self.tracer
        if t.enabled:
            recovery = self.env.now - self._crash_ns if self._crash_ns is not None else 0
            t.emit(self.env.now, "fault.runtime", action="restart", recovery_ns=recovery)
        waiters, self._online_waiters = self._online_waiters, []
        for ev in waiters:
            ev.succeed()
        for cb in self._restart_callbacks:
            cb()

    def online_event(self):
        """Event firing when the Runtime (re)comes online."""
        ev = self.env.event()
        if self.online:
            ev.succeed()
        else:
            self._online_waiters.append(ev)
        return ev

    def on_restart(self, fn) -> None:
        self._restart_callbacks.append(fn)

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        return {
            "workers": self.orchestrator.worker_count(),
            "stacks": len(self.namespace),
            "mods": len(self.registry.uuids()),
            "clients": len(self.ipc.conns),
            "upgrades": self.module_manager.upgrades_done,
            "crashes": self.crashes,
        }
