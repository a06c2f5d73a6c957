"""High-level facade: build a complete LabStor deployment in one call.

Wraps environment + devices + Runtime + standard LabMod repo + the
paper's canonical LabStack configurations:

- ``Lab-All``  — Permissions, LabFS/LabKVS, LRU cache, NoOp sched,
  Kernel Driver; asynchronous execution (in the Runtime).
- ``Lab-Min``  — Lab-All minus the Permissions LabMod.
- ``Lab-D``    — Lab-Min executed synchronously in the client (no
  centralized authority / IPC on the data path).

Stacks are composed through the fluent :class:`~repro.builder.StackBuilder`::

    sys_ = LabStorSystem()
    stack = sys_.stack("/labfs").fs(variant="all").device("nvme").mount()

``mount_fs_stack``/``mount_kvs_stack`` are conveniences that delegate to
the builder.

Telemetry: pass ``telemetry=True`` (or a configured
:class:`repro.obs.Telemetry`) or set ``REPRO_TELEMETRY=1`` to record
per-request spans; see DESIGN.md "Observability".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Union

from .builder import VARIANTS, StackBuilder
from .core.client import LabStorClient
from .core.labstack import LabStack
from .core.runtime import LabStorRuntime, RuntimeConfig
from .devices.profiles import DeviceSpec, make_device
from .faults.plan import plan_from_env as _plan_from_env
from .kernel.cpu import DEFAULT_COST, CostModel
from .mods import STANDARD_REPO
from .obs.telemetry import Telemetry
from .obs.telemetry import maybe_attach as _maybe_attach_telemetry
from .sim import Environment, RngRegistry
from .sim.sanitizer import maybe_attach

if TYPE_CHECKING:  # pragma: no cover
    from .faults import FaultEngine, FaultPlan

__all__ = ["LabStorSystem", "VARIANTS"]


class LabStorSystem:
    def __init__(
        self,
        *,
        seed: int = 0,
        devices: Iterable[Union[str, DeviceSpec]] = ("nvme",),
        config: RuntimeConfig | None = None,
        cost: CostModel = DEFAULT_COST,
        env: Environment | None = None,
        telemetry: Union[Telemetry, bool, None] = None,
        fault_plan: Union["FaultPlan", str, None] = None,
    ) -> None:
        self.env = env if env is not None else Environment()
        # REPRO_SANITIZE=1 arms the invariant checker for every deployment
        # built through this facade (covers all experiment drivers)
        self.sanitizer = maybe_attach(self.env)
        # telemetry: explicit argument wins; None defers to REPRO_TELEMETRY
        self.telemetry: Optional[Telemetry] = None
        if isinstance(telemetry, Telemetry):
            self.telemetry = telemetry.install(self.env)
        elif telemetry is True:
            self.telemetry = Telemetry().install(self.env)
        elif telemetry is None:
            self.telemetry = _maybe_attach_telemetry(self.env)
        self.rngs = RngRegistry(seed)
        self.cost = cost
        self.devices = {}
        for dev in devices:
            spec = dev if isinstance(dev, DeviceSpec) else DeviceSpec(dev)
            self.devices[spec.kind] = spec.build(
                self.env, rng=self.rngs.stream(f"device.{spec.kind}")
            )
        self.runtime = LabStorRuntime(self.env, self.devices, cost=cost, config=config)
        self.runtime.mount_repo("standard", STANDARD_REPO)
        self._clients: list[LabStorClient] = []
        # fault injection: explicit plan wins; None defers to REPRO_FAULTS.
        # self.faults stays None on the no-plan fast path (zero overhead).
        self.faults = None
        plan = fault_plan if fault_plan is not None else _plan_from_env()
        if plan is not None:
            self.install_faults(plan)

    def install_faults(self, plan: Union["FaultPlan", str]) -> "FaultEngine":
        """Arm (or extend) deterministic fault injection on this system.

        Accepts a :class:`repro.faults.FaultPlan` or its text form (the
        ``REPRO_FAULTS`` syntax).  All randomness draws from the seeded
        ``"faults"`` RNG stream, so runs replay bit-for-bit."""
        from .faults import FaultEngine, FaultPlan

        if isinstance(plan, str):
            plan = FaultPlan.parse(plan)
        if self.faults is None:
            self.faults = FaultEngine(
                self.env, plan, rng=self.rngs.stream("faults")
            ).install(self)
        else:
            self.faults.extend(plan)
        return self.faults

    # ------------------------------------------------------------------
    # canonical stacks
    # ------------------------------------------------------------------
    def stack(self, mount: str) -> StackBuilder:
        """Begin a fluent stack configuration rooted at ``mount``."""
        return StackBuilder(self, mount)

    def _fs_builder(
        self,
        mount: str,
        *,
        variant: str = "all",
        device: str = "nvme",
        driver: str = "KernelDriverMod",
        cache: bool = True,
        sched: str = "NoOpSchedMod",
        uuid_prefix: str | None = None,
        capacity_bytes: int | None = None,
        nworkers: int = 8,
    ) -> StackBuilder:
        b = (
            self.stack(mount)
            .fs(variant=variant, capacity_bytes=capacity_bytes, nworkers=nworkers)
            .device(device)
            .driver(driver)
            .cache(cache)
            .sched(sched)
        )
        if uuid_prefix:
            b.uuid_prefix(uuid_prefix)
        return b

    def _kvs_builder(
        self,
        mount: str,
        *,
        variant: str = "all",
        device: str = "nvme",
        driver: str = "KernelDriverMod",
        sched: str = "NoOpSchedMod",
        uuid_prefix: str | None = None,
        capacity_bytes: int | None = None,
        nworkers: int = 8,
    ) -> StackBuilder:
        b = (
            self.stack(mount)
            .kvs(variant=variant, capacity_bytes=capacity_bytes, nworkers=nworkers)
            .device(device)
            .driver(driver)
            .sched(sched)
        )
        if uuid_prefix:
            b.uuid_prefix(uuid_prefix)
        return b

    def mount_fs_stack(self, mount: str, **kw) -> LabStack:
        return self._fs_builder(mount, **kw).mount()

    def mount_kvs_stack(self, mount: str, **kw) -> LabStack:
        return self._kvs_builder(mount, **kw).mount()

    # ------------------------------------------------------------------
    def client(self, ordered: bool = True) -> LabStorClient:
        """Create and connect a client (runs the connect handshake now)."""
        c = LabStorClient(self.env, self.runtime)
        self.env.run(self.env.process(c.connect(ordered=ordered)))
        self._clients.append(c)
        return c

    def shutdown(self, drain: bool = True) -> None:
        """Tear the deployment down: drain in-flight work, close every
        client, and stop the Runtime's daemon pollers.

        After shutdown the simulation holds no live daemon processes from
        this system, so repeated build/measure cycles (the anatomy
        experiment, parameter sweeps) cannot accumulate pollers.
        """
        if drain:
            for c in self._clients:
                if c.conn is not None:
                    self.env.run(c.conn.qp.drained())
        for c in self._clients:
            c.close()
        self._clients.clear()
        self.runtime.shutdown()
        # unwind the interrupts delivered above (they are scheduled as
        # immediate events); without this the dead processes would only
        # clean up on the next unrelated env.run()
        while (
            self.env._urgent or self.env._due or self.env._heap
        ) and self.env.peek() <= self.env.now:
            self.env.step()

    def run(self, *args, **kw):
        return self.env.run(*args, **kw)

    def process(self, gen, **kw):
        return self.env.process(gen, **kw)
