"""Fluent stack-spec builder: the front door for composing LabStacks.

Stacks are composed with a chainable builder::

    stack = (
        system.stack("/labfs")
        .fs(variant="all")
        .device("nvme")
        .cache()
        .sched("NoOpSchedMod")
        .mount()
    )

``build()`` returns the :class:`~repro.core.labstack.StackSpec` (for
callers that inspect or tweak specs before mounting); ``mount()`` builds
and mounts in one step.

Validation is eager where possible (unknown variant fails at ``.fs()``)
and otherwise collected at ``build()`` (unknown device names list the
devices the system actually has).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Optional

from .core.labstack import LabStack, NodeSpec, StackRules, StackSpec
from .errors import LabStorError

if TYPE_CHECKING:  # pragma: no cover
    from .system import LabStorSystem

__all__ = ["StackBuilder", "VARIANTS"]

VARIANTS = ("all", "min", "d")

#: shared uuid sequence for auto-prefixed stacks ("s1", "s2", ...)
_uuid_seq = itertools.count(1)


class StackBuilder:
    """One in-progress LabStack configuration (create via
    :meth:`LabStorSystem.stack`)."""

    def __init__(self, system: "LabStorSystem", mount: str) -> None:
        self._system = system
        self._mount = mount
        self._kind: Optional[str] = None      # "fs" | "kvs"
        self._variant = "all"
        self._device = "nvme"
        self._driver = "KernelDriverMod"
        self._cache: Optional[bool] = None    # None -> kind default
        self._sched: Optional[str] = "NoOpSchedMod"
        self._sched_attrs: dict = {}
        self._uuid_prefix: Optional[str] = None
        self._capacity_bytes: Optional[int] = None
        self._nworkers = 8
        self._faults = None                   # FaultPlan | str | None

    # -- stack kind -------------------------------------------------------
    def fs(self, *, variant: str = "all", capacity_bytes: int | None = None,
           nworkers: int = 8) -> "StackBuilder":
        """A LabFS stack (the paper's Lab-All / Lab-Min / Lab-D)."""
        self._check_variant(variant)
        self._kind = "fs"
        self._variant = variant
        self._capacity_bytes = capacity_bytes
        self._nworkers = nworkers
        return self

    def kvs(self, *, variant: str = "all", capacity_bytes: int | None = None,
            nworkers: int = 8) -> "StackBuilder":
        """A LabKVS stack ([Permissions,] LabKVS, sched, driver)."""
        self._check_variant(variant)
        self._kind = "kvs"
        self._variant = variant
        self._capacity_bytes = capacity_bytes
        self._nworkers = nworkers
        return self

    @staticmethod
    def _check_variant(variant: str) -> None:
        if variant not in VARIANTS:
            raise LabStorError(f"variant must be one of {VARIANTS}")

    # -- component knobs --------------------------------------------------
    def device(self, name: str) -> "StackBuilder":
        self._device = name
        return self

    def driver(self, mod_name: str) -> "StackBuilder":
        self._driver = mod_name
        return self

    def cache(self, enabled: bool = True) -> "StackBuilder":
        """Include (or drop, with ``enabled=False``) the LRU cache LabMod.
        Only LabFS stacks carry a cache."""
        self._cache = enabled
        return self

    def sched(self, mod_name: str | None, **attrs) -> "StackBuilder":
        """Set the scheduler LabMod; ``None`` (or ``""``) omits it.

        Keyword arguments become the scheduler node's attrs, overlaid on
        the stack's ``device`` attr (whose queues it steers to) — e.g.
        ``.sched("BatchSchedMod", window_ns=10_000, batch_max=16)``.
        """
        self._sched = mod_name or None
        self._sched_attrs = dict(attrs)
        return self

    def uuid_prefix(self, prefix: str) -> "StackBuilder":
        self._uuid_prefix = prefix
        return self

    def faults(self, plan) -> "StackBuilder":
        """Arm a :class:`repro.faults.FaultPlan` (or its text form) when
        the stack mounts.  Installation is deferred to :meth:`mount` so
        plans scoped by ``module=`` can resolve the stack's LabMod uuids."""
        self._faults = plan
        return self

    # -- terminal operations ----------------------------------------------
    def build(self) -> StackSpec:
        """Validate the configuration and produce the StackSpec."""
        if self._kind is None:
            raise LabStorError(
                f"stack({self._mount!r}): call .fs() or .kvs() before build()"
            )
        if self._kind == "kvs" and self._cache:
            raise LabStorError(
                f"stack({self._mount!r}): LabKVS stacks have no cache LabMod; "
                "drop the .cache() call"
            )
        try:
            dev = self._system.devices[self._device]
        except KeyError:
            raise LabStorError(
                f"stack({self._mount!r}): unknown device {self._device!r}; "
                f"system has {sorted(self._system.devices)}"
            ) from None
        u = self._uuid_prefix or f"s{next(_uuid_seq)}"
        cap = self._capacity_bytes or dev.profile.capacity_bytes
        use_cache = self._cache if self._cache is not None else (self._kind == "fs")

        nodes: list[NodeSpec] = []
        if self._variant == "all":
            nodes.append(NodeSpec(mod_name="PermissionsMod", uuid=f"{u}.perm", attrs={}))
        if self._kind == "fs":
            nodes.append(NodeSpec(
                mod_name="LabFs", uuid=f"{u}.labfs",
                attrs={"capacity_bytes": cap, "nworkers": self._nworkers,
                       "device": self._device},
            ))
            if use_cache:
                nodes.append(NodeSpec(mod_name="LruCacheMod", uuid=f"{u}.lru", attrs={}))
        else:
            nodes.append(NodeSpec(
                mod_name="LabKvs", uuid=f"{u}.labkvs",
                attrs={"capacity_bytes": cap, "nworkers": self._nworkers},
            ))
        if self._sched:
            nodes.append(NodeSpec(mod_name=self._sched, uuid=f"{u}.sched",
                                  attrs={"device": self._device, **self._sched_attrs}))
        nodes.append(NodeSpec(
            mod_name=self._driver, uuid=f"{u}.driver", attrs={"device": self._device}
        ))
        for i in range(len(nodes) - 1):
            nodes[i].outputs = [nodes[i + 1].uuid]
        exec_mode = "sync" if self._variant == "d" else "async"
        return StackSpec(mount=self._mount, nodes=nodes, rules=StackRules(exec_mode=exec_mode))

    def mount(self) -> LabStack:
        """Build the spec and mount it into the system's Runtime."""
        stack = self._system.runtime.mount_stack(self.build())
        if self._faults is not None:
            self._system.install_faults(self._faults)
        return stack
