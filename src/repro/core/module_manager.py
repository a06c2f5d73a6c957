"""The Module Manager: module registry guardianship and live upgrades.

Implements the two upgrade protocols of Section III-C2:

**Centralized** (updates the Runtime's LabMod instances):

1. the upgrade request lands in the upgrade queue (``modify.mods``);
2. the Runtime admin polls the queue every ``t`` ms;
3. all primary queues are marked UPDATE_PENDING;
4. workers acknowledge by flipping the flag to UPDATE_ACKED and stop
   popping those queues;
5. intermediate queues drain;
6. each upgrade loads the new module image (real chunked reads from the
   module device — the paper found the 1MB-from-NVMe I/O dominates the
   ~5ms upgrade cost), then every registry instance of that LabMod type
   is hot-swapped with StateUpdate;
7. primary queues resume.

**Decentralized** additionally pushes the new image to every connected
client (each client re-maps and relinks it), which is why the paper's
Table I shows it slightly slower per upgrade.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Type

from ..devices.base import BlockDevice, BlockRequest, IoOp
from ..errors import UpgradeError
from ..ipc.manager import IpcManager
from ..ipc.queue_pair import QueueFlag
from ..kernel.cpu import CostModel
from ..sim import Environment
from ..units import usec
from .labmod import LabMod
from .registry import ModuleRegistry

__all__ = ["UpgradeRequest"]

# module image is read in chunks of this size
_CHUNK = 128 * 1024
# relink/patch cost once the image is in memory (Runtime side)
RELINK_NS = 4_400_000
# per-client re-map + relink on the decentralized path
CLIENT_RELINK_NS = 1_200_000
# per-instance state transfer ("a few bytes of pointers")
STATE_XFER_NS = 2_000


@dataclass
class UpgradeRequest:
    mod_name: str                       # LabMod type to upgrade (class name match)
    new_cls: Type[LabMod]
    module_bytes: int = 1024 * 1024     # size of the new image on the module device
    upgrade_type: str = "centralized"   # or "decentralized"
    image_offset: int = 0               # where the image lives on the module device

    def __post_init__(self) -> None:
        if self.upgrade_type not in ("centralized", "decentralized"):
            raise UpgradeError(f"unknown upgrade type {self.upgrade_type!r}")


@dataclass
class ModuleManager:
    env: Environment
    registry: ModuleRegistry
    ipc: IpcManager
    module_device: BlockDevice | None = None
    cost: CostModel = field(default_factory=CostModel)
    orchestrator: object | None = None  # WorkOrchestrator (kick access)

    def __post_init__(self) -> None:
        self.upgrade_queue: list[UpgradeRequest] = []
        self.upgrades_done = 0

    # -- modify.mods API ----------------------------------------------------
    def request_upgrade(self, upgrade: UpgradeRequest) -> None:
        self.upgrade_queue.append(upgrade)

    def pending(self) -> int:
        return len(self.upgrade_queue)

    # -- protocol -------------------------------------------------------------
    def process_upgrades(self):
        """Process generator: run the full pause/upgrade/resume cycle for
        everything currently queued.  Called by the Runtime admin."""
        if not self.upgrade_queue:
            return 0
        batch, self.upgrade_queue = self.upgrade_queue, []

        primaries = self.ipc.primary_qps()
        for qp in primaries:
            qp.mark_update_pending()
        yield from self._await_acks(primaries)
        for qp in (q for q in self.ipc.qps.values() if not q.primary):
            yield qp.drained()

        for upgrade in batch:
            yield from self._apply(upgrade)
            self.upgrades_done += 1

        for qp in primaries:
            qp.resume()
        self._kick_workers()
        return len(batch)

    def _await_acks(self, primaries):
        spins = 0
        while any(qp.flag is QueueFlag.UPDATE_PENDING for qp in primaries):
            self._kick_workers()
            yield self.env.timeout(usec(10))
            spins += 1
            if spins > 1000:
                # a queue with no live worker can never ack: force it
                for qp in primaries:
                    if qp.flag is QueueFlag.UPDATE_PENDING:
                        qp.ack_update()

    def _kick_workers(self) -> None:
        if self.orchestrator is not None:
            for w in self.orchestrator.workers:
                w.kick()

    def _load_image(self, upgrade: UpgradeRequest):
        """Read the new module image from the module device (chunked)."""
        if self.module_device is None:
            return
        offset = upgrade.image_offset
        remaining = upgrade.module_bytes
        while remaining > 0:
            size = min(_CHUNK, remaining)
            req = BlockRequest(op=IoOp.READ, offset=offset, size=size)
            yield self.module_device.submit(req)
            offset += size
            remaining -= size

    def _apply(self, upgrade: UpgradeRequest):
        yield from self._load_image(upgrade)
        yield self.env.timeout(RELINK_NS)
        swapped = 0
        for uuid in self.registry.uuids():
            inst = self.registry.get(uuid)
            # match the type lineage so repeated upgrades of the same
            # LabMod name keep finding the (already-upgraded) instances
            if any(c.__name__ == upgrade.mod_name for c in type(inst).__mro__):
                yield self.env.timeout(STATE_XFER_NS)
                self.registry.hot_swap(uuid, upgrade.new_cls)
                swapped += 1
        if swapped == 0:
            raise UpgradeError(f"no registry instance of LabMod type {upgrade.mod_name!r}")
        if upgrade.upgrade_type == "decentralized":
            # push the image into every connected client address space
            for _conn in self.ipc.conns.values():
                yield self.env.timeout(CLIENT_RELINK_NS + 2 * self.cost.shm_hop_ns)
