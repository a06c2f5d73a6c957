"""Zoned-namespace (ZNS) NVMe model.

The paper's Driver LabMods section notes userspace I/O mechanisms "may
provide APIs other than block (e.g., zoned namespace and queues)".  This
device divides the LBA space into fixed-size zones that must be written
sequentially at the zone's write pointer; zones are appended to, finished,
and reset as a unit — the contract log-structured stacks (like LabFS)
exploit on real ZNS SSDs.

Operations beyond the block set:

- ``zone append``: write at the zone's current write pointer; the device
  assigns (and returns) the offset.
- ``zone reset``: rewind the write pointer and discard the zone's data.
- plain reads anywhere; plain writes only *exactly at* the write pointer.
"""

from __future__ import annotations

import enum

import numpy as np

from ..errors import DeviceError
from ..sim import Environment
from .base import BlockDevice, BlockRequest, DeviceProfile, IoOp
from .nvme import Nvme

__all__ = ["ZoneState", "ZnsNvme"]


class ZoneState(enum.Enum):
    EMPTY = "empty"
    OPEN = "open"
    FULL = "full"


class Zone:
    __slots__ = ("index", "start", "size", "wp", "state")

    def __init__(self, index: int, start: int, size: int) -> None:
        self.index = index
        self.start = start
        self.size = size
        self.wp = start          # write pointer (absolute byte offset)
        self.state = ZoneState.EMPTY

    @property
    def remaining(self) -> int:
        return self.start + self.size - self.wp


class ZnsNvme(Nvme):
    """NVMe with zoned-namespace semantics enforced at the device."""

    def __init__(
        self,
        env: Environment,
        profile: DeviceProfile,
        rng: np.random.Generator | None = None,
        zone_size: int = 16 * 1024 * 1024,
    ) -> None:
        super().__init__(env, profile, rng)
        if profile.capacity_bytes % zone_size:
            raise DeviceError("capacity must be a multiple of the zone size")
        self.zone_size = zone_size
        self.zones = [
            Zone(i, i * zone_size, zone_size)
            for i in range(profile.capacity_bytes // zone_size)
        ]
        self.appends = 0
        self.resets = 0

    # ------------------------------------------------------------------
    def zone_of(self, offset: int) -> Zone:
        if not 0 <= offset < self.profile.capacity_bytes:
            raise DeviceError(f"offset {offset} outside the namespace", device=self.name)
        return self.zones[offset // self.zone_size]

    def _validate_write(self, req: BlockRequest) -> None:
        zone = self.zone_of(req.offset)
        if zone.state is ZoneState.FULL:
            raise DeviceError(f"zone {zone.index} is FULL", device=self.name)
        if req.offset != zone.wp:
            raise DeviceError(
                f"zone {zone.index}: write at {req.offset} != write pointer {zone.wp} "
                "(zones are sequential-write-required)",
                device=self.name,
            )
        if req.size > zone.remaining:
            raise DeviceError(f"write crosses the end of zone {zone.index}", device=self.name)

    # -- public ZNS API -----------------------------------------------------
    def zone_append(self, zone_index: int, data: bytes, hctx: int = 0):
        """Process generator: append to a zone; returns the assigned offset."""
        try:
            zone = self.zones[zone_index]
        except IndexError:
            raise DeviceError(f"no zone {zone_index}", device=self.name) from None
        if zone.state is ZoneState.FULL:
            raise DeviceError(f"zone {zone_index} is FULL", device=self.name)
        if len(data) > zone.remaining:
            raise DeviceError(f"append overflows zone {zone_index}", device=self.name)
        offset = zone.wp
        req = BlockRequest(op=IoOp.WRITE, offset=offset, size=len(data), data=data,
                           hctx=hctx % self.nqueues)
        # the append advances the pointer at submission (device serializes
        # appends per zone, assigning offsets in arrival order)
        zone.wp += len(data)
        zone.state = ZoneState.FULL if zone.remaining == 0 else ZoneState.OPEN
        self.appends += 1
        # the device assigned this offset itself: skip the wp validation
        yield super().submit(req)
        return offset

    def zone_reset(self, zone_index: int):
        """Process generator: rewind and discard a zone."""
        try:
            zone = self.zones[zone_index]
        except IndexError:
            raise DeviceError(f"no zone {zone_index}", device=self.name) from None
        req = BlockRequest(op=IoOp.TRIM, offset=zone.start, size=zone.size)
        yield super().submit(req)
        zone.wp = zone.start
        zone.state = ZoneState.EMPTY
        self.resets += 1

    # -- block-compat: enforce the sequential-write rule --------------------
    def submit(self, req: BlockRequest):
        if req.op is IoOp.WRITE:
            zone = self.zone_of(req.offset)
            if req.offset == zone.wp:
                # in-order write through the block path also advances the wp
                self._validate_write(req)
                zone.wp += req.size
                zone.state = ZoneState.FULL if zone.remaining == 0 else ZoneState.OPEN
            elif req.offset + req.size <= zone.wp:
                # overwrite below the write pointer: rejected on real ZNS
                raise DeviceError(
                    f"zone {zone.index}: overwrite below the write pointer", device=self.name
                )
            else:
                self._validate_write(req)  # raises with the precise reason
        return super().submit(req)
