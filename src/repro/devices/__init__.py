"""Simulated storage devices with real byte backing."""

from .backing import BackingStore
from .base import BlockDevice, BlockRequest, DeviceProfile, IoOp
from .pmem import Pmem
from .profiles import make_device
from .zns import ZoneState, ZnsNvme

__all__ = [
    "BackingStore",
    "BlockDevice",
    "BlockRequest",
    "DeviceProfile",
    "IoOp",
    "Pmem",
    "make_device",
    "ZnsNvme",
    "ZoneState",
]
