"""The LabMod library shipped with the platform.

``STANDARD_REPO`` is the plug-in repo mounted by default deployments:
every LabMod class here, keyed by its class name (the ``mod`` field of a
LabStack spec node).
"""

from .cache_lru import LruCacheMod
from .compression import CompressionMod
from .consistency import ConsistencyMod
from .drivers import DaxDriverMod, KernelDriverMod, SpdkDriverMod
from .dummy import DummyMod, DummyModV2
from .generic_fs import GenericFS
from .generic_kvs import GenericKVS
from .labfs import LabFs, MetadataLog, PerWorkerBlockAllocator
from .labfs.alloc import CentralizedBlockAllocator
from .labkvs import LabKvs
from .permissions import PermissionsMod
from .sched_batch import BatchSchedMod
from .sched_blkswitch import BlkSwitchSchedMod
from .sched_noop import NoOpSchedMod
from .zns_driver import ZnsDriverMod

STANDARD_REPO = {
    cls.__name__: cls
    for cls in (
        LabFs,
        LabKvs,
        LruCacheMod,
        PermissionsMod,
        CompressionMod,
        ConsistencyMod,
        NoOpSchedMod,
        BatchSchedMod,
        BlkSwitchSchedMod,
        KernelDriverMod,
        SpdkDriverMod,
        DaxDriverMod,
        ZnsDriverMod,
        DummyMod,
        DummyModV2,
    )
}

__all__ = [
    "LabFs",
    "LabKvs",
    "LruCacheMod",
    "PermissionsMod",
    "CompressionMod",
    "ConsistencyMod",
    "CentralizedBlockAllocator",
    "NoOpSchedMod",
    "BatchSchedMod",
    "BlkSwitchSchedMod",
    "KernelDriverMod",
    "SpdkDriverMod",
    "DaxDriverMod",
    "ZnsDriverMod",
    "DummyMod",
    "DummyModV2",
    "GenericFS",
    "GenericKVS",
    "PerWorkerBlockAllocator",
    "MetadataLog",
    "STANDARD_REPO",
]
