"""LabFS: log-structured POSIX filesystem LabMod."""

from .alloc import PerWorkerBlockAllocator
from .fs import LabFs
from .log import MetadataLog, replay

__all__ = ["LabFs", "PerWorkerBlockAllocator", "MetadataLog", "replay"]
