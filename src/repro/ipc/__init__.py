"""Shared-memory IPC: segments with grants, queue pairs, and the manager."""

from .manager import IpcManager
from .queue_pair import Completion, QueueFlag, QueuePair
from .shmem import ShMemManager

__all__ = [
    "IpcManager",
    "QueuePair",
    "QueueFlag",
    "Completion",
    "ShMemManager",
]
