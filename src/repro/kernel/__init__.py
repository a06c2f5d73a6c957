"""Simulated Linux kernel substrate: CPU, block layer, page cache, FSes, APIs."""

from .block_layer import BlockLayer
from .cpu import DEFAULT_COST, CostModel, Cpu
from .filesystems import Ext4Sim, F2fsSim, KernelFilesystem, XfsSim, make_filesystem
from .interfaces import INTERFACES, IoInterface, IoUring, make_interface
from .page_cache import PAGE_SIZE, PageCache

__all__ = [
    "CostModel",
    "Cpu",
    "DEFAULT_COST",
    "BlockLayer",
    "PageCache",
    "PAGE_SIZE",
    "KernelFilesystem",
    "Ext4Sim",
    "XfsSim",
    "F2fsSim",
    "make_filesystem",
    "IoInterface",
    "IoUring",
    "INTERFACES",
    "make_interface",
]
