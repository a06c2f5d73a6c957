"""Shared builders for the experiment harnesses.

Each experiment needs the same ingredients in different mixes: a kernel
filesystem on a device, or a LabStor system with one of the canonical
stack variants and per-thread clients.  These helpers keep the
per-experiment modules declarative.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.runtime import RuntimeConfig
from ..devices.profiles import make_device
from ..kernel import make_filesystem
from ..mods.generic_fs import GenericFS
from ..mods.generic_kvs import GenericKVS
from ..sim import RngRegistry
from ..system import LabStorSystem
from ..workloads.fsapi import GenericFsAdapter, KernelFsAdapter

__all__ = [
    "kernel_fs_api",
    "LabFsFixture",
    "LabKvsFixture",
]

KERNEL_FSES = ("ext4", "xfs", "f2fs")
LAB_VARIANTS = ("all", "min", "d")


def kernel_fs_api(env, device: str = "nvme", fs_name: str = "ext4", *,
                  seed: int = 0, **fs_kw) -> KernelFsAdapter:
    """FsApi over a kernel-FS baseline on its own seeded device."""
    dev = make_device(env, device,
                      rng=RngRegistry(seed).stream(f"device.{device}"))
    return KernelFsAdapter(make_filesystem(fs_name, env, dev, **fs_kw))


@dataclass
class LabFsFixture:
    """A LabStor system with one LabFS stack and per-thread GenericFS APIs."""

    system: LabStorSystem
    mount: str

    @classmethod
    def build(cls, env, config: RuntimeConfig, *, variant: str = "all",
              device: str = "nvme", mount: str = "fs::/x",
              seed: int = 0) -> "LabFsFixture":
        sys_ = LabStorSystem(env=env, seed=seed, devices=(device,), config=config)
        sys_.stack(mount).fs(variant=variant).device(device).mount()
        return cls(system=sys_, mount=mount)

    def api_factory(self):
        """Per-thread FsApi factory (one client per tid)."""
        cache: dict[int, GenericFsAdapter] = {}

        def factory(tid: int) -> GenericFsAdapter:
            if tid not in cache:
                cache[tid] = GenericFsAdapter(GenericFS(self.system.client()), self.mount)
            return cache[tid]

        return factory


@dataclass
class LabKvsFixture:
    system: LabStorSystem
    mount: str

    @classmethod
    def build(cls, env, *, variant: str = "all", device: str = "nvme",
              mount: str = "kvs::/x", seed: int = 0) -> "LabKvsFixture":
        sys_ = LabStorSystem(env=env, seed=seed, devices=(device,),
                             config=RuntimeConfig(nworkers=1))
        sys_.stack(mount).kvs(variant=variant).device(device).mount()
        return cls(system=sys_, mount=mount)

    def kvs(self) -> GenericKVS:
        return GenericKVS(self.system.client(), self.mount)
