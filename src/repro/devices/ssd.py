"""SATA SSD model: single submission queue (AHCI/NCQ), flash parallelism."""

from __future__ import annotations

import numpy as np

from ..sim import Environment
from .base import BlockDevice, DeviceProfile

__all__ = []


class SataSsd(BlockDevice):
    """A SATA SSD: one host-visible queue, several internal flash channels.

    NCQ allows the drive to service a handful of commands concurrently
    (``profile.parallelism``), but all submissions share a single hctx —
    the root of the SATA scalability wall relative to NVMe.
    """

    def __init__(
        self,
        env: Environment,
        profile: DeviceProfile,
        rng: np.random.Generator | None = None,
    ) -> None:
        if profile.nqueues != 1:
            raise ValueError("SATA SSD model requires a single hardware queue")
        super().__init__(env, profile, rng)
