"""Rotational disk model: single dispatch queue, seek-dominated service."""

from __future__ import annotations

import numpy as np

from ..errors import DeviceError
from ..sim import Environment
from .base import BlockDevice, DeviceProfile

__all__ = []


class Hdd(BlockDevice):
    """A SATA/SAS hard disk.

    Single hardware queue and no internal parallelism, so queueing at the
    device is strictly FIFO; service time is dominated by the seek model
    in :meth:`BlockDevice._seek_frac` (sequential streams pay ~2% of the
    average seek, random 4KB accesses pay 25–100% of it).
    """

    def __init__(
        self,
        env: Environment,
        profile: DeviceProfile,
        rng: np.random.Generator | None = None,
    ) -> None:
        if profile.nqueues != 1 or profile.parallelism != 1:
            raise DeviceError("HDD model requires nqueues=1, parallelism=1", device=profile.name)
        if profile.seek_ns <= 0:
            raise DeviceError("HDD profile needs a positive seek_ns", device=profile.name)
        super().__init__(env, profile, rng)
