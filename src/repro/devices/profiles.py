"""Named device profiles matching the paper's Chameleon testbed.

The testbed (Section IV): Intel P3700 NVMe (2TB), Intel SSDSC2BX01 SATA SSD
(1.6TB), Seagate ST600MP0005 HDD (600GB), and bootloader-emulated PMEM.
Absolute numbers are calibrated so the *relative* results (Fig 4 anatomy
fractions, Fig 6 interface ordering, Fig 8 HOL blocking) reproduce; see
DESIGN.md "Calibration constants".

Capacities default to small simulation-friendly sizes; pass
``capacity_bytes`` for bigger runs (the backing store is sparse, so only
written pages cost memory).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..errors import LabStorError
from ..sim import Environment
from ..units import GiB, usec, msec
from .base import DeviceProfile
from .hdd import Hdd
from .nvme import Nvme
from .zns import ZnsNvme
from .pmem import Pmem
from .ssd import SataSsd

__all__ = [
    "DeviceSpec",
    "make_device",
]

NVME_P3700 = DeviceProfile(
    name="nvme",
    capacity_bytes=8 * GiB,
    nqueues=8,
    parallelism=8,
    read_lat_ns=usec(12.0),
    write_lat_ns=usec(14.0),
    read_bw=2.8e9,
    write_bw=2.0e9,
    flush_lat_ns=usec(10.0),
)

SATA_SSD_BX = DeviceProfile(
    name="ssd",
    capacity_bytes=8 * GiB,
    nqueues=1,
    parallelism=4,
    read_lat_ns=usec(55.0),
    write_lat_ns=usec(60.0),
    read_bw=0.55e9,
    write_bw=0.46e9,
    flush_lat_ns=usec(40.0),
)

HDD_ST600 = DeviceProfile(
    name="hdd",
    capacity_bytes=8 * GiB,
    nqueues=1,
    parallelism=1,
    read_lat_ns=usec(50.0),
    write_lat_ns=usec(50.0),
    read_bw=0.16e9,
    write_bw=0.15e9,
    flush_lat_ns=msec(1.0),
    seek_ns=msec(4.0),
)

ZNS_NVME = DeviceProfile(
    name="zns",
    capacity_bytes=8 * GiB,
    nqueues=8,
    parallelism=8,
    read_lat_ns=usec(12.0),
    write_lat_ns=usec(11.0),   # appends skip the FTL's mapping updates
    read_bw=2.8e9,
    write_bw=2.2e9,
    flush_lat_ns=usec(8.0),
)

PMEM_EMULATED = DeviceProfile(
    name="pmem",
    capacity_bytes=4 * GiB,
    nqueues=1,
    parallelism=1,
    read_lat_ns=300,
    write_lat_ns=350,
    read_bw=12e9,
    write_bw=8e9,
    flush_lat_ns=150,
)

PROFILES: dict[str, DeviceProfile] = {
    "nvme": NVME_P3700,
    "ssd": SATA_SSD_BX,
    "hdd": HDD_ST600,
    "pmem": PMEM_EMULATED,
    "zns": ZNS_NVME,
}

_CLASSES = {"nvme": Nvme, "ssd": SataSsd, "hdd": Hdd, "pmem": Pmem, "zns": ZnsNvme}

#: DeviceProfile fields a caller may override (``name`` is the profile key).
#: Kept sorted so validation errors list the valid keys in a stable,
#: scannable order regardless of dataclass field declaration order.
_OVERRIDABLE = tuple(sorted(
    f.name for f in dataclasses.fields(DeviceProfile) if f.name != "name"
))


def _validate_overrides(kind: str, overrides: dict) -> None:
    bad = sorted(set(overrides) - set(_OVERRIDABLE))
    if bad:
        raise LabStorError(
            f"unknown DeviceProfile override(s) {bad} for device kind {kind!r}; "
            f"valid keys: {list(_OVERRIDABLE)}"
        )


@dataclasses.dataclass(frozen=True)
class DeviceSpec:
    """A typed, validated recipe for one device of a LabStorSystem.

    The kind and every override key are checked at construction time, so
    a typo fails where it was written instead of silently building a
    default device.

    ::

        LabStorSystem(devices=[DeviceSpec("nvme", nqueues=16), "hdd"])
    """

    kind: str
    overrides: dict = dataclasses.field(default_factory=dict)

    def __init__(self, kind: str, **overrides) -> None:
        if kind not in PROFILES:
            raise LabStorError(
                f"unknown device kind {kind!r}; choose from {sorted(PROFILES)}"
            )
        _validate_overrides(kind, overrides)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "overrides", overrides)

    def build(self, env: Environment, rng: np.random.Generator | None = None):
        return make_device(env, self.kind, rng=rng, **self.overrides)


def make_device(
    env: Environment,
    kind: str,
    *,
    capacity_bytes: int | None = None,
    rng: np.random.Generator | None = None,
    **overrides,
):
    """Build a device of ``kind`` ('nvme' | 'ssd' | 'hdd' | 'pmem' | 'zns').

    ``overrides`` replace any :class:`DeviceProfile` field, e.g.
    ``make_device(env, "nvme", nqueues=16)``.  Unknown override keys raise
    :class:`~repro.errors.LabStorError` listing the valid keys.
    """
    try:
        profile = PROFILES[kind]
    except KeyError:
        raise ValueError(f"unknown device kind {kind!r}; choose from {sorted(PROFILES)}") from None
    _validate_overrides(kind, overrides)
    changes = dict(overrides)
    if capacity_bytes is not None:
        changes["capacity_bytes"] = capacity_bytes
    if changes:
        profile = dataclasses.replace(profile, **changes)
    return _CLASSES[kind](env, profile, rng)
