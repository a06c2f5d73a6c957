"""Layered copy-on-write snapshot/restore of the whole simulated system.

Two snapshot flavors, one substrate:

- :class:`~repro.snap.state.SystemSnapshot` — a *quiescent* capture of
  durable state (device pages as COW layer references, per-LabMod state
  via ``on_snapshot()``, RNG stream positions, metrics counters).  It
  restores into a **fresh** system and powers warm-started sweeps.
- :class:`~repro.snap.replay.ReplaySnapshot` — a *mid-flight* capture at
  a virtual timestamp T.  Generators cannot be pickled, so restore
  replays the deterministic program (a :mod:`repro.scenarios`
  ``Program``) from t=0 to T, verifies state digests match the capture,
  then continues on the exact original timeline (``repro.sim.check``
  digests of the suffix are byte-identical to an unbroken run).
"""

from .layers import SnapshotLayer, SnapshotStack
from .replay import ReplaySnapshot, restore_run, snapshot_run, straight_run
from .state import SystemSnapshot

__all__ = [
    "SnapshotLayer",
    "SnapshotStack",
    "SystemSnapshot",
    "ReplaySnapshot",
    "straight_run",
    "snapshot_run",
    "restore_run",
]
