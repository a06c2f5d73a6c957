"""YCSB-style workload family over :class:`repro.mods.generic_kvs.GenericKVS`.

The classic cloud-serving mixes, adapted to the open-loop engine: each op
is an independent process generator (read / update / read-modify-write)
against Zipf-popular keys, so the engine can launch them at arrival times
without waiting for completions.

Mixes (fractions of read / update / read-modify-write):

- **A** — update heavy (50/50): session stores.
- **B** — read mostly (95/5): photo tagging.
- **C** — read only (100/0): profile caches.
- **F** — read-modify-write (50/0/50): user database.

This family rides *alongside* the closed-loop fio/fxmark/filebench
harnesses in :mod:`repro.workloads` — same system underneath, different
loop discipline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mods.generic_kvs import GenericKVS
from .keys import ZipfKeys

__all__ = ["YcsbMix", "YcsbWorkload"]


@dataclass(frozen=True)
class YcsbMix:
    """Operation fractions of one YCSB workload letter (must sum to 1)."""

    name: str
    read: float
    update: float
    rmw: float = 0.0

    def __post_init__(self) -> None:
        total = self.read + self.update + self.rmw
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mix {self.name!r} fractions sum to {total}, not 1")


YCSB_MIXES = {
    "A": YcsbMix("A", read=0.50, update=0.50),
    "B": YcsbMix("B", read=0.95, update=0.05),
    "C": YcsbMix("C", read=1.00, update=0.00),
    "F": YcsbMix("F", read=0.50, update=0.00, rmw=0.50),
}


class YcsbWorkload:
    """Op factory for one tenant: Zipf keys, mix-weighted op types.

    ``make_op(rng)`` returns a fresh process generator; every random choice
    (key, op type) draws from the caller's stream, so a tenant's op
    sequence is a pure function of its seeded RNG.
    """

    def __init__(self, kvs: GenericKVS, *, mix: "YcsbMix | str" = "A",
                 keys: ZipfKeys | None = None, nkeys: int = 1024,
                 theta: float = 0.99, value_size: int = 256) -> None:
        self.kvs = kvs
        self.mix = YCSB_MIXES[mix] if isinstance(mix, str) else mix
        self.keys = keys if keys is not None else ZipfKeys(nkeys, theta)
        self.value_size = int(value_size)
        self.counts = {"read": 0, "update": 0, "rmw": 0}

    # ------------------------------------------------------------------
    def key(self, idx: int) -> str:
        return f"user{idx}"

    def value(self, idx: int) -> bytes:
        # key-derived payload: reads can be verified against it
        return bytes([idx % 251]) * self.value_size

    def preload(self):
        """Process generator: insert every key once (the YCSB load phase)."""
        for i in range(self.keys.nkeys):
            yield from self.kvs.put(self.key(i), self.value(i))

    # ------------------------------------------------------------------
    def make_op(self, rng: np.random.Generator):
        """Draw one op from the mix; returns an unstarted process generator."""
        idx = self.keys.sample(rng)
        r = rng.random()
        m = self.mix
        if r < m.read:
            return self._read(self.key(idx))
        if r < m.read + m.update:
            return self._update(idx)
        return self._rmw(idx)

    def _read(self, key: str):
        self.counts["read"] += 1
        return (yield from self.kvs.get(key))

    def _update(self, idx: int):
        self.counts["update"] += 1
        return (yield from self.kvs.put(self.key(idx), self.value(idx)))

    def _rmw(self, idx: int):
        self.counts["rmw"] += 1
        yield from self.kvs.get(self.key(idx))
        return (yield from self.kvs.put(self.key(idx), self.value(idx)))

    def __repr__(self) -> str:
        return (f"<YcsbWorkload mix={self.mix.name} keys={self.keys.nkeys} "
                f"theta={self.keys.theta} value={self.value_size}B>")
