"""LabKVS put/get churn through the Runtime's workers."""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any

from ..units import usec
from .catalogue import Program, register


class KvsProgram(Program):
    default_pause_ns = int(usec(800))

    def build(self, env) -> SimpleNamespace:
        from ..mods.generic_kvs import GenericKVS
        from ..system import LabStorSystem

        system = LabStorSystem(env=env, seed=self.seed, devices=("nvme",))
        system.mount_kvs_stack("kvs::/x", variant="all")
        return SimpleNamespace(system=system,
                               kvs=GenericKVS(system.client(), "kvs::/x"))

    def drive(self, ctx):
        kvs = ctx.kvs

        def go():
            for i in range(48):
                yield from kvs.put(f"key{i % 12}", bytes([i % 251]) * (64 + 16 * (i % 7)))
            hits = 0
            for i in range(12):
                if (yield from kvs.get(f"key{i}")) is not None:
                    hits += 1
            return hits

        return ctx.system.process(go())

    def finish(self, ctx, value) -> dict[str, Any]:
        assert value == 12, f"kvs round-trip lost keys ({value}/12)"
        return {"hits": value}


register("kvs", serial=KvsProgram)
