"""A zoned-namespace append log through the ZNS Driver LabMod.

The paper's Driver LabMods expose storage APIs beyond block — "e.g.,
zoned namespace and queues".  The stack is mounted from LabStack YAML
text (the paper's deployment format) with the ZNS Driver LabMod at its
bottom; the program zone-appends records (the device assigns the
offsets), reads one back by the log's own index, and recycles the zone
with a reset — the contract a log-structured store exploits on real ZNS
hardware.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any

from ..units import usec
from .catalogue import Program, register

LOG_STACK = """
mount: blk::/log
labmods:
  - mod: ZnsDriverMod
    uuid: log.drv
    attrs:
      device: zns
"""


class ZnsLogProgram(Program):
    default_pause_ns = int(usec(60))
    nrecords = 16

    def build(self, env) -> SimpleNamespace:
        from ..system import LabStorSystem

        system = LabStorSystem(env=env, seed=self.seed, devices=("zns",))
        stack = system.runtime.mount_stack(LOG_STACK)
        records = [f"rec-{self.seed}-{i:03d}|".encode() * 400
                   for i in range(self.nrecords)]
        return SimpleNamespace(system=system, stack=stack, client=system.client(),
                               device=system.devices["zns"], records=records)

    def drive(self, ctx):
        from ..core import LabRequest

        client, stack = ctx.client, ctx.stack

        def go():
            index = []  # (offset, size) of each record: the log's own index
            for rec in ctx.records:
                offset = yield from client.call(stack, LabRequest(
                    op="blk.append", payload={"zone": 0, "data": rec}))
                index.append((offset, len(rec)))
            offset, size = index[7]
            data = yield from client.call(stack, LabRequest(
                op="blk.read", payload={"offset": offset, "size": size}))
            yield from client.call(stack, LabRequest(
                op="blk.reset_zone", payload={"zone": 0}))
            return index, data

        return ctx.system.process(go())

    def finish(self, ctx, value) -> dict[str, Any]:
        from ..devices import ZoneState

        index, data = value
        dev = ctx.device
        assert data == ctx.records[7], "zone-appended record read back wrong"
        assert [off for off, _ in index] == sorted(off for off, _ in index)
        assert dev.zones[0].state is ZoneState.EMPTY and dev.zones[0].wp == 0
        return {"appends": dev.appends, "resets": dev.resets,
                "log_bytes": sum(size for _, size in index),
                "stats": ctx.system.runtime.stats()}


register("zns", serial=ZnsLogProgram)
