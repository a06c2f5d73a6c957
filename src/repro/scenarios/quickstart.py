"""The README quickstart: mount Lab-All, write + read one file."""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any

from ..units import usec
from .catalogue import Program, register


class QuickstartProgram(Program):
    default_pause_ns = int(usec(80))

    def build(self, env) -> SimpleNamespace:
        from ..mods.generic_fs import GenericFS
        from ..system import LabStorSystem

        system = LabStorSystem(env=env, seed=self.seed, devices=("nvme",))
        system.mount_fs_stack("fs::/demo", variant="all")
        gfs = GenericFS(system.client())
        payload = b"determinism is a feature " * 160  # ~4KB
        return SimpleNamespace(system=system, gfs=gfs, payload=payload)

    def drive(self, ctx):
        gfs, payload = ctx.gfs, ctx.payload

        def go():
            fd = yield from gfs.open("fs::/demo/hello.txt", create=True)
            yield from gfs.write(fd, payload, offset=0)
            data = yield from gfs.read(fd, len(payload), offset=0)
            yield from gfs.fsync(fd)
            yield from gfs.close(fd)
            return data

        return ctx.system.process(go())

    def finish(self, ctx, value) -> dict[str, Any]:
        assert value == ctx.payload, "quickstart round-trip mismatch"
        return {"bytes": len(ctx.payload), "stats": ctx.system.runtime.stats()}


register("quickstart", serial=QuickstartProgram)
