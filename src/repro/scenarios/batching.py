"""The "batching" scenario: the vectored fast path end to end."""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any

from ..units import usec
from .catalogue import Program, register


class BatchingProgram(Program):
    """Vectored writev/readv waves ride Client.submit_batch through
    worker batch-pop, BatchSchedMod merging and device-level coalescing,
    so every batch-conservation invariant (san.qp batch counters +
    san.batch settle records) gets exercised."""

    default_pause_ns = int(usec(120))

    def build(self, env) -> SimpleNamespace:
        from ..core import RuntimeConfig
        from ..devices.profiles import DeviceSpec
        from ..mods.generic_fs import GenericFS
        from ..system import LabStorSystem

        system = LabStorSystem(
            env=env,
            seed=self.seed,
            devices=(DeviceSpec("nvme", coalesce_max=8, coalesce_window_ns=2000),),
            config=RuntimeConfig(nworkers=1, worker_batch_max=8),
        )
        (system.stack("fs::/batch")
         .fs(variant="all")
         .sched("BatchSchedMod", window_ns=10_000, batch_max=8)
         .mount())
        gfs = GenericFS(system.client())
        return SimpleNamespace(system=system, gfs=gfs)

    def _chunk(self, wave: int, i: int) -> bytes:
        return bytes([(wave * 16 + i + self.seed) % 251]) * 4096

    def drive(self, ctx):
        system, gfs = ctx.system, ctx.gfs

        def go():
            fd = yield from gfs.open("fs::/batch/vec.dat", create=True)
            total = 0
            for wave in range(4):
                bufs = [self._chunk(wave, i) for i in range(8)]
                counts = yield from gfs.writev(fd, bufs, offset=wave * 8 * 4096)
                total += sum(counts)
            yield from gfs.fsync(fd)
            chunks = yield from gfs.readv(fd, [4096] * 32, offset=0)
            yield from gfs.close(fd)
            return total, chunks

        return system.process(go())

    def finish(self, ctx, value) -> dict[str, Any]:
        system = ctx.system
        total, chunks = value
        assert total == 32 * 4096, f"writev short ({total} bytes)"
        for wave in range(4):
            for i in range(8):
                want = self._chunk(wave, i)
                assert chunks[wave * 8 + i] == want, f"readv mismatch at chunk {wave * 8 + i}"
        sched = system.runtime.namespace.resolve("fs::/batch")[0].mods["s1.sched"]
        dev = system.devices["nvme"]
        assert sched.merged_ops > 0, "BatchSchedMod never merged"
        return {
            "bytes": total,
            "merged_groups": sched.merged_groups,
            "merged_ops": sched.merged_ops,
            "coalesced_groups": dev.coalesced_groups,
            "coalesced_ops": dev.coalesced_ops,
        }


register("batching", serial=BatchingProgram)
