"""FIO-style synthetic I/O workload generator.

Drives any *block engine* — a kernel I/O interface (posix / libaio /
io_uring / posix_aio) against a raw device file, or a LabStor LabStack —
with the classic FIO knobs: block size, read/write mix, random/sequential
offsets, I/O depth, and job (thread) count.  Reports IOPS, bandwidth and
latency percentiles, matching the measurements of the paper's Fig 6 /
Fig 5(a) / Fig 8 experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from ..core.client import LabStorClient
from ..core.labstack import LabStack
from ..core.requests import LabRequest
from ..devices.base import IoOp
from ..kernel.interfaces import IoInterface
from ..sim import Environment, LatencyRecorder
from ..units import sec

__all__ = ["RawDeviceEngine", "LabStackEngine", "FioJob", "FioResult", "run_fio"]


class BlockEngine(Protocol):
    """Anything that can service one block I/O as a process generator."""

    def submit(self, op: IoOp, offset: int, size: int, data: bytes | None, core: int):
        ...

    @property
    def capacity_bytes(self) -> int:
        ...


class RawDeviceEngine:
    """O_DIRECT to a device file through a kernel interface."""

    def __init__(self, interface: IoInterface) -> None:
        self.interface = interface

    @property
    def capacity_bytes(self) -> int:
        return self.interface.device.profile.capacity_bytes

    def submit(self, op: IoOp, offset: int, size: int, data: bytes | None, core: int):
        return self.interface.submit(op, offset, size, data, core=core)


class LabStackEngine:
    """Block I/O through a mounted LabStack (driver-only or full stacks)."""

    def __init__(self, client: LabStorClient, stack: LabStack, device) -> None:
        self.client = client
        self.stack = stack
        self.device = device

    @property
    def capacity_bytes(self) -> int:
        return self.device.profile.capacity_bytes

    def submit(self, op: IoOp, offset: int, size: int, data: bytes | None, core: int):
        payload = {"offset": offset, "size": size, "origin_core": core}
        if data is not None:
            payload["data"] = data
        req = LabRequest(op=f"blk.{op.value}", payload=payload)
        return self.client.call(self.stack, req)


@dataclass
class FioJob:
    """One fio job definition (the paper's per-thread workload)."""

    rw: str = "randwrite"        # randwrite | randread | write | read
    bs: int = 4096               # block size
    nops: int = 1000             # I/Os per job
    iodepth: int = 1
    core: int = 0                # originating core (NoOp scheduler key)
    region_offset: int = 0       # restrict I/O to [offset, offset+region_size)
    region_size: int | None = None

    def offsets(self, capacity: int, rng: np.random.Generator):
        region = self.region_size or (capacity - self.region_offset)
        nblocks = max(1, region // self.bs)
        if self.rw.startswith("rand"):
            idx = rng.integers(0, nblocks, size=self.nops)
        else:
            idx = np.arange(self.nops) % nblocks
        return self.region_offset + idx * self.bs

    @property
    def is_write(self) -> bool:
        return "write" in self.rw


@dataclass
class FioResult:
    ops: int = 0
    bytes_moved: int = 0
    elapsed_ns: int = 0
    latency: LatencyRecorder = field(default_factory=lambda: LatencyRecorder(reservoir=20_000))

    @property
    def iops(self) -> float:
        return self.ops / (self.elapsed_ns / sec(1)) if self.elapsed_ns else 0.0

    @property
    def bandwidth(self) -> float:
        """bytes/second"""
        return self.bytes_moved / (self.elapsed_ns / sec(1)) if self.elapsed_ns else 0.0

    def summary(self) -> dict:
        lat = self.latency.summary()
        return {
            "iops": self.iops,
            "bw_MBps": self.bandwidth / 1e6,
            "lat_mean_us": lat["mean"] / 1000,
            "lat_p99_us": lat["p99"] / 1000,
            "ops": self.ops,
        }


def one(env: Environment, gen, start: int, result: "FioResult", bs: int):
    """Wrap one engine.submit generator to record completion latency.

    Named ``one`` (not ``_one_io``): the generator's __name__ becomes the
    process name, which the audit digest hashes via ``san.step`` — renaming
    it would shift every recorded digest.
    """
    yield from gen
    result.latency.add(env._now - start)
    result.ops += 1
    result.bytes_moved += bs


def _job_proc(env: Environment, engine: BlockEngine, job: FioJob,
              rng: np.random.Generator, result: FioResult, payload: bytes):
    # tolist() up front: iterating the ndarray itself boxes one np.int64
    # per element on the hot submit loop
    offsets = job.offsets(engine.capacity_bytes, rng).tolist()
    op = IoOp.WRITE if job.is_write else IoOp.READ
    bs = job.bs
    data = payload if job.is_write else None
    core = job.core
    iodepth = job.iodepth
    inflight: list = []
    for off in offsets:
        gen = engine.submit(op, off, bs, data, core)
        inflight.append(env.process(one(env, gen, env._now, result, bs)))
        if len(inflight) >= iodepth:
            # qd semantics: wait for the oldest outstanding I/O.  Popped
            # inline so this frame drops its reference before the yield and
            # a finished process is freed at once.
            yield inflight.pop(0)
    while inflight:
        yield inflight.pop(0)


def run_fio(env: Environment, engine: BlockEngine, jobs: list[FioJob],
            seed: int = 0) -> FioResult:
    """Run all jobs to completion; returns the aggregate result.

    The caller drives the environment: this schedules the job processes
    and runs the env until they finish.
    """
    result = FioResult()
    rng = np.random.default_rng(seed)
    start = env.now
    procs = []
    for i, job in enumerate(jobs):
        payload = ((np.arange(job.bs) + i) % 251).astype(np.uint8).tobytes() if job.is_write else b""
        job_rng = np.random.default_rng(rng.integers(0, 2**63))
        procs.append(env.process(_job_proc(env, engine, job, job_rng, result, payload)))
    env.run(env.all_of(procs))
    result.elapsed_ns = env.now - start
    return result
