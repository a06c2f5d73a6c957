"""LABIOS worker I/O patterns (paper Fig 9(b)).

LABIOS is a distributed object store whose workers persist *labels*.
On a filesystem backend each label write costs the POSIX sequence
fopen + fseek + fwrite + fclose (4 syscalls); on LabKVS it is a single
put.  This module generates the label stream and drives either backend.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mods.generic_kvs import GenericKVS
from ..sim import Environment
from ..units import sec

__all__ = ["run_labios_fs", "run_labios_kvs"]


@dataclass
class LabiosResult:
    labels: int
    bytes_moved: int
    elapsed_ns: int

    @property
    def throughput_MBps(self) -> float:
        return self.bytes_moved / 1e6 / (self.elapsed_ns / sec(1)) if self.elapsed_ns else 0.0

    @property
    def labels_per_sec(self) -> float:
        return self.labels / (self.elapsed_ns / sec(1)) if self.elapsed_ns else 0.0


def _label_payload(size: int, rng: np.random.Generator) -> bytes:
    return bytes(rng.integers(0, 96, size, dtype=np.uint8) + 32)


def run_labios_fs(env: Environment, api, *, nlabels: int, label_size: int = 8192,
                  nfiles: int = 64, seed: int = 0) -> LabiosResult:
    """Labels translated to UNIX files.

    LABIOS overwrites label files in place — each label write triggers the
    fopen/fseek/fwrite(+persist)/fclose sequence on an existing file (the
    paper: "Each label write triggers a sequence of POSIX calls").  The
    fileset is pre-created outside the measured window.
    """
    rng = np.random.default_rng(seed)

    def prefill():
        for i in range(nfiles):
            fd = yield from api.open(f"/labios/label_{i}", create=True)
            yield from api.write(fd, b"\x00" * label_size, offset=0)
            yield from api.fsync(fd)
            yield from api.close(fd)

    env.run(env.process(prefill()))

    def worker():
        for i in range(nlabels):
            payload = _label_payload(label_size, rng)
            fd = yield from api.open(f"/labios/label_{i % nfiles}")
            yield from api.seek(fd, 0)
            yield from api.write(fd, payload)
            yield from api.fsync(fd)  # the worker acks durable labels
            yield from api.close(fd)

    start = env.now
    env.run(env.process(worker()))
    return LabiosResult(labels=nlabels, bytes_moved=nlabels * label_size,
                        elapsed_ns=env.now - start)


def run_labios_kvs(env: Environment, kvs: GenericKVS, *, nlabels: int,
                   label_size: int = 8192, seed: int = 0) -> LabiosResult:
    """Labels stored natively: one put per label."""
    rng = np.random.default_rng(seed)

    def worker():
        for i in range(nlabels):
            payload = _label_payload(label_size, rng)
            yield from kvs.put(f"label_{i}", payload)

    start = env.now
    env.run(env.process(worker()))
    return LabiosResult(labels=nlabels, bytes_moved=nlabels * label_size,
                        elapsed_ns=env.now - start)
