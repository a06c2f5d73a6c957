"""Filebench personalities: varmail, webserver, webproxy, fileserver.

Faithful-in-shape ports of the four default Filebench workloads the
paper's Fig 9(c) runs, parameterized to simulation scale.  Each
personality is an operation mix over a pre-created fileset, driven
through the uniform FsApi adapter so the same code measures ext4/xfs/f2fs
and every LabStor variant.

Default mixes (from the filebench-1.4.9.1 definitions, scaled):

- **varmail**: mail-server — create+append+fsync, read+append+fsync,
  whole-file read, delete; 16KB mean I/O.
- **webserver**: open+read whole file (x10) then append 16KB to a log.
- **webproxy**: create+write, delete, then 5 whole-file reads.
- **fileserver**: create+write 128KB appends, whole-file read, delete;
  1MB files — bandwidth-bound (the case where LabStor gains little).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sim import Environment
from ..units import KiB, MiB, sec

__all__ = ["run_personality", "PERSONALITIES"]


@dataclass
class PersonalityDef:
    name: str
    nfiles: int
    mean_file_size: int
    io_size: int
    ops_per_loop: int  # accounting: filebench counts each op


@dataclass
class FilebenchResult:
    name: str
    ops: int
    elapsed_ns: int
    bytes_moved: int

    @property
    def ops_per_sec(self) -> float:
        return self.ops / (self.elapsed_ns / sec(1)) if self.elapsed_ns else 0.0

    @property
    def throughput_MBps(self) -> float:
        return self.bytes_moved / 1e6 / (self.elapsed_ns / sec(1)) if self.elapsed_ns else 0.0


PERSONALITIES = {
    "varmail": PersonalityDef("varmail", nfiles=64, mean_file_size=16 * KiB,
                              io_size=16 * KiB, ops_per_loop=16),
    "webserver": PersonalityDef("webserver", nfiles=64, mean_file_size=16 * KiB,
                                io_size=16 * KiB, ops_per_loop=21),
    "webproxy": PersonalityDef("webproxy", nfiles=64, mean_file_size=16 * KiB,
                               io_size=16 * KiB, ops_per_loop=13),
    "fileserver": PersonalityDef("fileserver", nfiles=16, mean_file_size=1 * MiB,
                                 io_size=128 * KiB, ops_per_loop=10),
}


def _payload(size: int, rng: np.random.Generator) -> bytes:
    return bytes(rng.integers(0, 64, size, dtype=np.uint8) + 32)


def _prefill(env: Environment, api, pdef: PersonalityDef, tid: int, rng) -> list[str]:
    files = []

    def fill():
        for i in range(pdef.nfiles):
            path = f"/fb{tid}/p{i}"
            fd = yield from api.open(path, create=True)
            yield from api.write(fd, _payload(pdef.mean_file_size, rng), offset=0)
            yield from api.close(fd)
            files.append(path)

    env.run(env.process(fill()))
    return files


def _varmail_loop(api, pdef, tid, i, files, rng, stats):
    # delete + create/append/fsync + read/append/fsync + whole read
    victim = files[i % len(files)]
    yield from api.unlink(victim)
    stats["ops"] += 1
    fd = yield from api.open(victim, create=True)
    data = _payload(pdef.io_size, rng)
    yield from api.write(fd, data)
    yield from api.fsync(fd)
    yield from api.close(fd)
    stats["ops"] += 4
    stats["bytes"] += len(data)
    fd = yield from api.open(victim)
    got = yield from api.read(fd, pdef.io_size, offset=0)
    yield from api.write(fd, _payload(pdef.io_size, rng))
    yield from api.fsync(fd)
    yield from api.close(fd)
    stats["ops"] += 5
    stats["bytes"] += len(got) + pdef.io_size
    fd = yield from api.open(victim)
    got = yield from api.read(fd, 2 * pdef.io_size, offset=0)
    yield from api.close(fd)
    stats["ops"] += 3
    stats["bytes"] += len(got)


def _webserver_loop(api, pdef, tid, i, files, rng, stats):
    for k in range(10):
        path = files[(i * 10 + k) % len(files)]
        fd = yield from api.open(path)
        got = yield from api.read(fd, pdef.mean_file_size, offset=0)
        yield from api.close(fd)
        stats["ops"] += 2
        stats["bytes"] += len(got)
    logfd = yield from api.open(f"/fb{tid}/weblog", create=True)
    data = _payload(pdef.io_size, rng)
    yield from api.write(logfd, data)
    yield from api.close(logfd)
    stats["ops"] += 1
    stats["bytes"] += len(data)


def _webproxy_loop(api, pdef, tid, i, files, rng, stats):
    victim = files[i % len(files)]
    yield from api.unlink(victim)
    fd = yield from api.open(victim, create=True)
    data = _payload(pdef.io_size, rng)
    yield from api.write(fd, data)
    yield from api.close(fd)
    stats["ops"] += 5
    stats["bytes"] += len(data)
    for k in range(5):
        path = files[(i * 5 + k) % len(files)]
        fd = yield from api.open(path)
        got = yield from api.read(fd, pdef.mean_file_size, offset=0)
        yield from api.close(fd)
        stats["ops"] += 2
        stats["bytes"] += len(got)


def _fileserver_loop(api, pdef, tid, i, files, rng, stats):
    path = f"/fb{tid}/new{i}"
    fd = yield from api.open(path, create=True)
    written = 0
    while written < pdef.mean_file_size:
        data = _payload(pdef.io_size, rng)
        yield from api.write(fd, data)
        written += len(data)
        stats["ops"] += 1
    yield from api.close(fd)
    stats["bytes"] += written
    victim = files[i % len(files)]
    fd = yield from api.open(victim)
    got = yield from api.read(fd, pdef.mean_file_size, offset=0)
    yield from api.close(fd)
    stats["ops"] += 4
    stats["bytes"] += len(got)
    yield from api.unlink(path)
    stats["ops"] += 1


_LOOPS = {
    "varmail": _varmail_loop,
    "webserver": _webserver_loop,
    "webproxy": _webproxy_loop,
    "fileserver": _fileserver_loop,
}


def run_personality(
    env: Environment,
    api_factory,
    name: str,
    *,
    nthreads: int = 4,
    loops: int = 8,
    seed: int = 0,
) -> FilebenchResult:
    """Run a personality; ``api_factory(tid)`` builds each thread's FsApi."""
    pdef = PERSONALITIES[name]
    loop_fn = _LOOPS[name]
    rng = np.random.default_rng(seed)
    apis = [api_factory(t) for t in range(nthreads)]
    filesets = [_prefill(env, api, pdef, t, rng) for t, api in enumerate(apis)]
    stats = {"ops": 0, "bytes": 0}

    def worker(tid, api, files):
        thread_rng = np.random.default_rng(seed * 7919 + tid)
        for i in range(loops):
            yield from loop_fn(api, pdef, tid, i, files, thread_rng, stats)

    start = env.now
    procs = [env.process(worker(t, api, fs)) for t, (api, fs) in enumerate(zip(apis, filesets))]
    env.run(env.all_of(procs))
    return FilebenchResult(name=name, ops=stats["ops"], elapsed_ns=env.now - start,
                           bytes_moved=stats["bytes"])
