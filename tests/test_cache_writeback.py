"""Tests for the LRU cache's write-back policy."""

import pytest

from repro.core import LabRequest
from repro.core.labmod import ExecContext, ModContext
from repro.errors import LabStorError
from repro.kernel import DEFAULT_COST
from repro.mods.cache_lru import PAGE, LruCacheMod
from repro.mods.generic_fs import GenericFS
from repro.sim import Environment, Tracer
from repro.system import LabStorSystem
from repro.units import KiB


def make(policy="back", capacity_pages=16_384):
    sys_ = LabStorSystem(devices=("nvme",))
    spec = sys_.stack("fs::/wb").fs(variant="min").build()
    lru = next(n for n in spec.nodes if n.uuid.endswith("lru"))
    lru.attrs.update({"write_policy": policy, "capacity_pages": capacity_pages})
    stack = sys_.runtime.mount_stack(spec)
    lru_mod = next(m for u, m in stack.mods.items() if u.endswith("lru"))
    return sys_, GenericFS(sys_.client()), lru_mod


def run(sys_, gen):
    return sys_.run(sys_.process(gen))


def test_bad_policy_rejected():
    with pytest.raises(LabStorError, match="write_policy"):
        make(policy="sideways")


def test_writeback_absorbs_writes_no_device_io():
    sys_, gfs, lru = make()
    dev = sys_.devices["nvme"]

    def proc():
        fd = yield from gfs.open("fs::/wb/f", create=True)
        before = dev.bytes_written
        yield from gfs.write(fd, b"w" * (16 * KiB), offset=0)
        return dev.bytes_written - before

    assert run(sys_, proc()) == 0  # absorbed into dirty pages
    assert len(lru.pages.dirty) == 4


def test_writeback_faster_than_writethrough():
    def write_latency(policy):
        sys_, gfs, _ = make(policy=policy)

        def proc():
            fd = yield from gfs.open("fs::/wb/f", create=True)
            t0 = sys_.env.now
            yield from gfs.write(fd, b"w" * (16 * KiB), offset=0)
            return sys_.env.now - t0

        return run(sys_, proc())

    assert write_latency("back") < write_latency("through") / 2


def test_fsync_drains_dirty_pages_to_device():
    sys_, gfs, lru = make()
    dev = sys_.devices["nvme"]

    def proc():
        fd = yield from gfs.open("fs::/wb/f", create=True)
        yield from gfs.write(fd, b"d" * (16 * KiB), offset=0)
        before = dev.bytes_written
        yield from gfs.fsync(fd)
        return dev.bytes_written - before

    assert run(sys_, proc()) >= 16 * KiB
    assert len(lru.pages.dirty) == 0
    assert lru.writebacks >= 1


def test_read_your_own_dirty_writes():
    sys_, gfs, lru = make()

    def proc():
        fd = yield from gfs.open("fs::/wb/f", create=True)
        yield from gfs.write(fd, b"A" * (8 * KiB), offset=0)
        return (yield from gfs.read(fd, 8 * KiB, offset=0))

    assert run(sys_, proc()) == b"A" * (8 * KiB)


def test_dirty_page_wins_over_stale_device_on_partial_miss():
    """A read spanning dirty-cached and uncached pages overlays the cache."""
    sys_, gfs, lru = make()

    def proc():
        fd = yield from gfs.open("fs::/wb/f", create=True)
        # page 0 goes durable; page 1 stays dirty in cache only
        yield from gfs.write(fd, b"0" * (4 * KiB), offset=0)
        yield from gfs.fsync(fd)
        yield from gfs.write(fd, b"1" * (4 * KiB), offset=4 * KiB)
        # evict page 0 from the cache so the read partially misses
        first_key = next(iter(lru.pages))
        if first_key not in lru.pages.dirty:
            lru.pages.pop(first_key, None)
        data = yield from gfs.read(fd, 8 * KiB, offset=0)
        return data

    data = run(sys_, proc())
    assert data == b"0" * (4 * KiB) + b"1" * (4 * KiB)


def test_eviction_writes_back_dirty_pages():
    sys_, gfs, lru = make(capacity_pages=4)
    dev = sys_.devices["nvme"]

    def proc():
        fd = yield from gfs.open("fs::/wb/f", create=True)
        for i in range(8):  # 8 pages through a 4-page cache
            yield from gfs.write(fd, bytes([i]) * (4 * KiB), offset=i * 4 * KiB)
        return dev.bytes_written

    assert run(sys_, proc()) >= 4 * (4 * KiB)  # evicted dirty pages landed
    assert lru.writebacks >= 1


def test_crash_loses_unflushed_dirty_pages_by_design():
    sys_, gfs, lru = make()

    def proc():
        fd = yield from gfs.open("fs::/wb/f", create=True)
        yield from gfs.write(fd, b"X" * (4 * KiB), offset=0)
        lru.state_repair()  # runtime crash: cache dropped
        return (yield from gfs.read(fd, 4 * KiB, offset=0))

    # the un-fsynced write is gone — the durability trade of write-back
    assert run(sys_, proc()) == b"\x00" * (4 * KiB)


# --- partial pages: LruCacheMod straight into a recording device ------------
def _lru_into_disk(policy):
    env = Environment()
    lru = LruCacheMod("c0", ModContext(env, DEFAULT_COST, Tracer(), {},
                                       {"write_policy": policy}))
    disk = bytearray(4 * PAGE)

    class Disk:
        uuid = "disk"

        def handle(self, req, x):
            p = req.payload
            yield x.env.timeout(1)
            if req.op == "blk.write":
                disk[p["offset"]:p["offset"] + len(p["data"])] = p["data"]
            elif req.op == "blk.trim":
                disk[p["offset"]:p["offset"] + p["size"]] = bytes(p["size"])
            elif req.op == "blk.read":
                return bytes(disk[p["offset"]:p["offset"] + p["size"]])
            return None

    lru.next = [Disk()]
    x = ExecContext(env, Tracer())

    def io(op, **payload):
        return lru.handle(LabRequest(op=op, payload=payload), x)

    return env, io, disk


def test_unaligned_write_keeps_absorbed_bytes_of_a_partial_page():
    env, io, disk = _lru_into_disk("back")

    def proc():
        yield from io("blk.write", offset=0, data=b"A" * PAGE)  # absorbed
        yield from io("blk.write", offset=100, data=b"B" * 10)  # unaligned
        yield from io("blk.flush", offset=0, size=0)

    env.run(env.process(proc()))
    assert disk[:PAGE] == b"A" * 100 + b"B" * 10 + b"A" * (PAGE - 110)


def test_unaligned_trim_uncaches_every_page_it_touches():
    env, io, disk = _lru_into_disk("through")

    def proc():
        yield from io("blk.write", offset=0, data=b"C" * (2 * PAGE))
        yield from io("blk.trim", offset=100, size=PAGE)  # pages 0 and 1
        return (yield from io("blk.read", offset=PAGE, size=PAGE))

    assert env.run(env.process(proc())) == bytes(100) + b"C" * (PAGE - 100)
