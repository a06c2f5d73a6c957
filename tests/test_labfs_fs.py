"""Integration tests for LabFS through full LabStacks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FsError, PermissionDenied
from repro.mods.generic_fs import GenericFS
from repro.system import LabStorSystem
from repro.units import KiB


def make(variant="min", device="nvme"):
    sys_ = LabStorSystem(devices=(device,))
    sys_.mount_fs_stack("fs::/t", variant=variant, device=device)
    client = sys_.client()
    return sys_, GenericFS(client)


def run(sys_, gen):
    return sys_.run(sys_.process(gen))


@pytest.mark.parametrize("variant", ["all", "min", "d"])
def test_write_read_roundtrip_all_variants(variant):
    sys_, gfs = make(variant)
    payload = b"labstor data " * 1000

    def proc():
        yield from gfs.write_file("fs::/t/file.bin", payload)
        return (yield from gfs.read_file("fs::/t/file.bin"))

    assert run(sys_, proc()) == payload


def test_unaligned_overwrite_preserves_neighbors():
    sys_, gfs = make()

    def proc():
        fd = yield from gfs.open("fs::/t/f", create=True)
        yield from gfs.write(fd, b"A" * 10_000, offset=0)
        yield from gfs.write(fd, b"B" * 100, offset=5000)
        return (yield from gfs.read(fd, 10_000, offset=0))

    data = run(sys_, proc())
    assert data[:5000] == b"A" * 5000
    assert data[5000:5100] == b"B" * 100
    assert data[5100:] == b"A" * 4900


def test_sparse_write_reads_zeros_in_hole():
    sys_, gfs = make()

    def proc():
        fd = yield from gfs.open("fs::/t/sparse", create=True)
        yield from gfs.write(fd, b"end", offset=20_000)
        return (yield from gfs.read(fd, 20_003, offset=0))

    data = run(sys_, proc())
    assert data[:20_000] == b"\x00" * 20_000
    assert data[20_000:] == b"end"


def test_read_past_eof_truncated():
    sys_, gfs = make()

    def proc():
        fd = yield from gfs.open("fs::/t/short", create=True)
        yield from gfs.write(fd, b"12345", offset=0)
        return (yield from gfs.read(fd, 4096, offset=0))

    assert run(sys_, proc()) == b"12345"


def test_sequential_positioned_io():
    sys_, gfs = make()

    def proc():
        fd = yield from gfs.open("fs::/t/seq", create=True)
        yield from gfs.write(fd, b"aaa")
        yield from gfs.write(fd, b"bbb")
        yield from gfs.seek(fd, 0)
        return (yield from gfs.read(fd, 6))

    assert run(sys_, proc()) == b"aaabbb"


def test_create_unlink_recreate():
    sys_, gfs = make()

    def proc():
        yield from gfs.write_file("fs::/t/x", b"one")
        yield from gfs.unlink("fs::/t/x")
        st_err = None
        try:
            yield from gfs.stat("fs::/t/x")
        except FsError as e:
            st_err = e.errno_name
        yield from gfs.write_file("fs::/t/x", b"two")
        data = yield from gfs.read_file("fs::/t/x")
        return st_err, data

    st_err, data = run(sys_, proc())
    assert st_err == "ENOENT"
    assert data == b"two"


def test_rename_moves_data():
    sys_, gfs = make()

    def proc():
        yield from gfs.write_file("fs::/t/a", b"payload")
        yield from gfs.rename("fs::/t/a", "fs::/t/b")
        return (yield from gfs.read_file("fs::/t/b"))

    assert run(sys_, proc()) == b"payload"


def test_unlink_frees_blocks_for_reuse():
    sys_, gfs = make()
    labfs = sys_.runtime.registry.get(
        next(u for u in sys_.runtime.registry.uuids() if u.endswith("labfs"))
    )

    def proc():
        yield from gfs.write_file("fs::/t/big", b"z" * (64 * KiB))
        before = labfs.allocator.free_count()
        yield from gfs.unlink("fs::/t/big")
        after = labfs.allocator.free_count()
        return before, after

    before, after = run(sys_, proc())
    assert after == before + 16  # 64KiB / 4KiB blocks returned


def test_permissions_mod_denies_unauthorized_uid():
    sys_, gfs = make(variant="all")
    perm_uuid = next(u for u in sys_.runtime.registry.uuids() if u.endswith("perm"))
    perm = sys_.runtime.registry.get(perm_uuid)
    perm.set_acl("/secret", {42})

    def proc():
        with pytest.raises(PermissionDenied):
            yield from gfs.open("fs::/t/secret/file", create=True)
        # uid 42 passes
        stack, rem = sys_.runtime.namespace.resolve("fs::/t/secret/file")
        from repro.core import LabRequest

        ino = yield from gfs.client.call(
            stack, LabRequest(op="fs.open", payload={"path": rem, "create": True, "uid": 42})
        )
        return ino

    assert run(sys_, proc()) >= 1
    assert perm.denied == 1


def test_crash_recovery_rebuilds_inodes_from_log():
    """Wipe LabFS's in-memory inode table, run StateRepair, data survives."""
    sys_, gfs = make(variant="min")
    labfs_uuid = next(u for u in sys_.runtime.registry.uuids() if u.endswith("labfs"))
    labfs = sys_.runtime.registry.get(labfs_uuid)

    def proc():
        yield from gfs.write_file("fs::/t/persist", b"P" * 8192)
        # simulate the Runtime losing its in-memory state
        labfs.inodes = {}
        labfs.by_path = {}
        labfs.state_repair()
        return (yield from gfs.read_file("fs::/t/persist"))

    assert run(sys_, proc()) == b"P" * 8192
    assert labfs.repairs == 1


def test_lru_cache_hits_on_reread():
    sys_, gfs = make(variant="min")
    lru = sys_.runtime.registry.get(
        next(u for u in sys_.runtime.registry.uuids() if u.endswith("lru"))
    )

    def proc():
        yield from gfs.write_file("fs::/t/c", b"c" * 8192)
        yield from gfs.read_file("fs::/t/c")
        yield from gfs.read_file("fs::/t/c")

    run(sys_, proc())
    assert lru.hits >= 2


def test_cached_read_faster_than_cold_read():
    sys_, gfs = make(variant="min")

    def proc():
        yield from gfs.write_file("fs::/t/hot", b"h" * 4096)
        lru = sys_.runtime.registry.get(
            next(u for u in sys_.runtime.registry.uuids() if u.endswith("lru"))
        )
        lru.pages.drop_clean()  # force a cold first read
        t0 = sys_.env.now
        yield from gfs.read_file("fs::/t/hot")
        cold = sys_.env.now - t0
        t1 = sys_.env.now
        yield from gfs.read_file("fs::/t/hot")
        warm = sys_.env.now - t1
        return cold, warm

    cold, warm = run(sys_, proc())
    assert warm < cold


def test_fsync_issues_flush():
    sys_, gfs = make(variant="min")
    dev = sys_.devices["nvme"]

    def proc():
        fd = yield from gfs.open("fs::/t/d", create=True)
        yield from gfs.write(fd, b"x" * 4096, offset=0)
        before = dev.completed
        yield from gfs.fsync(fd)
        return dev.completed - before

    assert run(sys_, proc()) >= 1  # at least the flush command


def test_two_stacks_same_device_different_views():
    """Multiple LabStacks over one device: namespaces stay independent."""
    sys_ = LabStorSystem(devices=("nvme",))
    sys_.mount_fs_stack("fs::/a", variant="min", uuid_prefix="sa")
    sys_.mount_fs_stack("fs::/b", variant="min", uuid_prefix="sb")
    client = sys_.client()
    gfs = GenericFS(client)

    def proc():
        yield from gfs.write_file("fs::/a/f", b"from-a")
        exists_in_b = True
        try:
            yield from gfs.stat("fs::/b/f")
        except FsError:
            exists_in_b = False
        data = yield from gfs.read_file("fs::/a/f")
        return data, exists_in_b

    data, exists_in_b = run(sys_, proc())
    assert data == b"from-a"
    assert not exists_in_b


@settings(max_examples=15, deadline=None)
@given(
    writes=st.lists(
        st.tuples(st.integers(0, 40_000), st.binary(min_size=1, max_size=12_000)),
        min_size=1,
        max_size=5,
    )
)
def test_property_labfs_matches_flat_buffer(writes):
    """LabFS positioned writes/reads behave like one big buffer."""
    sys_, gfs = make(variant="min")
    model = bytearray(60_000)
    size = 0

    def proc():
        nonlocal size
        fd = yield from gfs.open("fs::/t/prop", create=True)
        for offset, data in writes:
            yield from gfs.write(fd, data, offset=offset)
            model[offset : offset + len(data)] = data
            size = max(size, offset + len(data))
        return (yield from gfs.read(fd, size, offset=0))

    assert run(sys_, proc()) == bytes(model[:size])
