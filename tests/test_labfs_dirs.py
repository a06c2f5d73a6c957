"""Tests for LabFS directories."""

import pytest

from repro.errors import FsError
from repro.mods.generic_fs import GenericFS
from repro.system import LabStorSystem


def make(variant="min", **stack_kw):
    sys_ = LabStorSystem(devices=("nvme",))
    sys_.mount_fs_stack("fs::/t", variant=variant, **stack_kw)
    return sys_, GenericFS(sys_.client())


def run(sys_, gen):
    return sys_.run(sys_.process(gen))


def labfs_of(sys_):
    uuid = next(u for u in sys_.runtime.registry.uuids() if u.endswith("labfs"))
    return sys_.runtime.registry.get(uuid)


# --- directories ----------------------------------------------------------
def test_mkdir_readdir_roundtrip():
    sys_, gfs = make()

    def proc():
        yield from gfs.mkdir("fs::/t/proj")
        yield from gfs.write_file("fs::/t/proj/a.txt", b"a")
        yield from gfs.write_file("fs::/t/proj/b.txt", b"b")
        return (yield from gfs.readdir("fs::/t/proj"))

    assert run(sys_, proc()) == ["a.txt", "b.txt"]


def test_create_autocreates_parents_by_default():
    sys_, gfs = make()

    def proc():
        yield from gfs.write_file("fs::/t/deep/nested/dir/file", b"x")
        names = yield from gfs.readdir("fs::/t/deep/nested/dir")
        st_ = yield from gfs.stat("fs::/t/deep/nested")
        return names, st_

    names, st_ = run(sys_, proc())
    assert names == ["file"]
    assert st_["is_dir"] is True


def test_strict_paths_requires_parent():
    sys_ = LabStorSystem(devices=("nvme",))
    spec = sys_.stack("fs::/s").fs(variant="min").build()
    next(n for n in spec.nodes if n.uuid.endswith("labfs")).attrs["strict_paths"] = True
    sys_.runtime.mount_stack(spec)
    gfs = GenericFS(sys_.client())

    def proc():
        with pytest.raises(FsError, match="ENOENT"):
            yield from gfs.open("fs::/s/missing/f", create=True)
        yield from gfs.mkdir("fs::/s/missing")
        fd = yield from gfs.open("fs::/s/missing/f", create=True)
        return fd

    assert run(sys_, proc()) >= 3


def test_mkdir_existing_rejected():
    sys_, gfs = make()

    def proc():
        yield from gfs.mkdir("fs::/t/d")
        with pytest.raises(FsError, match="EEXIST"):
            yield from gfs.mkdir("fs::/t/d")
        return True

    assert run(sys_, proc())


def test_rmdir_nonempty_rejected_then_empty_ok():
    sys_, gfs = make()

    def proc():
        yield from gfs.write_file("fs::/t/d/f", b"x")
        with pytest.raises(FsError, match="ENOTEMPTY"):
            yield from gfs.rmdir("fs::/t/d")
        yield from gfs.unlink("fs::/t/d/f")
        yield from gfs.rmdir("fs::/t/d")
        names = yield from gfs.readdir("fs::/t")
        return names

    assert "d" not in run(sys_, proc())


def test_readdir_of_file_is_enotdir():
    sys_, gfs = make()

    def proc():
        yield from gfs.write_file("fs::/t/plain", b"x")
        with pytest.raises(FsError, match="ENOTDIR"):
            yield from gfs.readdir("fs::/t/plain")
        return True

    assert run(sys_, proc())


def test_unlink_directory_is_eisdir():
    sys_, gfs = make()

    def proc():
        yield from gfs.mkdir("fs::/t/dir")
        with pytest.raises(FsError, match="EISDIR"):
            yield from gfs.unlink("fs::/t/dir")
        return True

    assert run(sys_, proc())


def test_rename_across_directories_updates_listings():
    sys_, gfs = make()

    def proc():
        yield from gfs.write_file("fs::/t/src/f", b"payload")
        yield from gfs.mkdir("fs::/t/dst")
        yield from gfs.rename("fs::/t/src/f", "fs::/t/dst/g")
        src = yield from gfs.readdir("fs::/t/src")
        dst = yield from gfs.readdir("fs::/t/dst")
        data = yield from gfs.read_file("fs::/t/dst/g")
        return src, dst, data

    src, dst, data = run(sys_, proc())
    assert src == [] and dst == ["g"]
    assert data == b"payload"


def test_state_repair_rebuilds_directory_tree():
    sys_, gfs = make()
    labfs = labfs_of(sys_)

    def proc():
        yield from gfs.write_file("fs::/t/a/b/one", b"1")
        yield from gfs.write_file("fs::/t/a/two", b"2")
        labfs.inodes = {}
        labfs.by_path = {}
        labfs.state_repair()
        listing = yield from gfs.readdir("fs::/t/a")
        data = yield from gfs.read_file("fs::/t/a/b/one")
        return listing, data

    listing, data = run(sys_, proc())
    assert listing == ["b", "two"]
    assert data == b"1"
