"""Kernel filesystem baselines (ext4 / XFS / F2FS).

All three are one :class:`KernelFilesystem` implementation with their
own metadata lock sharding and cost constants — how the metadata path
serializes is the scaling wall FxMark's MWCL/create test exposes (paper
Fig 7).
"""

from .base import KernelFilesystem


class Ext4Sim(KernelFilesystem):
    """ext4: a single running journal transaction gates all metadata.

    JBD2 batches handles into one running transaction protected by
    j_state_lock; concurrent creators serialize on it.
    """

    name = "ext4"
    meta_lock_shards = 1
    create_hold_ns = 60_000
    write_meta_ns = 1_500
    journal_flush = True


class XfsSim(KernelFilesystem):
    """XFS: per-AG locking allows limited metadata concurrency.

    Inode allocation spreads over allocation groups (2 shards here —
    the effective concurrency FxMark observes is far below the AG count
    because of the shared CIL/log), with a slightly larger per-op hold
    than ext4.
    """

    name = "xfs"
    meta_lock_shards = 2
    create_hold_ns = 70_000
    write_meta_ns = 1_800
    journal_flush = True


class F2fsSim(KernelFilesystem):
    """F2FS: cheap appends but a global f2fs_lock_op() for checkpoints.

    Metadata mutations funnel through the per-sb cp_rwsem, so creates
    serialize like ext4 but with a longer hold (node page + NAT updates).
    """

    name = "f2fs"
    meta_lock_shards = 1
    create_hold_ns = 75_000
    write_meta_ns = 1_200   # log-structured data path is cheap
    journal_flush = False   # checkpoints are periodic, not per-fsync


FILESYSTEMS = {"ext4": Ext4Sim, "xfs": XfsSim, "f2fs": F2fsSim}


def make_filesystem(name, env, device, **kw):
    """Build a kernel filesystem baseline by name ('ext4'|'xfs'|'f2fs')."""
    try:
        cls = FILESYSTEMS[name]
    except KeyError:
        raise ValueError(f"unknown filesystem {name!r}; choose from {sorted(FILESYSTEMS)}") from None
    return cls(env, device, **kw)


__all__ = [
    "KernelFilesystem",
    "Ext4Sim",
    "XfsSim",
    "F2fsSim",
    "make_filesystem",
]
