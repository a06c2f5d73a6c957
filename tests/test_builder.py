"""Tests for the fluent StackBuilder, the typed DeviceSpec, and
system/client teardown."""

import pytest

from repro.core.runtime import RuntimeConfig
from repro.devices.profiles import DeviceSpec, make_device
from repro.errors import LabStorError
from repro.mods.generic_fs import GenericFS
from repro.sim import Environment
from repro.system import LabStorSystem


# ---------------------------------------------------------------------------
# builder knobs shape the spec
# ---------------------------------------------------------------------------
def test_builder_knobs_reach_the_spec():
    sys_ = LabStorSystem()
    new = (
        sys_.stack("fs::/k")
        .fs(variant="min", nworkers=4, capacity_bytes=1 << 20)
        .sched("BlkSwitchSchedMod")
        .cache(False)
        .uuid_prefix("kw")
        .build()
    )
    assert not any(n.uuid.endswith("lru") for n in new.nodes)
    sched = next(n for n in new.nodes if n.uuid.endswith("sched"))
    assert sched.attrs == {"device": "nvme"}


def test_mount_helpers_do_not_warn(recwarn):
    sys_ = LabStorSystem()
    sys_.mount_fs_stack("fs::/m", variant="min")
    sys_.mount_kvs_stack("kvs::/m", variant="min")
    assert not [w for w in recwarn if issubclass(w.category, DeprecationWarning)]


# ---------------------------------------------------------------------------
# sched(**attrs) overlay
# ---------------------------------------------------------------------------
def test_sched_attrs_overlay_device_defaults():
    sys_ = LabStorSystem()
    spec = (sys_.stack("fs::/s")
            .fs(variant="min")
            .sched("BatchSchedMod", window_ns=5000, batch_max=4)
            .uuid_prefix("sa")
            .build())
    sched = next(n for n in spec.nodes if n.uuid.endswith("sched"))
    assert sched.mod_name == "BatchSchedMod"
    # the stack's device survives; explicit attrs overlay it
    assert sched.attrs == {"device": "nvme", "window_ns": 5000, "batch_max": 4}


def test_sched_without_attrs_unchanged():
    sys_ = LabStorSystem()
    spec = (sys_.stack("fs::/s2").fs(variant="min")
            .sched("NoOpSchedMod").uuid_prefix("sb").build())
    sched = next(n for n in spec.nodes if n.uuid.endswith("sched"))
    assert sched.attrs == {"device": "nvme"}


# ---------------------------------------------------------------------------
# builder validation
# ---------------------------------------------------------------------------
def test_builder_requires_fs_or_kvs():
    sys_ = LabStorSystem()
    with pytest.raises(LabStorError, match=r"\.fs\(\) or \.kvs\(\)"):
        sys_.stack("fs::/x").build()


def test_builder_rejects_unknown_device_listing_choices():
    sys_ = LabStorSystem(devices=("nvme", "hdd"))
    with pytest.raises(LabStorError, match="'hdd', 'nvme'"):
        sys_.stack("fs::/x").fs(variant="min").device("floppy").build()


def test_builder_rejects_cache_on_kvs():
    sys_ = LabStorSystem()
    with pytest.raises(LabStorError, match="no cache"):
        sys_.stack("kvs::/x").kvs(variant="min").cache().build()


def test_builder_mounts_working_stack():
    sys_ = LabStorSystem(config=RuntimeConfig(nworkers=1))
    sys_.stack("fs::/w").fs(variant="min").mount()
    gfs = GenericFS(sys_.client())

    def scenario():
        fd = yield from gfs.open("fs::/w/f", create=True)
        yield from gfs.write(fd, b"abc", offset=0)
        return (yield from gfs.read(fd, 3, offset=0))

    assert sys_.run(sys_.process(scenario())) == b"abc"
    sys_.shutdown()


# ---------------------------------------------------------------------------
# DeviceSpec / make_device validation
# ---------------------------------------------------------------------------
def test_device_spec_rejects_unknown_kind():
    with pytest.raises(LabStorError, match="unknown device kind"):
        DeviceSpec("floppy")


def test_device_spec_rejects_unknown_override_listing_valid_keys():
    with pytest.raises(LabStorError, match="nqueues"):
        DeviceSpec("nvme", nqueuez=16)


def test_make_device_rejects_unknown_override():
    env = Environment()
    with pytest.raises(LabStorError, match="valid keys"):
        make_device(env, "nvme", nqueuez=16)


def test_make_device_unknown_kind_stays_valueerror():
    env = Environment()
    with pytest.raises(ValueError, match="unknown device kind"):
        make_device(env, "floppy")


def test_device_spec_builds_device():
    env = Environment()
    dev = DeviceSpec("nvme", nqueues=2).build(env)
    assert dev.nqueues == 2


# ---------------------------------------------------------------------------
# client.close() / system.shutdown(): no leaked daemon processes
# ---------------------------------------------------------------------------
def test_shutdown_stops_pollers_and_workers():
    sys_ = LabStorSystem(config=RuntimeConfig(nworkers=2))
    sys_.stack("fs::/s").fs(variant="min").mount()
    gfs = GenericFS(sys_.client())
    clients = list(sys_._clients)

    def scenario():
        fd = yield from gfs.open("fs::/s/f", create=True)
        yield from gfs.write(fd, b"x" * 4096, offset=0)

    sys_.run(sys_.process(scenario()))
    pollers = [c._poller for c in clients]
    assert all(p is not None and p.is_alive for p in pollers)
    admin = sys_.runtime._admin
    orch_proc = sys_.runtime.orchestrator._proc

    sys_.shutdown()

    assert sys_._clients == []
    assert all(c.conn is None and c._poller is None for c in clients)
    assert not any(p.is_alive for p in pollers)
    assert not admin.is_alive
    assert not orch_proc.is_alive
    assert sys_.runtime.orchestrator.workers == []


def test_client_close_is_idempotent_and_survives_reconnect_cycles():
    sys_ = LabStorSystem(config=RuntimeConfig(nworkers=1))
    sys_.stack("fs::/c").fs(variant="min").mount()
    for _ in range(3):
        c = sys_.client()
        gfs = GenericFS(c)

        def scenario():
            fd = yield from gfs.open("fs::/c/f", create=True)
            yield from gfs.write(fd, b"y" * 512, offset=0)

        sys_.run(sys_.process(scenario()))
        sys_.run(c.conn.qp.drained())
        c.close()
        c.close()  # second close must be a no-op
        sys_._clients.remove(c)
    sys_.shutdown()
