"""Tests for the LabStorSystem facade and canonical stack builders."""

import pytest

from repro.devices.profiles import DeviceSpec
from repro.errors import LabStorError, StackValidationError
from repro.system import LabStorSystem, VARIANTS


def test_default_system_builds_nvme():
    sys_ = LabStorSystem()
    assert "nvme" in sys_.devices
    assert sys_.runtime.online


def test_multiple_devices():
    sys_ = LabStorSystem(devices=("nvme", "pmem", "hdd"))
    assert set(sys_.devices) == {"nvme", "pmem", "hdd"}


def test_device_spec_overrides_apply():
    sys_ = LabStorSystem(devices=[DeviceSpec("nvme", nqueues=16)])
    assert sys_.devices["nvme"].nqueues == 16


@pytest.mark.parametrize("variant", VARIANTS)
def test_fs_stack_variants_structure(variant):
    sys_ = LabStorSystem()
    stack = sys_.mount_fs_stack(f"fs::/{variant}", variant=variant)
    uuids = stack.mod_uuids()
    has_perm = any(u.endswith("perm") for u in uuids)
    assert has_perm == (variant == "all")
    assert stack.exec_mode == ("sync" if variant == "d" else "async")
    assert any(u.endswith("labfs") for u in uuids)
    assert any(u.endswith("driver") for u in uuids)


def test_kvs_stack_has_no_cache():
    sys_ = LabStorSystem()
    stack = sys_.mount_kvs_stack("kvs::/k", variant="all")
    assert not any(u.endswith("lru") for u in stack.mod_uuids())
    assert any(u.endswith("labkvs") for u in stack.mod_uuids())


def test_invalid_variant_rejected():
    sys_ = LabStorSystem()
    with pytest.raises(LabStorError, match="variant"):
        sys_.stack("fs::/x").fs(variant="turbo")


def test_blkswitch_sched_option():
    sys_ = LabStorSystem()
    stack = sys_.mount_fs_stack("fs::/b", variant="min", sched="BlkSwitchSchedMod")
    sched_uuid = next(u for u in stack.mod_uuids() if u.endswith("sched"))
    assert type(stack.mods[sched_uuid]).__name__ == "BlkSwitchSchedMod"


def test_spdk_driver_option_requires_nvme():
    sys_ = LabStorSystem(devices=("nvme",))
    stack = sys_.mount_fs_stack("fs::/s", variant="min", driver="SpdkDriverMod")
    assert any(u.endswith("driver") for u in stack.mod_uuids())
    sys2 = LabStorSystem(devices=("hdd",))
    with pytest.raises(LabStorError):
        sys2.mount_fs_stack("fs::/h", variant="min", device="hdd", driver="SpdkDriverMod")


def test_clients_get_unique_pids_and_qps():
    sys_ = LabStorSystem()
    c1, c2 = sys_.client(), sys_.client()
    assert c1.pid != c2.pid
    assert c1.conn.qp.qid != c2.conn.qp.qid
    assert len(sys_.runtime.ipc.conns) == 2


def test_seed_controls_device_rng_stream():
    a = LabStorSystem(seed=1)
    b = LabStorSystem(seed=1)
    assert (
        a.rngs.stream("device.nvme").integers(0, 10**9)
        == b.rngs.stream("device.nvme").integers(0, 10**9)
    )
