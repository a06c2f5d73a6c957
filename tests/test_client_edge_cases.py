"""Edge-case tests for the client library and runtime configuration."""

import pytest

from repro.core import LabRequest, LabStorClient, RuntimeConfig
from repro.core.runtime import LabStorRuntime
from repro.errors import LabStorError
from repro.mods.generic_fs import GenericFS
from repro.sim import Environment
from repro.system import LabStorSystem


def test_client_double_connect_rejected():
    sys_ = LabStorSystem(devices=("nvme",))
    client = sys_.client()

    def proc():
        with pytest.raises(LabStorError, match="already connected"):
            yield sys_.env.process(client.connect())
        return True

    assert sys_.run(sys_.process(proc()))


def test_call_without_connection_rejected():
    sys_ = LabStorSystem(devices=("nvme",))
    stack = sys_.mount_fs_stack("fs::/x", variant="min")
    client = LabStorClient(sys_.env, sys_.runtime)  # never connected

    def proc():
        with pytest.raises(LabStorError, match="not connected"):
            yield from client.call(stack, LabRequest(op="fs.stat", payload={"path": "/"}))
        return True

    assert sys_.run(sys_.process(proc()))


def test_unknown_fd_errors():
    sys_ = LabStorSystem(devices=("nvme",))
    sys_.mount_fs_stack("fs::/x", variant="min")
    gfs = GenericFS(sys_.client())

    def proc():
        with pytest.raises(LabStorError, match="unknown fd"):
            yield from gfs.write(99, b"x")
        with pytest.raises(LabStorError, match="unknown fd"):
            yield from gfs.close(99)
        return True

    assert sys_.run(sys_.process(proc()))


def test_call_path_resolves_through_namespace():
    sys_ = LabStorSystem(devices=("nvme",))
    sys_.mount_fs_stack("fs::/deep/mount", variant="min")
    client = sys_.client()

    def proc():
        ino = yield from client.call_path(
            "fs::/deep/mount/a/b.txt", "fs.open", {"create": True}
        )
        return ino

    assert sys_.run(sys_.process(proc())) >= 1


def test_request_without_routing_rejected():
    sys_ = LabStorSystem(devices=("nvme",))

    def proc():
        with pytest.raises(LabStorError, match="routing"):
            yield sys_.env.process(sys_.runtime.execute_sync(LabRequest(op="fs.open")))
        return True

    assert sys_.run(sys_.process(proc()))


def test_disconnect_idempotent_and_unregisters():
    sys_ = LabStorSystem(devices=("nvme",))
    client = sys_.client()
    qid = client.conn.qp.qid
    client.disconnect()
    client.disconnect()  # no-op
    assert client.conn is None
    assert qid not in sys_.runtime.ipc.qps


def test_runtime_config_bad_policy():
    env = Environment()
    with pytest.raises(LabStorError, match="policy"):
        LabStorRuntime(env, {}, config=RuntimeConfig(policy="chaotic"))


def test_mount_unmount_stack_lifecycle():
    sys_ = LabStorSystem(devices=("nvme",))
    sys_.mount_fs_stack("fs::/tmp", variant="min")
    assert "fs::/tmp" in sys_.runtime.namespace
    sys_.runtime.unmount_stack("fs::/tmp")
    assert "fs::/tmp" not in sys_.runtime.namespace


def test_filebench_pmem_same_trend_as_nvme():
    """Paper: 'The PMEM experiments return identical trends' (Fig 9d)."""
    from repro.experiments.runner import EXPERIMENTS, run_experiment

    ext4, lab = run_experiment(EXPERIMENTS["fig9c"], grid=[
        {"config": config, "personality": "varmail", "device": "pmem",
         "nthreads": 4, "loops": 2} for config in ("ext4", "lab-min")]).rows
    assert lab["kops_per_sec"] > ext4["kops_per_sec"]


def test_client_gives_up_when_runtime_never_restarts():
    from repro.errors import RuntimeCrashed
    from repro.units import msec

    sys_ = LabStorSystem(devices=("nvme",),
                         config=RuntimeConfig(restart_wait_ns=msec(1)))
    stack = sys_.mount_fs_stack("fs::/dead", variant="min")
    client = sys_.client()
    sys_.runtime.crash()

    def proc():
        with pytest.raises(RuntimeCrashed):
            yield from client.call(
                stack, LabRequest(op="fs.open", payload={"path": "/f", "create": True})
            )
        return True

    assert sys_.run(sys_.process(proc()))
