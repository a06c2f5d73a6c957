"""fio iodepth fan-out against the batching fast path.

fio at iodepth>1 keeps several client requests in flight at once, which
exercises the worker's batch-pop and the batch CQ reap without ever
violating queue-pair conservation.
"""

import pytest

from repro.core.labstack import StackSpec
from repro.core.runtime import RuntimeConfig
from repro.devices.profiles import DeviceSpec
from repro.system import LabStorSystem
from repro.workloads.fio import FioJob, LabStackEngine, run_fio

PAGE = 4096


@pytest.mark.parametrize("iodepth", [2, 4])
def test_fio_iodepth_fans_out_through_batch_pop(iodepth):
    """iodepth>1 keeps multiple SQEs queued: the worker drains them in one
    batch-pop wakeup and conservation must hold at quiescence."""
    system = LabStorSystem(
        devices=(DeviceSpec("nvme", coalesce_max=8, coalesce_window_ns=2000),),
        config=RuntimeConfig(nworkers=1, worker_batch_max=8),
    )
    spec = StackSpec.linear("blk::/fio", [("BatchSchedMod", "rb.sched"),
                                          ("KernelDriverMod", "rb.drv")])
    spec.nodes[0].attrs = {"nqueues": 8, "window_ns": 10_000, "batch_max": 8}
    spec.nodes[1].attrs = {"device": "nvme"}
    stack = system.runtime.mount_stack(spec)
    client = system.client()
    engine = LabStackEngine(client, stack, system.devices["nvme"])
    job = FioJob(rw="write", bs=PAGE, nops=64, iodepth=iodepth,
                 region_size=64 * PAGE)
    result = run_fio(system.env, engine, [job], seed=1)
    assert result.ops == 64
    qp = client.conn.qp
    assert qp.inflight == 0
    assert qp.submitted_total == qp.completed_total == 64
    worker = system.runtime.orchestrator.workers[0]
    assert worker.batch_pops > 0, "iodepth>1 never triggered a batch pop"
    assert worker.batch_pop_ops >= 2 * worker.batch_pops


def test_fio_deeper_iodepth_not_slower():
    """Amortization sanity: qd4 throughput is at least qd1's."""
    def run(iodepth: int) -> float:
        system = LabStorSystem(
            devices=(DeviceSpec("nvme", coalesce_max=8, coalesce_window_ns=2000),),
            config=RuntimeConfig(nworkers=1, worker_batch_max=8),
        )
        spec = StackSpec.linear("blk::/fio", [("BatchSchedMod", "rq.sched"),
                                              ("KernelDriverMod", "rq.drv")])
        spec.nodes[0].attrs = {"nqueues": 8, "window_ns": 10_000, "batch_max": 8}
        spec.nodes[1].attrs = {"device": "nvme"}
        stack = system.runtime.mount_stack(spec)
        engine = LabStackEngine(system.client(), stack, system.devices["nvme"])
        job = FioJob(rw="write", bs=PAGE, nops=96, iodepth=iodepth,
                     region_size=96 * PAGE)
        return run_fio(system.env, engine, [job], seed=1).iops

    assert run(4) >= run(1)
