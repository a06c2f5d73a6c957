"""Tests for the kernel block layer and in-kernel schedulers."""

import pytest

from repro.devices import IoOp, make_device
from repro.errors import KernelError
from repro.kernel import BlockLayer, DEFAULT_COST
from repro.sim import Environment
from repro.units import KiB, MiB


def test_submit_bio_roundtrip():
    env = Environment()
    dev = make_device(env, "nvme")
    bl = BlockLayer(env, dev)

    def proc():
        yield from bl.submit_bio(IoOp.WRITE, 0, 4096, b"k" * 4096)
        req = yield from bl.submit_bio(IoOp.READ, 0, 4096)
        return req.result

    assert env.run(env.process(proc())) == b"k" * 4096


def test_block_layer_adds_software_overhead():
    env = Environment()
    dev = make_device(env, "nvme")
    bl = BlockLayer(env, dev)
    device_only = dev.profile.service_ns(IoOp.WRITE, 4096)

    def proc():
        start = env.now
        yield from bl.submit_bio(IoOp.WRITE, 0, 4096, b"x" * 4096)
        return env.now - start

    total = env.run(env.process(proc()))
    c = DEFAULT_COST
    sw = c.blk_alloc_ns + c.blk_sched_ns + c.blk_dispatch_ns + c.blk_complete_ns
    assert total == device_only + sw


def test_noop_maps_by_origin_core():
    env = Environment()
    dev = make_device(env, "nvme", nqueues=4)
    bl = BlockLayer(env, dev, scheduler="noop")
    assert bl.steer(4096, origin_core=6) == 2


def test_blk_switch_lane_selection():
    env = Environment()
    dev = make_device(env, "nvme", nqueues=4)
    bl = BlockLayer(env, dev, scheduler="blk-switch")
    bl.inflight_bytes = [100, 5, 100, 7]
    # small request: confined to the latency lane (queue 0) even if loaded
    assert bl.steer(4096, origin_core=0) == 0
    # large request: least-loaded throughput queue, never the latency lane
    assert bl.steer(64 * KiB, origin_core=0) == 1


def test_blk_switch_avoids_hol_blocking():
    """Colocated big+small streams: blk-switch keeps small-request latency low."""

    def run(scheduler):
        env = Environment()
        dev = make_device(env, "nvme", nqueues=2, parallelism=1)
        bl = BlockLayer(env, dev, scheduler=scheduler)
        lat = {}

        def thrpt_app():
            # the throughput app floods core 0's hctx with deep large writes
            def one(i):
                yield from bl.submit_bio(IoOp.WRITE, i * MiB, MiB, b"T" * MiB, origin_core=0)

            yield env.all_of([env.process(one(i)) for i in range(8)])

        def lat_app():
            yield env.timeout(10_000)  # arrive while big writes queue
            start = env.now
            # originates on core 2 -> hctx 0 under noop (2 % 2), colliding
            # with the throughput app; blk-switch steers it to the idle hctx
            yield from bl.submit_bio(IoOp.WRITE, 512 * MiB, 4 * KiB, b"L" * 4 * KiB, origin_core=2)
            lat["small"] = env.now - start

        env.process(thrpt_app())
        env.process(lat_app())
        env.run()
        return lat["small"]

    noop_lat = run("noop")
    blk_lat = run("blk-switch")
    assert blk_lat < noop_lat


def test_inflight_accounting_returns_to_zero():
    env = Environment()
    dev = make_device(env, "nvme", nqueues=2)
    bl = BlockLayer(env, dev)

    def proc():
        yield from bl.submit_bio(IoOp.WRITE, 0, 4096, b"x" * 4096, origin_core=1)

    env.run(env.process(proc()))
    assert bl.inflight_bytes == [0, 0]
    assert bl.submitted == 1


def test_explicit_hctx_skips_scheduler():
    env = Environment()
    dev = make_device(env, "nvme", nqueues=4)
    bl = BlockLayer(env, dev)

    def proc():
        req = yield from bl.submit_bio(IoOp.WRITE, 0, 4096, b"x" * 4096, hctx=3)
        return req.hctx

    assert env.run(env.process(proc())) == 3


def test_set_scheduler_swaps_elevator():
    env = Environment()
    dev = make_device(env, "nvme", nqueues=4)
    bl = BlockLayer(env, dev)
    assert bl.scheduler == "noop"
    assert bl.steer(64 * KiB, origin_core=0) == 0
    bl.scheduler = "blk-switch"  # echo blk-switch > .../queue/scheduler
    bl.inflight_bytes = [0, 100, 5, 100]
    assert bl.steer(64 * KiB, origin_core=0) == 2


def test_unknown_scheduler_rejected():
    env = Environment()
    bl = BlockLayer(env, make_device(env, "nvme"), scheduler="cfq")
    with pytest.raises(KernelError, match="cfq"):
        bl.steer(4096, origin_core=0)
