"""Properties of repro.policy: the I/O-path decisions both hosts share."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LabRequest
from repro.core.labmod import ExecContext, ModContext
from repro.devices import IoOp, make_device
from repro.kernel import DEFAULT_COST, BlockLayer
from repro.mods import BlkSwitchSchedMod
from repro.policy import LruPages, runs
from repro.sim import Environment, Tracer
from repro.units import KiB


@st.composite
def _queue_state(draw):
    nq = draw(st.sampled_from([1, 2, 4, 8]))
    # small byte counts, so a queue depth can change the least-loaded queue
    inflight = draw(st.lists(st.integers(0, 48), min_size=nq, max_size=nq))
    depths = draw(st.lists(st.integers(0, 32), min_size=nq, max_size=nq))
    size = draw(st.integers(1, 256 * KiB))
    return nq, inflight, depths, size


@settings(max_examples=60, deadline=None)
@given(_queue_state())
def test_kernel_and_labmod_blkswitch_pick_the_same_hctx(state):
    """One policy, two hosts: the kernel block layer's "blk-switch"
    elevator and the LabMod port steer identically from the same load."""
    nq, inflight, depths, size = state
    env = Environment()
    dev = make_device(env, "nvme", nqueues=nq)
    dev.queue_depth = depths.__getitem__
    layer = BlockLayer(env, dev, scheduler="blk-switch")
    layer.inflight_bytes = list(inflight)
    mod = BlkSwitchSchedMod("b0", ModContext(env, DEFAULT_COST, Tracer(), {"nvme": dev}))
    mod.inflight_bytes = list(inflight)
    seen = []

    class Sink:
        uuid = "sink"

        def handle(self, req, x):
            seen.append(req.payload["hctx"])
            yield x.env.timeout(1)

    mod.next = [Sink()]
    req = LabRequest(op="blk.write", payload={"offset": 0, "size": size})
    env.run(env.process(mod.handle(req, ExecContext(env, Tracer()))))
    assert seen == [layer.steer(size, origin_core=0)]


@given(st.lists(st.integers(0, 12), max_size=30))
def test_runs_split_in_order_into_maximal_runs(items):
    def adjacent(a, b):
        return b == a + 1

    out = runs(items, adjacent)
    assert [i for run in out for i in run] == items
    for run in out:
        assert run and all(adjacent(a, b) for a, b in zip(run, run[1:]))
    for prev, nxt in zip(out, out[1:]):
        assert not adjacent(prev[-1], nxt[0])


@given(st.lists(st.tuples(st.sampled_from([IoOp.READ, IoOp.WRITE]),
                          st.integers(0, 32), st.integers(1, 4)), max_size=24))
def test_plug_merge_runs_tile_their_extent_exactly(specs):
    bios = [(op, page * 4096, npages * 4096, None) for op, page, npages in specs]
    merged = BlockLayer.merge_bios(bios)
    assert sorted(i for _op, _ext, idx in merged for i in idx) == list(range(len(bios)))
    for op, ext, idx in merged:
        pos = ext.start
        for i in idx:
            bio_op, offset, size, _data = bios[i]
            assert bio_op is op and offset == pos
            pos += size
        assert pos == ext.end


@given(st.lists(st.tuples(st.sampled_from(["put", "touch"]), st.integers(0, 7)),
                max_size=40),
       st.integers(0, 10))
def test_pop_lru_follows_access_order(ops, n):
    pages = LruPages()
    order = []  # model: least recently used first
    for op, key in ops:
        if op == "touch":
            if key not in pages:
                continue
            pages.touch(key)
        else:
            pages.put(key, bytes([key]), dirty=True)
        if key in order:
            order.remove(key)
        order.append(key)
    popped = pages.pop_lru(n)
    assert [key for key, _data in popped] == order[:n]
    assert list(pages) == order[n:]
    assert pages.dirty == set(order[n:])


def test_drop_clean_keeps_dirty_pages_until_taken():
    pages = LruPages()
    pages.put(1, b"a")
    pages.put(2, b"b", dirty=True)
    pages.put(3, b"c")
    pages.drop_clean()
    assert list(pages) == [2]
    assert pages.take_dirty() == [(2, b"b")]
    assert not pages.dirty and 2 in pages
    pages.drop_clean()
    assert not pages
