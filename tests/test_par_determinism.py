"""Shard-count determinism for the conservative parallel runner.

The contract under test: a par program's merged trace digest and its
virtual results are pure functions of (program, seed) — the shard count
only moves wall clock.  ``shards=1`` (all node-worlds co-resident, no
forks) is the baseline; forked runs must match it byte-for-byte.
"""

import pytest

from repro.cluster import cluster
from repro.errors import LabStorError
from repro.scenarios import names_with
from repro.scenarios.cluster import ClusterParProgram
from repro.sim import Environment
from repro.sim.core import SimulationError
from repro.sim.par import merge_digest, run_program
from repro.units import msec


PAR = names_with("par")


@pytest.mark.parametrize("scenario", PAR)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_merged_digest_shard_invariant(scenario, seed, profiled, par_run):
    # every seed at shards 1/2; shards=4 (the slowest run) at seed 0 only,
    # whose shards=1 baseline is the entry's profiled run (reach-map pin)
    base = (profiled[f"{scenario}@par"][0] if seed == 0
            else par_run(scenario, seed, 1))
    runs = {shards: par_run(scenario, seed, shards)
            for shards in ((2, 4) if seed == 0 else (2,))}
    assert base.merged_events > 0, "scenario produced no trace events"
    for shards, res in runs.items():
        assert res.merged_events == base.merged_events
        assert res.digest == base.digest, (
            f"{scenario} seed={seed}: shards={shards} digest diverged from serial")
        assert res.reduced == base.reduced, (
            f"{scenario} seed={seed}: shards={shards} results diverged from serial")


def test_power_cut_nacks_across_barrier():
    """The fault case: node ``b`` is power-cut at 3 ms — mid-window, with
    replica ops in flight — so its executor answers with NACK messages
    that cross a barrier before completing the initiator's NIC QP.  The
    whole outcome (failover hits, NACK counts, conservation) must be
    identical serial vs. forked."""
    serial = run_program(ClusterParProgram(0), shards=1, trace=False)
    forked = run_program(ClusterParProgram(0), shards=4, trace=False)
    assert serial.results == forked.results
    assert serial.reduced == forked.reduced
    r = forked.reduced
    assert r["hits"] == ClusterParProgram.nkeys
    assert r["failovers"] > 0, "power cut never forced a failover"
    assert r["nacks"] > 0, "no NACK ever crossed a barrier"
    assert not forked.results["b"]["online"], "power cut never fired"


def test_until_window_semantics():
    env = Environment()
    with pytest.raises(SimulationError):
        env.run(until=5, until_window=5)  # mutually exclusive
    with pytest.raises(SimulationError):
        env.run(until_window=0)  # window must lie strictly ahead
    env.run(until_window=10)  # empty env: nothing to do, clock untouched
    assert env.now == 0

    fired = []
    env2 = Environment()

    def gen():
        yield env2.timeout(4)
        fired.append(env2.now)
        yield env2.timeout(4)
        fired.append(env2.now)

    env2.process(gen())
    env2.run(until_window=5)
    assert fired == [4]  # t=8 event lies beyond the window
    assert env2.peek() == 8
    env2.run(until_window=9)
    assert fired == [4, 8]


def _builder_handle(shards):
    return (
        cluster(seed=7)
        .node("n0").stack("kvs::/meta").kvs(variant="min").device("nvme")
        .node("n1")
        .node("n2", failure_domain="rack-b")
        .build(shards=shards)
    )


def _builder_setup(view):
    view.skvs = view.shard_kvs("kvs::/t", replicas=2, timeout_ns=int(msec(1)))


def _builder_drivers(view):
    if view.node_name != "n0":
        return []

    def go():
        yield view.env.timeout(int(msec(1)))
        hits = 0
        for i in range(12):
            yield from view.skvs.put(f"k{i}", bytes([i]) * 64)
        for i in range(12):
            if (yield from view.skvs.get(f"k{i}")) == bytes([i]) * 64:
                hits += 1
        view.driver_out = {"hits": hits}

    return [("demo", go())]


def _builder_finish(view):
    out = dict(getattr(view, "driver_out", {}))
    out["node"] = view.node_name
    stats = view.stats()
    out["remote_calls"] = sum(
        r["remote_calls"] for r in stats["routes"].values())
    view.shutdown()
    return out


def test_builder_build_shards_handle_shard_invariant():
    """The fluent front door: ``cluster(...)...build(shards=N)`` freezes
    the recorded topology (including a declared stack, replayed inside
    each shard world) and runs byte-identically at every shard count."""
    base = None
    for shards in (1, 2, 3):
        handle = _builder_handle(shards)
        assert handle.shards == shards
        assert handle.lookahead_ns() is not None
        res = handle.run(drivers=_builder_drivers, setup=_builder_setup,
                         finish=_builder_finish, trace=True)
        snap = (res.digest, res.merged_events, res.results)
        if base is None:
            base = snap
        else:
            assert snap == base, f"builder handle diverged at shards={shards}"
    assert base[2]["n0"]["hits"] == 12
    assert base[2]["n0"]["remote_calls"] > 0


def test_builder_build_default_path_unchanged():
    cl = (cluster(seed=3)
          .node("a").stack("kvs::/x").kvs(variant="min").device("nvme")
          .node("b")
          .build())
    assert sorted(cl.nodes) == ["a", "b"]
    cl.shutdown()


def test_builder_build_shards_rejects_bad_args():
    with pytest.raises(LabStorError):
        cluster(seed=0).node("a").node("b").build(shards=0)
    env = Environment()
    with pytest.raises(LabStorError):
        cluster(seed=0, env=env).node("a").node("b").build(shards=2)


def _dying_drivers(view):
    def go():
        yield view.env.timeout(int(msec(1)))
        if view.node_name == "n1":
            import os

            os._exit(3)  # no exception, no reply: the pipe just closes

    return [("victim", go())]


def test_dead_shard_is_a_typed_error_naming_its_nodes():
    handle = cluster(seed=1).node("n0").node("n1").build(shards=2)
    with pytest.raises(SimulationError, match=r"\['n1'\] died"):
        handle.run(drivers=_dying_drivers)


def test_merge_digest_order_is_stream_independent():
    streams_a = {"n0": [(5, 1, "x"), (7, 2, "y")], "n1": [(5, 1, "z")]}
    streams_b = {"n1": [(5, 1, "z")], "n0": [(5, 1, "x"), (7, 2, "y")]}
    assert merge_digest(streams_a) == merge_digest(streams_b)
