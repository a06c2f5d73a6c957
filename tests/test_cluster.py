"""Cluster-scale LabStor: builder API, fabric, placement, failover,
and the E14 determinism contract."""

import json

import pytest

from repro.cluster import (
    FabricCost,
    FabricTransport,
    HashRing,
    NetworkFabric,
    ShardedKVS,
    cluster,
)
from repro.core import RuntimeConfig
from repro.errors import FabricError, FsError, LabStorError, QuorumError
from repro.sim import Environment
from repro.units import msec, usec

FAST_CRASH = RuntimeConfig(nworkers=1, restart_wait_ns=int(usec(50)))


def _run(cl, gen):
    return cl.run(cl.process(gen))


# ----------------------------------------------------------------------
# fabric
# ----------------------------------------------------------------------
class TestFabric:
    def test_serialize_ns_scales_with_bytes(self):
        cost = FabricCost(bw_bytes_per_s=1e9)
        assert cost.serialize_ns(1000) == 1000
        assert cost.serialize_ns(0) == 0

    def test_link_transfer_pays_serialization_then_latency(self):
        env = Environment()
        fabric = NetworkFabric(env, FabricCost(link_lat_ns=500,
                                               bw_bytes_per_s=1e9))
        fabric.add_link("a", "b")
        link = fabric.link("a", "b")

        def go():
            yield from link.transfer(2000)

        env.run(env.process(go()))
        assert env.now == 2000 + 500
        assert link.transfers == 1 and link.bytes_moved == 2000

    def test_concurrent_transfers_queue_on_the_wire(self):
        env = Environment()
        fabric = NetworkFabric(env, FabricCost(link_lat_ns=100,
                                               bw_bytes_per_s=1e9))
        fabric.add_link("a", "b")
        link = fabric.link("a", "b")

        def one():
            yield from link.transfer(1000)

        p1 = env.process(one())
        p2 = env.process(one())
        env.run(p1)
        env.run(p2)
        # second message serializes behind the first (1000 + 1000) but the
        # propagation terms overlap: total 2000 + 100, not 2 * 1100
        assert env.now == 2100

    def test_missing_link_raises_fabric_error(self):
        env = Environment()
        fabric = NetworkFabric(env)
        fabric.add_link("a", "b", bidirectional=False)
        assert fabric.connected("a", "b")
        assert not fabric.connected("b", "a")
        with pytest.raises(FabricError, match="no fabric link b->a"):
            fabric.link("b", "a")

    def test_self_link_rejected(self):
        fabric = NetworkFabric(Environment())
        with pytest.raises(FabricError, match="needs no link to itself"):
            fabric.add_link("a", "a")

    def test_transport_local_peer_is_free_and_unknown_peer_raises(self):
        env = Environment()
        fabric = NetworkFabric(env)
        fabric.add_link("home", "far")
        tr = FabricTransport(fabric, "home", {"mds": "far", 0: "home"})

        def local():
            yield from tr.transfer(0, 4096)

        env.run(env.process(local()))
        assert env.now == 0  # node-local I/O crosses no wire

        def bogus():
            yield from tr.transfer("nope", 1)

        with pytest.raises(FabricError, match="no peer 'nope'"):
            env.run(env.process(bogus()))


# ----------------------------------------------------------------------
# consistent-hash placement
# ----------------------------------------------------------------------
class TestHashRing:
    def test_placement_is_deterministic_across_instances(self):
        a = HashRing(["n0", "n1", "n2"])
        b = HashRing(["n0", "n1", "n2"])
        for i in range(64):
            assert a.preference(f"k{i}", 2) == b.preference(f"k{i}", 2)

    def test_preference_is_distinct_and_sized(self):
        ring = HashRing(["n0", "n1", "n2", "n3"])
        for i in range(64):
            pref = ring.preference(f"key{i}", 3)
            assert len(pref) == 3 and len(set(pref)) == 3

    def test_failure_domains_diversify_replicas(self):
        ring = HashRing([("a", "rack-1"), ("b", "rack-1"), ("c", "rack-2")])
        for i in range(64):
            pref = ring.preference(f"key{i}", 2)
            assert {ring.domains[n] for n in pref} == {"rack-1", "rack-2"}

    def test_every_node_owns_some_keys(self):
        ring = HashRing(["n0", "n1", "n2", "n3"])
        owners = {ring.primary(f"key{i}") for i in range(256)}
        assert owners == {"n0", "n1", "n2", "n3"}

    def test_too_many_replicas_raises(self):
        ring = HashRing(["n0", "n1"])
        with pytest.raises(QuorumError, match="cannot place 3 replicas"):
            ring.preference("k", 3)

    def test_empty_ring_raises(self):
        with pytest.raises(QuorumError):
            HashRing([])


# ----------------------------------------------------------------------
# builder API
# ----------------------------------------------------------------------
class TestClusterBuilder:
    def test_fluent_chain_builds_nodes_stacks_and_services(self):
        cl = (
            cluster(seed=3)
            .node("n0").stack("kvs::/svc").kvs(variant="min").device("nvme")
            .node("n1")
            .build()
        )
        assert sorted(cl.nodes) == ["n0", "n1"]
        assert cl.services == {"kvs::/svc": "n0"}
        assert cl.owner_of("kvs::/svc") == "n0"
        assert cl.owner_of("kvs::/svc/deep/key") == "n0"
        # default topology is a full mesh: both directed routes exist
        assert cl.route("n0", "n1") is not None
        assert cl.route("n1", "n0") is not None
        cl.shutdown()

    def test_stack_scope_requires_a_node(self):
        with pytest.raises(LabStorError, match="call node"):
            cluster().stack("kvs::/x")

    def test_duplicate_node_rejected(self):
        b = cluster().node("n0")
        with pytest.raises(LabStorError, match="already in cluster"):
            b.node("n0")

    def test_builder_holds_declarations_only_until_build(self):
        from repro.cluster import Cluster, Node

        b = (cluster(seed=3)
             .node("n0").stack("kvs::/svc").kvs(variant="min").device("nvme")
             .node("n1").link("n0", "n1"))
        held = [x for v in vars(b).values()
                for x in (v if isinstance(v, list)
                          else v.values() if isinstance(v, dict) else [v])]
        assert not any(isinstance(x, (Cluster, Node, Environment))
                       for x in held)
        # both placements start from the same frozen spec
        cl = b.build()
        assert b.build(shards=1).spec == cl.spec
        assert sorted(cl.nodes) == ["n0", "n1"]
        cl.shutdown()

    def test_explicit_links_only_routes_declared_pairs(self):
        cl = (
            cluster()
            .node("a").node("b").node("c")
            .link("a", "b")
            .build()
        )
        assert cl.route("a", "b") and cl.route("b", "a")
        with pytest.raises(FabricError, match="no route a->c"):
            cl.route("a", "c")
        cl.shutdown()

    def test_link_unknown_node_rejected(self):
        b = cluster().node("a")
        with pytest.raises(FabricError, match="unknown node 'z'"):
            b.link("a", "z")

    def test_owner_of_unregistered_path_raises(self):
        cl = cluster().node("n0").build()
        with pytest.raises(LabStorError, match="no cluster service owns"):
            cl.owner_of("kvs::/nowhere")
        cl.shutdown()

    def test_conflicting_service_registration_rejected(self):
        cl = cluster().node("n0").node("n1").build()
        cl.register_service("kvs::/x", "n0")
        cl.register_service("kvs::/x", "n0")  # same owner: idempotent
        with pytest.raises(LabStorError, match="already registered"):
            cl.register_service("kvs::/x", "n1")
        cl.shutdown()


# ----------------------------------------------------------------------
# one spec, two placements
# ----------------------------------------------------------------------
def _world_routes(view):
    routes = sorted(view.stats()["routes"])
    view.shutdown()
    return routes


CHAINS = {
    "default-mesh": lambda b: b.node("a").node("b").node("c"),
    "explicit-links": lambda b: (b.node("a").node("b").node("c")
                                 .link("a", "b").link("b", "c")),
    "one-way-link": lambda b: (b.node("a").node("b").node("c")
                               .link("a", "b")
                               .link("b", "c", bidirectional=False)),
    "connect-all-then-node": lambda b: (b.node("a").node("b").connect_all()
                                        .node("c")),
}
EXPECTED_ROUTES = {
    "default-mesh": ["a->b", "a->c", "b->a", "b->c", "c->a", "c->b"],
    "explicit-links": ["a->b", "b->a", "b->c", "c->b"],
    # a route needs the return link: its response rides it
    "one-way-link": ["a->b", "b->a"],
    # connect_all() meshes the nodes declared so far
    "connect-all-then-node": ["a->b", "b->a"],
}


class TestOneSpecTwoPlacements:
    @pytest.mark.parametrize("chain", sorted(CHAINS))
    def test_same_chain_same_routes(self, chain):
        cl = CHAINS[chain](cluster(seed=2)).build()
        shared = sorted(cl.stats()["routes"])
        cl.shutdown()
        res = CHAINS[chain](cluster(seed=2)).build(shards=1).run(
            finish=_world_routes)
        per_world = sorted(r for rs in res.results.values() for r in rs)
        assert shared == per_world == EXPECTED_ROUTES[chain]

    def test_one_way_link_still_carries_transfers(self):
        cl = CHAINS["one-way-link"](cluster()).build()
        assert cl.fabric.connected("b", "c")
        assert not cl.fabric.connected("c", "b")
        cl.shutdown()

    def test_sharded_build_rejects_what_it_cannot_honour(self):
        for kw in ({"telemetry": True}, {"env": Environment()}):
            with pytest.raises(LabStorError, match="drop env= / telemetry="):
                cluster(**kw).node("a").node("b").build(shards=1)

    def test_closed_loop_latencies_identical_across_placements(self):
        """One client, 32 puts then 32 gets over a 2-node ShardedKVS:
        every op costs the same virtual time whether the nodes share a
        clock or each runs in its own world."""
        from repro.sim.check import reset_global_counters

        def loop(cl, lat):
            kvs, env = cl.kvs, cl.env
            for j in range(32):
                t0 = env.now
                yield from kvs.put(f"k{j}", bytes([j]) * 128)
                lat.append(env.now - t0)
            for j in range(32):
                t0 = env.now
                assert (yield from kvs.get(f"k{j}")) == bytes([j]) * 128
                lat.append(env.now - t0)

        def chain():
            return cluster(seed=9).node("n0").node("n1")

        reset_global_counters()
        cl = chain().build()
        cl.kvs = cl.shard_kvs("kvs::/eq", replicas=1)
        shared: list[int] = []
        _run(cl, loop(cl, shared))
        cl.shutdown()

        def setup(view):
            view.kvs = view.shard_kvs("kvs::/eq", replicas=1)
            view.lat = []

        def drivers(view):
            return [("client", loop(view, view.lat))] if view.node_name == "n0" else []

        def finish(view):
            view.shutdown()
            return view.lat

        res = chain().build(shards=1).run(setup=setup, drivers=drivers,
                                          finish=finish)
        assert len(shared) == 64 and len(set(shared)) > 1  # local + remote ops
        assert res.results["n0"] == shared


# ----------------------------------------------------------------------
# cross-node calls
# ----------------------------------------------------------------------
class TestRouting:
    def test_remote_call_crosses_fabric_and_conserves_nic_qp(self):
        cl = (
            cluster(seed=5)
            .node("n0")
            .node("n1").stack("kvs::/far").kvs(variant="min").device("nvme")
            .build()
        )
        c = cl.client("n0")
        from repro.core.requests import LabRequest

        def go():
            yield from c.call("kvs::/far",
                              LabRequest(op="kvs.put",
                                         payload={"key": "k", "value": b"v"}))
            return (yield from c.call(
                "kvs::/far", LabRequest(op="kvs.get", payload={"key": "k"})))

        assert _run(cl, go()) == b"v"
        route = cl.route("n0", "n1")
        assert route.remote_calls == 2 and route.nacks == 0
        assert route.qp.owner == "fabric:n0->n1"
        assert cl.fabric.stats()["n0->n1"]["transfers"] == 2
        cl.shutdown()
        assert route.qp.submitted_total == route.qp.completed_total
        assert route.qp.inflight == 0

    def test_remote_error_comes_back_as_nack(self):
        cl = cluster(seed=5).node("n0").node("n1").build()
        c = cl.client("n0")
        from repro.core.requests import LabRequest

        def go():
            yield from c.call_on("n1", "kvs::/missing",
                                 LabRequest(op="kvs.get",
                                            payload={"key": "k"}))

        with pytest.raises(LabStorError):
            _run(cl, go())
        route = cl.route("n0", "n1")
        assert route.nacks == 1
        # conservation holds even for the failed op
        assert route.qp.submitted_total == route.qp.completed_total
        cl.shutdown()

    def test_local_call_never_touches_the_fabric(self):
        cl = (
            cluster(seed=5)
            .node("n0").stack("kvs::/near").kvs(variant="min").device("nvme")
            .node("n1")
            .build()
        )
        c = cl.client("n0")
        from repro.core.requests import LabRequest

        def go():
            yield from c.call("kvs::/near",
                              LabRequest(op="kvs.put",
                                         payload={"key": "k", "value": b"v"}))

        _run(cl, go())
        assert c.remote_calls == 0
        assert all(s["transfers"] == 0 for s in cl.fabric.stats().values())
        cl.shutdown()


def _error_samples():
    import inspect

    from repro import errors

    for name, cls in sorted(inspect.getmembers(errors, inspect.isclass)):
        if not issubclass(cls, errors.ReproError):
            continue
        if cls is errors.PermissionDenied:
            yield cls("no write bit")
        elif issubclass(cls, errors.FsError):
            yield cls("ENOENT", "no such key")
        elif issubclass(cls, errors.DeviceError):
            yield cls("bad block", device="nvme")
        else:
            yield cls("boom")


class TestRemoteErrors:
    @pytest.mark.parametrize("exc", list(_error_samples()),
                             ids=lambda e: type(e).__name__)
    def test_every_repro_error_keeps_its_type_across_the_wire(self, exc):
        import pickle

        from repro.cluster.routing import pickle_error

        back = pickle.loads(pickle_error(exc))
        assert type(back) is type(exc)
        assert str(back) == str(exc)
        for attr in ("errno_name", "device"):
            assert getattr(back, attr, None) == getattr(exc, attr, None)

    def test_remote_missing_key_raises_fserror_in_both_placements(self):
        def chain():
            return (cluster(seed=5)
                    .node("n0")
                    .node("n1").stack("kvs::/far").kvs(variant="min")
                    .device("nvme"))

        def get_missing(cl):
            from repro.core.requests import LabRequest

            yield from cl.client("n0").call(
                "kvs::/far", LabRequest(op="kvs.get", payload={"key": "nope"}))

        cl = chain().build()
        with pytest.raises(FsError, match="ENOENT"):
            _run(cl, get_missing(cl))
        cl.shutdown()

        def setup(view):
            view.out = None

        def drivers(view):
            def go():
                try:
                    yield from get_missing(view)
                except FsError as exc:
                    view.out = exc.errno_name
            return [("get", go())] if view.node_name == "n0" else []

        def finish(view):
            view.shutdown()
            return view.out

        res = chain().build(shards=1).run(setup=setup, drivers=drivers,
                                          finish=finish)
        assert res.results["n0"] == "ENOENT"


# ----------------------------------------------------------------------
# sharded KVS: replication, quorum, failover
# ----------------------------------------------------------------------
class TestShardedKVS:
    def _cluster(self, n=3, **kw):
        b = cluster(seed=kw.pop("seed", 7))
        for i in range(n):
            b.node(f"n{i}", config=FAST_CRASH,
                   failure_domain=f"rack-{i}")
        return b.build()

    def test_put_get_roundtrip_replicated(self):
        cl = self._cluster(3)
        kvs = cl.shard_kvs("kvs::/t", replicas=3)

        def go():
            for i in range(10):
                yield from kvs.put(f"k{i}", bytes([i]) * 32)
            out = []
            for i in range(10):
                out.append((yield from kvs.get(f"k{i}")))
            return out

        vals = _run(cl, go())
        assert vals == [bytes([i]) * 32 for i in range(10)]
        cl.shutdown()

    def test_remove_and_exists_respect_quorum(self):
        from repro.errors import FsError

        cl = self._cluster(3)
        kvs = cl.shard_kvs("kvs::/t", replicas=2)

        def go():
            yield from kvs.put("gone", b"x")
            assert (yield from kvs.exists("gone"))
            yield from kvs.remove("gone")

        _run(cl, go())

        def read_gone():
            yield from kvs.get("gone")

        # a removed key answers ENOENT, same as a plain GenericKVS get
        with pytest.raises(FsError, match="ENOENT"):
            _run(cl, read_gone())
        cl.shutdown()

    def test_gateways_on_different_nodes_agree_on_placement(self):
        cl = self._cluster(3)
        kvs = cl.shard_kvs("kvs::/t", replicas=2)
        other = kvs.bind(cl.client("n2"))

        def go():
            yield from kvs.put("shared", b"payload")
            return (yield from other.get("shared"))

        assert _run(cl, go()) == b"payload"
        cl.shutdown()

    def test_replica_node_killed_by_fault_plan_quorum_reads_survive(self):
        """The acceptance regression test: a repro.faults power cut takes
        a replica node down; reads keep succeeding off the survivors."""
        cl = self._cluster(3)
        kvs = cl.shard_kvs("kvs::/t", replicas=2, timeout_ns=int(msec(1)))
        cut_at = int(msec(3))
        cl.install_faults(f"power_cut:at={cut_at}", node="n1")
        nkeys = 16
        blob = {f"k{i}": bytes([i + 1]) * 48 for i in range(nkeys)}

        def go():
            for k, v in blob.items():
                yield from kvs.put(k, v)
            assert cl.env.now < cut_at, "workload must finish before the cut"
            yield cl.env.timeout(cut_at - cl.env.now + int(usec(100)))
            assert not cl.nodes["n1"].online
            out = {}
            for k in blob:
                out[k] = yield from kvs.get(k)
            return out

        out = _run(cl, go())
        assert out == blob
        # some keys replicate on n1, so the read fan-out really did fail
        # over rather than dodging the dead node by luck
        assert any("n1" in kvs.ring.preference(k, 2) for k in blob)
        cl.shutdown()

    def _outage_rejoin(self, *, anti_entropy):
        """Shared driver: n1 power-cut + restart, keys overwritten (and
        one removed) during the outage, then n0 dies so only n1 can
        answer for {n0, n1}-placed keys.  Returns what those reads saw."""
        cl = self._cluster(3)
        kvs = cl.shard_kvs("kvs::/ae", replicas=2, quorum=1,
                           timeout_ns=int(msec(1)),
                           anti_entropy=anti_entropy)
        cut_at = int(msec(3))
        nkeys = 24
        old = {f"k{i}": bytes([i + 1]) * 48 for i in range(nkeys)}
        new = {k: v[::-1] + b"!" for k, v in old.items()}
        # the keys only n1 can serve once n0 is gone
        pair = [k for k in old
                if set(kvs.ring.preference(k, 2)) == {"n0", "n1"}]
        assert pair, "placement left no {n0, n1} keys to test with"
        removed = pair[-1]
        # a crashed node's SHM queues survive (Section III-C3), so a
        # power cut alone would replay outage-era submissions at restart;
        # qp_reject models those submissions dying at the dead node's
        # NIC — the budget covers exactly the outage ops that replicate
        # on n1, leaving resync repairs unimpeded
        n1_ops = sum(1 for k in old if "n1" in kvs.ring.preference(k, 2))
        cl.install_faults(
            f"power_cut:at={cut_at},restart_after={int(msec(1))};"
            f"qp_reject:probability=1.0,at={cut_at},count={n1_ops}",
            node="n1")
        cl.install_faults(f"power_cut:at={int(msec(16))}", node="n0")

        def go():
            for k, v in old.items():
                yield from kvs.put(k, v)
            assert cl.env.now < cut_at
            yield cl.env.timeout(cut_at - cl.env.now + int(usec(100)))
            assert not cl.nodes["n1"].online
            for k, v in new.items():  # acked by survivors only
                if k == removed:
                    yield from kvs.remove(k)
                else:
                    yield from kvs.put(k, v)
            yield cl.nodes["n1"].runtime.online_event()
            # give the resync daemon room to finish before n0 dies
            yield cl.env.timeout(int(msec(5)))
            if anti_entropy:
                assert kvs.resyncs == 1 and not kvs._stale
            yield cl.env.timeout(int(msec(16)) - cl.env.now + int(usec(100)))
            assert not cl.nodes["n0"].online
            out = {}
            for k in pair:
                if k == removed:
                    continue
                out[k] = yield from kvs.get(k)
            try:
                yield from kvs.get(removed)
            except FsError:
                out[removed] = None
            else:
                out[removed] = "present"
            return out

        out = _run(cl, go())
        cl.shutdown()
        return kvs, pair, removed, old, new, out

    def test_anti_entropy_resyncs_rejoined_replica_from_quorum(self):
        """S2: a recovered replica is read-quarantined until a resync
        daemon write-repairs outage-era updates (and replays the
        deletion) from the healthy quorum — reads served by the rejoined
        node return the new values."""
        kvs, pair, removed, _old, new, out = self._outage_rejoin(
            anti_entropy=True)
        for k in pair:
            if k == removed:
                assert out[k] is None, "deletion was not replayed on n1"
            else:
                assert out[k] == new[k], f"{k} served stale data after rejoin"
        assert kvs.repaired >= len(pair) - 1

    def test_without_anti_entropy_rejoined_replica_serves_stale_data(self):
        """The contrast run: same outage, no resync — the rejoined
        replica answers from its own crash-recovered log, i.e. the
        pre-outage values (why S2 exists)."""
        kvs, pair, removed, old, new, out = self._outage_rejoin(
            anti_entropy=False)
        assert kvs.resyncs == 0
        stale = [k for k in pair if out[k] == old[k]]
        assert stale, "expected at least one stale read off the rejoined node"
        assert out[removed] == "present", "removal should be missing on n1"

    def test_write_quorum_unreachable_raises_quorum_error(self):
        cl = self._cluster(2)
        kvs = cl.shard_kvs("kvs::/t", replicas=2, quorum=2,
                           timeout_ns=int(msec(1)))
        cl.install_faults(f"power_cut:at={int(usec(100))}", node="n1")

        def go():
            yield cl.env.timeout(int(usec(200)))
            yield from kvs.put("doomed", b"x")

        with pytest.raises(QuorumError, match="quorum 2/2 unreachable"):
            _run(cl, go())
        assert kvs.quorum_failures == 1
        cl.shutdown()

    def test_replica_bounds_validated(self):
        cl = self._cluster(2)
        with pytest.raises(QuorumError, match="ring has 2"):
            cl.shard_kvs("kvs::/t", replicas=3)
        with pytest.raises(QuorumError, match="outside"):
            cl.shard_kvs("kvs::/u", replicas=2, quorum=3)
        cl.shutdown()


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def _e14(grid, **kw):
    from repro.experiments.runner import EXPERIMENTS, run_experiment

    return run_experiment(EXPERIMENTS["cluster"], grid=grid, **kw).rows


class TestClusterDeterminism:
    def test_e14_throughput_scales_with_nodes(self):
        one, four = _e14(
            [{"nnodes": n, "replicas": 1, "nclients": 16, "ops_per_client": 8}
             for n in (1, 4)], processes=1)
        assert four["kops_s"] >= 2.0 * one["kops_s"], (
            f"no scaling: 1 node {one['kops_s']:.1f} kops/s, "
            f"4 nodes {four['kops_s']:.1f} kops/s"
        )
        assert four["remote_calls"] > 0


    def test_e14_rows_match_the_committed_artifact(self):
        """The virtual columns of BENCH_cluster.json are the refactoring
        oracle for the shared placement: exact, not ">= 2x"."""
        from pathlib import Path

        committed = json.loads(
            (Path(__file__).parent.parent / "BENCH_cluster.json").read_text()
        )["rows"]
        keys = ("nnodes", "replicas", "elapsed_ms", "remote_calls", "fabric_MB")
        rows = _e14(None, processes=1)
        assert ([{k: r[k] for k in keys} for r in rows]
                == [{k: r[k] for k in keys} for r in committed])


# ----------------------------------------------------------------------
# PFS re-hosted on nodes
# ----------------------------------------------------------------------
def test_pfs_cluster_runs_on_genuine_nodes():
    from repro.experiments.runner import EXPERIMENTS, run_experiment

    row, = run_experiment(EXPERIMENTS["pfs-cluster"], grid=[
        {"ndata": 2, "nprocs": 2, "timesteps": 2, "particles_per_proc": 2048}]).rows
    assert row["fabric_messages"] > 0, "PFS never used the fabric"
    assert row["vpic_MBps"] > 0 and row["bdcats_MBps"] > 0
    assert row["metadata_ops"] > 0


def test_orangefs_default_transport_unchanged():
    """The transport seam must not move the standalone PFS numbers."""
    from repro.experiments.runner import EXPERIMENTS, run_experiment

    point = {"mds_backend": "ext4", "data_device": "nvme", "ndata": 2,
             "nprocs": 4, "timesteps": 4, "particles_per_proc": 4096}
    a, b = run_experiment(EXPERIMENTS["fig9a"], grid=[point, point],
                          processes=1).rows
    assert a == b
