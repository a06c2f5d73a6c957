"""Tests for repro.ctl: windowed metrics view, health checks, actuator
hysteresis, and the control daemon's convergence/no-op/oracle contracts."""

import pytest

from repro.ctl import (
    Actuators,
    AdmissionController,
    ControlDaemon,
    MetricsView,
    SelfHealController,
)
from repro.ctl.health import Health, QueueSaturation, SloBurn
from repro.ctl.presets import build_chaos_control
from repro.obs.metrics import MetricsRegistry
from repro.units import msec, usec


# ---------------------------------------------------------------------------
# MetricsView / MetricsWindow primitives
# ---------------------------------------------------------------------------
class TestMetricsWindow:
    def test_deltas_cover_only_the_window(self):
        reg = MetricsRegistry()
        view = MetricsView(reg)
        reg.inc("ops", 5, tenant="a")
        w1 = view.advance(1000)
        assert w1.delta("ops", tenant="a") == 5
        reg.inc("ops", 3, tenant="a")
        w2 = view.advance(2000)
        assert w2.delta("ops", tenant="a") == 3  # not 8: windowed
        assert w2.elapsed_ns == 1000
        assert w2.rate("ops", tenant="a") == pytest.approx(3e9 / 1000)

    def test_delta_sum_and_values_partial_filter(self):
        reg = MetricsRegistry()
        view = MetricsView(reg)
        reg.inc("ops", 2, tenant="a", op="get")
        reg.inc("ops", 3, tenant="a", op="put")
        reg.inc("ops", 7, tenant="b", op="get")
        w = view.advance(1000)
        assert w.delta_sum("ops", tenant="a") == 5
        assert w.delta_sum("ops") == 12
        pairs = w.delta_values("ops", op="get")
        assert sorted((p["tenant"], v) for p, v in pairs) == [("a", 2), ("b", 7)]

    def test_quantile_merges_partial_label_matches(self):
        reg = MetricsRegistry()
        view = MetricsView(reg)
        for _ in range(100):
            reg.observe("lat", 1_000, tenant="a")
        for _ in range(100):
            reg.observe("lat", 1_000_000, tenant="b")
        w = view.advance(1000)
        assert w.count("lat") == 200
        # aggregate p99 must see tenant b's slow tail, per-tenant must not
        assert w.quantile("lat", 0.99) >= 1_000_000
        assert w.quantile("lat", 0.99, tenant="a") < 10_000
        assert w.quantile("lat", 0.5, default=-1.0, tenant="zzz") == -1.0

    def test_window_histograms_reset_between_ticks(self):
        reg = MetricsRegistry()
        view = MetricsView(reg)
        reg.observe("lat", 500)
        view.advance(1000)
        w2 = view.advance(2000)
        assert w2.count("lat") == 0
        assert w2.quantile("lat", 0.99) is None

    def test_gauges_read_through_with_absent_default(self):
        reg = MetricsRegistry()
        view = MetricsView(reg)
        reg.set_gauge("deadline", 150.0, tenant="a")
        reg.set_gauge("deadline", 1000.0, tenant="b")
        w = view.advance(1000)
        assert w.gauge("deadline", tenant="a") == 150.0
        assert w.gauge("deadline", default=-1.0, tenant="zzz") == -1.0
        assert not w.has_gauge("deadline", tenant="zzz")
        vals = dict((p["tenant"], v) for p, v in w.gauge_values("deadline"))
        assert vals == {"a": 150.0, "b": 1000.0}


# ---------------------------------------------------------------------------
# health checks
# ---------------------------------------------------------------------------
class TestHealth:
    def test_health_level_validated_and_ordered(self):
        with pytest.raises(ValueError):
            Health("bogus")
        assert Health("ok").severity < Health("warn").severity < \
            Health("crit").severity

    def test_queue_saturation_validates_thresholds(self):
        with pytest.raises(ValueError):
            QueueSaturation(warn_depth=0)
        with pytest.raises(ValueError):
            QueueSaturation(warn_depth=64, crit_depth=32)

    def test_slo_burn_validates_thresholds(self):
        with pytest.raises(ValueError):
            SloBurn(warn_burn=0.5, crit_burn=0.1)


# ---------------------------------------------------------------------------
# actuator hysteresis (anti-flapping)
# ---------------------------------------------------------------------------
class _Flapper:
    """A deliberately oscillating controller: every tick it demands the
    admission limit toggle — the hysteresis gate must slow it down."""

    name = "flapper"

    def actuate(self, ctx, act):
        limit = act._admission.max_inflight
        act.set_admission_limit(9 if limit != 9 else 17, reason="flap")


class TestAntiFlapping:
    def test_flapping_controller_is_rate_limited(self):
        system, engine, _ = build_chaos_control(with_daemon=False,
                                                with_faults=False,
                                                duration_ns=msec(10))
        policy = engine.policy
        actuators = Actuators(system, cooldown_ticks=3,
                              max_actions_per_tick=1).bind_admission(policy)
        daemon = ControlDaemon(system, interval_ns=usec(500),
                               controllers=[_Flapper()], actuators=actuators)
        engine.run()
        assert daemon.ticks >= 10
        changes = [a for a in actuators.actions if a.knob == "admission"]
        assert changes, "flapper never landed a change"
        assert actuators.suppressed > 0, "hysteresis never engaged"
        # a knob may move at most once per cooldown_ticks control ticks
        ticks = [a.tick for a in changes]
        assert all(b - a >= 3 for a, b in zip(ticks, ticks[1:])), ticks
        system.shutdown()

    def test_per_tick_action_budget_holds(self):
        system, engine, daemon = build_chaos_control(duration_ns=msec(20))
        engine.run()
        per_tick: dict[int, int] = {}
        for a in daemon.actuators.actions:
            if not a.urgent:
                per_tick[a.tick] = per_tick.get(a.tick, 0) + 1
        budget = daemon.actuators.max_actions_per_tick
        assert all(n <= budget for n in per_tick.values()), per_tick
        # and non-urgent changes respect the per-knob cooldown
        cooldown = daemon.actuators.cooldown_ticks
        by_knob: dict[str, int] = {}
        for a in daemon.actuators.actions:
            if a.urgent:
                continue
            last = by_knob.get(a.knob)
            assert last is None or a.tick - last >= cooldown, (a.knob, a.tick)
            by_knob[a.knob] = a.tick
        system.shutdown()

    def test_urgent_bypasses_cooldown(self):
        system, engine, _ = build_chaos_control(with_daemon=False,
                                                with_faults=False)
        actuators = Actuators(system, cooldown_ticks=100,
                              max_actions_per_tick=1)
        actuators.bind_admission(engine.policy)
        actuators.begin_tick(1)
        assert actuators.set_admission_limit(5, reason="a")
        assert not actuators.set_admission_limit(6, reason="b")  # cooldown
        assert actuators.set_admission_limit(7, reason="c", urgent=True)
        assert actuators.suppressed == 1
        system.shutdown()


# ---------------------------------------------------------------------------
# chaos convergence: the daemon heals what the storm breaks
# ---------------------------------------------------------------------------
class TestChaosConvergence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_daemon_heals_within_budget(self, seed):
        system, engine, daemon = build_chaos_control(seed=seed)
        summary = engine.run()
        # the storm kills two workers and power-cuts the runtime with no
        # scheduled restart: by end of run the daemon must have fixed both
        assert system.runtime.online, f"seed {seed}: runtime still down"
        assert not system.runtime.orchestrator.dead_workers, \
            f"seed {seed}: crashed workers never respawned"
        assert daemon.actions_taken > 0
        restarts = [a for a in daemon.actuators.actions if a.knob == "runtime"]
        heals = [a for a in daemon.actuators.actions
                 if a.knob == "workers" and a.urgent]
        assert restarts, f"seed {seed}: no restart action"
        assert heals, f"seed {seed}: no heal action"
        # recovery happened with virtual time to spare: ops completed after
        # the last repair landed
        assert summary["totals"]["completed"] > 0
        system.shutdown()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_without_daemon_the_storm_sticks(self, seed):
        system, engine, daemon = build_chaos_control(seed=seed,
                                                     with_daemon=False)
        assert daemon is None
        engine.run()
        # no healer: the 6ms power cut (no restart_after) is permanent
        assert not system.runtime.online, f"seed {seed}: who restarted it?"
        system.shutdown(drain=False)

    def test_daemon_outperforms_no_daemon(self):
        goods = {}
        for with_daemon in (True, False):
            system, engine, _ = build_chaos_control(with_daemon=with_daemon)
            summary = engine.run()
            goods[with_daemon] = summary["totals"]["good"]
            system.shutdown(drain=system.runtime.online)
        assert goods[True] > 2 * goods[False], goods


# ---------------------------------------------------------------------------
# no-op safety: green checks leave the data path untouched
# ---------------------------------------------------------------------------
class TestNoOpSafety:
    def _run(self, with_daemon):
        system, engine, _ = build_chaos_control(with_daemon=False,
                                                with_faults=False,
                                                duration_ns=msec(10))
        daemon = None
        if with_daemon:
            daemon = ControlDaemon(system, interval_ns=usec(500),
                                   controllers=[SelfHealController()])
        summary = engine.run()
        snapshot = system.telemetry.registry.snapshot()
        system.shutdown()
        return summary, snapshot, daemon

    def test_green_checks_take_zero_actions_and_change_nothing(self):
        base_summary, base_snap, _ = self._run(with_daemon=False)
        summary, snap, daemon = self._run(with_daemon=True)
        assert daemon.ticks > 0
        assert all(lvl == "ok"
                   for rec in daemon.history for lvl in rec.levels.values()), \
            "a healthy run raised a non-green verdict"
        assert daemon.actions_taken == 0, daemon.actuators.actions
        # observing must not perturb: identical goodput and telemetry
        assert summary["totals"] == base_summary["totals"]
        assert snap == base_snap


# ---------------------------------------------------------------------------
# E15 oracle regression
# ---------------------------------------------------------------------------
def _e15(limits, processes):
    from repro.experiments.runner import EXPERIMENTS, run_experiment

    grid = [{"mode": "static", "limit": lim} for lim in limits]
    return run_experiment(EXPERIMENTS["control"], grid=grid + [{"mode": "controller"}],
                          base_seed=0, processes=processes).result()


class TestControlPlane:
    def test_controller_beats_static_and_nears_oracle(self):
        r = _e15(limits=(4, 32), processes=1)
        assert r["beats_static"], (
            f"controller {r['controller_total']} <= "
            f"static-best {r['static_best_total']}")
        assert r["vs_oracle"] >= 0.9, (
            f"controller at {r['vs_oracle']:.0%} of oracle")

    def test_sweep_identical_across_process_counts(self):
        assert _e15(limits=(4,), processes=1) == _e15(limits=(4,), processes=2)


# ---------------------------------------------------------------------------
# cluster-node daemon: registry=/rng= passed explicitly
# ---------------------------------------------------------------------------
class TestClusterDaemon:
    def test_daemon_steers_a_cluster_node(self):
        from repro.cluster import cluster

        cl = (
            cluster(seed=5, telemetry=True)
            .node("n0").stack("kvs::/a").kvs(variant="min").device("nvme")
            .node("n1").stack("kvs::/b").kvs(variant="min").device("nvme")
            .build()
        )
        node = cl.nodes["n0"]
        # a Node owns neither a telemetry handle nor an RngRegistry: the
        # daemon requires both seams explicitly
        from repro.errors import LabStorError

        with pytest.raises(LabStorError, match="registry"):
            ControlDaemon(node, interval_ns=usec(100))
        daemon = ControlDaemon(node, interval_ns=usec(100),
                               registry=cl.telemetry.registry,
                               rng=cl.rngs.stream("n0.ctl"))

        def idle():
            yield cl.env.timeout(msec(1))

        cl.run(cl.process(idle()))
        assert daemon.ticks >= 9
        assert "worker_liveness" in daemon.last_health
        assert daemon.last_health["worker_liveness"].ok
        cl.shutdown()
