"""Tests for repro.traffic: arrivals, Zipf keys, YCSB, the open-loop engine."""

import numpy as np
import pytest

from repro.core.runtime import RuntimeConfig
from repro.mods.generic_kvs import GenericKVS
from repro.system import LabStorSystem
from repro.traffic import (
    BurstyArrivals,
    DiurnalArrivals,
    OpenLoopEngine,
    PoissonArrivals,
    QueueDepthAdmission,
    TenantSLO,
    TenantSpec,
    YcsbWorkload,
    ZipfKeys,
    build_overload_engine,
    overload_tenants,
)
from repro.units import msec, usec


# ---------------------------------------------------------------------------
# Zipf keys
# ---------------------------------------------------------------------------
def test_zipf_bounds_and_determinism():
    z = ZipfKeys(100, theta=0.99)
    draws1 = z.sample_many(np.random.default_rng(7), 2000)
    draws2 = z.sample_many(np.random.default_rng(7), 2000)
    assert (draws1 == draws2).all()
    assert draws1.min() >= 0 and draws1.max() < 100


def test_zipf_is_skewed_and_uniform_at_theta_zero():
    rng = np.random.default_rng(0)
    z = ZipfKeys(1000, theta=0.99)
    draws = z.sample_many(rng, 20_000)
    hot = (draws < 10).mean()
    assert hot > 0.25, f"top-1% keys carried only {hot:.2%} of draws"
    assert abs(hot - z.hot_fraction(10)) < 0.05
    u = ZipfKeys(1000, theta=0.0)
    udraws = u.sample_many(np.random.default_rng(0), 20_000)
    assert (udraws < 10).mean() < 0.03  # ~1% under uniform


def test_zipf_validation():
    with pytest.raises(ValueError):
        ZipfKeys(0)
    with pytest.raises(ValueError):
        ZipfKeys(10, theta=-1)


# ---------------------------------------------------------------------------
# arrival processes
# ---------------------------------------------------------------------------
def _empirical_rate(proc, ndraws=20_000, seed=3):
    rng = np.random.default_rng(seed)
    now = 0
    for _ in range(ndraws):
        gap = proc.next_interarrival_ns(rng, now)
        assert isinstance(gap, int) and gap >= 1
        now += gap
    return ndraws / (now / 1e9)


def test_poisson_mean_rate():
    rate = _empirical_rate(PoissonArrivals(1e6))
    assert rate == pytest.approx(1e6, rel=0.05)


def test_bursty_time_averaged_rate_and_phases():
    proc = BurstyArrivals(1e6, burst_factor=8.0, duty=0.2, mean_burst_ns=50_000)
    assert proc.burst_rate == pytest.approx(8 * proc.quiet_rate)
    # duty*burst + (1-duty)*quiet == configured mean
    mean = 0.2 * proc.burst_rate + 0.8 * proc.quiet_rate
    assert mean == pytest.approx(1e6)
    rate = _empirical_rate(proc, ndraws=40_000)
    assert rate == pytest.approx(1e6, rel=0.25)


def test_diurnal_rate_modulation_and_mean():
    proc = DiurnalArrivals(1e6, period_ns=1_000_000, amplitude=0.8)
    quarter = 250_000  # sin peak at 1/4 period
    assert proc.rate_at(quarter) == pytest.approx(1.8e6, rel=0.01)
    assert proc.rate_at(3 * quarter) == pytest.approx(0.2e6, rel=0.01)
    rate = _empirical_rate(proc, ndraws=40_000)
    assert rate == pytest.approx(1e6, rel=0.1)


def test_arrival_validation():
    with pytest.raises(ValueError):
        PoissonArrivals(0)
    with pytest.raises(ValueError):
        BurstyArrivals(100, duty=1.5)
    with pytest.raises(ValueError):
        DiurnalArrivals(100, amplitude=1.5)


# ---------------------------------------------------------------------------
# tenants
# ---------------------------------------------------------------------------
def test_tenant_population_maps_to_aggregate_rate():
    spec = TenantSpec("t", users=2_000_000, ops_per_user_per_sec=0.03,
                      slo=TenantSLO(deadline_ns=usec(500)))
    assert spec.offered_ops_per_sec == pytest.approx(60_000)
    arr = spec.build_arrivals(load_factor=2.0)
    assert isinstance(arr, PoissonArrivals)
    assert arr.rate_per_sec == pytest.approx(120_000)


def test_tenant_validation():
    slo = TenantSLO(deadline_ns=1000)
    with pytest.raises(ValueError):
        TenantSLO(deadline_ns=0)
    with pytest.raises(ValueError):
        TenantSpec("t", users=0, ops_per_user_per_sec=1, slo=slo)
    with pytest.raises(ValueError):
        TenantSpec("t", users=1, ops_per_user_per_sec=1, slo=slo,
                   schedule="lunar")
    spec = TenantSpec("t", users=1, ops_per_user_per_sec=1, slo=slo)
    with pytest.raises(ValueError):
        spec.build_arrivals(load_factor=0)


# ---------------------------------------------------------------------------
# YCSB workload family
# ---------------------------------------------------------------------------
def _kvs_system(nworkers=1):
    sys_ = LabStorSystem(devices=("nvme",), config=RuntimeConfig(nworkers=nworkers))
    sys_.mount_kvs_stack("kvs::/y", variant="all")
    return sys_


def test_ycsb_mix_fractions_and_reads_verify():
    sys_ = _kvs_system()
    wl = YcsbWorkload(GenericKVS(sys_.client(), "kvs::/y"), mix="B",
                      nkeys=32, value_size=64)
    sys_.run(sys_.process(wl.preload()))
    rng = np.random.default_rng(11)

    def drive(n=200):
        vals = []
        for _ in range(n):
            vals.append((yield from wl.make_op(rng)))
        return vals

    vals = sys_.run(sys_.process(drive()))
    total = sum(wl.counts.values())
    assert total == 200
    assert wl.counts["read"] / total == pytest.approx(0.95, abs=0.05)
    # reads return the key-derived payload the load phase inserted
    read_vals = [v for v in vals if isinstance(v, bytes)]
    assert read_vals and all(len(v) == 64 for v in read_vals)
    sys_.shutdown()


def test_ycsb_mix_validation():
    from repro.traffic import YcsbMix

    with pytest.raises(ValueError):
        YcsbMix("bad", read=0.5, update=0.4)


# ---------------------------------------------------------------------------
# the open-loop engine
# ---------------------------------------------------------------------------
def _engine_system(duration_ns, policy=None, load=1.0, rate=20_000.0):
    sys_ = _kvs_system(nworkers=2)
    wl = YcsbWorkload(GenericKVS(sys_.client(), "kvs::/y"), mix="A", nkeys=16,
                      value_size=128)
    sys_.run(sys_.process(wl.preload()))
    engine = OpenLoopEngine(sys_, duration_ns=duration_ns, policy=policy)
    spec = TenantSpec("solo", users=int(rate), ops_per_user_per_sec=1.0,
                      slo=TenantSLO(deadline_ns=usec(400)))
    engine.add_tenant(spec, wl.make_op, load_factor=load)
    return sys_, engine


def test_engine_light_load_all_ops_good():
    sys_, engine = _engine_system(msec(2))
    s = engine.run()
    t = s["tenants"]["solo"]
    assert t["launched"] == t["completed"] > 0
    assert t["good"] + t["slo_violations"] == t["completed"]
    assert t["rejected"] == 0 and t["errors"] == 0
    assert engine.inflight == 0
    assert t["p999_ns"] >= t["p99_ns"] >= t["p50_ns"] > 0
    # the registry mirrors the per-tenant counters
    reg = engine.registry
    assert reg.counter("tenant_ops_total", tenant="solo") == t["completed"]
    assert reg.counter("tenant_slo_violations_total", tenant="solo") == t["slo_violations"]
    assert reg.histogram("tenant_latency_ns", tenant="solo").total == t["completed"]
    sys_.shutdown()


def test_engine_goodput_accounting_against_recorder():
    sys_, engine = _engine_system(msec(2))
    s = engine.run()
    st = engine.stats("solo")
    assert st.latency.count == st.completed
    assert s["goodput_ops_s"] == pytest.approx(
        st.good / (s["elapsed_ns"] / 1e9))
    sys_.shutdown()


def test_queue_depth_admission_bounds_inflight_and_rejects():
    sys_, engine = _engine_system(msec(2), policy=QueueDepthAdmission(3),
                                  load=8.0)
    s = engine.run()
    t = s["tenants"]["solo"]
    assert s["peak_inflight"] <= 3
    assert t["rejected"] > 0
    assert engine.registry.counter("tenant_rejected_total", tenant="solo") == t["rejected"]
    sys_.shutdown()


def test_open_loop_exposes_saturation_closed_loop_cannot():
    """The point of the whole package: at 8x the load, an open-loop driver
    keeps arrivals coming, queues build, and admitted ops start blowing
    their deadline — violations a think-time loop would never produce."""
    sys_l, light = _engine_system(msec(1.5), load=0.5)
    sl = light.run()["tenants"]["solo"]
    sys_h, heavy = _engine_system(msec(1.5), load=8.0)
    sh = heavy.run()["tenants"]["solo"]
    assert sl["slo_violations"] == 0
    assert sh["slo_violations"] > 0
    assert sh["p99_ns"] > 2 * sl["p99_ns"]
    assert heavy.peak_inflight > 3 * light.peak_inflight
    sys_l.shutdown()
    sys_h.shutdown()


def test_engine_rejects_duplicate_and_empty():
    sys_, engine = _engine_system(msec(1))
    spec = engine.tenants[0]
    with pytest.raises(ValueError):
        engine.add_tenant(spec, lambda rng: None)
    empty = OpenLoopEngine(sys_, duration_ns=msec(1))
    with pytest.raises(ValueError):
        empty.run()
    with pytest.raises(KeyError):
        engine.stats("nobody")
    sys_.shutdown()


def test_engine_uses_telemetry_registry_when_armed():
    sys_ = LabStorSystem(devices=("nvme",), config=RuntimeConfig(nworkers=1),
                         telemetry=True)
    engine = OpenLoopEngine(sys_, duration_ns=msec(1))
    assert engine.registry is sys_.telemetry.registry
    sys_.shutdown()


# ---------------------------------------------------------------------------
# the canonical overload preset + determinism
# ---------------------------------------------------------------------------
def test_overload_preset_shape():
    specs = overload_tenants()
    assert [s.name for s in specs] == ["frontend", "analytics"]
    assert sum(s.users for s in specs) == 2_000_000
    assert sum(s.offered_ops_per_sec for s in specs) == pytest.approx(60_000)
    assert {s.schedule for s in specs} == {"diurnal", "bursty"}


def test_overload_preset_runs_and_reports():
    system, engine = build_overload_engine(duration_ns=msec(1), load=1.0)
    s = engine.run()
    assert set(s["tenants"]) == {"frontend", "analytics"}
    assert s["totals"]["completed"] == s["totals"]["launched"] > 0
    from repro.traffic.report import format_slo_report

    table = format_slo_report(s)
    assert "frontend" in table and "analytics" in table
    system.shutdown()
