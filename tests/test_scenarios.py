"""The scenario catalogue: every entry is deterministic, and the
substrate package ``repro.sim`` does not import the layers above it."""

import hashlib
import os
import subprocess
import sys

import pytest

from repro.scenarios import SCENARIOS, run_scenario
from repro.sim.check import TraceHasher
from repro.sim.par import TraceCollector, merge_digest
from repro.sim.trace import TraceEvent

#: scenario-specific facts the double run must also show
EXPECT = {
    "batching": lambda out: (
        out.result["merged_ops"] > 0 and out.result["coalesced_ops"] >= 0
        and out.report["checks"].get("batch", 0) > 0),  # san.batch records audited
    "cluster": lambda out: (
        out.result["failovers"] > 0 and out.result["remote_calls"] > 0),
}


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_every_scenario_is_deterministic(name, profiled, par_run):
    """Run one is the entry's profiled run (shared with the reach-map
    pin), run two a plain one: profiling must not move a digest either."""
    entry = SCENARIOS[name]
    if entry.serial is None and entry.point is None:
        # par-only: run two is the shard-invariance test's shards=2 run
        a = profiled[f"{name}@par"][0]
        b = par_run(name, 0, 2)
        assert a.digest == b.digest
        assert a.merged_events == b.merged_events > 0
        return
    a, b = profiled[name][0], run_scenario(name)
    assert a.digest == b.digest
    assert a.report["violations"] == [] and b.report["violations"] == []
    assert a.trace_events == b.trace_events > 0
    assert a.result == b.result
    assert EXPECT.get(name, lambda out: True)(a)


def test_catalogue_has_every_known_scenario():
    assert list(SCENARIOS) == [
        "quickstart", "orchestration", "kvs", "faults", "batching",
        "openloop", "cluster", "control", "upgrade_under_load", "e14", "zns",
        # the paper's figures: each experiment's smoke point
        "anatomy", "anatomy-read", "table1", "fig5a", "fig5b", "fig6", "fig7", "fig8",
        "fig9a", "fig9b", "fig9c", "ablation-allocator", "ablation-ipc-cost",
        "ablation-exec-mode", "ablation-consistency", "ablation-cache-capacity",
    ]
    assert all(s.serial or s.par or s.point for s in SCENARIOS.values())
    # a point form has no pause point: the snapshot tests' serial list is
    # the eleven extension scenarios' ten
    assert not any(s.point and (s.serial or s.par) for s in SCENARIOS.values())


def test_serial_and_merged_digests_share_one_canonical_line():
    """The same events through both sinks: the sharded runner's merged
    digest of one world equals the serial hasher's digest."""
    events = [
        TraceEvent(5, "qp.submit", {"qid": 3, "ok": True, "lat": 1.5}),
        TraceEvent(5, "span", {"who": object(), "name": "x|y", "none": None}),
        TraceEvent(9, "dev.done", {}),
    ]
    hasher, collector = TraceHasher(), TraceCollector("n0")
    for ev in events:
        hasher(ev)
        collector(ev)
    assert [line for _t, _seq, line in collector.events] == [
        "5|qp.submit|lat=1.5|ok=True|qid=3",
        "5|span|name='x|y'|none=None|who=object",
        "9|dev.done",
    ]
    assert merge_digest({"n0": collector.events}) == (hasher.hexdigest(), 3)
    assert hasher.hexdigest() == hashlib.sha256(
        "".join(line + "\n" for _t, _seq, line in collector.events).encode()
    ).hexdigest()


def test_sim_package_does_not_import_the_layers_above_it():
    """Importing every ``repro.sim`` module must not pull in the
    catalogue or any subsystem it drives (the CLI mains reach the
    catalogue lazily)."""
    code = (
        "import importlib, pkgutil, sys, repro.sim\n"
        "for m in pkgutil.iter_modules(repro.sim.__path__):\n"
        "    importlib.import_module('repro.sim.' + m.name)\n"
        "above = ('snap', 'cluster', 'ctl', 'traffic', 'scenarios')\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith(tuple('repro.' + a for a in above))))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"
