"""Determinism checker: replay a scenario and compare trace hashes.

The reproducibility contract of the DES kernel is that a seeded scenario
always produces the same event stream.  This module makes that claim
testable: it runs a named scenario twice in the same process, hashes every
trace event (spans plus the sanitizer's ``san.*`` kernel audit stream),
and reports whether the two digests match — alongside the sanitizer's
invariant report for each run.

Usage::

    python -m repro.sim.check                    # all scenarios, twice each
    python -m repro.sim.check quickstart         # one scenario
    python -m repro.sim.check --list

or from a test via the ``determinism_check`` pytest fixture
(``tests/conftest.py``).
"""

from __future__ import annotations

import hashlib
import itertools
import sys
from typing import Any, Callable

from .core import Environment
from .sanitizer import Sanitizer
from .trace import TraceEvent

__all__ = [
    "TraceHasher",
    "AuditRun",
    "CounterScope",
    "reset_global_counters",
    "run_scenario",
    "SCENARIOS",
    "main",
]


def _canon(v: Any) -> str:
    """Stable projection of a trace-event field for hashing.

    Scalars hash by value; arbitrary objects hash by type name only, so
    memory addresses and process-global ids never leak into the digest.
    """
    if v is None or isinstance(v, (bool, int, str)):
        return repr(v)
    if isinstance(v, float):
        return format(v, ".17g")
    return type(v).__name__


class TraceHasher:
    """A tracer sink folding every event into one SHA-256 digest.

    With ``arm_at_ns`` set, events before that virtual timestamp are
    counted (``skipped``) but not hashed — the digest then covers only
    the event-stream *suffix* from T on.  That is the seam replay-to-point
    restore needs: a restored run hashes nothing during replay and must
    match the armed digest of an unbroken run byte-for-byte
    (:mod:`repro.snap.replay`).
    """

    def __init__(self, arm_at_ns: int | None = None) -> None:
        self._h = hashlib.sha256()
        self.count = 0
        self.skipped = 0
        self.arm_at_ns = arm_at_ns

    def __call__(self, ev: TraceEvent) -> None:
        if self.arm_at_ns is not None and ev.time_ns < self.arm_at_ns:
            self.skipped += 1
            return
        parts = [str(ev.time_ns), ev.category]
        parts += [f"{k}={_canon(ev.fields[k])}" for k in sorted(ev.fields)]
        self._h.update("|".join(parts).encode())
        self._h.update(b"\n")
        self.count += 1

    def hexdigest(self) -> str:
        return self._h.hexdigest()


class AuditRun:
    """One sanitized, hashed scenario execution.

    A scenario receives the AuditRun, builds its environment, calls
    :meth:`attach` *before* driving any simulation, and runs.  Afterwards
    :attr:`digest` is the trace hash and :meth:`finish` yields the
    sanitizer's teardown report.
    """

    def __init__(self, strict: bool = True, arm_at_ns: int | None = None) -> None:
        self.hasher = TraceHasher(arm_at_ns=arm_at_ns)
        self.sanitizer = Sanitizer(strict=strict)
        self.env: Environment | None = None

    def attach(self, env: Environment) -> Environment:
        self.env = env
        self.sanitizer.install(env)
        env.tracer.add_sink(self.hasher)
        return env

    def finish(self) -> dict[str, Any]:
        return self.sanitizer.finish()

    @property
    def digest(self) -> str:
        return self.hasher.hexdigest()


#: every module-global identity counter: (module, attribute, start)
_COUNTER_SITES = (
    ("repro.system", "_uuid_seq", 1),
    ("repro.builder", "_uuid_seq", 1),
    ("repro.core.client", "_pids", 1000),
    ("repro.core.labstack", "_stack_ids", 1),
    ("repro.core.requests", "_req_ids", 1),
    ("repro.devices.base", "_req_ids", 1),
    ("repro.ipc.queue_pair", "_qids", 1),
    ("repro.ipc.shmem", "_seg_ids", 1),
    ("repro.mods.labfs.log", "_seq", 1),
)


def _counter_modules() -> list[tuple[Any, str, int]]:
    import importlib

    return [(importlib.import_module(mod), attr, start)
            for mod, attr, start in _COUNTER_SITES]


def reset_global_counters() -> None:
    """Rewind every module-level id counter to its import-time start.

    Request/queue/segment/stack ids come from process-global counters, and
    process names (hashed via ``san.step``) embed them — so back-to-back
    runs of one scenario must start from identical counter state to be
    comparable.
    """
    for module, attr, start in _counter_modules():
        setattr(module, attr, itertools.count(start))


class CounterScope:
    """A private identity-counter universe.

    The sharded runner (:mod:`repro.sim.par`) hosts several node-worlds
    per process; were they to share the process-global counters, the ids
    a world draws would depend on which *other* worlds it cohabits with
    — and differ between ``shards=1`` and forked runs.  Each world owns
    a scope and :meth:`activate`\\ s it before executing, so every draw
    depends only on that world's own history: the exact values it would
    draw running alone in a fork.
    """

    def __init__(self) -> None:
        self._sites = [(module, attr, itertools.count(start))
                       for module, attr, start in _counter_modules()]

    def activate(self) -> None:
        for module, attr, counter in self._sites:
            setattr(module, attr, counter)


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------
def _scenario_quickstart(audit: AuditRun) -> dict[str, Any]:
    """The README quickstart: mount Lab-All, write + read one file."""
    from ..mods.generic_fs import GenericFS
    from ..system import LabStorSystem

    env = Environment()
    audit.attach(env)
    system = LabStorSystem(env=env, devices=("nvme",))
    system.mount_fs_stack("fs::/demo", variant="all")
    gfs = GenericFS(system.client())
    payload = b"determinism is a feature " * 160  # ~4KB

    def go():
        fd = yield from gfs.open("fs::/demo/hello.txt", create=True)
        yield from gfs.write(fd, payload, offset=0)
        data = yield from gfs.read(fd, len(payload), offset=0)
        yield from gfs.fsync(fd)
        yield from gfs.close(fd)
        return data

    data = system.run(system.process(go()))
    assert data == payload, "quickstart round-trip mismatch"
    return {"bytes": len(payload), "stats": system.runtime.stats()}


def _scenario_orchestration(audit: AuditRun) -> dict[str, Any]:
    """Dynamic-policy scaling: a heavy wave then a light one, so the
    orchestrator both spawns and decommissions workers (the scale-in
    path this PR fixed)."""
    import numpy as np

    from ..core import RuntimeConfig, StackSpec
    from ..system import LabStorSystem
    from ..units import msec
    from ..workloads.fio import FioJob, FioResult, LabStackEngine, _job_proc

    env = Environment()
    audit.attach(env)
    system = LabStorSystem(
        env=env,
        devices=("nvme",),
        config=RuntimeConfig(nworkers=1, policy="dynamic", max_workers=6,
                             orchestrator_interval_ns=msec(1.0)),
    )
    spec = StackSpec.linear("blk::/w", [("NoOpSchedMod", "chk.noop"),
                                        ("KernelDriverMod", "chk.drv")])
    spec.nodes[0].attrs = {"nqueues": 8}
    spec.nodes[1].attrs = {"device": "nvme"}
    stack = system.runtime.mount_stack(spec)
    engines = [LabStackEngine(system.client(), stack, system.devices["nvme"])
               for _ in range(4)]

    def wave(engs, ops):
        result = FioResult()
        procs = [
            system.process(_job_proc(env, e, FioJob(rw="randwrite", bs=4096, nops=ops, core=i),
                                     np.random.default_rng(i), result, b"x" * 4096))
            for i, e in enumerate(engs)
        ]
        system.run(env.all_of(procs))

    wave(engines, 150)      # heavy: the pool scales out
    wave(engines[:1], 250)  # light: the pool scales back in
    orch = system.runtime.orchestrator
    return {"workers": orch.worker_count(), "rebalances": orch.rebalances}


def _scenario_kvs(audit: AuditRun) -> dict[str, Any]:
    """LabKVS put/get churn through the Runtime's workers."""
    from ..mods.generic_kvs import GenericKVS
    from ..system import LabStorSystem

    env = Environment()
    audit.attach(env)
    system = LabStorSystem(env=env, devices=("nvme",))
    system.mount_kvs_stack("kvs::/x", variant="all")
    kvs = GenericKVS(system.client(), "kvs::/x")

    def go():
        for i in range(48):
            yield from kvs.put(f"key{i % 12}", bytes([i % 251]) * (64 + 16 * (i % 7)))
        hits = 0
        for i in range(12):
            if (yield from kvs.get(f"key{i}")) is not None:
                hits += 1
        return hits

    hits = system.run(system.process(go()))
    assert hits == 12, f"kvs round-trip lost keys ({hits}/12)"
    return {"hits": hits}


def _scenario_faults(audit: AuditRun) -> dict[str, Any]:
    """Chaos under audit: probabilistic media errors + queue rejections +
    a worker crash + a power cut with auto-restart, driven against a
    retrying GenericFS.  Every injection draws from the seeded "faults"
    RNG stream, so the whole storm must replay digest-identical.
    (Delegates to :class:`repro.snap.programs.FaultsProgram`, which the
    replay-to-point property tests also drive.)"""
    from ..snap.programs import FaultsProgram
    from ..snap.replay import drive_program

    return drive_program(FaultsProgram(), audit)


def _scenario_batching(audit: AuditRun) -> dict[str, Any]:
    """The batching fast path end to end: vectored writev/readv waves ride
    Client.submit_batch through worker batch-pop, BatchSchedMod merging and
    device-level coalescing, so every batch-conservation invariant
    (san.qp batch counters + san.batch settle records) gets exercised."""
    from ..snap.programs import BatchingProgram
    from ..snap.replay import drive_program

    return drive_program(BatchingProgram(), audit)


def _scenario_openloop(audit: AuditRun) -> dict[str, Any]:
    """Open-loop tenant traffic under overload: the canonical two-tenant
    population (diurnal YCSB-C frontend + bursty YCSB-A analytics) at 2.5x
    nominal load behind queue-depth admission.  Every arrival, key choice
    and op-mix draw comes from the seeded per-tenant streams, so the whole
    storm — admissions, rejections, queue growth, drain — must replay
    digest-identical."""
    from ..traffic.engine import QueueDepthAdmission
    from ..traffic.presets import build_overload_engine
    from ..units import msec

    env = Environment()
    audit.attach(env)
    system, engine = build_overload_engine(
        env=env, duration_ns=msec(1.5), load=2.5,
        policy=QueueDepthAdmission(8),
    )
    summary = engine.run()
    tot = summary["totals"]
    assert tot["completed"] > 0, "open-loop run completed no ops"
    assert tot["completed"] == tot["launched"], "drain lost in-flight ops"
    assert tot["rejected"] > 0, "overload never tripped admission control"
    assert engine.inflight == 0, "inflight accounting leaked"
    return {
        "launched": tot["launched"],
        "good": tot["good"],
        "violations": tot["violations"],
        "rejected": tot["rejected"],
        "peak_inflight": summary["peak_inflight"],
        "elapsed_ns": summary["elapsed_ns"],
    }


def _scenario_cluster(audit: AuditRun) -> dict[str, Any]:
    """Cluster-scale determinism: a 3-node sharded+replicated KVS doing
    cross-fabric puts, then a fault-plan power cut killing one replica
    node mid-run, then failover reads off the survivors.  NIC queue
    pairs, fabric links, replica fan-out, crash ride-out and quorum
    accounting all land in one digest."""
    from ..snap.programs import ClusterProgram
    from ..snap.replay import drive_program

    return drive_program(ClusterProgram(), audit)


def _scenario_control(audit: AuditRun) -> dict[str, Any]:
    """Closed-loop control under chaos: the canonical 2-worker KVS storm
    (two worker crashes with inline respawn off, an unattended power cut,
    a latency tax, a device stall) steered by a ControlDaemon — healer,
    retry-tuner and worker-scaler acting through hysteresis-gated
    actuator seams.  Every control draw comes from the seeded "ctl"
    stream and every repair flows through declared actuators, so sample →
    check → actuate must replay digest-identical."""
    from ..ctl.presets import build_chaos_control

    env = Environment()
    audit.attach(env)
    system, engine, daemon = build_chaos_control(env=env)
    summary = engine.run()
    tot = summary["totals"]
    assert daemon is not None and daemon.ticks > 0, "daemon never ticked"
    assert daemon.actions_taken > 0, "chaos storm provoked no repairs"
    assert system.runtime.online, "daemon failed to restart the runtime"
    assert not system.runtime.orchestrator.dead_workers, \
        "daemon left crashed workers dead"
    assert tot["completed"] > 0, "controlled run completed no ops"
    return {
        "launched": tot["launched"],
        "good": tot["good"],
        "rejected": tot["rejected"],
        "ticks": daemon.ticks,
        "actions": daemon.actions_taken,
        "suppressed": daemon.actuators.suppressed,
    }


SCENARIOS: dict[str, Callable[[AuditRun], dict[str, Any]]] = {
    "quickstart": _scenario_quickstart,
    "orchestration": _scenario_orchestration,
    "kvs": _scenario_kvs,
    "faults": _scenario_faults,
    "batching": _scenario_batching,
    "openloop": _scenario_openloop,
    "cluster": _scenario_cluster,
    "control": _scenario_control,
}


def run_scenario(name: str, strict: bool = True) -> tuple[str, dict[str, Any]]:
    """Run one scenario under the sanitizer; returns (digest, report)."""
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}")
    reset_global_counters()
    audit = AuditRun(strict=strict)
    result = SCENARIOS[name](audit)
    report = audit.finish()
    report["result"] = result
    report["trace_events"] = audit.hasher.count
    return audit.digest, report


def _main_shards(names: list[str], shards: list[int], seed: int) -> int:
    """``--shards`` mode: run each par-capable scenario once per shard
    count under the sharded runner and require every merged digest to be
    byte-identical to the ``shards=1`` baseline."""
    from ..cluster.par import PAR_SCENARIOS
    from .par import run_program

    unknown = [n for n in names if n not in PAR_SCENARIOS]
    if unknown:
        print(f"not par-capable: {', '.join(unknown)}; "
              f"par scenarios: {sorted(PAR_SCENARIOS)}", file=sys.stderr)
        return 2
    failed = False
    for name in names:
        digests = {}
        for n in shards:
            res = run_program(PAR_SCENARIOS[name](seed), shards=n, trace=True)
            digests[n] = (res.digest, res.merged_events)
        base, base_events = digests[shards[0]]
        ok = all(d == base for d, _ in digests.values())
        failed |= not ok
        print(f"[{'ok' if ok else 'FAIL'}] {name}: {base_events} merged "
              f"trace events across shards={{{','.join(map(str, shards))}}}")
        for n in shards:
            d, _ = digests[n]
            mark = "" if d == base else "   <-- DIVERGES FROM shards=1"
            print(f"       shards={n}: {d}{mark}")
    return 1 if failed else 0


_USAGE = ("usage: check [--list] [--strict] [--shards 1,2,4 [--seed N]] "
          "[scenario ...]")


def main(argv: list[str]) -> int:
    if "--list" in argv:
        print("\n".join(SCENARIOS))
        return 0
    strict = "--strict" in argv
    shards: list[int] | None = None
    seed = 0
    argv = list(argv)
    if "--shards" in argv:
        i = argv.index("--shards")
        try:
            shards = [int(s) for s in argv[i + 1].split(",")]
        except (IndexError, ValueError):
            print("--shards needs a comma-separated int list, e.g. "
                  "--shards 1,2,4", file=sys.stderr)
            return 2
        del argv[i:i + 2]
    if "--seed" in argv:
        if shards is None:
            # the serial scenarios are canned at one seed; running seed 0
            # under a --seed 3 label would be a silent lie
            print(f"--seed only applies with --shards; {_USAGE}", file=sys.stderr)
            return 2
        i = argv.index("--seed")
        try:
            seed = int(argv[i + 1])
        except (IndexError, ValueError):
            print("--seed needs an integer", file=sys.stderr)
            return 2
        del argv[i:i + 2]
    bad_flags = [a for a in argv if a.startswith("-") and a != "--strict"]
    if bad_flags:
        print(f"unknown option(s): {', '.join(bad_flags)}; {_USAGE}",
              file=sys.stderr)
        return 2
    if shards is not None:
        names = [a for a in argv if not a.startswith("-")]
        if not names:
            print("--shards needs explicit scenario name(s), e.g. "
                  "check cluster --shards 1,2,4", file=sys.stderr)
            return 2
        return _main_shards(names, shards, seed)
    names = [a for a in argv if not a.startswith("-")] or list(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        print(f"unknown scenario(s): {', '.join(unknown)}; try --list", file=sys.stderr)
        return 2
    failed = False
    for name in names:
        d1, r1 = run_scenario(name, strict=strict)
        d2, r2 = run_scenario(name, strict=strict)
        ok = d1 == d2 and not r1["violations"] and not r2["violations"]
        failed |= not ok
        verdict = "ok" if ok else "FAIL"
        print(f"[{verdict}] {name}: {r1['trace_events']} trace events, "
              f"{sum(r1['checks'].values())} invariant checks")
        print(f"       run 1: {d1}")
        print(f"       run 2: {d2}{'' if d1 == d2 else '   <-- NON-DETERMINISTIC'}")
        for i, rep in enumerate((r1, r2), 1):
            for v in rep["violations"]:
                print(f"       run {i} violation: {v}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
