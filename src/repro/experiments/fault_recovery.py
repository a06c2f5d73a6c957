"""E11 — Fault recovery: recovery time and goodput under injected faults.

Not a paper figure: a chaos harness over :mod:`repro.faults`.  A
retrying :class:`~repro.mods.generic_fs.GenericFS` client writes a file
population while a :class:`~repro.faults.FaultPlan` injects media
errors, latency spikes, queue rejections, and (optionally) a mid-run
power cut with automatic restart.  Everything is measured through
:mod:`repro.obs` telemetry:

- **goodput** — acknowledged writes per simulated second (so fault
  pressure shows up as throughput loss, not just error counts);
- **recovery time** — the ``runtime_recovery_ns`` histogram fed by the
  Runtime's ``fault.runtime`` restart event;
- **fault economics** — injections, retries, and giveups from the
  ``faults_injected_total`` / ``fault_retries_total`` /
  ``fault_giveups_total`` counters.

After the run, a :class:`~repro.faults.CrashConsistencyChecker` audits
the recovered namespace: every acknowledged write must read back whole,
every unacknowledged one must be absent or a torn sector-aligned prefix.
"""

from __future__ import annotations

from ..core.runtime import RuntimeConfig
from ..faults import CrashConsistencyChecker, FaultPlan, FaultSpec, RetryPolicy
from ..mods.generic_fs import GenericFS
from ..obs import Telemetry
from ..system import LabStorSystem
from ..units import msec, to_sec, usec
from .registry import Experiment, Table, register

__all__ = []

WRITE_BS = 4096


def _counter_total(registry, name: str) -> int:
    """Sum a labeled counter family across all label sets."""
    return sum(
        c["value"] for c in registry.snapshot()["counters"] if c["name"] == name
    )


def build_plan(
    *,
    media_error_p: float = 0.0,
    latency_p: float = 0.0,
    qp_reject_p: float = 0.0,
    power_cut_at_ns: int | None = None,
    restart_after_ns: int | None = None,
    device: str = "nvme",
) -> FaultPlan | None:
    """Assemble the experiment's FaultPlan from scalar knobs (None if all
    pressure is zero and no power cut is scheduled)."""
    specs: list[FaultSpec] = []
    if media_error_p > 0:
        specs.append(FaultSpec(kind="media_error", device=device, op="write",
                               probability=media_error_p))
    if latency_p > 0:
        specs.append(FaultSpec(kind="latency", device=device,
                               probability=latency_p, extra_ns=int(usec(120))))
    if qp_reject_p > 0:
        specs.append(FaultSpec(kind="qp_reject", probability=qp_reject_p))
    plan = FaultPlan.of(*specs) if specs else None
    if power_cut_at_ns is not None:
        cut = FaultPlan.power_cut_scenario(
            at=power_cut_at_ns, device=device,
            restart_after=restart_after_ns if restart_after_ns is not None
            else int(msec(1.0)),
        )
        plan = plan.extend(*cut.specs) if plan is not None else cut
    return plan


def run_fault_recovery(env, p: dict, seed: int = 0) -> dict:
    """One configuration; returns goodput/recovery/consistency metrics.

    ``p`` carries ``nwrites``, optionally ``scenario`` (the row's label
    in the ladder table) and the scalar pressure knobs of :func:`build_plan` (``power_cut=True``
    schedules the cut at 2 ms unless ``power_cut_at_ns`` says otherwise);
    ``plan`` overrides the knobs with a prebuilt :class:`FaultPlan`
    (``python -m repro report faults --plan``).
    """
    nwrites = p["nwrites"]
    plan = p.get("plan")
    if plan is None:
        cut_at = p.get("power_cut_at_ns", int(msec(2.0))) if p.get("power_cut") else None
        plan = build_plan(
            media_error_p=p.get("media_error_p", 0.0),
            latency_p=p.get("latency_p", 0.0),
            qp_reject_p=p.get("qp_reject_p", 0.0),
            power_cut_at_ns=cut_at, restart_after_ns=p.get("restart_after_ns"),
        )
    telemetry = Telemetry(keep_spans=False)
    system = LabStorSystem(
        env=env, seed=seed, devices=("nvme",),
        config=RuntimeConfig(nworkers=2, max_workers=4),
        telemetry=telemetry, fault_plan=plan,
    )
    system.stack("fs::/cr").fs(variant="min").device("nvme").uuid_prefix("cr").mount()
    policy = RetryPolicy(max_attempts=6, timeout_ns=int(msec(50.0)))
    gfs = GenericFS(system.client(), retry=policy)
    checker = CrashConsistencyChecker()

    def workload():
        acked = gave_up = 0
        for i in range(nwrites):
            path = f"fs::/cr/f{i:04d}"
            data = bytes([i % 251]) * WRITE_BS
            checker.begin(path, data)
            try:
                yield from gfs.write_file(path, data)
            except Exception:  # noqa: BLE001 - retries exhausted: count and move on
                gave_up += 1
                continue
            checker.ack(path)
            acked += 1
        return acked, gave_up

    acked, gave_up = system.run(system.process(workload()))
    elapsed_ns = system.env.now
    consistency = system.run(system.process(checker.verify(gfs)))

    reg = telemetry.registry
    recovery = reg.histogram("runtime_recovery_ns")
    result = {
        "nwrites": nwrites,
        "acked": acked,
        "gave_up": gave_up,
        "elapsed_s": to_sec(elapsed_ns),
        "goodput_kops_s": acked / to_sec(elapsed_ns) / 1e3,
        "injected": _counter_total(reg, "faults_injected_total"),
        "retries": _counter_total(reg, "fault_retries_total"),
        "giveups": _counter_total(reg, "fault_giveups_total"),
        "crashes": system.runtime.crashes,
        "recovery_ms": (recovery.quantile(0.5) / 1e6) if recovery.total else 0.0,
        "consistency": consistency,
    }
    if "scenario" in p:  # the ladder's row label
        result["scenario"] = p["scenario"]
    system.shutdown()
    return result


#: (label, pressure knobs) — escalating fault pressure
SCENARIO_LADDER = (
    ("baseline", {}),
    ("media 5%", {"media_error_p": 0.05}),
    ("media 15% + lat 10%", {"media_error_p": 0.15, "latency_p": 0.10}),
    ("chaos + power cut", {"media_error_p": 0.10, "latency_p": 0.10,
                           "qp_reject_p": 0.03, "power_cut": True}),
)

register(Experiment(
    name="faults", figure="E11 — goodput and recovery under faults", artifact=None,
    point=run_fault_recovery,
    grid=tuple({"scenario": label, "nwrites": 120, **kw}
               for label, kw in SCENARIO_LADDER),
    seeds="base",
    table=Table(
        title="E11 — goodput and recovery under faults",
        columns=(("scenario", "{scenario}"), ("acked", "{acked}/{nwrites}"),
                 ("gave up", "{gave_up}"), ("injected", "{injected}"),
                 ("retries", "{retries}"),
                 ("goodput (kops/s)", "{goodput_kops_s:.2f}"),
                 ("recovery (ms)", "{recovery_ms:.2f}")),
    ),
    gates=None,
))
