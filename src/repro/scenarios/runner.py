"""The one audited runner: every digest this repo reports — determinism
double runs, straight/snapshot/restored comparisons, the pytest fixture —
comes from a :class:`Program` started by :func:`run_audited`."""

from __future__ import annotations

from typing import Any, NamedTuple, Optional

from ..errors import SnapshotError
from ..sim.check import AuditRun, TraceHasher, reset_global_counters
from ..sim.core import Environment
from .catalogue import SCENARIOS

__all__ = ["RunOutcome", "LiveRun", "run_audited", "run_scenario"]


class RunOutcome(NamedTuple):
    """What one audited program execution produced."""

    digest: str
    suffix_digest: Optional[str]
    result: dict[str, Any]
    report: dict[str, Any]
    trace_events: int
    time_ns: int


class LiveRun:
    """An audited program execution in flight: built, driven, and
    advanced only as far as its caller has asked."""

    #: wall seconds :meth:`repro.snap.ReplaySnapshot.restore` spent
    #: rebuilding and replaying to the pause point
    replay_wall_s: Optional[float] = None

    def __init__(self, program, audit: AuditRun, suffix: Optional[TraceHasher],
                 ctx, main) -> None:
        self.program = program
        self.audit = audit
        self.suffix = suffix
        self.env: Environment = audit.env
        self.ctx = ctx
        self.main = main

    @property
    def replayed_events(self) -> int:
        """Trace events that preceded the ``arm_at_ns`` seam."""
        return self.suffix.skipped

    def run_until(self, at_ns: int) -> None:
        if at_ns > self.env.now:
            self.env.run(until=at_ns)

    def pause(self, at_ns: int) -> None:
        """Advance to the mid-flight instant ``at_ns``.  Pure bookkeeping
        between ``env.run()`` calls: no event is injected, so pausing
        cannot move the digest."""
        if at_ns <= self.env.now:
            raise SnapshotError(
                f"pause point {at_ns} not after build end ({self.env.now})")
        self.run_until(at_ns)
        if self.main.triggered:
            raise SnapshotError(
                f"program finished before the pause point {at_ns}")

    def finish(self) -> RunOutcome:
        """Run to program completion and collect digests and reports."""
        value = self.env.run(until=self.main)
        result = self.program.finish(self.ctx, value)
        report = self.audit.finish()
        return RunOutcome(
            digest=self.audit.digest,
            suffix_digest=self.suffix.hexdigest() if self.suffix else None,
            result=result,
            report=report,
            trace_events=self.audit.hasher.count,
            time_ns=self.env.now,
        )


def _audited_env(strict: bool) -> AuditRun:
    """The prologue every digest starts from: identity counters rewound,
    sanitizer and trace hasher attached to a fresh Environment."""
    reset_global_counters()
    audit = AuditRun(strict=strict)
    audit.attach(Environment())
    return audit


def run_audited(program, *, strict: bool = True,
                arm_at_ns: Optional[int] = None) -> LiveRun:
    """Start ``program`` under audit: system built, main process started.
    The returned :class:`LiveRun` has not advanced past the build;
    ``finish()`` runs it out.

    ``arm_at_ns`` adds a second hasher covering only the event-stream
    *suffix* from that timestamp on — what a run restored at T and an
    unbroken run must agree on byte for byte.
    """
    audit = _audited_env(strict)
    suffix = None
    if arm_at_ns is not None:
        suffix = TraceHasher(arm_at_ns=arm_at_ns)
        audit.env.tracer.add_sink(suffix)
    ctx = program.build(audit.env)
    return LiveRun(program, audit, suffix, ctx, program.drive(ctx))


def run_scenario(name: str, strict: bool = True) -> RunOutcome:
    """Run the named scenario's serial (else point) form, seed 0, start
    to finish."""
    entry = SCENARIOS[name]
    if entry.serial is not None:
        return run_audited(entry.serial(), strict=strict).finish()
    audit = _audited_env(strict)
    result = entry.point(audit.env)
    report = audit.finish()
    return RunOutcome(digest=audit.digest, suffix_digest=None, result=result,
                      report=report, trace_events=audit.hasher.count,
                      time_ns=audit.env.now)
