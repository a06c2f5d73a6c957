"""Replay-to-point snapshots of mid-flight runs.

Python generators — the substance of every simulated process — cannot
be pickled, so a mid-flight snapshot cannot serialize continuations
directly.  Instead, a :class:`ReplaySnapshot` records the *recipe*: the
deterministic :class:`~repro.scenarios.Program` (seed included), the
virtual pause timestamp, and content digests of all durable state at the
pause.

``restore()`` rebuilds the in-flight processes by replaying the program
from t=0 to the pause point (a suffix hasher arms exactly at T), then
verifies the replayed durable state against the captured digests — any
mismatch raises :class:`~repro.errors.ReplayDivergence` instead of
silently continuing from different state.  The restored run then continues on the original
timeline: its armed digest must be byte-identical to the suffix digest
of an unbroken run (see ``tests/test_snap_determinism.py``).

This is the honest answer to generator persistence the gem5 checkpoint
papers arrive at too: replay what you cannot serialize, and let an
automated determinism check prove the seam invisible.
"""

from __future__ import annotations

import time
from typing import Optional

from ..errors import ReplayDivergence
from ..scenarios.runner import LiveRun, RunOutcome, run_audited
from ..sim.core import Environment
from .state import SystemSnapshot

__all__ = [
    "ReplaySnapshot",
    "straight_run",
    "snapshot_run",
    "restore_run",
]


def straight_run(program, *, strict: bool = True, arm_at_ns: Optional[int] = None) -> RunOutcome:
    """Run a program start to finish under audit.

    ``arm_at_ns`` additionally computes the digest of the event-stream
    *suffix* from that timestamp on (what a restored run must match),
    without a second execution.
    """
    return run_audited(program, strict=strict, arm_at_ns=arm_at_ns).finish()


class ReplaySnapshot:
    """A mid-flight snapshot: program + pause time + state digests."""

    def __init__(self, program, *, time_ns: int, state: SystemSnapshot) -> None:
        self.program = program
        self.time_ns = time_ns
        self.state = state

    # ------------------------------------------------------------------
    @classmethod
    def capture(
        cls,
        program,
        ctx,
        env: Environment,
        *,
        tag: str = "replay",
    ) -> "ReplaySnapshot":
        """Capture the paused run's durable state (COW — the run may keep
        going; it pays copy-on-write for pages dirtied afterwards)."""
        state = SystemSnapshot.capture(program.target(ctx), tag=f"{tag}@{env.now}")
        return cls(program, time_ns=env.now, state=state)

    # ------------------------------------------------------------------
    def restore(self, *, strict: bool = True, verify: bool = True) -> LiveRun:
        """Replay the program to the pause point and hand back a live run.

        The returned :class:`~repro.scenarios.LiveRun` sits exactly at
        the snapshot timestamp with all in-flight processes
        reconstructed and its suffix hasher armed at T, so the continued
        run's ``suffix_digest`` is comparable byte-for-byte with a
        straight run's armed digest.
        """
        wall_start = time.perf_counter()
        run = run_audited(self.program, strict=strict, arm_at_ns=self.time_ns)
        run.pause(self.time_ns)
        run.replay_wall_s = time.perf_counter() - wall_start
        if verify:
            mismatches = self.state.verify_against(self.program.target(run.ctx))
            if mismatches:
                raise ReplayDivergence(
                    "replayed state diverged from the capture:\n  "
                    + "\n  ".join(mismatches)
                )
        return run


def snapshot_run(
    program,
    *,
    at_ns: Optional[int] = None,
    strict: bool = True,
    tag: str = "replay",
) -> tuple[RunOutcome, ReplaySnapshot]:
    """Run a program to completion, pausing once at ``at_ns`` (default:
    the program's own ``pause_point``) to capture a ReplaySnapshot.

    The capture is pure bookkeeping between two ``env.run()`` calls — no
    events are injected — so the full digest of this run must equal a
    straight run's digest (the property test pins exactly that).
    """
    run = run_audited(program, strict=strict)
    run.pause(at_ns if at_ns is not None else program.pause_point(run.ctx, run.env))
    snap = ReplaySnapshot.capture(program, run.ctx, run.env, tag=tag)
    return run.finish(), snap


def restore_run(snapshot: ReplaySnapshot, *, strict: bool = True, verify: bool = True) -> RunOutcome:
    """Convenience: restore + finish in one call."""
    return snapshot.restore(strict=strict, verify=verify).finish()
