"""Controllers: map health verdicts + window metrics onto actuator calls.

A :class:`Controller` runs once per control tick, after every health
check, and talks to the system exclusively through the tick's
:class:`~repro.ctl.actuators.Actuators`.  Any randomness (probing,
victim choice) must come from ``ctx.rng`` — the daemon's seeded ``"ctl"``
RNG stream — so a controlled run replays digest-identically.

Shipped controllers:

- :class:`SelfHealController` — restart a power-cut Runtime, respawn
  crashed workers, rebalance after a stall clears (chaos recovery);
- :class:`AdmissionController` — AIMD on the admission limit driven by
  window SLO burn vs. rejections, with RNG-jittered headroom probes;
- :class:`WorkerScaleController` — queue-saturation driven pool scaling;
- :class:`RetryTuneController` — widen the retry budget while a device
  is stalled, restore it once healthy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .actuators import Actuators
    from .daemon import ControlContext

__all__ = ["SelfHealController", "AdmissionController"]


class Controller:
    """Base class: subclasses set :attr:`name` and implement
    :meth:`actuate`."""

    name = "abstract"

    def actuate(self, ctx: "ControlContext", act: "Actuators") -> None:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class SelfHealController(Controller):
    """Chaos recovery: the liveness/stall verdicts drive urgent repairs.

    - Runtime offline → schedule a restart (idempotent);
    - dead workers (orchestrator ``auto_respawn`` off) → respawn them;
    - a device stall that just cleared → one rebalance, so queues that
      drained elsewhere during the stall spread back out.
    """

    name = "self_heal"

    def __init__(self) -> None:
        self._was_stalled = False

    def actuate(self, ctx: "ControlContext", act: "Actuators") -> None:
        liveness = ctx.health.get("worker_liveness")
        if liveness is not None and liveness.crit:
            if not ctx.runtime.online:
                act.restart_runtime(reason=liveness.reason)
            elif ctx.runtime.orchestrator.dead_workers:
                act.heal_workers(reason=liveness.reason)
        stall = ctx.health.get("device_stall")
        if stall is not None:
            if self._was_stalled and stall.ok:
                act.rebalance(reason="device stall cleared", urgent=True)
            self._was_stalled = not stall.ok


class AdmissionController(Controller):
    """AIMD-style admission-limit control from window SLO burn.

    - burn ≥ ``burn_hi`` → cut.  The floor of the cut is Little's law:
      the window's own completion rate times the active SLO deadline is
      the largest inflight count the pipeline can drain in-deadline, so
      the limit drops to ``max(limit/2, rate × deadline)`` — one cut
      lands at the knee instead of halving blindly past it tick after
      tick while stale over-admitted ops keep the burn pinned high;
    - burn ≤ ``burn_lo`` with window rejections → grow.  Cautious mode
      steps +1 for the first ``ramp_ticks`` grows of a streak, then
      doubles per grow up to ``max_step`` (the streak counts grows since
      the last burn, not consecutive ticks, so bursty rejection signals
      compound across the quiet gaps between bursts);
    - **ceiling memory** — the limit whose burn forced the last cut is
      remembered, and cautious growth parks one slot under it instead of
      re-probing into the same wall every few ticks.  A saturated phase
      settles just below its knee;
    - **hungry mode** — when burn has been quiet for ``quiet_ticks``
      control ticks *and* the window's p99 sits below ``hungry_margin``
      of the active tenants' SLO deadline, rejections mean the workload
      shifted under us: grow by the observed overflow (the window's
      rejected count, up to ``max_step``) and ignore the ceiling — it
      was learned against the old mix;
    - mid-zone burn → hold (and reset the streak);
    - stable with no rejections → probe headroom with probability
      ``probe_prob`` (seeded ``"ctl"`` stream via ``ctx.rng``): one step
      normally, a doubling when the margin is *deep* (p99 under
      ``deep_margin`` of the deadline with burn long-quiet) — that is a
      loose-deadline phase warming up between bursts, and meeting the
      next burst with a wide-open door is free;
    - **drain cap** — every growth path (cautious, hungry, probes) is
      additionally bounded by ``peak completions/window × deadline /
      window``: a queue deeper than the peak service rate can drain
      in-deadline just converts rejections into violations, so no probe
      opens the door past it.  The peak decays mildly (×0.98/tick) so a
      slowed pipeline re-learns its capacity.
    """

    name = "admission"

    def __init__(self, *, min_limit: int = 2, max_limit: int = 256,
                 burn_hi: float = 0.10, burn_lo: float = 0.02,
                 probe_prob: float = 0.25, max_step: int = 16,
                 ramp_ticks: int = 3, hungry_margin: float = 0.5,
                 deep_margin: float = 0.25, quiet_ticks: int = 8,
                 urgent_burn: float = 0.5, settle_ticks: int = 2) -> None:
        if not 0 < min_limit <= max_limit:
            raise ValueError(f"need 0 < min <= max, got {min_limit}/{max_limit}")
        if max_step < 1:
            raise ValueError(f"need max_step >= 1, got {max_step}")
        if quiet_ticks < 1:
            raise ValueError(f"need quiet_ticks >= 1, got {quiet_ticks}")
        self.min_limit = min_limit
        self.max_limit = max_limit
        self.burn_hi = burn_hi
        self.burn_lo = burn_lo
        self.probe_prob = probe_prob
        self.max_step = max_step
        self.ramp_ticks = ramp_ticks
        self.hungry_margin = hungry_margin
        self.deep_margin = deep_margin
        self.quiet_ticks = quiet_ticks
        self.urgent_burn = urgent_burn
        self.settle_ticks = settle_ticks
        self._streak = 0
        self._ceiling: int | None = None
        self._last_burn_tick: int | None = None
        self._last_cut_tick: int | None = None
        self._peak_done = 0.0  # best completions-per-window seen (decayed)

    def _growth_cap(self, data: dict, elapsed_ns: int) -> int:
        """Largest limit worth growing to: a queue deeper than
        (peak service rate × deadline) cannot drain in-deadline, so
        admitting past it just converts rejections into violations."""
        deadline = data.get("deadline_ns")
        if not deadline or elapsed_ns <= 0 or self._peak_done <= 0:
            return self.max_limit
        cap = int(self._peak_done * deadline / elapsed_ns)
        return max(self.min_limit, min(self.max_limit, cap))

    def _is_hungry(self, ctx: "ControlContext", data: dict) -> bool:
        margin = data.get("margin")
        if margin is None or margin >= self.hungry_margin:
            return False
        return (self._last_burn_tick is None
                or ctx.daemon.ticks - self._last_burn_tick >= self.quiet_ticks)

    def actuate(self, ctx: "ControlContext", act: "Actuators") -> None:
        burn_health = ctx.health.get("slo_burn")
        if burn_health is None:
            return
        data = burn_health.data
        if not data.get("completed") and not data.get("rejected"):
            return  # idle window: nothing to learn from
        burn = data.get("burn", 0.0)
        limit = act._admission.max_inflight
        # rolling capacity estimate: peak completions per window, mildly
        # decayed so a slowing device (stall, fewer workers) re-learns
        self._peak_done = max(float(data.get("completed", 0)),
                              self._peak_done * 0.98)
        cap = self._growth_cap(data, ctx.window.elapsed_ns)
        if burn >= self.burn_hi:
            self._streak = 0
            self._last_burn_tick = ctx.daemon.ticks
            # Little's-law floor: inflight beyond (completion rate ×
            # deadline) cannot drain in-deadline, but cutting below it
            # just throws away capacity the pipeline demonstrably has
            sustainable = 0
            deadline = data.get("deadline_ns")
            if deadline and ctx.window.elapsed_ns > 0:
                sustainable = int(data.get("completed", 0) * deadline
                                  / ctx.window.elapsed_ns)
            if (sustainable >= limit and self._last_cut_tick is not None
                    and ctx.daemon.ticks - self._last_cut_tick
                    <= self.settle_ticks):
                # already at/below the sustainable point right after a
                # cut: this burn is drain debt from the old limit still
                # completing late — cutting further only sheds capacity
                return
            # trust the measured sustainable point when we have one —
            # halving is the blind fallback
            target = sustainable if sustainable > 0 else limit // 2
            new = max(self.min_limit, min(limit - 1, target))
            # catastrophic burn is a protective shed: skip the cooldown
            # like the self-healers do.  Only remember the ceiling when
            # the cut actually lands — a suppressed tick is reporting
            # *stale* burn from a limit we already left
            if act.set_admission_limit(new, reason=f"slo burn {burn:.0%}",
                                       urgent=burn >= self.urgent_burn):
                self._ceiling = limit
                self._last_cut_tick = ctx.daemon.ticks
        elif burn <= self.burn_lo and data.get("rejected", 0) > 0:
            if self._is_hungry(ctx, data):
                # wide latency headroom and a long burn-quiet run: the
                # rejections are pure loss — open by (double) the
                # observed overflow so the next burst fits outright
                step = min(2 * int(data["rejected"]), 2 * self.max_step)
                new = min(cap, limit + step)
                if new > limit and act.set_admission_limit(
                        new, reason=f"margin {data['margin']:.0%}, "
                                    f"rejected {data['rejected']}"):
                    self._streak += 1
                return
            margin = data.get("margin")
            if margin is not None and margin >= 1.0:
                # the measured tail already spans the deadline: there is
                # no headroom to grow into, whatever the rejections say
                return
            if self._streak < self.ramp_ticks:
                step = 1
            else:
                step = min(1 << (self._streak - self.ramp_ticks + 1),
                           self.max_step)
            new = min(cap, limit + step)
            if self._ceiling is not None:
                new = min(new, max(self.min_limit, self._ceiling - 1))
            if new > limit:
                # streak advances only when the grow lands — the actuator
                # cooldown is the settle time that lets each new limit's
                # burn reach the window before the next (bigger) step
                if act.set_admission_limit(
                        new, reason=f"rejecting at burn {burn:.0%}"):
                    self._streak += 1
        elif burn <= self.burn_lo:
            # quiet window with nothing rejected: keep the streak (bursty
            # rejection signals compound across the gaps) and occasionally
            # probe headroom — doubling while the margin is deep, so the
            # door is already open when the next burst lands
            margin = data.get("margin")
            deep = (margin is not None and margin < self.deep_margin
                    and (self._last_burn_tick is None
                         or ctx.daemon.ticks - self._last_burn_tick
                         >= self.quiet_ticks))
            if deep:
                # deterministic: the gates above (and the drain cap) are
                # the safety check
                new = min(cap, limit * 2)
                if new > limit:
                    act.set_admission_limit(new, reason="deep-margin probe")
            elif (margin is None or margin < 1.0) and (
                    float(ctx.rng.random()) < self.probe_prob):
                new = min(cap, limit + 1)
                if new > limit:
                    act.set_admission_limit(new, reason="headroom probe")
        else:
            self._streak = 0


class WorkerScaleController(Controller):
    """Scale the worker pool on queue saturation, one step per change."""

    name = "worker_scale"

    def __init__(self, *, min_workers: int | None = None,
                 max_workers: int | None = None) -> None:
        self.min_workers = min_workers
        self.max_workers = max_workers

    def actuate(self, ctx: "ControlContext", act: "Actuators") -> None:
        sat = ctx.health.get("queue_saturation")
        if sat is None or not ctx.runtime.online:
            return
        orch = ctx.runtime.orchestrator
        lo = self.min_workers if self.min_workers is not None else orch.min_workers
        hi = self.max_workers if self.max_workers is not None else orch.max_workers
        n = orch.worker_count()
        if sat.crit and n < hi:
            act.set_worker_target(n + 1, reason=sat.reason)
        elif sat.ok and n > lo and sat.data.get("backlog", 0) == 0:
            act.set_worker_target(n - 1, reason="idle queues")


class RetryTuneController(Controller):
    """Ride out flaky devices: widen the bound retry policy while a
    device stall is in force, restore the baseline once it clears."""

    name = "retry_tune"

    def __init__(self, *, boost_attempts: int = 8,
                 boost_backoff_ns: int = 2_000_000) -> None:
        self.boost_attempts = boost_attempts
        self.boost_backoff_ns = boost_backoff_ns
        self._baseline: tuple | None = None

    def actuate(self, ctx: "ControlContext", act: "Actuators") -> None:
        stall = ctx.health.get("device_stall")
        policy = act._retry
        if stall is None or policy is None:
            return
        if stall.crit and self._baseline is None:
            self._baseline = (policy.max_attempts, policy.max_backoff_ns)
            act.set_retry(
                max_attempts=max(policy.max_attempts, self.boost_attempts),
                max_backoff_ns=max(policy.max_backoff_ns, self.boost_backoff_ns),
                reason=stall.reason, urgent=True)
        elif stall.ok and self._baseline is not None:
            attempts, backoff = self._baseline
            self._baseline = None
            act.set_retry(max_attempts=attempts, max_backoff_ns=backoff,
                          reason="device recovered", urgent=True)
