"""Open-loop arrival processes: virtual-time interarrival generators.

Closed-loop workloads (N clients with think time) slow their offered load
down as the system slows down — the feedback that makes overload
structurally unreachable.  An *open-loop* process keeps issuing at its
schedule regardless of completion times, which is what production traffic
does and what the overload/QoS experiments need.

Three schedules, all driven by a seeded :class:`numpy.random.Generator`
(one named stream per tenant, see :mod:`repro.sim.rng`), all returning
integer nanoseconds so virtual time stays exact:

- :class:`PoissonArrivals` — memoryless at a fixed rate; the superposition
  of millions of independent low-rate users is Poisson, which is how a
  tenant population maps onto one process.
- :class:`BurstyArrivals` — a two-state modulated Poisson process (quiet /
  burst phases with exponential durations); time-averaged rate equals the
  configured rate, but arrivals clump.
- :class:`DiurnalArrivals` — sinusoidal rate modulation (a compressed
  day/night cycle) sampled by thinning against the peak rate.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["PoissonArrivals", "BurstyArrivals", "DiurnalArrivals"]


class ArrivalProcess:
    """Interface: ``next_interarrival_ns(rng, now_ns) -> int`` (>= 1)."""

    #: mean offered rate in ops/sec (time-averaged, for reporting)
    rate_per_sec: float = 0.0

    def next_interarrival_ns(self, rng: np.random.Generator, now_ns: int) -> int:
        raise NotImplementedError


def _check_rate(rate_per_sec: float) -> float:
    if rate_per_sec <= 0:
        raise ValueError(f"arrival rate must be positive, got {rate_per_sec}")
    return float(rate_per_sec)


class PoissonArrivals(ArrivalProcess):
    """Exponential interarrivals at a fixed aggregate rate."""

    def __init__(self, rate_per_sec: float) -> None:
        self.rate_per_sec = _check_rate(rate_per_sec)
        self._mean_gap_ns = 1e9 / self.rate_per_sec

    def next_interarrival_ns(self, rng: np.random.Generator, now_ns: int) -> int:
        return max(1, int(rng.exponential(self._mean_gap_ns)))

    def __repr__(self) -> str:
        return f"<PoissonArrivals {self.rate_per_sec:.0f} ops/s>"


class BurstyArrivals(ArrivalProcess):
    """Two-state modulated Poisson: quiet periods punctuated by bursts.

    ``duty`` is the fraction of time spent bursting and ``burst_factor``
    the burst-to-quiet rate ratio; the two sub-rates are solved so the
    time-averaged rate equals ``rate_per_sec``.  Phase durations are
    exponential with mean ``mean_burst_ns`` (and the matching quiet mean
    keeping the duty cycle).  Phase flips happen at draw time, so an
    interarrival straddling a boundary is charged at the rate of the phase
    it started in — a standard, deterministic MMPP approximation.
    """

    def __init__(self, rate_per_sec: float, *, burst_factor: float = 8.0,
                 duty: float = 0.2, mean_burst_ns: int = 500_000) -> None:
        self.rate_per_sec = _check_rate(rate_per_sec)
        if not 0.0 < duty < 1.0:
            raise ValueError(f"duty must be in (0, 1), got {duty}")
        if burst_factor < 1.0:
            raise ValueError(f"burst_factor must be >= 1, got {burst_factor}")
        self.burst_factor = float(burst_factor)
        self.duty = float(duty)
        self.mean_burst_ns = int(mean_burst_ns)
        self.mean_quiet_ns = int(mean_burst_ns * (1.0 - duty) / duty)
        self.quiet_rate = self.rate_per_sec / (duty * burst_factor + (1.0 - duty))
        self.burst_rate = self.quiet_rate * burst_factor
        self._bursting = False
        self._phase_end_ns: int | None = None

    def next_interarrival_ns(self, rng: np.random.Generator, now_ns: int) -> int:
        if self._phase_end_ns is None:  # first draw: begin in a quiet phase
            self._bursting = False
            self._phase_end_ns = now_ns + max(1, int(rng.exponential(self.mean_quiet_ns)))
        while now_ns >= self._phase_end_ns:
            self._bursting = not self._bursting
            mean = self.mean_burst_ns if self._bursting else self.mean_quiet_ns
            self._phase_end_ns += max(1, int(rng.exponential(mean)))
        rate = self.burst_rate if self._bursting else self.quiet_rate
        return max(1, int(rng.exponential(1e9 / rate)))

    def __repr__(self) -> str:
        return (f"<BurstyArrivals {self.rate_per_sec:.0f} ops/s "
                f"x{self.burst_factor:.0f} duty={self.duty}>")


class DiurnalArrivals(ArrivalProcess):
    """Sinusoidal rate modulation: rate(t) swings between ``(1-amplitude)``
    and ``(1+amplitude)`` times the mean over one ``period_ns`` cycle.

    Sampled by thinning: candidate gaps are drawn at the peak rate and
    accepted with probability ``rate(t)/peak`` — exact for inhomogeneous
    Poisson processes, and deterministic given the stream.
    """

    def __init__(self, rate_per_sec: float, *, period_ns: int = 1_000_000_000,
                 amplitude: float = 0.8, phase: float = 0.0) -> None:
        self.rate_per_sec = _check_rate(rate_per_sec)
        if not 0.0 <= amplitude < 1.0:
            raise ValueError(f"amplitude must be in [0, 1), got {amplitude}")
        if period_ns <= 0:
            raise ValueError(f"period_ns must be positive, got {period_ns}")
        self.period_ns = int(period_ns)
        self.amplitude = float(amplitude)
        self.phase = float(phase)
        self.peak_rate = self.rate_per_sec * (1.0 + self.amplitude)

    def rate_at(self, t_ns: int) -> float:
        cycle = t_ns / self.period_ns + self.phase
        return self.rate_per_sec * (1.0 + self.amplitude * math.sin(2.0 * math.pi * cycle))

    def next_interarrival_ns(self, rng: np.random.Generator, now_ns: int) -> int:
        mean_gap = 1e9 / self.peak_rate
        t = now_ns
        gap = 0
        while True:
            d = max(1, int(rng.exponential(mean_gap)))
            gap += d
            t += d
            if rng.random() * self.peak_rate <= self.rate_at(t):
                return gap

    def __repr__(self) -> str:
        return (f"<DiurnalArrivals {self.rate_per_sec:.0f} ops/s "
                f"±{self.amplitude * 100:.0f}% period={self.period_ns}ns>")
