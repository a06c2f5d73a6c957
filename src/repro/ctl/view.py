"""Read-only windowed metrics for the control daemon.

The daemon must never mutate the telemetry it steers by — and it must
react to the *last interval*, not the whole run (a lifetime histogram
stops moving once it holds enough history to drown any new tail).
:class:`MetricsView` therefore wraps a
:class:`~repro.obs.metrics.MetricsRegistry` and, once per control tick,
produces an immutable :class:`MetricsWindow`:

- counter **deltas** and per-second **rates** over the interval
  (:meth:`MetricsRegistry.mark` / :meth:`MetricsRegistry.deltas`);
- per-window **histograms** via
  :meth:`~repro.sim.stats.Histogram.fork_window`, so quantiles cover only
  the interval's samples;
- read-through **gauges** with an explicit absent/zero distinction
  (:meth:`MetricsRegistry.has_gauge`).

The registry's window primitives are a single rolling window — one
MetricsView per registry, the daemon its sole driver.
"""

from __future__ import annotations

from typing import Any

from ..obs.metrics import MetricsRegistry, _key
from ..sim.stats import Histogram

__all__ = ["MetricsView", "MetricsWindow"]


def _matches(key: tuple, name: str, labels: dict[str, Any]) -> bool:
    """Does a registry key carry ``name`` and at least ``labels``?"""
    if key[0] != name:
        return False
    if not labels:
        return True
    have = dict(key[1:])
    return all(have.get(k) == v for k, v in labels.items())


class MetricsWindow:
    """One control interval's worth of metrics, frozen at the tick."""

    __slots__ = ("start_ns", "end_ns", "_deltas", "_hists", "_registry")

    def __init__(self, start_ns: int, end_ns: int,
                 deltas: dict[tuple, int],
                 hists: dict[tuple, Histogram],
                 registry: MetricsRegistry) -> None:
        self.start_ns = start_ns
        self.end_ns = end_ns
        self._deltas = deltas
        self._hists = hists
        self._registry = registry

    @property
    def elapsed_ns(self) -> int:
        return self.end_ns - self.start_ns

    # -- counters ---------------------------------------------------------
    def delta(self, name: str, **labels: Any) -> int:
        """Counter increase over this window (exact label match)."""
        return self._deltas.get(_key(name, labels), 0)

    def delta_sum(self, name: str, **labels: Any) -> int:
        """Window increase summed over every label set matching ``labels``
        (a partial filter: ``delta_sum("device_ops_total", device="nvme")``
        sums across ops)."""
        return sum(v for k, v in self._deltas.items()
                   if _matches(k, name, labels))

    def delta_values(self, name: str, **labels: Any) -> list[tuple[dict, int]]:
        """All ``(labels, window delta)`` pairs under ``name`` matching the
        partial filter — e.g. which tenants actually moved this window."""
        return [(dict(k[1:]), v) for k, v in self._deltas.items()
                if _matches(k, name, labels)]

    def rate(self, name: str, **labels: Any) -> float:
        """Per-second rate of the counter over this window."""
        if self.elapsed_ns <= 0:
            return 0.0
        return self.delta(name, **labels) * 1e9 / self.elapsed_ns

    # -- histograms -------------------------------------------------------
    def _matching_hists(self, name: str, labels: dict[str, Any]) -> list:
        return [h for k, h in self._hists.items() if _matches(k, name, labels)]

    def count(self, name: str, **labels: Any) -> int:
        """Samples received this window, summed over every label set
        matching the partial ``labels`` filter."""
        return sum(h.total for h in self._matching_hists(name, labels))

    def quantile(self, name: str, q: float, default: float | None = None,
                 **labels: Any) -> float | None:
        """Quantile over this window's samples only, merged across every
        label set matching the partial filter (so an aggregate p99 over
        per-tenant latency histograms just works); ``default`` when no
        matching histogram received samples this interval."""
        hists = [h for h in self._matching_hists(name, labels) if h.total]
        if not hists:
            return default
        if len(hists) == 1:
            return hists[0].quantile(q)
        merged = Histogram(min_ns=hists[0].min_ns, max_ns=hists[0].max_ns)
        for h in hists:
            if len(h.buckets) == len(merged.buckets) and h.min_ns == merged.min_ns:
                merged.buckets = merged.buckets + h.buckets
                merged.total += h.total
        return merged.quantile(q)

    # -- gauges (read-through: last-write-wins values have no window) -----
    def gauge(self, name: str, default: float | None = None,
              **labels: Any) -> float | None:
        """Current gauge value, or ``default`` if it was never set — a
        health check must be able to tell "absent" from a real 0.0."""
        if not self._registry.has_gauge(name, **labels):
            return default
        return self._registry.gauge(name, **labels)

    def has_gauge(self, name: str, **labels: Any) -> bool:
        return self._registry.has_gauge(name, **labels)

    def gauge_values(self, name: str, **labels: Any) -> list[tuple[dict, float]]:
        """All ``(labels, value)`` pairs under ``name`` matching the
        partial ``labels`` filter (e.g. every tenant's SLO deadline)."""
        return self._registry.gauge_values(name, **labels)

    def __repr__(self) -> str:
        return (f"<MetricsWindow [{self.start_ns}, {self.end_ns}]ns "
                f"deltas={len(self._deltas)} hists={len(self._hists)}>")


class MetricsView:
    """Rolling-window reader over one registry; :meth:`advance` per tick."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._window_start: int | None = None

    def advance(self, now_ns: int) -> MetricsWindow:
        """Close the current window at ``now_ns`` and open the next one.

        The first call returns a window covering everything recorded so
        far (start pinned to 0); metrics created mid-run enter the
        windows from their first sample on.
        """
        start = self._window_start if self._window_start is not None else 0
        window = MetricsWindow(
            start, now_ns,
            deltas=self.registry.deltas(),
            hists=self.registry.window_histograms(),
            registry=self.registry,
        )
        self.registry.mark()
        self._window_start = now_ns
        return window

    def __repr__(self) -> str:
        return f"<MetricsView over {self.registry!r}>"
