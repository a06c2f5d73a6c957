"""Per-tenant SLO report CLI.

Runs the canonical two-tenant overload scenario open-loop and prints one
row per tenant — offered load, completions, goodput, p50/p99/p999 and the
SLO verdict — from the engine's accounting (which itself mirrors into the
``MetricsRegistry``).

Usage::

    PYTHONPATH=src python -m repro report traffic
        [--duration-ms 2.0] [--load 1.0]
        [--policy none|queue-depth] [--max-inflight 24]
        [--seed 0] [--json [PATH]] [--csv [PATH]] [--out PATH]

``--load 2.0 --policy none`` shows the goodput collapse;
``--policy queue-depth`` shows admission control converting it into
bounded rejections.  Output flags are the shared :mod:`repro.cli`
surface (bare ``--json``/``--csv`` print to stdout instead of the
table; ``--out`` redirects the plain-text report).
"""

from __future__ import annotations

import argparse
from typing import Any, Sequence

from ..units import msec
from .engine import AdmissionPolicy, QueueDepthAdmission
from .presets import build_overload_engine

__all__ = ["format_slo_report", "slo_rows", "main"]

#: per-tenant CSV/table column order (shared by text and ``--csv``)
CSV_HEADERS = ("tenant", "offered_kops_s", "completed", "goodput_kops_s",
               "p50_us", "p99_us", "p999_us", "violations", "rejected", "slo")


def slo_rows(summary: dict[str, Any]) -> list[list[str]]:
    """One :data:`CSV_HEADERS` row per tenant of an engine summary."""
    rows = []
    for name, t in summary["tenants"].items():
        slo = t["slo"]
        if t["completed"]:
            p50 = f"{t['p50_ns'] / 1000:.1f}"
            p99 = f"{t['p99_ns'] / 1000:.1f}"
            p999 = f"{t['p999_ns'] / 1000:.1f}"
        else:
            p50 = p99 = p999 = "-"
        # rejections are load shedding, not a latency miss of admitted ops:
        # they show in their own column and in goodput, not the verdict
        verdict = "met"
        if t["slo_violations"]:
            verdict = "MISS"
        if slo.get("p99_met") is False:
            verdict = "MISS(p99)"
        rows.append([
            name, f"{t['offered_ops_s'] / 1000:.1f}", str(t["completed"]),
            f"{t['goodput_ops_s'] / 1000:.1f}", p50, p99, p999,
            str(t["slo_violations"]), str(t["rejected"]), verdict,
        ])
    return rows


def format_slo_report(summary: dict[str, Any]) -> str:
    """Aligned per-tenant table over an ``OpenLoopEngine.summary()``."""
    from ..experiments.report import format_table

    title = (f"Per-tenant SLO report — policy={summary['policy']}, "
             f"offered {summary['offered_ops_s'] / 1000:.0f} Kops/s, "
             f"peak inflight {summary['peak_inflight']}")
    return format_table(
        ["tenant", "offered K/s", "done", "goodput K/s",
         "p50 us", "p99 us", "p999 us", "viol", "rej", "SLO"],
        slo_rows(summary), title=title,
    )


def main(argv: Sequence[str] | None = None) -> int:
    from ..cli import Report, add_output_flags, emit

    parser = argparse.ArgumentParser(
        prog="python -m repro report traffic",
        description="Open-loop tenant traffic with per-tenant SLO accounting.",
    )
    parser.add_argument("--duration-ms", type=float, default=2.0,
                        help="arrival window in virtual milliseconds")
    parser.add_argument("--load", type=float, default=1.0,
                        help="offered-load multiplier over the nominal 60K ops/s")
    parser.add_argument("--policy", choices=("none", "queue-depth"), default="none")
    parser.add_argument("--max-inflight", type=int, default=4,
                        help="queue-depth admission threshold (4 holds the "
                             "frontend p99 target at 2 workers)")
    parser.add_argument("--seed", type=int, default=0)
    add_output_flags(parser)
    args = parser.parse_args(argv)

    policy: AdmissionPolicy | None = None
    if args.policy == "queue-depth":
        policy = QueueDepthAdmission(args.max_inflight)
    system, engine = build_overload_engine(
        seed=args.seed, duration_ns=msec(args.duration_ms),
        load=args.load, policy=policy,
    )
    summary = engine.run()
    tot = summary["totals"]
    text = (
        format_slo_report(summary)
        + f"\n\ntotals: {tot['launched']} launched, {tot['good']} good, "
          f"{tot['violations']} SLO violations, {tot['rejected']} rejected "
          f"({summary['goodput_ops_s'] / 1000:.1f} Kops/s goodput over "
          f"{summary['elapsed_ns'] / 1e6:.2f} virtual ms)"
    )
    code = emit(args, Report(
        text=text,
        data=summary,
        csv_headers=CSV_HEADERS,
        csv_rows=slo_rows(summary),
    ))
    system.shutdown()
    return code
