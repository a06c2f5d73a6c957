"""Control-plane report CLI: run the chaos scenario, show the daemon at work.

::

    python -m repro report ctl                       # controlled run
    python -m repro report ctl --no-daemon           # uncontrolled baseline
    python -m repro report ctl --seed 3 --json -     # machine-readable

Rides the shared :mod:`repro.cli` output seam (``--json`` / ``--csv`` /
``--out``), like the obs/faults/traffic report CLIs.
"""

from __future__ import annotations

import argparse
from typing import Any, Sequence

from ..cli import Report, add_output_flags, emit
from ..units import msec, usec
from .presets import build_chaos_control

__all__ = ["main"]


def _fmt_levels(levels: dict[str, str]) -> str:
    """Compact one tick's verdicts: checks at ok collapse to '.'"""
    marks = {"ok": ".", "warn": "w", "crit": "C"}
    return "".join(marks[levels[name]] for name in sorted(levels))


def build_report(args: argparse.Namespace) -> Report:
    system, engine, daemon = build_chaos_control(
        seed=args.seed,
        duration_ns=int(args.duration_ms * 1e6),
        interval_ns=int(args.interval_us * 1e3),
        with_daemon=not args.no_daemon,
        load=args.load,
    )
    summary = engine.run()
    tenant = summary["tenants"]["kv"]

    lines = [
        f"control-plane chaos run  seed={args.seed}  "
        f"daemon={'off' if args.no_daemon else 'on'}",
        f"  duration {args.duration_ms:g}ms virtual, "
        f"load {args.load:g}x (~{summary['offered_ops_s']:,.0f} ops/s offered)",
        "",
        f"  goodput   {summary['goodput_ops_s']:>12,.0f} ops/s "
        f"({tenant['good']}/{tenant['completed']} in-SLO)",
        f"  errors    {tenant['errors']:>12,} "
        f"  violations {tenant['slo_violations']:,} "
        f"  rejected {tenant['rejected']:,}",
        f"  runtime   crashes={system.runtime.crashes} "
        f"workers={system.runtime.orchestrator.worker_count()} "
        f"online={system.runtime.online}",
    ]
    csv_headers: Sequence[str] = ("tick", "t_ms", "worst", "levels",
                                  "actions", "suppressed")
    csv_rows: list[Sequence[Any]] = []
    data: dict[str, Any] = {
        "seed": args.seed,
        "daemon": not args.no_daemon,
        "summary": summary,
    }
    if daemon is not None:
        lines += [
            "",
            f"  daemon    {daemon.ticks} ticks @ {args.interval_us:g}us, "
            f"{daemon.actions_taken} actions, "
            f"{daemon.actuators.suppressed} suppressed by hysteresis",
            "",
            f"  {'tick':>5} {'t_ms':>7} {'worst':>5}  "
            f"{'checks':<8} {'actions':>7}",
        ]
        interesting = 0
        for rec in daemon.history:
            worst = max(rec.levels.values(),
                        key=lambda lv: ("ok", "warn", "crit").index(lv))
            csv_rows.append((rec.tick, rec.t_ns / 1e6, worst,
                             _fmt_levels(rec.levels), rec.actions,
                             rec.suppressed))
            if worst != "ok" or rec.actions:
                interesting += 1
                if interesting <= args.max_rows:
                    lines.append(
                        f"  {rec.tick:>5} {rec.t_ns / 1e6:>7.2f} {worst:>5}  "
                        f"{_fmt_levels(rec.levels):<8} {rec.actions:>7}")
        if interesting > args.max_rows:
            lines.append(f"  ... {interesting - args.max_rows} more "
                         f"non-green ticks (--csv for all)")
        lines.append("")
        lines.append("  actions:")
        for a in daemon.actuators.actions:
            lines.append(
                f"    t={a.t_ns / 1e6:7.2f}ms  {a.knob:<12} "
                f"{a.old!r} -> {a.new!r}  [{a.reason}]"
                f"{'  (urgent)' if a.urgent else ''}")
        data["ticks"] = daemon.ticks
        data["actions"] = [
            {"tick": a.tick, "t_ns": a.t_ns, "knob": a.knob,
             "old": repr(a.old), "new": repr(a.new), "reason": a.reason,
             "urgent": a.urgent}
            for a in daemon.actuators.actions
        ]
        data["suppressed"] = daemon.actuators.suppressed
    return Report(text="\n".join(lines), data=data,
                  csv_headers=csv_headers, csv_rows=csv_rows)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro report ctl",
        description="Run the canonical chaos-control scenario and report "
                    "the daemon's health verdicts and actuator actions.",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--load", type=float, default=1.0,
                        help="offered-load multiplier (default 1.0)")
    parser.add_argument("--duration-ms", type=float, default=msec(20) / 1e6,
                        help="virtual run length in ms (default 20)")
    parser.add_argument("--interval-us", type=float, default=usec(500) / 1e3,
                        help="control period in us (default 500)")
    parser.add_argument("--no-daemon", action="store_true",
                        help="uncontrolled baseline (chaos, no healer)")
    parser.add_argument("--max-rows", type=int, default=24,
                        help="non-green ticks to print (default 24)")
    add_output_flags(parser)
    args = parser.parse_args(argv)
    return emit(args, build_report(args))
