"""Breakdown reports over collected spans + the ``report obs`` CLI.

``phase_breakdown(spans)`` turns a list of closed
:class:`~repro.obs.spans.SpanContext` objects into the paper's Fig 4
"anatomy of an I/O request" aggregate: per-phase totals/means/fractions,
per-LabMod service times, and the legacy per-category totals — all
derived from measured per-request stamps, never hard-coded accounting.

Run the anatomy experiment across the canonical configurations from the
command line::

    PYTHONPATH=src python -m repro report obs [--op write|read]
        [--nops N] [--bs BYTES] [--seed S]
        [--json [PATH]] [--csv [PATH]] [--out PATH]

Output flags are the shared :mod:`repro.cli` surface (bare ``--json`` /
``--csv`` print to stdout instead of the table; ``--out`` redirects the
plain-text report).

which prints, for each of Lab-All, Lab-Min, Lab-D, and the ext4 kernel
baseline, a submit/queue/module/device/completion table whose components
sum to the measured end-to-end latency.
"""

from __future__ import annotations

import argparse
from typing import Any, Iterable

from .spans import PHASES, SpanContext

__all__ = ["phase_breakdown", "breakdown_rows", "main"]


def phase_breakdown(spans: Iterable[SpanContext]) -> dict[str, Any]:
    """Aggregate closed spans into a Fig 4 phase breakdown.

    Returns ``{"count", "e2e", "phases", "mods", "cats"}`` where every
    ``*_ns`` figure is an exact integer total and ``mean_ns``/``fraction``
    are derived floats.  ``phases`` components sum to ``e2e.total_ns``
    exactly (the per-span invariant survives aggregation).
    """
    closed = [s for s in spans if s.closed]
    phase_totals = dict.fromkeys(PHASES, 0)
    e2e_total = 0
    mods: dict[str, dict[str, Any]] = {}
    cats: dict[str, int] = {}
    for s in closed:
        e2e_total += s.e2e_ns
        for phase, ns in s.phases().items():
            phase_totals[phase] += ns
        for uuid, rec in s.mods.items():
            agg = mods.setdefault(
                uuid,
                {"mod": rec["mod"], "count": 0,
                 "inclusive_ns": 0, "exclusive_ns": 0, "device_ns": 0},
            )
            agg["count"] += rec["count"]
            agg["inclusive_ns"] += rec["inclusive_ns"]
            agg["exclusive_ns"] += rec["exclusive_ns"]
            agg["device_ns"] += rec["device_ns"]
        for name, ns in s.cats.items():
            cats[name] = cats.get(name, 0) + ns
    n = len(closed)
    return {
        "count": n,
        "e2e": {
            "total_ns": e2e_total,
            "mean_ns": e2e_total / n if n else 0.0,
        },
        "phases": {
            phase: {
                "total_ns": total,
                "mean_ns": total / n if n else 0.0,
                "fraction": total / e2e_total if e2e_total else 0.0,
            }
            for phase, total in phase_totals.items()
        },
        "mods": mods,
        "cats": cats,
    }


def format_breakdown(breakdown: dict[str, Any], title: str | None = None) -> str:
    """Aligned ASCII table of one breakdown (phases sum printed last)."""
    from ..experiments.report import format_table

    rows = []
    for phase in PHASES:
        p = breakdown["phases"][phase]
        rows.append([phase, f"{p['mean_ns']:.0f}", f"{p['fraction'] * 100:.1f}%"])
    rows.append(["= end-to-end", f"{breakdown['e2e']['mean_ns']:.0f}", "100.0%"])
    head = title or "Request anatomy"
    return format_table(
        ["Phase", "ns/req", "Fraction"],
        rows,
        title=f"{head} ({breakdown['count']} requests)",
    )


#: CSV column order of :func:`breakdown_rows` (the CLI's ``--csv``)
CSV_HEADERS = ("config", "phase", "count", "total_ns", "mean_ns", "fraction")


def breakdown_rows(results: dict[str, dict[str, Any]]) -> list[list[Any]]:
    """Flatten ``{config: breakdown}`` to :data:`CSV_HEADERS` rows."""
    rows: list[list[Any]] = []
    for config, bd in results.items():
        for phase in PHASES:
            p = bd["phases"][phase]
            rows.append([
                config, phase, bd["count"],
                p["total_ns"], f"{p['mean_ns']:.1f}", f"{p['fraction']:.6f}",
            ])
        rows.append([
            config, "e2e", bd["count"],
            bd["e2e"]["total_ns"], f"{bd['e2e']['mean_ns']:.1f}", "1.000000",
        ])
    return rows


def main(argv: list[str] | None = None) -> int:
    from ..cli import Report, add_output_flags, emit

    parser = argparse.ArgumentParser(
        prog="python -m repro report obs",
        description="Span-derived Fig 4 anatomy across the canonical stacks.",
    )
    parser.add_argument("--op", choices=("write", "read"), default="write")
    parser.add_argument("--nops", type=int, default=32)
    parser.add_argument("--bs", type=int, default=4096)
    parser.add_argument("--seed", type=int, default=0)
    add_output_flags(parser)
    args = parser.parse_args(argv)

    # imported lazily: experiments pull in the whole system stack
    from ..experiments.anatomy import PHASE_CONFIGS
    from ..experiments.runner import EXPERIMENTS, run_experiment

    # the Fig 4 matrix: Lab-All, Lab-Min, Lab-D and the ext4 baseline
    rows = run_experiment(
        EXPERIMENTS["anatomy"], base_seed=args.seed, processes=1,
        grid=[{"op": args.op, "nops": args.nops, "bs": args.bs, "config": c}
              for c in PHASE_CONFIGS]).rows
    breakdowns = {c: r["breakdown"] for c, r in zip(PHASE_CONFIGS, rows)}
    sections = []
    for config, bd in breakdowns.items():
        phase_sum = sum(p["total_ns"] for p in bd["phases"].values())
        delta = phase_sum - bd["e2e"]["total_ns"]
        sections.append(
            format_breakdown(bd, title=f"{config} — 4KB {args.op}")
            + f"\n  phase sum - e2e = {delta} ns\n"
        )
    return emit(args, Report(
        text="\n".join(sections).rstrip("\n"),
        data=breakdowns,
        csv_headers=CSV_HEADERS,
        csv_rows=breakdown_rows(breakdowns),
    ))
