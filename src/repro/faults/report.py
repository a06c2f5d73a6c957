"""Fault/recovery report CLI.

Runs the canned power-cut chaos scenario (or a ``REPRO_FAULTS``-syntax
plan given with ``--plan``) against a retrying GenericFS, then prints
what the fault engine injected, what the retry layer absorbed, how long
the runtime took to come back, and the crash-consistency audit — all
sourced from the :mod:`repro.obs` telemetry registry.

Usage::

    python -m repro report faults                  # canned power-cut chaos
    python -m repro report faults --writes 200 --seed 7
    python -m repro report faults --plan "media_error:device=nvme,probability=0.2"
    python -m repro report faults --json           # JSON to stdout
    python -m repro report faults --json out.json --csv out.csv

Output flags are the shared :mod:`repro.cli` surface: a bare ``--json``
keeps its historical meaning (JSON to stdout instead of the table), and
``--json PATH`` / ``--csv PATH`` / ``--out PATH`` write files.
"""

from __future__ import annotations

import argparse

from ..experiments.report import format_kv
from ..units import msec
from .plan import FaultPlan

__all__ = ["main"]

#: CSV column order: one row per scalar metric of the run
CSV_HEADERS = ("metric", "value")


def run_report(*, nwrites: int = 160, seed: int = 0,
               plan: FaultPlan | None = None) -> dict:
    """Run one chaos pass and return the combined metrics dict."""
    from ..experiments.runner import EXPERIMENTS, run_experiment

    pressure = {"plan": plan} if plan is not None else {
        "media_error_p": 0.10, "latency_p": 0.10, "qp_reject_p": 0.03,
        "power_cut": True, "power_cut_at_ns": int(msec(2.0)),
        "restart_after_ns": int(msec(1.0)),
    }
    return run_experiment(
        EXPERIMENTS["faults"], base_seed=seed,
        grid=[{"nwrites": nwrites, **pressure}]).rows[0]


def _format(result: dict) -> str:
    cons = result["consistency"]
    pairs = {
        "writes acked": f'{result["acked"]}/{result["nwrites"]}'
                        f' ({result["gave_up"]} gave up)',
        "goodput": f'{result["goodput_kops_s"]:.2f} kops/s'
                   f' over {result["elapsed_s"] * 1e3:.2f} ms',
        "faults injected": result["injected"],
        "retries / giveups": f'{result["retries"]} / {result["giveups"]}',
        "runtime crashes": result["crashes"],
        "recovery time": f'{result["recovery_ms"]:.2f} ms (p50)',
        "consistency": f'{cons["acked_ok"]} acked ok, '
                       f'{cons["pending_absent"]} pending absent, '
                       f'{cons["pending_torn"]} pending torn',
    }
    return format_kv("fault injection & recovery report", pairs)


def _rows(result: dict) -> list[list]:
    """Flatten the (one-level-nested) result dict to metric/value rows."""
    rows: list[list] = []
    for key in sorted(result):
        value = result[key]
        if isinstance(value, dict):
            for sub in sorted(value):
                rows.append([f"{key}.{sub}", value[sub]])
        else:
            rows.append([key, value])
    return rows


def main(argv: list[str] | None = None) -> int:
    from ..cli import Report, add_output_flags, emit

    parser = argparse.ArgumentParser(
        prog="python -m repro report faults",
        description="Fault injection & recovery chaos report.",
    )
    parser.add_argument("--writes", type=int, default=160, metavar="N",
                        help="writes to issue through the retrying GenericFS")
    parser.add_argument("--seed", type=int, default=0, metavar="N")
    parser.add_argument("--plan", metavar="TEXT",
                        help="REPRO_FAULTS-syntax plan overriding the canned chaos")
    add_output_flags(parser)
    args = parser.parse_args(argv)

    plan = FaultPlan.parse(args.plan) if args.plan else None
    result = run_report(nwrites=args.writes, seed=args.seed, plan=plan)
    return emit(args, Report(
        text=_format(result),
        data=result,
        csv_headers=CSV_HEADERS,
        csv_rows=_rows(result),
    ))
