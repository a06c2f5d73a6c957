"""The one report entry point::

    python -m repro report obs        # span-derived Fig 4 anatomy
    python -m repro report traffic    # open-loop per-tenant SLO report
    python -m repro report faults     # fault injection & recovery
    python -m repro report snap       # snapshot cost + determinism verdicts
    python -m repro report ctl        # control daemon at work under chaos
    python -m repro report inventory  # which code the two tables reach

Everything after the kind is that report's own flags (``--help`` lists
them), the shared :mod:`repro.cli` ``--json``/``--csv``/``--out`` included.
"""

from __future__ import annotations

import argparse
import importlib
import sys

#: report kind -> the module whose ``main(argv)`` renders it
REPORTS = {
    "obs": "repro.obs.report",
    "traffic": "repro.traffic.report",
    "faults": "repro.faults.report",
    "snap": "repro.snap.report",
    "ctl": "repro.ctl.report",
    "inventory": "repro.inventory",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro")
    commands = parser.add_subparsers(dest="command", required=True)
    report = commands.add_parser("report", help="run one report CLI")
    report.add_argument("kind", choices=REPORTS)
    report.add_argument("args", nargs=argparse.REMAINDER,
                        help="the report's own flags")
    args = parser.parse_args(argv)
    return importlib.import_module(REPORTS[args.kind]).main(args.args)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
