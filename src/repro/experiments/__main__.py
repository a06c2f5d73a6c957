"""Regenerate the paper's tables from the command line.

Usage::

    python -m repro.experiments              # every figure (minutes)
    python -m repro.experiments anatomy fig6 # selected figures
    python -m repro.experiments fig6 --json - --processes 1
    python -m repro.experiments --list

Each figure runs the grid its committed ``BENCH_<artifact>.json`` was
produced from, prints the table, and closes with what the run cost the
host (wall seconds, points, simulator events).
"""

from __future__ import annotations

import sys

from ..cli import Report, add_output_flags, emit
from ..sim.check import UsageParser
from .runner import EXPERIMENTS, run_experiment


def main(argv: list[str] | None = None) -> int:
    parser = UsageParser(
        prog="python -m repro.experiments",
        usage="python -m repro.experiments [--list] [--processes N] "
              "[--json [PATH]] [--csv [PATH]] [--out PATH] [name ...]")
    parser.add_argument("names", nargs="*")
    parser.add_argument("--list", action="store_true")
    parser.add_argument("--processes", type=int, default=None,
                        help="sweep worker processes (1 = serial; default: cpu count)")
    add_output_flags(parser)
    args = parser.parse_intermixed_args(argv)
    if args.list:
        print("\n".join(EXPERIMENTS))
        return 0
    unknown = [n for n in args.names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}; try --list")
    sections, data = [], {}
    for name in args.names or EXPERIMENTS:
        out = run_experiment(EXPERIMENTS[name], processes=args.processes)
        host = out.host()
        data[name] = {**out.result(), "host": host}
        sections.append(
            f"=== {name} " + "=" * max(0, 60 - len(name)) + f"\n{out.table()}\n"
            f"[{host['points']} points, {host['wall_s']:.1f} s wall"
            + (f", {host['events']} events" if host["events"] else "") + "]\n")
    if len(data) == 1:  # one figure: ``rows`` at top level, like its artifact
        data = next(iter(data.values()))
    return emit(args, Report(text="\n".join(sections), data=data))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
