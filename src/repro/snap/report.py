"""Snapshot cost/fidelity report CLI.

Runs one deterministic program three ways — straight, snapshot-at-T,
restore-from-T — and reports what the snapshot cost (serialized bytes,
dirtied pages per device) against what the restore cost (replayed
events, replay wall-clock) and whether the seam was invisible (digest
verdicts over the :mod:`repro.sim.check` trace hash).

Usage::

    PYTHONPATH=src python -m repro report snap
        [--scenario NAME]      # any catalogue entry with a serial form
        [--at NS] [--seed 0]
        [--json [PATH]] [--csv [PATH]] [--out PATH]

Output flags are the shared :mod:`repro.cli` surface.  Exit code 1 when
either digest verdict fails — the CI ``snapshot-smoke`` job leans on
that.
"""

from __future__ import annotations

import argparse
from typing import Any, Sequence

from ..scenarios import SCENARIOS, names_with
from .replay import snapshot_run, straight_run

__all__ = ["main"]

CSV_HEADERS = ("deployment", "device", "resident_pages", "dirty_pages",
               "layers", "content_digest")


def snapshot_report(scenario: str, *, seed: int = 0, at_ns: int | None = None) -> dict[str, Any]:
    """Run the three-way comparison and collect every reported number."""
    program = SCENARIOS[scenario].serial
    outcome, snap = snapshot_run(program(seed=seed), at_ns=at_ns)
    base = straight_run(program(seed=seed), arm_at_ns=snap.time_ns)
    restored = snap.restore()
    cont = restored.finish()
    summary = snap.state.summary()
    return {
        "scenario": scenario,
        "seed": seed,
        "pause_ns": snap.time_ns,
        "end_ns": base.time_ns,
        "snapshot": summary,
        "restore": {
            "replayed_events": restored.replayed_events,
            "replay_wall_s": restored.replay_wall_s,
            "suffix_events": cont.trace_events - restored.replayed_events,
        },
        "verdicts": {
            "capture_invisible": outcome.digest == base.digest,
            "restore_seamless": cont.suffix_digest == base.suffix_digest,
        },
        "digests": {
            "straight": base.digest,
            "snapshot_run": outcome.digest,
            "straight_suffix": base.suffix_digest,
            "restored_suffix": cont.suffix_digest,
        },
    }


def format_snapshot_report(data: dict[str, Any]) -> str:
    from ..experiments.report import format_table

    snap = data["snapshot"]
    rest = data["restore"]
    verd = data["verdicts"]
    rows = [[d["deployment"] or "-", d["device"], str(d["resident_pages"]),
             str(d["dirty_pages"]), str(d["layers"]), d["content_digest"]]
            for d in snap["devices"]]
    table = format_table(
        ["node", "device", "pages", "dirty", "layers", "content digest"],
        rows,
        title=(f"Snapshot report — {data['scenario']} (seed {data['seed']}), "
               f"paused at {data['pause_ns'] / 1e6:.3f} ms "
               f"of {data['end_ns'] / 1e6:.3f} ms"),
    )
    lines = [
        table,
        "",
        f"snapshot: {snap['size_bytes']} bytes serialized, "
        f"{snap['mods']} mod states, {snap['rng_streams']} RNG streams",
        f"restore: replayed {rest['replayed_events']} events in "
        f"{rest['replay_wall_s'] * 1000:.1f} ms wall, then "
        f"{rest['suffix_events']} live events to completion",
        f"verdict: capture {'invisible' if verd['capture_invisible'] else 'PERTURBED'}"
        f" / restore {'seamless' if verd['restore_seamless'] else 'DIVERGED'}",
    ]
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    from ..cli import Report, add_output_flags, emit

    parser = argparse.ArgumentParser(
        prog="python -m repro report snap",
        description="Snapshot size, dirtied pages, restore replay cost and "
                    "determinism verdicts for one program.",
    )
    parser.add_argument("--scenario", default="batching",
                        choices=sorted(names_with("serial")))
    parser.add_argument("--at", type=int, default=None, metavar="NS",
                        help="virtual pause timestamp (default: the "
                             "program's own mid-flight pause point)")
    parser.add_argument("--seed", type=int, default=0)
    add_output_flags(parser)
    args = parser.parse_args(argv)

    data = snapshot_report(args.scenario, seed=args.seed, at_ns=args.at)
    code = emit(args, Report(
        text=format_snapshot_report(data),
        data=data,
        csv_headers=CSV_HEADERS,
        csv_rows=[[d["deployment"], d["device"], d["resident_pages"],
                   d["dirty_pages"], d["layers"], d["content_digest"]]
                  for d in data["snapshot"]["devices"]],
    ))
    if code == 0 and not all(data["verdicts"].values()):
        return 1
    return code
