"""Shared benchmark plumbing.

Every benchmark runs once (pedantic mode — these are discrete-event
simulations, deterministic given the seed, so repeated rounds only
re-measure the host's Python speed) and writes its rows to a
machine-readable ``BENCH_<name>.json`` under ``benchmarks/artifacts/``
for CI to upload and for regression tooling to diff across commits.
The figure artifacts hold virtual-time results only, so regenerating
them leaves ``git diff`` empty; what each run cost *this* host goes to
``BENCH_summary.json``.
"""

import json
import os
import platform
from pathlib import Path

ARTIFACT_DIR = Path(__file__).parent / "artifacts"

#: repo root, where a second copy of each artifact is committed so the
#: bench trajectory (the curve of gated numbers across PRs) has a
#: baseline — ``benchmarks/artifacts/`` stays the CI-upload directory
ROOT_DIR = Path(__file__).parent.parent


#: host cost of the figures run this session: artifact name ->
#: ``Outcome.host()`` (wall_s / points / events)
HOST_LEDGER: dict[str, dict] = {}


def write_bench_artifact(name: str, rows, *, host: dict | None = None, **meta) -> Path:
    """Persist one benchmark's rows as ``BENCH_<name>.json``.

    ``rows`` is the experiment sweep's list of dicts; ``meta`` lands
    alongside it (figure label, knobs).  ``host`` (wall-clock cost) is
    kept out of the artifact and recorded in ``BENCH_summary.json``
    instead.  Non-JSON values degrade to their ``str`` form rather than
    failing the benchmark.  The artifact is written twice: under the
    artifact directory (CI upload) and at the repo root (committed
    trajectory baseline).
    """
    if host is not None:
        HOST_LEDGER[name] = host
    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    path = ARTIFACT_DIR / f"BENCH_{name}.json"
    payload = {"name": name, "rows": rows, **meta}
    text = json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
    path.write_text(text)
    try:
        (ROOT_DIR / f"BENCH_{name}.json").write_text(text)
    except OSError:
        pass  # a read-only checkout still gets the primary artifact
    return path


def pytest_sessionfinish(session, exitstatus):
    """Aggregate every ``BENCH_<name>.json`` written this session (or by
    earlier ones into the same directory) into one ``BENCH_summary.json``
    index: figure label, row count and artifact path per benchmark (plus
    the host cost of those run in this session), so CI consumers read a
    single file instead of globbing the directory."""
    if not ARTIFACT_DIR.is_dir():
        return
    entries = {}
    for path in sorted(ARTIFACT_DIR.glob("BENCH_*.json")):
        if path.name == "BENCH_summary.json":
            continue
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue  # a partial artifact must not fail the whole session
        rows = payload.get("rows")
        name = payload.get("name", path.stem)
        entries[name] = {
            "path": path.name,
            "figure": payload.get("figure"),
            "rows": len(rows) if isinstance(rows, (list, dict)) else None,
            **({"host": HOST_LEDGER[name]} if name in HOST_LEDGER else {}),
        }
    if entries:
        from repro.sim.profile import calibrate

        summary = {"benchmarks": entries, "count": len(entries),
                   "exitstatus": int(exitstatus),
                   "host": {"python": platform.python_version(),
                            "cpus": len(os.sched_getaffinity(0)),
                            "calibrate_ops_per_s": round(calibrate())}}
        text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
        (ARTIFACT_DIR / "BENCH_summary.json").write_text(text)
        try:
            (ROOT_DIR / "BENCH_summary.json").write_text(text)
        except OSError:
            pass
