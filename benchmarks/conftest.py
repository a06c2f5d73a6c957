"""Shared benchmark plumbing.

Every benchmark runs a full experiment sweep once (pedantic mode — these
are discrete-event simulations, deterministic given the seed, so repeated
rounds only re-measure the host's Python speed), records the reproduced
table in ``extra_info``, prints it so a plain
``pytest benchmarks/ --benchmark-only -s`` regenerates the paper's
figures as text, and writes the raw rows to a machine-readable
``BENCH_<name>.json`` under ``benchmarks/artifacts/`` for CI to upload
and for regression tooling to diff across commits.
"""

import json
import re
from pathlib import Path

import pytest

ARTIFACT_DIR = Path(__file__).parent / "artifacts"

#: repo root, where a second copy of each artifact is committed so the
#: bench trajectory (the curve of gated numbers across PRs) has a
#: baseline — ``benchmarks/artifacts/`` stays the CI-upload directory
ROOT_DIR = Path(__file__).parent.parent


def write_bench_artifact(name: str, rows, **meta) -> Path:
    """Persist one benchmark's rows as ``BENCH_<name>.json``.

    ``rows`` is the experiment sweep's list of dicts; ``meta`` lands
    alongside it (figure label, knobs).  Non-JSON values degrade to their
    ``str`` form rather than failing the benchmark.  The artifact is
    written twice: under the artifact directory (CI upload) and at the
    repo root (committed trajectory baseline).
    """
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


def _slug(benchmark, label: str) -> str:
    name = getattr(benchmark, "name", None) or label
    name = re.sub(r"^test_bench_", "", name)
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name).strip("_")


def pytest_sessionfinish(session, exitstatus):
    """Aggregate every ``BENCH_<name>.json`` written this session (or by
    earlier ones into the same directory) into one ``BENCH_summary.json``
    index: figure label, row count and artifact path per benchmark, so CI
    consumers read a single file instead of globbing the directory."""
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
        entries[payload.get("name", path.stem)] = {
            "path": path.name,
            "figure": payload.get("figure"),
            "rows": len(rows) if isinstance(rows, (list, dict)) else None,
        }
    if entries:
        summary = {"benchmarks": entries, "count": len(entries),
                   "exitstatus": int(exitstatus)}
        text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
        (ARTIFACT_DIR / "BENCH_summary.json").write_text(text)
        try:
            (ROOT_DIR / "BENCH_summary.json").write_text(text)
        except OSError:
            pass


def run_figure(benchmark, sweep_fn, format_fn, label, artifact: str | None = None):
    """Run a sweep under pytest-benchmark, print its table, and emit the
    ``BENCH_<name>.json`` artifact (name defaults to the test's name with
    the ``test_bench_`` prefix stripped; pass ``artifact=`` to pin it)."""
    result_holder = {}

    def once():
        result_holder["rows"] = sweep_fn()
        return result_holder["rows"]

    benchmark.pedantic(once, rounds=1, iterations=1)
    rows = result_holder["rows"]
    table = format_fn(rows)
    benchmark.extra_info["figure"] = label
    benchmark.extra_info["table"] = table
    path = write_bench_artifact(artifact or _slug(benchmark, label), rows, figure=label)
    benchmark.extra_info["artifact"] = str(path)
    print("\n" + table)
    return rows
