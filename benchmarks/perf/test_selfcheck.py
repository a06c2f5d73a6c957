"""Self-check of the benchmark harness (``pytest benchmarks/perf``; not
part of the tier-1 ``testpaths``).  One ``--quick`` pass over all seven
workloads, then the properties every later comparison leans on."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SIM = [m["name"] for m in SPEC["end_to_end"] if m["name"].startswith("sim_")]

sys.path.insert(0, str(HERE))
import run  # noqa: E402


@pytest.fixture(scope="module")
def quick_pass(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "quick.json"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout, json.loads(out.read_text()), elapsed


def test_quick_pass_is_quick_and_correct(quick_pass):
    stdout, results, elapsed = quick_pass
    assert elapsed < 30, f"--quick took {elapsed:.1f}s"
    assert "all output checks passed" in stdout
    assert sorted(results["workloads"]) == sorted(WORKLOADS)
    assert all(r["correct"] for r in results["workloads"].values())


def test_every_metric_is_printed_with_its_unit(quick_pass):
    stdout, _, _ = quick_pass
    blocks = stdout.split("== ")[1:]
    assert [b.split()[0] for b in blocks] == WORKLOADS
    for block in blocks:
        lines = block.splitlines()
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            row = [ln.split() for ln in lines if ln.split()[:1] == [m["name"]]]
            assert len(row) == 1, (block.split()[0], m["name"])
            assert row[0][2] == m["unit"], (block.split()[0], m["name"], row[0])


def test_attempted_is_completed_plus_failed(quick_pass):
    _, results, _ = quick_pass
    for name, r in results["workloads"].items():
        assert r["attempted"] >= 1
        assert r["attempted"] == r["completed"] + r["failed"], name


def test_cluster_shard_counts_agree(quick_pass):
    _, results, _ = quick_pass
    s1, s2 = (results["workloads"][f"cluster_kvs_s{n}"] for n in (1, 2))
    assert s1["fingerprint"] == s2["fingerprint"]


@pytest.mark.parametrize("trace", [0, 1])
def test_last_line_is_the_contract(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "varmail_ext4",
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in want]
    for m in want:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_equal_seeds_agree_and_different_seeds_do_not(quick_pass):
    _, results, _ = quick_pass
    run.import_model()
    for name in WORKLOADS:
        first = results["workloads"][name]
        again = run.run_workload(name, 0, 0.0, False, quick=True)
        other = run.run_workload(name, 1, 0.0, False, quick=True)
        assert again["fingerprint"] == first["fingerprint"], name
        for key in SIM:
            assert again["end_to_end"][key] == first["end_to_end"][key], (name, key)
        assert ([other["end_to_end"][k] for k in SIM]
                != [first["end_to_end"][k] for k in SIM]), name
