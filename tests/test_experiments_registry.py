"""The experiment table itself: names, grids, artifacts, smoke points, and
the seams the runner threads through every figure (Environment, seed)."""

import json
from pathlib import Path

import pytest

from repro.experiments.__main__ import main
from repro.experiments.common import LabFsFixture, LabKvsFixture, kernel_fs_api
from repro.experiments.runner import EXPERIMENTS, run_experiment
from repro.core.runtime import RuntimeConfig
from repro.sim import Environment, RngRegistry

ROOT = Path(__file__).parent.parent
WITH_ARTIFACT = [n for n, e in EXPERIMENTS.items() if e.artifact]
WITH_SMOKE = [n for n, e in EXPERIMENTS.items() if e.smoke]


def test_names_are_unique_and_list_prints_them_in_registration_order(capsys):
    assert all(name == exp.name for name, exp in EXPERIMENTS.items())
    assert main(["--list"]) == 0
    assert capsys.readouterr().out.splitlines() == list(EXPERIMENTS) == [
        "anatomy", "anatomy-read", "table1", "fig5a", "fig5b", "fig6", "fig7",
        "fig8", "fig9a", "fig9b", "fig9c", "ablation-allocator",
        "ablation-ipc-cost", "ablation-exec-mode", "ablation-consistency",
        "ablation-cache-capacity", "faults", "batching", "openloop", "cluster",
        "cluster-par", "pfs-cluster", "control",
    ]
    artifacts = [EXPERIMENTS[n].artifact for n in WITH_ARTIFACT]
    assert len(set(artifacts)) == len(artifacts) == 20


@pytest.mark.parametrize("name", WITH_ARTIFACT)
def test_artifact_is_committed_with_one_row_per_grid_point(name):
    exp = EXPERIMENTS[name]
    committed = json.loads((ROOT / f"BENCH_{exp.artifact}.json").read_text())
    assert committed["name"] == exp.artifact
    assert committed["figure"] == exp.figure
    rows = committed["rows"]
    if name.startswith("anatomy"):  # the artifact is the single point's row
        rows = [rows]
    elif name == "table1":  # {protocol: {upgrade count: seconds}}
        rows = [s for by_count in rows["rows"].values() for s in by_count.values()]
    assert len(rows) == len(exp.grid)
    assert exp.gates is not None


@pytest.mark.parametrize("name", WITH_SMOKE)
def test_smoke_point_is_a_member_of_the_figures_parameter_space(name):
    """Same knobs as the grid; every categorical value is one the grid
    uses, every scale knob is no larger than the grid's."""
    exp = EXPERIMENTS[name]
    for key, value in exp.smoke.items():
        in_grid = [p[key] for p in exp.grid if key in p]
        assert in_grid, f"{name}: smoke knob {key!r} is not a grid knob"
        if isinstance(value, (str, bool)):
            assert value in in_grid
        else:
            assert 0 < value <= max(in_grid)
    assert set(exp.smoke) == set(exp.grid[0])


def test_smoke_points_cover_the_papers_figures():
    assert WITH_SMOKE == [
        "anatomy", "anatomy-read", "table1", "fig5a", "fig5b", "fig6", "fig7", "fig8", "fig9a",
        "fig9b", "fig9c", "ablation-allocator", "ablation-ipc-cost",
        "ablation-exec-mode", "ablation-consistency", "ablation-cache-capacity",
    ]


def test_runner_reports_host_cost_beside_the_virtual_result():
    exp = EXPERIMENTS["ablation-consistency"]
    out = run_experiment(exp, processes=1)
    assert out.host() == {"wall_s": round(out.wall_s, 3), "points": 3,
                          "events": out.events}
    assert out.events > 0 and out.wall_s > 0
    # the virtual result carries no host field: regenerating is diff-free
    assert set(out.result()) == {"rows"}
    exp.gates(out.result())
    # rows do not depend on the sweep's process count
    assert run_experiment(exp, processes=2).rows == out.rows


def test_seeds_are_data():
    """E1-E12 and control replay one workload at every point; the
    open-loop and cluster grids draw a seed per point."""
    per_point = {n for n, e in EXPERIMENTS.items() if e.seeds == "per-point"}
    assert per_point == {"openloop", "cluster", "pfs-cluster"}
    assert {e.seeds for e in EXPERIMENTS.values()} == {"base", "per-point"}
    rows = run_experiment(EXPERIMENTS["fig7"], base_seed=7, processes=1, grid=[
        {"config": "labfs-d", "nthreads": 1, "files_per_thread": 2}] * 2).rows
    assert rows[0] == rows[1]


# --- the seed reaches the system: fixtures used to drop it -------------------
def _stream_state(rngs: RngRegistry, name: str):
    return rngs.stream(name).bit_generator.state["state"]


def test_fixture_seed_reaches_the_systems_rngs():
    cfg = RuntimeConfig(nworkers=1)
    for seed in (0, 5):
        fs = LabFsFixture.build(Environment(), cfg, seed=seed)
        kvs = LabKvsFixture.build(Environment(), seed=seed)
        for system in (fs.system, kvs.system):
            assert system.rngs.seed == seed
            assert system.devices["nvme"].rng is system.rngs.stream("device.nvme")
        api = kernel_fs_api(Environment(), "nvme", "ext4", seed=seed)
        assert (api.fs.device.rng.bit_generator.state["state"]
                == _stream_state(RngRegistry(seed), "device.nvme"))
    assert (_stream_state(RngRegistry(0), "device.nvme")
            != _stream_state(RngRegistry(5), "device.nvme"))
