"""Satellite seams: the typed REPRO_* config accessor, the shared
report-CLI formatter, named QP owners, and sorted override errors."""

import json

import pytest

from repro.config import (
    FAULTS_ENV_VAR,
    SANITIZE_ENV_VAR,
    TELEMETRY_ENV_VAR,
    ReproConfig,
    current,
)


# ----------------------------------------------------------------------
# repro.config
# ----------------------------------------------------------------------
class TestReproConfig:
    def test_unset_empty_and_zero_mean_off(self):
        for env in ({}, {SANITIZE_ENV_VAR: "", TELEMETRY_ENV_VAR: "0",
                      FAULTS_ENV_VAR: "0"}):
            cfg = ReproConfig.from_env(env)
            assert cfg == ReproConfig(sanitize=False, telemetry=False,
                                      faults=None)

    def test_any_other_value_arms_the_flag_seams(self):
        cfg = ReproConfig.from_env({SANITIZE_ENV_VAR: "1",
                                    TELEMETRY_ENV_VAR: "yes"})
        assert cfg.sanitize and cfg.telemetry

    def test_faults_text_passes_through_verbatim(self):
        text = "power_cut:at=5ms,restart_after=10ms"
        assert ReproConfig.from_env({FAULTS_ENV_VAR: text}).faults == text

    def test_current_reads_the_process_environment(self, monkeypatch):
        monkeypatch.setenv(SANITIZE_ENV_VAR, "1")
        monkeypatch.delenv(TELEMETRY_ENV_VAR, raising=False)
        cfg = current()
        assert cfg.sanitize and not cfg.telemetry

    def test_legacy_helpers_delegate_to_config(self, monkeypatch):
        from repro.faults.plan import plan_from_env
        from repro.obs.telemetry import maybe_attach as tel_attach
        from repro.sim import Environment

        monkeypatch.setenv(FAULTS_ENV_VAR, "power_cut:at=1ms")
        plan = plan_from_env()
        assert plan is not None and plan.specs[0].kind == "power_cut"
        monkeypatch.setenv(FAULTS_ENV_VAR, "0")
        assert plan_from_env() is None
        monkeypatch.setenv(TELEMETRY_ENV_VAR, "0")
        assert tel_attach(Environment()) is None


# ----------------------------------------------------------------------
# shared report CLI
# ----------------------------------------------------------------------
class TestSharedReportCli:
    def _parse(self, argv):
        import argparse

        from repro.cli import add_output_flags

        p = argparse.ArgumentParser()
        add_output_flags(p)
        return p.parse_args(argv)

    def _report(self):
        from repro.cli import Report

        return Report(text="the table", data={"metric": 1},
                      csv_headers=("metric", "value"),
                      csv_rows=[("metric", 1)])

    def test_plain_invocation_prints_text(self, capsys):
        from repro.cli import EXIT_OK, emit

        assert emit(self._parse([]), self._report()) == EXIT_OK
        assert capsys.readouterr().out.strip() == "the table"

    def test_bare_json_prints_json_and_suppresses_text(self, capsys):
        from repro.cli import emit

        emit(self._parse(["--json"]), self._report())
        out = capsys.readouterr().out
        assert json.loads(out) == {"metric": 1}
        assert "the table" not in out

    def test_json_path_writes_file_and_keeps_text(self, capsys, tmp_path):
        from repro.cli import emit

        dest = tmp_path / "r.json"
        emit(self._parse(["--json", str(dest)]), self._report())
        assert json.loads(dest.read_text()) == {"metric": 1}
        out = capsys.readouterr().out
        assert "the table" in out and str(dest) in out

    def test_csv_output(self, capsys, tmp_path):
        from repro.cli import emit

        emit(self._parse(["--csv"]), self._report())
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "metric,value"
        dest = tmp_path / "r.csv"
        emit(self._parse(["--csv", str(dest)]), self._report())
        assert dest.read_text().splitlines()[1] == "metric,1"

    def test_out_writes_the_text_report(self, tmp_path):
        from repro.cli import emit

        dest = tmp_path / "report.txt"
        emit(self._parse(["--out", str(dest)]), self._report())
        assert dest.read_text().rstrip() == "the table"

    def test_all_three_report_mains_share_the_flags(self):
        """The unified seam: every report CLI accepts the same output
        flags (argparse exits 2 on a usage error, the historical code)."""
        from repro.faults import report as faults_report
        from repro.obs import report as obs_report
        from repro.traffic import report as traffic_report

        for mod in (obs_report, faults_report, traffic_report):
            with pytest.raises(SystemExit) as exc:
                mod.main(["--definitely-not-a-flag"])
            assert exc.value.code == 2

    @pytest.mark.parametrize("kind", ["obs", "traffic", "faults", "snap", "ctl",
                                      "inventory", "no-such-report"])
    def test_every_report_kind_is_one_entry_point(self, capsys, kind):
        """The unified seam: ``python -m repro report <kind>`` reaches every
        report CLI, each parses the shared output flags, and a usage error
        is argparse's exit 2 (the historical code)."""
        from repro.__main__ import REPORTS, main

        assert sorted(REPORTS) == sorted(
            ["obs", "traffic", "faults", "snap", "ctl", "inventory"])
        with pytest.raises(SystemExit) as exc:
            main(["report", kind, "--json", "-", "--definitely-not-a-flag"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert ("unrecognized arguments" if kind in REPORTS else "invalid choice") in err

    @pytest.mark.parametrize("argv", [["fig66"], ["--lisst"], ["fig6", "--proceses", "1"]])
    def test_experiments_cli_rejects_unknown_flags_and_names(self, capsys, argv):
        """``python -m repro.experiments --lisst`` used to drop every
        ``-``-prefixed word and run *every* figure for minutes."""
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no figure ran
        assert captured.err.count("\n") == 1  # one line, no traceback
        assert "usage: python -m repro.experiments" in captured.err

    def test_experiments_cli_json_rows_are_the_artifacts_rows(self, capsys):
        """One grid per figure: what the CLI runs is what is committed."""
        from pathlib import Path

        from repro.experiments.__main__ import main

        assert main(["ablation-consistency", "--processes", "1", "--json", "-"]) == 0
        printed = json.loads(capsys.readouterr().out)
        committed = json.loads((Path(__file__).parent.parent
                                / "BENCH_ablation_consistency.json").read_text())
        assert printed["rows"] == committed["rows"]
        assert printed["host"]["points"] == 3 and printed["host"]["events"] > 0

    def test_check_rejects_seed_without_shards(self, capsys):
        """``check kvs --seed 3`` used to run seed 0 without a word: the
        serial scenarios take no seed, only ``--shards`` mode does."""
        from repro.sim import check

        with pytest.raises(SystemExit) as exc:
            check.main(["kvs", "--seed", "3"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no scenario ran
        assert "--seed" in captured.err and "usage: check" in captured.err

    @pytest.mark.parametrize("shards", ["0", "2,0", "-1", "1,,2", "x"])
    def test_check_rejects_shard_counts_below_one(self, capsys, shards):
        """``check cluster --shards 0`` used to die with a SimulationError
        traceback out of ``run_program``; it is a usage error."""
        from repro.sim import check

        with pytest.raises(SystemExit) as exc:
            check.main(["cluster", f"--shards={shards}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1  # one line, no traceback
        assert "--shards" in captured.err and "usage: check" in captured.err

    @staticmethod
    def _fake_run_program(monkeypatch, digest_of):
        """Stand in for the sharded runner; records the shard counts."""
        from types import SimpleNamespace

        calls = []

        def run_program(program, *, shards, trace):
            calls.append(shards)
            return SimpleNamespace(digest=digest_of(shards), merged_events=7)

        monkeypatch.setattr("repro.sim.par.run_program", run_program)
        return calls

    def test_check_labels_divergence_by_the_real_baseline(self, capsys, monkeypatch):
        """With ``--shards 2,4`` the baseline is shards=2; a diverging
        run used to be reported as "DIVERGES FROM shards=1"."""
        from repro.sim import check

        self._fake_run_program(monkeypatch, lambda shards: f"digest-{shards}")
        assert check.main(["cluster", "--shards", "2,4"]) == 1
        out = capsys.readouterr().out
        assert "shards=4: digest-4   <-- DIVERGES FROM shards=2" in out
        assert "shards=1" not in out

    def test_check_list_prints_the_whole_catalogue(self, capsys):
        """``--list`` used to omit ``e14`` and ``upgrade_under_load``:
        they lived in other registries."""
        from repro.scenarios import SCENARIOS
        from repro.sim import check

        assert check.main(["--list"]) == 0
        names = capsys.readouterr().out.splitlines()
        assert names == list(SCENARIOS)
        assert {"e14", "upgrade_under_load", "quickstart"} <= set(names)

    def test_check_double_runs_a_par_only_name_at_one_shard(self, capsys, monkeypatch):
        """``check e14`` used to answer "unknown scenario; try --list"
        while ``check e14 --shards 1`` ran."""
        from repro.sim import check

        calls = self._fake_run_program(monkeypatch, lambda shards: "same")
        assert check.main(["e14"]) == 0
        assert calls == [1, 1]
        assert "[ok] e14: 7 merged trace events" in capsys.readouterr().out

    def test_check_rejects_serial_only_names_under_shards(self, capsys):
        from repro.sim import check

        with pytest.raises(SystemExit) as exc:
            check.main(["kvs", "--shards", "1,2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "not par-capable: kvs" in err and "'e14'" in err

    def test_snap_report_takes_any_serial_catalogue_entry(self, tmp_path):
        """``--scenario`` choices come from the one catalogue, so the
        newly snapshottable programs are reportable (``kvs`` used to be
        an argparse usage error)."""
        from repro.snap import report as snap_report

        dest = tmp_path / "snap.json"
        assert snap_report.main(["--scenario", "kvs", "--json", str(dest)]) == 0
        data = json.loads(dest.read_text())
        assert data["scenario"] == "kvs"
        assert all(data["verdicts"].values())
        with pytest.raises(SystemExit):  # par-only: no serial form to snapshot
            snap_report.main(["--scenario", "e14"])

    def test_row_extractors_are_importable_and_shaped(self):
        from repro.obs.report import CSV_HEADERS as OBS_HEADERS
        from repro.obs.report import breakdown_rows
        from repro.traffic.report import CSV_HEADERS as TRAFFIC_HEADERS
        from repro.traffic.report import slo_rows

        from repro.obs import PHASES

        phase = {"total_ns": 4, "mean_ns": 2.0, "fraction": 0.4}
        bd = {"count": 2, "phases": {p: dict(phase) for p in PHASES},
              "e2e": {"total_ns": 10, "mean_ns": 5.0}}
        rows = breakdown_rows({"cfg": bd})
        assert len(rows) == len(PHASES) + 1  # + the e2e summary row
        assert all(len(r) == len(OBS_HEADERS) for r in rows)
        assert slo_rows({"tenants": {}}) == []
        assert len(TRAFFIC_HEADERS) == 10


# ----------------------------------------------------------------------
# named QP owners + sorted device-override errors
# ----------------------------------------------------------------------
class TestDiagnosticsNaming:
    def test_qp_owner_tag_names_the_endpoint(self):
        from repro.errors import IpcError
        from repro.ipc.queue_pair import Completion, QueuePair
        from repro.sim import Environment

        qp = QueuePair(Environment(), owner="fabric:n0->n1")
        assert qp.owner_tag == f"QP {qp.qid} (fabric:n0->n1)"
        with pytest.raises(IpcError, match=r"fabric:n0->n1"):
            qp.complete(Completion(object()))

    def test_unnamed_qp_keeps_bare_tag(self):
        from repro.ipc.queue_pair import QueuePair
        from repro.sim import Environment

        qp = QueuePair(Environment())
        assert qp.owner_tag == f"QP {qp.qid}"

    def test_device_override_error_lists_valid_keys_sorted(self):
        from repro.devices.profiles import make_device
        from repro.errors import LabStorError
        from repro.sim import Environment

        with pytest.raises(LabStorError) as exc:
            make_device(Environment(), "nvme", not_a_knob=1)
        msg = str(exc.value)
        assert "not_a_knob" in msg
        listed = msg.split("valid keys: ", 1)[1]
        keys = [k.strip(" '[]") for k in listed.split(",")]
        assert keys == sorted(keys)

    def test_device_spec_rejects_unknown_keys_too(self):
        from repro.devices.profiles import DeviceSpec
        from repro.errors import LabStorError

        with pytest.raises(LabStorError, match="valid keys"):
            DeviceSpec("nvme", bogus=3)
