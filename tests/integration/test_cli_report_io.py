"""CLI report output: JSON emission and --save-report round-trips."""

import json

import pytest

from repro.cli import main
from repro.core.report import LeakageReport


class TestJsonOutput:
    def test_json_flag_emits_parseable_report(self, capsys):
        code = main(["rsa", "--fixed-runs", "8", "--random-runs", "8",
                     "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["program_name"] == "rsa"
        assert (code == 1) == bool(payload["leaks"])

    def test_quantify_flag_populates_bits(self, capsys):
        main(["rsa", "--fixed-runs", "10", "--random-runs", "10",
              "--json", "--quantify"])
        payload = json.loads(capsys.readouterr().out)
        if payload["leaks"]:
            assert any(entry["bits"] > 0 for entry in payload["leaks"])

    def test_granularity_flag_accepted(self, capsys):
        code = main(["rsa", "--fixed-runs", "5", "--random-runs", "5",
                     "--granularity", "64"])
        assert code in (0, 1)


class TestSaveReport:
    def test_report_written_and_loadable(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        main(["rsa", "--fixed-runs", "8", "--random-runs", "8",
              "--save-report", str(path)])
        capsys.readouterr()
        report = LeakageReport.from_json(path.read_text())
        assert report.program_name == "rsa"
        assert report.num_fixed_runs == 8

    def test_saved_report_matches_json_output(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        main(["rsa", "--fixed-runs", "8", "--random-runs", "8",
              "--json", "--save-report", str(path)])
        stdout_payload = json.loads(capsys.readouterr().out)
        saved_payload = json.loads(path.read_text())
        assert stdout_payload == saved_payload


class TestProfile:
    PHASES = ("kernel_execute", "event_emit", "adcfg_fold", "analysis",
              "evidence_fold")

    def test_profile_written_with_all_phases(self, tmp_path, capsys):
        path = tmp_path / "profile.json"
        code = main(["rsa", "--fixed-runs", "8", "--random-runs", "8",
                     "--profile", str(path)])
        capsys.readouterr()
        assert code in (0, 1)
        payload = json.loads(path.read_text())
        assert payload["workload"] == "rsa"
        assert payload["trace_count"] == 18
        assert payload["total_seconds"] > 0
        for phase in self.PHASES:
            assert phase in payload["phases_seconds"]
            assert payload["phases_seconds"][phase] >= 0
        assert payload["phase_counts"]["adcfg_fold"] > 0
        # fused replica launches are folded from the lane grid: that fold
        # is charged once, to adcfg_fold, and never to kernel_execute
        assert payload["replica_batching"]["fused_launches"] > 0
        phases = payload["phases_seconds"]
        assert (phases["kernel_execute"] + phases["event_emit"]
                + phases["adcfg_fold"]) <= payload["total_seconds"]

    def test_fused_aes_run_charges_its_folds(self, tmp_path, capsys):
        """Phase 3 folds fused launches and builds their segment graphs
        at batch end: both land in adcfg_fold, never in kernel_execute."""
        path = tmp_path / "profile.json"
        code = main(["aes", "--fixed-runs", "6", "--random-runs", "6",
                     "--profile", str(path)])
        capsys.readouterr()
        assert code == 1
        payload = json.loads(path.read_text())
        assert payload["replica_batching"]["fused_launches"] > 0
        phases = payload["phases_seconds"]
        assert phases["adcfg_fold"] > 0
        assert (phases["kernel_execute"] + phases["event_emit"]
                + phases["adcfg_fold"]) <= payload["total_seconds"]

    def test_profile_composes_with_save_report(self, tmp_path, capsys):
        profile = tmp_path / "profile.json"
        report = tmp_path / "report.json"
        main(["dummy", "--fixed-runs", "4", "--random-runs", "4",
              "--profile", str(profile), "--save-report", str(report)])
        capsys.readouterr()
        assert json.loads(profile.read_text())["workload"] == "dummy"
        assert json.loads(report.read_text())["program_name"] == "dummy"

    def test_unwritable_profile_path_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        code = main(["dummy", "--fixed-runs", "4", "--random-runs", "4",
                     "--profile", str(blocker / "p.json")])
        capsys.readouterr()
        assert code == 2
