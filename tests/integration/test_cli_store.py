"""The ``owl`` subcommand surface: run/resume/diff/ls/gc + report I/O."""

import json

import pytest

from repro.cli import main

RUN_ARGS = ["--fixed-runs", "4", "--random-runs", "4", "--seed", "11"]


def run_store(tmp_path, *extra):
    return main(["run", "dummy", "--store", str(tmp_path / "store"),
                 *RUN_ARGS, *extra])


class TestRunSubcommand:
    def test_flat_invocation_still_works(self, capsys):
        code = main(["dummy", *RUN_ARGS])
        assert code == 1  # dummy leaks
        assert "sbox_lookup_kernel" in capsys.readouterr().out

    def test_run_without_store_matches_flat(self, capsys):
        flat = main(["dummy", *RUN_ARGS, "--json"])
        flat_report = json.loads(capsys.readouterr().out)
        sub = main(["run", "dummy", *RUN_ARGS, "--json"])
        sub_report = json.loads(capsys.readouterr().out)
        assert flat == sub == 1
        assert sub_report == flat_report

    def test_run_list(self, capsys):
        assert main(["run", "dummy", "--list"]) == 0
        out = capsys.readouterr().out
        assert "aes" in out and "dummy" in out

    def test_cold_then_warm_bit_identical(self, tmp_path, capsys):
        assert run_store(tmp_path, "--json") == 1
        cold = capsys.readouterr().out
        assert run_store(tmp_path, "--json") == 1
        warm = capsys.readouterr().out
        assert warm == cold

    def test_warm_run_reports_cache_hit(self, tmp_path, capsys):
        run_store(tmp_path)
        capsys.readouterr()
        run_store(tmp_path)
        assert "[store] report cache hit" in capsys.readouterr().out

    def test_no_reuse_report_reuses_evidence(self, tmp_path, capsys):
        run_store(tmp_path)
        capsys.readouterr()
        run_store(tmp_path, "--no-reuse-report")
        out = capsys.readouterr().out
        assert "reused 2 traces, 8 evidence runs" in out

    def test_unknown_workload_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", "no-such-workload", "--store",
                  str(tmp_path / "store")])


class TestSaveReport:
    def test_creates_missing_parent_directories(self, tmp_path, capsys):
        target = tmp_path / "deep" / "nested" / "dir" / "report.json"
        code = main(["dummy", *RUN_ARGS, "--save-report", str(target)])
        assert code == 1
        data = json.loads(target.read_text(encoding="utf-8"))
        assert data["program_name"] == "dummy"

    def test_unwritable_path_is_a_one_line_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory", encoding="utf-8")
        target = blocker / "report.json"  # parent is a file: unwritable
        code = main(["dummy", *RUN_ARGS, "--save-report", str(target)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("owl: cannot write report to")
        assert len(err.strip().splitlines()) == 1

    def test_save_report_works_under_subcommand(self, tmp_path):
        target = tmp_path / "out" / "report.json"
        run_store(tmp_path, "--save-report", str(target))
        assert json.loads(target.read_text(encoding="utf-8"))


class TestDiffSubcommand:
    def diff_inputs(self, tmp_path):
        leaky = tmp_path / "leaky.json"
        clean = tmp_path / "clean.json"
        main(["dummy", *RUN_ARGS, "--save-report", str(leaky)])
        main(["aes-ct", *RUN_ARGS, "--save-report", str(clean)])
        return leaky, clean

    def test_fixed_leaks_exit_zero(self, tmp_path, capsys):
        leaky, clean = self.diff_inputs(tmp_path)
        code = main(["diff", str(leaky), str(clean)])
        out = capsys.readouterr().out
        assert code == 0
        assert "introduced: 0" in out
        assert "[fixed]" in out

    def test_introduced_leaks_exit_nonzero(self, tmp_path, capsys):
        leaky, clean = self.diff_inputs(tmp_path)
        code = main(["diff", str(clean), str(leaky)])
        out = capsys.readouterr().out
        assert code == 1
        assert "[introduced]" in out

    def test_json_output(self, tmp_path, capsys):
        leaky, clean = self.diff_inputs(tmp_path)
        capsys.readouterr()  # drain the two generating runs' own output
        main(["diff", str(leaky), str(clean), "--json"])
        data = json.loads(capsys.readouterr().out)
        assert data["counts"]["introduced"] == 0
        assert data["counts"]["fixed"] >= 1

    def test_store_resolved_names(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        main(["run", "dummy", "--store", store, *RUN_ARGS])
        main(["run", "aes-ct", "--store", store, *RUN_ARGS])
        capsys.readouterr()
        code = main(["diff", "dummy", "aes-ct", "--store", store])
        assert code == 0
        assert "fixed" in capsys.readouterr().out

    def test_bare_name_without_store_is_an_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["diff", "dummy", "aes-ct"])


class TestStoreMaintenanceSubcommands:
    def test_ls_lists_artifacts(self, tmp_path, capsys):
        run_store(tmp_path)
        capsys.readouterr()
        assert main(["ls", "--store", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "trace/dummy/" in out
        assert "report/dummy/" in out
        assert "entries" in out

    def test_ls_kind_filter(self, tmp_path, capsys):
        run_store(tmp_path)
        capsys.readouterr()
        main(["ls", "--store", str(tmp_path / "store"), "--kind", "trace"])
        out = capsys.readouterr().out
        assert "trace/dummy/" in out
        assert "report/dummy/" not in out

    def test_gc_reports_removed_blobs(self, tmp_path, capsys):
        run_store(tmp_path)
        capsys.readouterr()
        assert main(["gc", "--store", str(tmp_path / "store")]) == 0
        assert "removed 0 unreferenced blobs" in capsys.readouterr().out

    def test_missing_store_is_a_clean_error(self, tmp_path, capsys):
        for command in (["ls"], ["gc"], ["resume"]):
            code = main([*command, "--store", str(tmp_path / "nowhere")])
            assert code == 2
            assert "owl:" in capsys.readouterr().err


class TestResumeSubcommand:
    def test_resume_with_nothing_pending(self, tmp_path, capsys):
        run_store(tmp_path)
        capsys.readouterr()
        assert main(["resume", "--store", str(tmp_path / "store")]) == 0
        assert "no interrupted campaigns" in capsys.readouterr().out

    def test_resume_finishes_interrupted_campaign(self, tmp_path, capsys,
                                                  monkeypatch):
        from repro.core.parallel import TraceRecordingPool
        store_dir = str(tmp_path / "store")

        # cold reference report from an uninterrupted run elsewhere
        assert run_store(tmp_path / "ref", "--json") == 1
        reference = capsys.readouterr().out

        calls = {"n": 0}
        original = TraceRecordingPool.record_evidence

        def crashing(self, values, keep_per_run=False):
            calls["n"] += 1
            if calls["n"] == 2:  # die while recording the random side
                raise KeyboardInterrupt("simulated crash")
            return original(self, values, keep_per_run=keep_per_run)

        monkeypatch.setattr(TraceRecordingPool, "record_evidence", crashing)
        with pytest.raises(KeyboardInterrupt):
            main(["run", "dummy", "--store", store_dir, *RUN_ARGS])
        monkeypatch.setattr(TraceRecordingPool, "record_evidence", original)
        capsys.readouterr()

        code = main(["resume", "--store", store_dir, "--json"])
        out = capsys.readouterr().out
        assert code == 1  # the resumed campaign finds the leak
        assert "resumed dummy" in out
        payload = out[out.index("{"):]
        assert json.loads(payload) == json.loads(reference)
