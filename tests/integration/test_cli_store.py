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

    @pytest.mark.parametrize("verb", [
        ["run", "dummy", *RUN_ARGS], ["serve", "--workers", "0"],
        ["worker", "--queue", "QUEUE"]])
    def test_unreadable_store_is_one_line_and_exit_2(self, verb, tmp_path,
                                                     capsys):
        """Like ls/gc/verify, the verbs that open a store for work print
        an open failure as one line and exit 2, not 1 ("leaks found")."""
        store = tmp_path / "store"
        store.mkdir()
        (store / "manifest.json").write_text("{not json")
        argv = [str(tmp_path / "queue") if arg == "QUEUE" else arg
                for arg in verb]
        assert main([*argv, "--store", str(store)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("owl: cannot read store manifest")
        assert err.count("\n") == 1


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

    def test_resume_reads_a_config_with_a_retired_field(self, tmp_path,
                                                         capsys,
                                                         monkeypatch):
        """Campaign entries keep the config's ``dataclasses.asdict`` form;
        one written while OwlConfig had ``columnar``, ``replica_batch``
        and ``vectorized`` still resumes, to the report a fresh run
        prints."""
        from repro.core.parallel import TraceRecordingPool
        from repro.store import TraceStore, incomplete_campaigns
        store_dir = str(tmp_path / "store")
        assert run_store(tmp_path / "ref", "--json") == 1
        reference = capsys.readouterr().out

        original = TraceRecordingPool.record_evidence

        def crashing(self, values, keep_per_run=False):
            raise KeyboardInterrupt("simulated crash")

        monkeypatch.setattr(TraceRecordingPool, "record_evidence", crashing)
        with pytest.raises(KeyboardInterrupt):
            main(["run", "dummy", "--store", store_dir, *RUN_ARGS])
        monkeypatch.setattr(TraceRecordingPool, "record_evidence", original)
        capsys.readouterr()

        store = TraceStore(store_dir)
        (entry,) = incomplete_campaigns(store)
        body = store.get_json(entry.key)
        body["config"].update(columnar=True, replica_batch=False,
                              vectorized=False)
        store.put_json(entry.key, entry.kind, body, meta=entry.meta)

        assert main(["resume", "--store", store_dir, "--json"]) == 1
        out = capsys.readouterr().out
        assert "resumed dummy" in out
        assert out[out.index("{"):] == reference


class TestUpgradeFromCheckpoints:
    """Stores written while partial evidence was saved as whole-side
    ``checkpoint/`` snapshots (and the service's per-campaign chunk
    blobs, of the same ``checkpoint`` kind) still open: campaigns ignore
    those entries, and ``owl verify`` deletes them."""

    def plant_checkpoints(self, tmp_path, capsys):
        """A store holding bogus ``checkpoint``-kind partial evidence under
        the keys a dummy campaign's sides used to resume from."""
        from repro.core.evidence import Evidence
        from repro.store import TraceStore
        assert run_store(tmp_path / "probe") == 1
        capsys.readouterr()
        probe = TraceStore(tmp_path / "probe" / "store")
        store = TraceStore(tmp_path / "store")
        bogus = Evidence()
        bogus.num_runs = 2
        for entry in probe.entries(kind="evidence"):
            store.put_evidence(
                "checkpoint/" + entry.key[len("evidence/"):], bogus,
                kind="checkpoint",
                meta={"side": entry.meta["side"], "runs_done": 2,
                      "total_runs": 4})
        store.put_evidence("servicechunk/c0001/random/random/0000", bogus,
                           kind="checkpoint", meta={"start": 0, "stop": 2})
        return len(probe.entries(kind="evidence")) + 1

    def test_campaign_ignores_old_checkpoints(self, tmp_path, capsys):
        from repro.store import TraceStore
        assert main(["run", "dummy", *RUN_ARGS, "--json"]) == 1
        reference = json.loads(capsys.readouterr().out)
        planted = self.plant_checkpoints(tmp_path, capsys)

        assert run_store(tmp_path, "--json") == 1
        assert json.loads(capsys.readouterr().out) == reference
        store = TraceStore(tmp_path / "store")
        assert len(store.entries(kind="checkpoint")) == planted
        assert store.keys_under("segment/") == []

    def test_verify_deletes_old_checkpoints_and_counts_them(self, tmp_path,
                                                            capsys):
        from repro.store import TraceStore
        planted = self.plant_checkpoints(tmp_path, capsys)
        store_dir = str(tmp_path / "store")
        assert main(["verify", "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert f"deleted {planted} retired checkpoint entries" in out
        assert "entries verified" in out
        assert TraceStore(store_dir).entries(kind="checkpoint") == []
        assert main(["verify", "--store", store_dir]) == 0
        assert "retired" not in capsys.readouterr().out

    def test_ls_kind_offers_segment_in_place_of_checkpoint(
            self, tmp_path, capsys, monkeypatch):
        from repro.core.parallel import TraceRecordingPool
        store_dir = str(tmp_path / "store")
        original = TraceRecordingPool.record_evidence
        calls = {"n": 0}

        def crashing(self, values, keep_per_run=False):
            calls["n"] += 1
            if calls["n"] == 2:  # after the fixed side's first batch
                raise KeyboardInterrupt("simulated crash")
            return original(self, values, keep_per_run=keep_per_run)

        monkeypatch.setattr(TraceRecordingPool, "record_evidence", crashing)
        with pytest.raises(KeyboardInterrupt):
            main(["run", "dummy", "--store", store_dir, "--fixed-runs",
                  "30", "--random-runs", "30", "--seed", "11"])
        capsys.readouterr()
        assert main(["ls", "--store", store_dir, "--kind", "segment"]) == 0
        out = capsys.readouterr().out
        assert "/fixed/" in out and out.count("segment/dummy/") == 1
        assert "/0-25\n" in out
        with pytest.raises(SystemExit):
            main(["ls", "--store", store_dir, "--kind", "checkpoint"])

    def test_units_queued_before_the_upgrade_still_execute(self, tmp_path):
        """Evidence units that still carry a chunk ordinal and decide units
        that still carry chunk counts run on their run ranges and look;
        the final-look decide unit completes the sides and writes the
        direct report."""
        from repro.apps.registry import resolve
        from repro.core.pipeline import Owl, OwlConfig
        from repro.service.execute import execute_unit
        from repro.service.units import KIND_DECIDE, KIND_EVIDENCE, WorkUnit
        from repro.store import TraceStore
        overrides = dict(fixed_runs=4, random_runs=4, seed=11)
        spec = {"workload": "dummy", "config": dict(overrides)}
        store = TraceStore(tmp_path / "store")
        units = [WorkUnit(uid=f"c0001.evidence.{side}.{rep}.{chunk:04d}",
                          kind=KIND_EVIDENCE, campaign="c0001", spec=spec,
                          params={"side": side, "rep_index": rep,
                                  "chunk": chunk, "start": 2 * chunk,
                                  "stop": 2 * chunk + 2})
                 for side, rep in (("fixed", 0), ("random", -1))
                 for chunk in (0, 1)]
        units.append(WorkUnit(
            uid="c0001.decide.00", kind=KIND_DECIDE, campaign="c0001",
            spec=spec, params={"round": 0, "rep_indices": [0],
                               "fixed_chunks": 2, "random_chunks": 2}))
        for unit in units[:-1]:
            assert execute_unit(unit, store)["runs"] == 2
        decided = execute_unit(units[-1], store)
        assert decided["stop"]
        assert len(store.entries(kind="evidence")) == 2
        assert store.keys_under("segment/") == []

        report = decided["report"]
        assert report["cached_runs"] == 8
        program, fixed_inputs, random_input = resolve("dummy")
        direct = Owl(program, name="dummy",
                     config=OwlConfig(**overrides)).detect(
            fixed_inputs(), random_input=random_input)
        assert store.get_report(report["report_key"]).to_json() == \
            direct.report.to_json()
