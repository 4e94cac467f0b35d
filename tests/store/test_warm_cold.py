"""The store's central contract: a warm re-run is bit-identical to the
cold run that populated it, while skipping already-recorded work, and an
interrupted campaign resumes to the same report."""

import pytest

from repro.cli import _workloads
from repro.core import pipeline
from repro.core.pipeline import Owl, OwlConfig
from repro.store import TraceStore

TINY = dict(fixed_runs=4, random_runs=4, seed=11, store_checkpoint_every=2)


def run_detection(workload, store=None, reuse_report=True, **overrides):
    program, fixed_inputs, random_input = _workloads()[workload]
    config = OwlConfig(**{**TINY, **overrides})
    owl = Owl(program, name=workload, config=config)
    return owl.detect(inputs=fixed_inputs(), random_input=random_input,
                      store=store, reuse_report=reuse_report)


class TestWarmEqualsCold:
    @pytest.mark.parametrize("workload", sorted(_workloads()))
    def test_every_workload_bit_identical_and_cached(self, workload,
                                                     tmp_path):
        cold = run_detection(workload, store=TraceStore(tmp_path / "s"))
        assert not cold.stats.report_cache_hit
        assert cold.stats.cached_traces == 0
        assert cold.stats.cached_runs == 0

        # warm with report reuse: straight cache hit
        warm = run_detection(workload, store=TraceStore(tmp_path / "s"))
        assert warm.stats.report_cache_hit
        assert warm.report.to_json() == cold.report.to_json()

        # warm without report reuse: full re-analysis over cached evidence
        rerun = run_detection(workload, store=TraceStore(tmp_path / "s"),
                              reuse_report=False)
        assert not rerun.stats.report_cache_hit
        assert rerun.stats.cached_traces == len(
            _workloads()[workload][1]())
        assert rerun.report.to_json() == cold.report.to_json()
        if not rerun.leak_free_by_filtering:
            assert rerun.stats.cached_runs == \
                TINY["fixed_runs"] + TINY["random_runs"]

    @pytest.mark.parametrize("workload", ["dummy", "aes"])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("per_event", [True, False])
    @pytest.mark.parametrize("cohort", [True, False])
    def test_store_reuse_across_recording_configs(self, workload, workers,
                                                  per_event, cohort,
                                                  tmp_path):
        """workers / cohort / the per-event memory fold are excluded from
        fingerprints (their paths are proven bit-identical), so one cold
        serial run warms every recording configuration."""
        store_dir = tmp_path / "shared"
        cold = run_detection(workload, store=TraceStore(store_dir))
        warm = run_detection(workload, store=TraceStore(store_dir),
                             reuse_report=False, workers=workers,
                             fault_plan=("batch_fold_error" if per_event
                                         else None), cohort=cohort)
        assert warm.stats.cached_traces > 0
        assert warm.stats.cached_runs > 0
        assert warm.report.to_json() == cold.report.to_json()

    def test_no_cohort_warmed_store_serves_cohort_rerun(self, tmp_path):
        """A store populated under --no-cohort is a straight cache hit for
        the default cohort engine (and vice versa): ``cohort`` does not
        participate in any fingerprint scope."""
        store_dir = tmp_path / "s"
        cold = run_detection("aes", store=TraceStore(store_dir),
                             cohort=False)
        warm = run_detection("aes", store=TraceStore(store_dir),
                             cohort=True)
        assert warm.stats.report_cache_hit
        assert warm.report.to_json() == cold.report.to_json()

        rerun = run_detection("aes", store=TraceStore(store_dir),
                              reuse_report=False, cohort=True)
        assert rerun.stats.cached_traces > 0
        assert rerun.report.to_json() == cold.report.to_json()

    @pytest.mark.parametrize("workload", ["dummy", "aes"])
    def test_new_seed_loads_the_fixed_side_another_seed_stored(
            self, workload, tmp_path):
        """The fixed side's bytes never depend on the seed: a campaign
        with a new seed loads it from a store another seed filled,
        records only its random side, and reports its storeless bytes."""
        store_dir = tmp_path / "s"
        run_detection(workload, store=TraceStore(store_dir))
        plain = run_detection(workload, seed=12)
        warm = run_detection(workload, store=TraceStore(store_dir), seed=12)
        assert not warm.stats.report_cache_hit
        assert warm.report.to_json() == plain.report.to_json()
        assert warm.stats.cached_runs == TINY["fixed_runs"]

    def test_entry_meta_names_each_sides_own_scope(self, tmp_path):
        """Traces and the fixed side do not depend on the seed, so their
        entries do not record one; every evidence entry and segment
        names its own side's fingerprint."""
        from repro.store.campaign import Campaign
        program, _fixed_inputs, _random_input = _workloads()["dummy"]
        owl = Owl(program, name="dummy", config=OwlConfig(**TINY))
        campaign = Campaign(TraceStore(tmp_path / "s"), "dummy", owl.config,
                            owl.device_config)
        run_detection("dummy", store=campaign.store)
        assert campaign.store.entries(kind="trace")
        for entry in campaign.store.entries(kind="trace"):
            assert "seed" not in entry.meta
        for entry in campaign.store.entries(kind="evidence"):
            campaign.save_segment(entry.key, 0, 4,
                                  campaign.load_evidence(entry.key),
                                  entry.meta["side"])
        entries = (campaign.store.entries(kind="evidence")
                   + campaign.store.entries(kind="segment"))
        assert sorted(entry.meta["side"] for entry in entries) == [
            "fixed", "fixed", "random", "random"]
        for entry in entries:
            side = entry.meta["side"]
            assert entry.meta["config"] == campaign.evidence_fps[side]
            assert entry.meta.get("seed") == (
                TINY["seed"] if side == "random" else None)

    def test_store_attached_cold_run_matches_storeless_run(self, tmp_path):
        plain = run_detection("dummy")
        stored = run_detection("dummy", store=TraceStore(tmp_path / "s"))
        assert stored.report.to_json() == plain.report.to_json()

    def test_distinct_names_do_not_share_cache(self, tmp_path):
        program, fixed_inputs, random_input = _workloads()["dummy"]
        store_dir = tmp_path / "s"
        config = OwlConfig(**TINY)
        Owl(program, name="v1", config=config).detect(
            inputs=fixed_inputs(), random_input=random_input,
            store=TraceStore(store_dir))
        second = Owl(program, name="v2", config=config).detect(
            inputs=fixed_inputs(), random_input=random_input,
            store=TraceStore(store_dir))
        assert not second.stats.report_cache_hit
        assert second.stats.cached_traces == 0

    def test_config_change_invalidates_report_not_traces(self, tmp_path):
        store_dir = tmp_path / "s"
        run_detection("dummy", store=TraceStore(store_dir))
        changed = run_detection("dummy", store=TraceStore(store_dir),
                                confidence=0.99)
        assert not changed.stats.report_cache_hit
        assert changed.stats.cached_traces > 0  # trace scope unchanged


#: phase-3 batches of a TINY campaign: each side's 4 runs in batches of 2
TINY_BATCHES = 4


class TestCrashResume:
    def crash_after(self, owl, batches, monkeypatch):
        """Kill the campaign right after its *batches*-th phase-3 batch:
        at the next batch, or at the analysis after the last one.
        Returns the batch counter."""
        calls = {"n": 0}
        real = owl.pool.record_evidence

        def bomb(values, keep_per_run=False):
            if calls["n"] == batches:
                raise KeyboardInterrupt("simulated crash")
            calls["n"] += 1
            return real(values, keep_per_run=keep_per_run)

        def analysis(*args, **kwargs):
            raise KeyboardInterrupt("simulated crash")

        owl.pool.record_evidence = bomb
        monkeypatch.setattr(pipeline, "run_analyzers", analysis)
        return calls

    @pytest.mark.parametrize("workload", ["dummy", "aes"])
    @pytest.mark.parametrize("crash_batches", range(1, TINY_BATCHES + 1))
    def test_resume_matches_uninterrupted_run(self, workload, crash_batches,
                                              tmp_path, monkeypatch):
        program, fixed_inputs, random_input = _workloads()[workload]
        config = OwlConfig(**TINY)

        reference = run_detection(workload,
                                  store=TraceStore(tmp_path / "ref"))

        crashed = Owl(program, name=workload, config=config)
        with monkeypatch.context() as patch:
            calls = self.crash_after(crashed, crash_batches, patch)
            with pytest.raises(KeyboardInterrupt):
                crashed.detect(inputs=fixed_inputs(),
                               random_input=random_input,
                               store=TraceStore(tmp_path / "s"))
        assert calls["n"] == crash_batches

        resumed = run_detection(workload, store=TraceStore(tmp_path / "s"))
        assert not resumed.stats.report_cache_hit
        assert resumed.stats.cached_runs > 0  # stored work survived
        assert resumed.report.to_json() == reference.report.to_json()

    def test_segment_stored_after_its_side_completed_is_dropped(
            self, tmp_path):
        """A writer racing a side's completion (another campaign's evidence
        unit) can store a segment after ``save_evidence`` deleted the
        side's segments; the next run that loads the completed side
        deletes it."""
        from repro.store.campaign import Campaign
        from repro.store.serialize import deserialize_evidence
        store = TraceStore(tmp_path / "s")
        cold = run_detection("dummy", store=store)
        assert store.keys_under("segment/") == []
        (entry, *_rest) = store.entries(kind="evidence")
        campaign = Campaign(store, "dummy", OwlConfig(**TINY))
        stray = deserialize_evidence(store.get_bytes(entry.key))
        campaign.save_segment(entry.key, 0, 4, stray, entry.meta["side"])

        rerun = run_detection("dummy", store=TraceStore(tmp_path / "s"),
                              reuse_report=False)
        assert rerun.report.to_json() == cold.report.to_json()
        assert TraceStore(tmp_path / "s").keys_under("segment/") == []

    def test_interrupted_campaign_visible_until_finished(self, tmp_path,
                                                         monkeypatch):
        from repro.store import incomplete_campaigns
        program, fixed_inputs, random_input = _workloads()["dummy"]
        config = OwlConfig(**TINY)
        crashed = Owl(program, name="dummy", config=config)
        with monkeypatch.context() as patch:
            self.crash_after(crashed, 1, patch)
            with pytest.raises(KeyboardInterrupt):
                crashed.detect(inputs=fixed_inputs(),
                               random_input=random_input,
                               store=TraceStore(tmp_path / "s"))
        store = TraceStore(tmp_path / "s")
        assert len(incomplete_campaigns(store)) == 1
        run_detection("dummy", store=store)
        assert incomplete_campaigns(TraceStore(tmp_path / "s")) == []
