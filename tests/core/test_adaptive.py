"""Adaptive group-sequential replica scheduling (DESIGN.md §15).

The contract under test: an ``adaptive=True`` detection flags the same
leak set as the full-budget run, stops early when every location is
decisive, spends its alpha through the O'Brien–Fleming-style schedule,
stays bit-identical across every parallel/per-event-fold/cohort knob, and
resumes through the store's run-range segments to the identical report.
"""

import numpy as np
import pytest

from repro.core import Owl, OwlConfig
from repro.core import adaptive as sequential
from repro.errors import ConfigError
from repro.gpusim import kernel

TABLE = 64


@kernel()
def df_kernel(k, table, data, out):
    k.block("entry")
    tid = k.global_tid()
    secret = k.load(data, tid)
    k.store(out, tid, k.load(table, secret % TABLE))
    k.block("exit")


def df_program(rt, secret):
    table = rt.cudaMalloc(TABLE, label="table")
    rt.cudaMemcpyHtoD(table, np.arange(TABLE))
    data = rt.cudaMalloc(32, label="data")
    rt.cudaMemcpyHtoD(data, np.full(32, secret))
    out = rt.cudaMalloc(32, label="out")
    rt.cuLaunchKernel(df_kernel, 1, 32, table, data, out)


@kernel()
def clean_kernel(k, data, out):
    k.block("entry")
    tid = k.global_tid()
    k.store(out, tid, k.load(data, tid) + 1)


def clean_program(rt, secret):
    data = rt.cudaMalloc(32, label="data")
    rt.cudaMemcpyHtoD(data, np.full(32, secret))
    out = rt.cudaMalloc(32, label="out")
    rt.cuLaunchKernel(clean_kernel, 1, 32, data, out)


def random_secret(rng):
    return int(rng.integers(0, TABLE))


def leak_set(report):
    return {(leak.leak_type.value, leak.kernel_name, leak.block, leak.instr)
            for leak in report.leaks}


def summary_decisions(summary):
    """The adaptive summary minus wall-clock noise (analysis timings)."""
    payload = summary.to_dict()
    for decision in payload["rounds"]:
        decision.pop("analysis_seconds")
    return payload


def detect(program, adaptive, store=None, **overrides):
    config = OwlConfig(fixed_runs=60, random_runs=60, adaptive=adaptive,
                       always_analyze=True, **overrides)
    owl = Owl(program, name="adaptive-prog", config=config)
    return owl.detect(inputs=[3, 9], random_input=random_secret,
                      store=store)


# ----------------------------------------------------------------------
# the sequential math
# ----------------------------------------------------------------------

class TestSequentialMath:
    def test_normal_quantile_inverts_cdf(self):
        for p in (0.025, 0.3, 0.5, 0.8, 0.975):
            z = sequential.normal_quantile(p)
            assert sequential.normal_cdf(z) == pytest.approx(p, abs=1e-10)

    def test_spending_reaches_alpha_at_full_information(self):
        assert sequential.spending_threshold(0.05, 1.0, 0.5) == pytest.approx(
            0.05)

    def test_spending_is_conservative_early_and_monotone(self):
        fractions = (0.2, 0.4, 0.7, 1.0)
        levels = [sequential.spending_threshold(0.05, fraction, 0.5)
                  for fraction in fractions]
        assert levels == sorted(levels)
        assert levels[0] < 1e-4  # OBF-style: almost no alpha at 20%

    def test_futility_relaxes_to_alpha(self):
        assert sequential.futility_threshold(0.05, 1.0) == pytest.approx(
            0.05)
        early = sequential.futility_threshold(0.05, 0.2)
        assert 0.05 < early < 0.5  # forgiving early, strict at the end

    def test_classify_results_three_ways(self):
        class R:  # the analyzer's raw batch-test rows: only p matters
            def __init__(self, p):
                self.p_value = p

        flagged, clean, undecided = sequential.classify_results(
            [R(1e-9), R(0.9), None, R(0.02)],
            efficacy_p=1e-4, futility_p=0.2)
        assert (flagged, clean, undecided) == (1, 2, 1)


class TestRoundSchedule:
    def test_default_doubles_from_16_to_budget(self):
        schedule = sequential.round_schedule(100, 100)
        assert schedule.fixed == (16, 32, 64, 100)
        assert schedule.random == (16, 32, 64, 100)
        assert schedule.num_rounds == 4

    def test_int_rounds_pick_geometric_looks(self):
        schedule = sequential.round_schedule(100, 100, rounds=2)
        assert schedule.num_rounds == 2
        assert schedule.fixed[-1] == 100

    def test_explicit_boundaries_get_budget_appended(self):
        schedule = sequential.round_schedule(100, 100, rounds=(10, 40))
        assert schedule.fixed == (10, 40, 100)

    def test_asymmetric_budgets_scale_per_side(self):
        schedule = sequential.round_schedule(100, 50)
        assert schedule.fixed[-1] == 100
        assert schedule.random[-1] == 50
        # only the final round may complete a side
        assert all(b < 50 for b in schedule.random[:-1])

    def test_tiny_budget_still_only_completes_on_final_round(self):
        schedule = sequential.round_schedule(100, 2)
        assert schedule.random[-1] == 2
        assert all(1 <= b < 2 for b in schedule.random[:-1])

    def test_validate_rejects_bad_round_specs(self):
        with pytest.raises(ConfigError):
            sequential.validate_adaptive_rounds(True)
        with pytest.raises(ConfigError):
            sequential.validate_adaptive_rounds(1)
        with pytest.raises(ConfigError):
            sequential.validate_adaptive_rounds((10, "x"))
        assert sequential.validate_adaptive_rounds([40, 10, 40]) == (10, 40)


# ----------------------------------------------------------------------
# configuration surface
# ----------------------------------------------------------------------

class TestAdaptiveConfig:
    def test_requires_the_ks_distribution_test(self):
        with pytest.raises(ConfigError, match="adaptive"):
            OwlConfig(adaptive=True, test="welch")

    def test_rounds_list_normalises_to_tuple(self):
        config = OwlConfig(adaptive=True, adaptive_rounds=[10, 40])
        assert config.adaptive_rounds == (10, 40)

    def test_alpha_spend_must_be_positive(self):
        with pytest.raises(ConfigError):
            OwlConfig(adaptive=True, adaptive_alpha_spend=0.0)

    def test_adaptive_fields_are_analysis_scope(self):
        from repro.store.fingerprint import (
            analysis_fingerprint, evidence_fingerprint)
        classic = OwlConfig(fixed_runs=60, random_runs=60)
        adaptive = OwlConfig(fixed_runs=60, random_runs=60, adaptive=True)
        for side in ("fixed", "random"):
            assert (evidence_fingerprint(classic, side=side)
                    == evidence_fingerprint(adaptive, side=side))
        assert (analysis_fingerprint(classic)
                != analysis_fingerprint(adaptive))


# ----------------------------------------------------------------------
# end-to-end equivalence + early stopping
# ----------------------------------------------------------------------

class TestAdaptiveDetect:
    def test_flags_the_full_budget_leak_set_early(self):
        classic = detect(df_program, adaptive=False)
        adaptive = detect(df_program, adaptive=True)
        assert leak_set(adaptive.report) == leak_set(classic.report)
        assert leak_set(adaptive.report)  # the leak is actually there
        summary = adaptive.adaptive
        assert summary.outcome == sequential.OUTCOME_EARLY_STOP
        assert summary.fixed_recorded < 60
        assert summary.replicas_saved > 0
        assert summary.rounds[-1].stop

    def test_clean_program_stops_early_by_futility(self):
        result = detect(clean_program, adaptive=True)
        assert not result.report.has_leaks
        assert result.adaptive.outcome == sequential.OUTCOME_EARLY_STOP

    def test_report_counts_reflect_recorded_replicas(self):
        result = detect(df_program, adaptive=True)
        assert (result.report.num_fixed_runs
                == result.adaptive.fixed_recorded)
        assert (result.report.num_random_runs
                == result.adaptive.random_recorded)

    def test_classic_run_carries_no_adaptive_summary(self):
        assert detect(df_program, adaptive=False).adaptive is None

    def test_works_under_both_analyzers(self):
        classic = detect(df_program, adaptive=False, analyzer="both")
        adaptive = detect(df_program, adaptive=True, analyzer="both")
        assert leak_set(adaptive.report) == leak_set(classic.report)

    @pytest.mark.parametrize("overrides", [
        {"workers": 2},
        {"fault_plan": "batch_fold_error"},
        {"cohort": False},
        {"cohort": False, "workers": 2},
        {"workers": 2, "cohort": False, "fault_plan": "batch_fold_error"},
    ])
    def test_bit_identical_across_parallelism_knobs(self, overrides):
        """Fused replica batches against the per-run reference recorder
        (``cohort=False``) and the other recording knobs."""
        reference = detect(df_program, adaptive=True)
        other = detect(df_program, adaptive=True, **overrides)
        assert (other.report.to_json() == reference.report.to_json())
        assert (summary_decisions(other.adaptive)
                == summary_decisions(reference.adaptive))


# ----------------------------------------------------------------------
# store integration: segments, resume, degradation
# ----------------------------------------------------------------------

class TestAdaptiveStore:
    def test_early_stop_keeps_segments_but_never_saves_evidence(
            self, tmp_path):
        from repro.store import TraceStore
        from repro.store.campaign import Campaign
        store = TraceStore(tmp_path / "store")
        result = detect(df_program, adaptive=True, store=store)
        assert result.adaptive.stopped_early
        config = OwlConfig(fixed_runs=60, random_runs=60, adaptive=True,
                           always_analyze=True)
        owl = Owl(df_program, name="adaptive-prog", config=config)
        campaign = Campaign(store, owl.name, config, owl.device_config)
        key = campaign.evidence_key("random")
        # the evidence key promises the full budget: an early-stopped
        # side must stay segments, not a completed artifact
        assert store.get(key) is None
        _evidence, done = campaign.extend_from_segments(
            key, None, 0, config.random_runs)
        assert done == result.adaptive.random_recorded

    def test_resume_after_mid_round_interrupt_matches_cold_run(
            self, tmp_path):
        from repro.store import TraceStore
        cold = detect(df_program, adaptive=True,
                      store=TraceStore(tmp_path / "cold"))

        store = TraceStore(tmp_path / "warm")
        config = OwlConfig(fixed_runs=60, random_runs=60, adaptive=True,
                           always_analyze=True, store_checkpoint_every=10)
        owl = Owl(df_program, name="adaptive-prog", config=config)
        real_record = owl.pool.record_evidence
        calls = []

        def dying_record(values, keep_per_run=False):
            calls.append(len(values))
            if len(calls) == 3:  # mid-round: after some checkpoints landed
                raise KeyboardInterrupt
            return real_record(values, keep_per_run=keep_per_run)

        owl.pool.record_evidence = dying_record
        with pytest.raises(KeyboardInterrupt):
            owl.detect(inputs=[3, 9], random_input=random_secret,
                       store=store)
        owl.pool.record_evidence = real_record
        resumed = owl.detect(inputs=[3, 9], random_input=random_secret,
                             store=store)
        assert resumed.stats.cached_runs > 0  # the segments were used
        assert resumed.report.to_json() == cold.report.to_json()
        assert (summary_decisions(resumed.adaptive)
                == summary_decisions(cold.adaptive))

    def test_interrupted_classic_run_does_not_skip_adaptive_looks(
            self, tmp_path):
        """A classic campaign killed past 40 runs leaves partial evidence
        beyond the adaptive schedule's 16- and 32-run looks: a default
        adaptive run over that store must still analyse every look of its
        own schedule and stop where a cold adaptive run stops."""
        from repro.store import TraceStore
        cold = detect(df_program, adaptive=True,
                      store=TraceStore(tmp_path / "cold"))
        assert cold.adaptive.stopped_early

        store = TraceStore(tmp_path / "warm")
        config = OwlConfig(fixed_runs=60, random_runs=60, adaptive=False,
                           always_analyze=True, store_checkpoint_every=20)
        owl = Owl(df_program, name="adaptive-prog", config=config)
        real_record = owl.pool.record_evidence
        calls = []

        def dying_record(values, keep_per_run=False):
            calls.append(len(values))
            if len(calls) == 3:  # the fixed side holds runs [0, 40)
                raise KeyboardInterrupt
            return real_record(values, keep_per_run=keep_per_run)

        owl.pool.record_evidence = dying_record
        with pytest.raises(KeyboardInterrupt):
            owl.detect(inputs=[3, 9], random_input=random_secret,
                       store=store)
        warm = detect(df_program, adaptive=True, store=store)
        assert warm.report.to_json() == cold.report.to_json()
        assert (summary_decisions(warm.adaptive)
                == summary_decisions(cold.adaptive))

    def test_warm_adaptive_rerun_hits_the_report_cache(self, tmp_path):
        from repro.store import TraceStore
        store = TraceStore(tmp_path / "store")
        first = detect(df_program, adaptive=True, store=store)
        again = detect(df_program, adaptive=True, store=store)
        assert again.stats.report_cache_hit
        assert again.report.to_json() == first.report.to_json()

    def test_cached_full_evidence_degrades_to_classic(self, tmp_path):
        from repro.store import TraceStore
        store = TraceStore(tmp_path / "store")
        classic = detect(df_program, adaptive=False, store=store)
        adaptive = detect(df_program, adaptive=True, store=store)
        # the full-budget evidence is already on disk (same evidence
        # scope): recording fewer replicas would waste it, so the run
        # degrades to the classic path and reports the full budget
        assert adaptive.adaptive.outcome == sequential.OUTCOME_CACHED
        assert adaptive.adaptive.replicas_saved == 0
        assert leak_set(adaptive.report) == leak_set(classic.report)

    def test_damaged_completed_sides_record_like_a_cold_run(self, tmp_path):
        """Both completed sides fail their integrity check, so no side
        loads: the campaign keeps its adaptive schedule and stops where a
        cold run stops, instead of reporting the full budget as
        ``cached-evidence`` over sides it recorded afresh."""
        from repro.resilience import FaultPlan
        from repro.resilience.events import STORE_QUARANTINE
        from repro.resilience.faults import inject_blob_corruption
        from repro.store import TraceStore
        cold = detect(df_program, adaptive=True,
                      store=TraceStore(tmp_path / "cold"))
        assert cold.adaptive.stopped_early
        store = TraceStore(tmp_path / "store")
        detect(df_program, adaptive=False, store=store)
        for index in (0, 1):
            assert inject_blob_corruption(store, FaultPlan.parse(
                f"blob_corruption:kind=evidence:index={index}"))
        warm = detect(df_program, adaptive=True, store=store)
        assert warm.report.to_json() == cold.report.to_json()
        assert (summary_decisions(warm.adaptive)
                == summary_decisions(cold.adaptive))
        assert [event.kind for event in warm.degradations] == [
            STORE_QUARANTINE, STORE_QUARANTINE]

    @pytest.mark.parametrize("overrides, outcome", [
        ({}, sequential.OUTCOME_EARLY_STOP),
        # stopping waits for the second look, here the final one
        ({"adaptive_rounds": 2}, sequential.OUTCOME_BUDGET),
    ])
    def test_new_seed_over_a_shared_fixed_side_matches_storeless(
            self, tmp_path, overrides, outcome):
        """A classic seed-1 campaign completes the fixed side, which a
        seed-2 campaign shares.  It stands in at the final look only, so
        the seed-2 adaptive campaign analyses every look a storeless run
        does and reports its bytes; the segments its interim looks wrote
        for the shared side are gone when it ends."""
        from repro.store import TraceStore
        from repro.store.campaign import Campaign
        store = TraceStore(tmp_path / "store")
        detect(df_program, adaptive=False, store=store, seed=1)
        storeless = detect(df_program, adaptive=True, seed=2, **overrides)
        assert storeless.adaptive.outcome == outcome
        warm = detect(df_program, adaptive=True, store=store, seed=2,
                      **overrides)
        assert warm.report.to_json() == storeless.report.to_json()
        assert (summary_decisions(warm.adaptive)
                == summary_decisions(storeless.adaptive))
        config = OwlConfig(fixed_runs=60, random_runs=60, adaptive=True,
                           always_analyze=True, seed=2, **overrides)
        owl = Owl(df_program, name="adaptive-prog", config=config)
        campaign = Campaign(store, owl.name, config, owl.device_config)
        fixed_key = campaign.evidence_key("fixed",
                                          campaign.input_fingerprint(3))
        assert fixed_key in store
        assert store.keys_under(campaign.segment_prefix(fixed_key)) == []
        # the stand-in spares the fixed side's runs past the last interim
        # look; an early stop never reaches it, and no run of the new
        # seed's random side was stored
        assert warm.stats.cached_runs == (
            60 - warm.adaptive.rounds[-2].fixed_boundary
            if outcome == sequential.OUTCOME_BUDGET else 0)
