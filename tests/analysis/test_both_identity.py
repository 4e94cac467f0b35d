"""``analyzer="both"`` identity contract.

One shared evidence pass feeds both detectors, so the KS component of a
``both`` run must be *byte-for-byte* the report a plain ``analyzer="ks"``
run produces — cold, warm (store-backed), and across the recording-engine
matrix (workers × per-event fold × cohort).  The MI component likewise matches
a plain ``analyzer="mi"`` run.
"""

import pytest

from repro.analysis import ks_view, mi_view
from repro.cli import _workloads
from repro.core.pipeline import Owl, OwlConfig
from repro.store import TraceStore
from tests.oracle import scalar_analyzers

TINY = dict(fixed_runs=4, random_runs=4, seed=11, always_analyze=True)


def run_detection(workload, store=None, scalar=False, **overrides):
    program, fixed_inputs, random_input = _workloads()[workload]
    config = OwlConfig(**{**TINY, **overrides})
    owl = Owl(program, name=workload, config=config)
    if scalar:
        owl.analyzers = scalar_analyzers(config)
    return owl.detect(inputs=fixed_inputs(), random_input=random_input,
                      store=store)


class TestBothEqualsEach:
    @pytest.mark.parametrize("workload", ["dummy", "aes", "rsa"])
    def test_views_match_single_analyzer_runs(self, workload):
        both = run_detection(workload, analyzer="both").report
        ks = run_detection(workload, analyzer="ks").report
        mi = run_detection(workload, analyzer="mi").report
        assert ks_view(both).to_json() == ks.to_json()
        assert mi_view(both).to_json() == mi.to_json()

    def test_cross_validation_section_present(self):
        report = run_detection("aes", analyzer="both").report
        assert report.analyzer == "both"
        section = report.cross_validation
        assert section is not None
        assert set(section) >= {"agreements", "ks_only", "mi_only",
                                "ks_report", "mi_report"}

    def test_scalar_fallback_keeps_identity(self):
        """The scalar oracle detectors cannot defer, which forces the
        per-analyzer traversal; the identity must hold through it too."""
        both = run_detection("aes", analyzer="both", scalar=True).report
        ks = run_detection("aes", analyzer="ks", scalar=True).report
        mi = run_detection("aes", analyzer="mi", scalar=True).report
        assert ks_view(both).to_json() == ks.to_json()
        assert mi_view(both).to_json() == mi.to_json()

    @pytest.mark.parametrize("workload", ["aes", "dummy"])
    def test_welch_ablation_keeps_identity(self, workload):
        """Welch cannot defer either: the KS detector tests inline while
        the MI detector still batches, over one alignment."""
        both = run_detection(workload, analyzer="both", test="welch").report
        ks = run_detection(workload, analyzer="ks", test="welch").report
        mi = run_detection(workload, analyzer="mi", test="welch").report
        assert ks_view(both).to_json() == ks.to_json()
        assert mi_view(both).to_json() == mi.to_json()


class TestEngineMatrix:
    @pytest.mark.parametrize("workload", ["dummy", "aes"])
    def test_both_stable_across_recording_configs(self, workload):
        reference = run_detection(workload, analyzer="both", workers=1,
                                  fault_plan="batch_fold_error",
                                  cohort=False).report.to_json()
        for workers in (1, 2):
            for plan in ("batch_fold_error", None):
                report = run_detection(workload, analyzer="both",
                                       workers=workers, fault_plan=plan,
                                       cohort=True).report.to_json()
                assert report == reference, (
                    f"{workload}: both(workers={workers}, "
                    f"fault_plan={plan}, cohort) diverged")


class TestWarmColdIdentity:
    @pytest.mark.parametrize("workload", ["dummy", "aes"])
    def test_warm_both_identical_to_cold(self, workload, tmp_path):
        cold = run_detection(workload, analyzer="both",
                             store=TraceStore(tmp_path / "s"))
        assert not cold.stats.report_cache_hit
        warm = run_detection(workload, analyzer="both",
                             store=TraceStore(tmp_path / "s"))
        assert warm.stats.report_cache_hit
        assert warm.report.to_json() == cold.report.to_json()

    def test_analyzers_cache_reports_independently(self, tmp_path):
        """ks, mi and both share recorded traces and evidence in one
        store but must each produce their own cached report."""
        store_dir = tmp_path / "shared"
        ks = run_detection("aes", analyzer="ks",
                           store=TraceStore(store_dir))
        mi = run_detection("aes", analyzer="mi",
                           store=TraceStore(store_dir))
        # the second campaign reuses the first campaign's evidence...
        assert mi.stats.cached_runs == \
            TINY["fixed_runs"] + TINY["random_runs"]
        # ...but not its report
        assert not mi.stats.report_cache_hit
        both = run_detection("aes", analyzer="both",
                             store=TraceStore(store_dir))
        assert not both.stats.report_cache_hit
        assert ks_view(both.report).to_json() == ks.report.to_json()
        assert mi_view(both.report).to_json() == mi.report.to_json()
        # every analyzer now warm: straight cache hits all around
        for analyzer in ("ks", "mi", "both"):
            warm = run_detection("aes", analyzer=analyzer,
                                 store=TraceStore(store_dir))
            assert warm.stats.report_cache_hit, analyzer
