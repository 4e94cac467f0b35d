"""The redesigned public surface: keyword-only APIs, config coercion,
and fingerprint neutrality of resilience knobs."""

import dataclasses
import json

import pytest

from repro.apps import dummy
from repro.core.pipeline import Owl, OwlConfig
from repro.errors import ConfigError
from repro.resilience import FaultPlan, RetryPolicy
from repro.store import TraceStore
from repro.store.fingerprint import (
    analysis_fingerprint,
    evidence_fingerprint,
    trace_fingerprint,
)

TINY = dict(fixed_runs=2, random_runs=2, seed=11)


def make_owl(**overrides):
    return Owl(dummy.dummy_program, name="dummy",
               config=OwlConfig(**{**TINY, **overrides}))


class TestDetectKeywordOnly:
    def test_keyword_call_is_warning_free(self, recwarn):
        result = make_owl().detect(inputs=[dummy.fixed_input()],
                                   random_input=dummy.random_input)
        assert result.report is not None
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]

    def test_missing_random_input_is_a_type_error(self):
        with pytest.raises(TypeError, match="random_input"):
            make_owl().detect(inputs=[dummy.fixed_input()])

    def test_too_many_positionals_is_a_type_error(self):
        with pytest.raises(TypeError):
            make_owl().detect([dummy.fixed_input()], dummy.random_input,
                              None, True, "extra")


class TestTraceStoreKeywordOnly:
    def test_keyword_create_is_warning_free(self, tmp_path, recwarn):
        TraceStore(tmp_path / "s", create=True)
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]

    def test_extra_positionals_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            TraceStore(tmp_path / "s", True, "extra")


class TestConfigCoercion:
    def test_retry_dict_coerced_to_policy(self):
        config = OwlConfig(retry={"max_attempts": 5})
        assert isinstance(config.retry, RetryPolicy)
        assert config.retry.max_attempts == 5

    def test_fault_plan_string_coerced(self):
        config = OwlConfig(fault_plan="cohort_violation:launch=2")
        assert isinstance(config.fault_plan, FaultPlan)
        assert config.fault_plan.faults[0].kind == "cohort_violation"

    def test_manifest_json_round_trip(self):
        """Campaign manifests persist configs via asdict + JSON; the
        round-tripped dict form must rebuild the same config."""
        config = OwlConfig(retry=RetryPolicy(max_attempts=4),
                           fault_plan=FaultPlan.parse("worker_crash:chunk=1"),
                           cohort_step_budget=500, **TINY)
        data = json.loads(json.dumps(dataclasses.asdict(config)))
        rebuilt = OwlConfig(**data)
        assert rebuilt == config

    def test_invalid_retry_dict_is_a_config_error(self):
        with pytest.raises(ConfigError):
            OwlConfig(retry={"max_attempts": 0})

    def test_invalid_step_budget_is_a_config_error(self):
        with pytest.raises(ConfigError, match="cohort_step_budget"):
            OwlConfig(cohort_step_budget=0)

    def test_step_budget_reaches_the_device(self):
        owl = make_owl(cohort_step_budget=123456)
        assert owl.device_config.cohort_step_budget == 123456


class TestFingerprintNeutrality:
    def test_resilience_knobs_do_not_change_any_fingerprint(self):
        """Degraded paths are bit-identical, so retry / fault_plan /
        cohort_step_budget must not invalidate stored artifacts."""
        from repro.gpusim import DeviceConfig
        base = OwlConfig(**TINY)
        variant = dataclasses.replace(
            base, retry=RetryPolicy(max_attempts=9),
            fault_plan=FaultPlan.parse("cohort_violation"),
            cohort_step_budget=77)
        base_device = DeviceConfig()
        variant_device = DeviceConfig(cohort_step_budget=77)
        for fingerprint in (trace_fingerprint, evidence_fingerprint,
                            analysis_fingerprint):
            assert fingerprint(base, base_device) == \
                fingerprint(variant, variant_device)
