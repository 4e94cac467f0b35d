"""Graceful degradation: every fallback rung is bit-identical to health.

cohort -> per-warp (envelope violation or step budget), columnar -> object
(batch-fold failure: the per-event fold).  Each injected fault must leave the recorded trace
byte-identical to a fault-free run and leave a structured event behind.
"""

import pytest

from repro.adcfg.builder import ADCFGBuilder
from repro.apps import dummy
from repro.apps.libgpucrypto import aes_program
from repro.gpusim import DeviceConfig
from repro.resilience import FaultPlan
from repro.resilience.events import (
    COHORT_TO_WARP,
    COLUMNAR_TO_OBJECT,
    collecting_degradations,
)
from repro.resilience.faults import activated
from repro.tracing.recorder import TraceRecorder


def record(program, value, plan=None, device_config=None, cohort=True):
    recorder = TraceRecorder(device_config=device_config, cohort=cohort)
    with activated(plan):
        with collecting_degradations() as log:
            trace = recorder.record(program, value)
    return trace, log


WORKLOADS = [
    pytest.param(aes_program, bytes(range(16)), id="aes"),
    pytest.param(dummy.dummy_program, dummy.fixed_input(), id="dummy"),
]


class TestCohortToWarp:
    @pytest.mark.parametrize("program, value", WORKLOADS)
    def test_injected_violation_falls_back_bit_identically(self, program,
                                                           value):
        healthy, _ = record(program, value)
        plan = FaultPlan.parse("cohort_violation")
        degraded, log = record(program, value, plan=plan)
        assert degraded.signature() == healthy.signature()
        assert degraded == healthy
        counts = log.counts_by_kind()
        assert counts.get(COHORT_TO_WARP, 0) >= 1

    def test_violation_targets_a_single_launch(self):
        value = bytes(range(16))
        healthy, _ = record(aes_program, value)
        plan = FaultPlan.parse("cohort_violation:launch=0")
        degraded, log = record(aes_program, value, plan=plan)
        assert degraded.signature() == healthy.signature()
        assert log.counts_by_kind().get(COHORT_TO_WARP) == 1

    def test_step_budget_trips_the_same_fallback(self):
        value = bytes(range(16))
        healthy, _ = record(aes_program, value)
        config = DeviceConfig(seed=0, cohort_step_budget=1)
        degraded, log = record(aes_program, value, device_config=config)
        assert degraded.signature() == healthy.signature()
        assert degraded == healthy
        assert log.counts_by_kind().get(COHORT_TO_WARP, 0) >= 1

    def test_healthy_run_records_nothing(self):
        _, log = record(aes_program, bytes(range(16)))
        assert len(log) == 0


class TestColumnarToObject:
    @pytest.mark.parametrize("program, value", WORKLOADS)
    def test_batch_fold_failure_replays_per_event(self, program, value):
        healthy, _ = record(program, value)
        plan = FaultPlan.parse("batch_fold_error")
        degraded, log = record(program, value, plan=plan)
        assert degraded.signature() == healthy.signature()
        assert degraded == healthy
        counts = log.counts_by_kind()
        assert counts.get(COLUMNAR_TO_OBJECT, 0) >= 1

    def test_fault_scoped_to_matching_kernel_only(self):
        value = bytes(range(16))
        plan = FaultPlan.parse("batch_fold_error:kernel=no_such_kernel")
        _, log = record(aes_program, value, plan=plan)
        assert log.counts_by_kind().get(COLUMNAR_TO_OBJECT) is None

    def test_kernel_wide_fold_error_replays_per_event(self, monkeypatch):
        """A kernel-wide fold that raises (as int64 packing overflow
        does, before touching the graph) degrades at launch end: the
        monitor replays the untouched batches per event."""
        value = dummy.fixed_input()
        healthy, _ = record(dummy.dummy_program, value)

        fold = ADCFGBuilder.fold_pending_batches

        def overflow(builder):
            if builder._pending_batches:
                raise OverflowError("slot packing overflows int64")
            fold(builder)

        monkeypatch.setattr(ADCFGBuilder, "fold_pending_batches", overflow)
        degraded, log = record(dummy.dummy_program, value)
        assert degraded.signature() == healthy.signature()
        assert degraded == healthy
        events = [e for e in log.events if e.kind == COLUMNAR_TO_OBJECT]
        assert events and all("overflows" in e.reason for e in events)


class TestStackedFaults:
    def test_both_rungs_fire_and_the_trace_survives(self):
        value = bytes(range(16))
        healthy, _ = record(aes_program, value)
        plan = FaultPlan.parse("cohort_violation,batch_fold_error")
        degraded, log = record(aes_program, value, plan=plan)
        assert degraded.signature() == healthy.signature()
        counts = log.counts_by_kind()
        assert counts.get(COHORT_TO_WARP, 0) >= 1
        assert counts.get(COLUMNAR_TO_OBJECT, 0) >= 1
