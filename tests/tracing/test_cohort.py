"""Warp-cohort engine ≡ per-warp reference loop.

The cohort engine (:mod:`repro.gpusim.cohort`) runs every warp of a launch
in one NumPy pass over a ``(num_warps, 32)`` lane grid.  It is a pure
execution-strategy optimisation: every recorded
:class:`~repro.tracing.recorder.ProgramTrace` must be byte-identical to
the per-warp reference loop — across every bundled workload, under
schedule shuffling and ASLR, through the batched and the per-event fold,
and for partial final warps.
"""

import pytest

from repro.apps import dummy
from repro.apps.libgpucrypto import aes_program, rsa_program
from repro.apps.nvjpeg import encode_program, synthetic_image
from repro.cli import _workloads
from repro.core import Owl, OwlConfig
from repro.gpusim import Device, DeviceConfig, kernel
from repro.tracing.recorder import TraceRecorder
from tests.oracle import expand, record_per_event

WORKLOADS = [
    pytest.param(aes_program, bytes(range(16)), id="aes"),
    pytest.param(rsa_program, 0x6ACF8231, id="rsa"),
    pytest.param(encode_program, synthetic_image(8, 8, seed=3), id="nvjpeg"),
    pytest.param(dummy.dummy_program, dummy.fixed_input(), id="dummy"),
]


def record_pair(program, value, device_config=None, buffered=False):
    reference = TraceRecorder(device_config=device_config, buffered=buffered,
                              cohort=False).record(program, value)
    cohort = TraceRecorder(device_config=device_config, buffered=buffered,
                           cohort=True).record(program, value)
    return reference, cohort


class TestAllWorkloads:
    """Every bundled workload, byte-identical — the tentpole's contract."""

    @pytest.mark.parametrize("workload", sorted(_workloads()))
    def test_plain(self, workload):
        program, fixed_inputs, _random = _workloads()[workload]
        value = fixed_inputs()[0]
        reference, cohort = record_pair(program, value)
        assert cohort.signature() == reference.signature()
        assert cohort == reference

    @pytest.mark.parametrize("workload", sorted(_workloads()))
    def test_shuffled_schedule_and_aslr(self, workload):
        program, fixed_inputs, _random = _workloads()[workload]
        value = fixed_inputs()[0]
        config = DeviceConfig(seed=7, shuffle_schedule=True, aslr=True)
        reference, cohort = record_pair(program, value, device_config=config)
        assert cohort.signature() == reference.signature()
        assert cohort == reference


class TestTraceEquality:
    @pytest.mark.parametrize("program, value", WORKLOADS)
    def test_per_event_fold(self, program, value):
        """Cohort replay is exact through the per-event fold too."""
        reference = record_per_event(program, value, cohort=False)
        cohort = record_per_event(program, value, cohort=True)
        assert cohort.signature() == reference.signature()
        assert cohort == reference

    @pytest.mark.parametrize("program, value", WORKLOADS)
    def test_buffered_channel(self, program, value):
        reference, cohort = record_pair(program, value, buffered=True)
        assert cohort.signature() == reference.signature()

    def test_shuffle_aslr_buffered_combined(self):
        config = DeviceConfig(seed=5, shuffle_schedule=True, aslr=True)
        reference, cohort = record_pair(aes_program, bytes(range(16)),
                                        device_config=config, buffered=True)
        assert cohort.signature() == reference.signature()

    def test_trace_size_accounting_identical(self):
        reference, cohort = record_pair(aes_program, bytes(range(16)))
        assert cohort.trace_size_bytes() == reference.trace_size_bytes()


class TestPartialWarps:
    def run_events(self, total_threads, cohort, shuffle=False):
        config = DeviceConfig(seed=3, shuffle_schedule=shuffle)
        device = Device(config, cohort=cohort)
        events = []
        device.subscribe(events.append)
        buf = device.alloc(256, label="data")

        @kernel()
        def ragged(k, target):
            k.block("entry")
            tid = k.global_tid()
            k.store(target, tid % 256, tid)
            for _ in k.branch(k.lane < 7).then("low_lanes"):
                k.load(target, k.lane)

        device.launch(ragged, 1, total_threads, buf)
        return expand(events), buf.data.copy()

    @pytest.mark.parametrize("total_threads", [33, 48, 63, 65, 97])
    def test_partial_final_warp_identical(self, total_threads):
        ref_events, ref_data = self.run_events(total_threads, cohort=False)
        coh_events, coh_data = self.run_events(total_threads, cohort=True)
        assert coh_events == ref_events
        assert (coh_data == ref_data).all()

    @pytest.mark.parametrize("total_threads", [48, 97])
    def test_partial_warp_shuffled(self, total_threads):
        ref_events, ref_data = self.run_events(total_threads, cohort=False,
                                               shuffle=True)
        coh_events, coh_data = self.run_events(total_threads, cohort=True,
                                               shuffle=True)
        assert coh_events == ref_events
        assert (coh_data == ref_data).all()


class TestEngineSelection:
    def test_kernel_opt_out_pins_per_warp_loop(self):
        """@kernel(cohort=False) must never see a CohortContext."""
        contexts = []

        @kernel(cohort=False)
        def pinned(k):
            contexts.append(type(k).__name__)
            k.block("entry")

        device = Device(DeviceConfig(seed=0), cohort=True)
        device.launch(pinned, 2, 64)
        assert contexts == ["WarpContext"] * 4

    def test_multi_warp_launch_uses_cohort(self):
        contexts = []

        @kernel()
        def plain(k):
            contexts.append(type(k).__name__)
            k.block("entry")

        device = Device(DeviceConfig(seed=0), cohort=True)
        device.launch(plain, 2, 64)
        assert contexts == ["CohortContext"]

    def test_single_warp_launch_stays_per_warp(self):
        """One warp has nothing to batch; the per-warp loop runs as-is."""
        contexts = []

        @kernel()
        def plain(k):
            contexts.append(type(k).__name__)
            k.block("entry")

        device = Device(DeviceConfig(seed=0), cohort=True)
        device.launch(plain, 1, 32)
        assert contexts == ["WarpContext"]


class TestPipelineEquality:
    def test_detect_reports_identical(self):
        """End to end: cohort and per-warp paths yield the same verdicts."""
        reports = {}
        for cohort in (False, True):
            config = OwlConfig(fixed_runs=4, random_runs=4,
                               cohort=cohort, always_analyze=True)
            owl = Owl(aes_program, name="aes", config=config)
            result = owl.detect(
                inputs=[bytes(range(16)), bytes(range(1, 17))],
                random_input=lambda rng: bytes(
                    int(b) for b in rng.integers(0, 256, size=16)))
            reports[cohort] = result.report.to_json()
        assert reports[True] == reports[False]


class TestDeterminism:
    def test_cohort_is_deterministic(self):
        sigs = {
            TraceRecorder(cohort=True).record(
                aes_program, bytes(range(16))).signature()
            for _ in range(3)
        }
        assert len(sigs) == 1

    def test_different_secrets_still_differ(self):
        a = TraceRecorder(cohort=True).record(aes_program, bytes(range(16)))
        b = TraceRecorder(cohort=True).record(aes_program, bytes(range(1, 17)))
        assert a.signature() != b.signature()
