"""Batched fold ≡ per-event fold.

Devices emit one :class:`~repro.gpusim.events.MemoryBatchEvent` per warp,
and the monitor folds a launch's batches kernel-wide in one vectorised
pass.  That is a pure folding optimisation: every recorded
:class:`~repro.tracing.recorder.ProgramTrace` must be byte-identical to
folding each batch one instruction at a time (``iter_events`` through
``ADCFGBuilder.on_memory_access``, the monitor's degradation rung) —
including under schedule shuffling, ASLR, and the buffered channel
configuration.
"""

import numpy as np
import pytest

from repro.apps import dummy
from repro.apps.libgpucrypto import aes_program, rsa_program
from repro.apps.nvjpeg import encode_program, synthetic_image
from repro.core import Owl, OwlConfig
from repro.gpusim import Device, DeviceConfig, MemoryBatchEvent, kernel
from repro.gpusim.events import BasicBlockEvent, MemoryAccessEvent
from repro.gpusim.memory import MemorySpace
from repro.tracing.recorder import TraceRecorder
from tests.oracle import expand, record_per_event

WORKLOADS = [
    pytest.param(aes_program, bytes(range(16)), id="aes"),
    pytest.param(rsa_program, 0x6ACF8231, id="rsa"),
    pytest.param(encode_program, synthetic_image(8, 8, seed=3), id="nvjpeg"),
    pytest.param(dummy.dummy_program, dummy.fixed_input(), id="dummy"),
]


def record_pair(program, value, device_config=None, buffered=False):
    reference = record_per_event(program, value, device_config=device_config,
                                 buffered=buffered)
    batched = TraceRecorder(device_config=device_config,
                            buffered=buffered).record(program, value)
    return reference, batched


class TestTraceEquality:
    @pytest.mark.parametrize("program, value", WORKLOADS)
    def test_signatures_identical(self, program, value):
        reference, batched = record_pair(program, value)
        assert batched.signature() == reference.signature()
        assert batched == reference

    @pytest.mark.parametrize("program, value", WORKLOADS)
    def test_buffered_channel(self, program, value):
        reference, batched = record_pair(program, value, buffered=True)
        assert batched.signature() == reference.signature()

    @pytest.mark.parametrize("program, value", WORKLOADS)
    def test_shuffled_schedule(self, program, value):
        config = DeviceConfig(seed=11, shuffle_schedule=True)
        reference, batched = record_pair(program, value, device_config=config)
        assert batched.signature() == reference.signature()

    @pytest.mark.parametrize("program, value", WORKLOADS)
    def test_aslr(self, program, value):
        config = DeviceConfig(seed=11, aslr=True)
        reference, batched = record_pair(program, value, device_config=config)
        assert batched.signature() == reference.signature()

    def test_shuffle_aslr_buffered_combined(self):
        config = DeviceConfig(seed=5, shuffle_schedule=True, aslr=True)
        reference, batched = record_pair(aes_program, bytes(range(16)),
                                         device_config=config, buffered=True)
        assert batched.signature() == reference.signature()

    def test_trace_size_accounting_identical(self):
        reference, batched = record_pair(aes_program, bytes(range(16)))
        assert batched.trace_size_bytes() == reference.trace_size_bytes()


class TestPipelineEquality:
    def test_detect_reports_identical(self):
        """End to end: the batched and per-event folds yield the same
        report."""
        reports = {}
        for plan in (None, "batch_fold_error"):
            config = OwlConfig(fixed_runs=4, random_runs=4, fault_plan=plan,
                               always_analyze=True)
            owl = Owl(aes_program, name="aes", config=config)
            result = owl.detect(
                inputs=[bytes(range(16)), bytes(range(1, 17))],
                random_input=lambda rng: bytes(
                    int(b) for b in rng.integers(0, 256, size=16)))
            reports[plan] = result.report.to_json()
        assert reports["batch_fold_error"] == reports[None]


class TestBatchEvent:
    def test_batches_replace_per_instruction_events(self):
        device = Device(DeviceConfig(seed=0))
        events = []
        device.subscribe(events.append)
        buf = device.alloc(64, label="data")

        @kernel()
        def touch(k, target):
            k.block("entry")
            k.load(target, k.lane)
            k.store(target, k.lane, k.lane)

        device.launch(touch, 1, 32, buf)
        batches = [e for e in events if isinstance(e, MemoryBatchEvent)]
        singles = [e for e in events if isinstance(e, MemoryAccessEvent)]
        assert len(batches) == 1
        assert not singles
        batch = batches[0]
        assert batch.num_instructions == 2
        assert batch.labels == ("entry",)
        assert batch.addresses.shape == (64,)
        assert batch.extents.tolist() == [0, 32, 64]
        assert batch.is_stores.tolist() == [False, True]

    def test_iter_events_round_trip(self):
        """Expanding a batch yields one event per instruction, in issue
        order, each carrying its slot and its active lanes' addresses."""
        device = Device(DeviceConfig(seed=0))
        events = []
        device.subscribe(events.append)
        buf = device.alloc(64, label="data")

        @kernel()
        def touch(k, target):
            k.block("entry")
            k.load(target, k.lane % 4)
            for _ in k.branch(k.lane < 8).then("low"):
                k.store(target, k.lane, 1)

        device.launch(touch, 1, 32, buf)
        lanes = np.arange(32)

        def access(label, instr, is_store, index):
            return MemoryAccessEvent(
                block_id=0, warp_id=0, label=label, visit=0, instr=instr,
                space=MemorySpace.GLOBAL, is_store=is_store,
                addresses=tuple(int(a) for a in buf.addresses_for(index)))

        def entry(label, lanes_active):
            return BasicBlockEvent(block_id=0, warp_id=0, label=label,
                                   visit=0, active_lanes=lanes_active)

        assert expand(events[1:-1]) == [
            entry("entry", 32), entry("low", 8),
            access("entry", 0, False, lanes % 4),
            access("low", 0, True, lanes[:8]),
        ]

    def test_empty_warp_emits_no_batch(self):
        device = Device(DeviceConfig(seed=0))
        events = []
        device.subscribe(events.append)

        @kernel()
        def no_memory(k):
            k.block("entry")

        device.launch(no_memory, 1, 32)
        assert not [e for e in events if isinstance(e, MemoryBatchEvent)]


class TestDeterminism:
    def test_columnar_is_deterministic(self):
        sigs = {
            TraceRecorder().record(aes_program, bytes(range(16))).signature()
            for _ in range(3)
        }
        assert len(sigs) == 1

    def test_different_secrets_still_differ(self):
        a = TraceRecorder().record(aes_program, bytes(range(16)))
        b = TraceRecorder().record(aes_program, bytes(range(1, 17)))
        assert a.signature() != b.signature()
