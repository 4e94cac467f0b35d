"""DATA baseline: host-only visibility and per-thread memory blow-up."""

import numpy as np
import pytest

from repro.apps.dummy import dummy_program, fixed_input
from repro.apps.libgpucrypto import aes_program
from repro.apps.minitorch import serialize_program
from repro.baselines.data_tool import (
    data_tool_analyze,
    per_thread_memory_bytes,
    record_per_thread,
)
from repro.tracing import TraceRecorder


class TestHostOnlyAnalysis:
    def test_finds_kernel_leak_in_serialization(self):
        report = data_tool_analyze(serialize_program,
                                   [np.zeros(64), np.ones(64)])
        assert report.found_kernel_leak
        assert any("copy_kernel" in diff
                   for diff in report.kernel_differences)

    def test_blind_to_aes_device_leaks(self):
        """AES leaks heavily inside the kernel, but its host trace is
        identical for every key — DATA reports nothing (RQ3)."""
        report = data_tool_analyze(
            aes_program, [bytes(range(16)), bytes(range(1, 17))])
        assert not report.found_kernel_leak
        assert not report.can_see_device_leaks
        assert report.device_findings == []

    def test_identical_inputs_no_differences(self):
        report = data_tool_analyze(serialize_program,
                                   [np.ones(64), np.ones(64)])
        assert not report.found_kernel_leak


class TestPerThreadOrder:
    def test_accesses_follow_the_block_visit_that_issued_them(self):
        """Memory reaches the recorder as one batch per warp, after the
        warp's block entries; each thread's trace still interleaves them
        in program order."""
        from repro.gpusim import kernel

        @kernel()
        def steps(k, data):
            k.block("entry")
            k.load(data, k.lane)
            for _ in k.branch(k.lane < 2).then("low"):
                k.store(data, k.lane, 1)
            k.block("exit")

        buffers = []

        def program(rt, value):
            data = rt.cudaMalloc(64, label="data")
            buffers.append(data)
            rt.cuLaunchKernel(steps, 1, 32, data)

        recorder = record_per_thread(program, 0)
        address = [f"mem:{int(a):#x}"
                   for a in buffers[0].addresses_for(np.arange(32))]
        assert recorder.threads[1] == [
            "bb:entry", address[1], "bb:low", address[1], "bb:exit"]
        assert recorder.threads[5] == ["bb:entry", address[5], "bb:exit"]
        assert recorder.total_entries == 32 * 3 + 2 * 2


class TestPerThreadRecording:
    def test_records_every_thread(self):
        # 100 elements launch one 128-thread block; every launched thread
        # (including the guard-idle tail) executes entry/exit blocks
        recorder = record_per_thread(dummy_program, fixed_input(100))
        assert recorder.num_threads == 128
        exact = record_per_thread(dummy_program, fixed_input(256))
        assert exact.num_threads == 256

    def test_entries_include_blocks_and_addresses(self):
        recorder = record_per_thread(dummy_program, fixed_input(32))
        entries = recorder.threads[0]
        assert any(entry.startswith("bb:") for entry in entries)
        assert any(entry.startswith("mem:") for entry in entries)

    def test_memory_grows_linearly_with_threads(self):
        """The §I complaint about DATA: memory ∝ thread count, while Owl's
        A-DCFG stays near-flat on the same workload."""
        sizes = {n: per_thread_memory_bytes(dummy_program, fixed_input(n))
                 for n in (128, 512, 2048)}
        assert sizes[512] >= 3.5 * sizes[128]
        assert sizes[2048] >= 3.5 * sizes[512]

        recorder = TraceRecorder()
        owl_sizes = {n: recorder.record(dummy_program,
                                        fixed_input(n)).adcfg_bytes()
                     for n in (128, 512, 2048)}
        assert owl_sizes[2048] < 2.0 * owl_sizes[512]
        # at scale, the per-thread representation dwarfs the A-DCFG
        assert sizes[2048] > 5 * owl_sizes[2048]

    def test_diff_against_identical_run(self):
        first = record_per_thread(dummy_program, fixed_input(64))
        second = record_per_thread(dummy_program, fixed_input(64))
        assert first.diff_against(second) == 0

    def test_diff_against_different_input(self):
        first = record_per_thread(dummy_program, fixed_input(64, value=1))
        second = record_per_thread(dummy_program, fixed_input(64, value=9))
        assert first.diff_against(second) > 0

    def test_diff_handles_missing_threads(self):
        small = record_per_thread(dummy_program, fixed_input(32))
        large = record_per_thread(dummy_program, fixed_input(64))
        assert small.diff_against(large) >= 32
