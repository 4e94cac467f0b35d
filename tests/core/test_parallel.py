"""Worker-pool trace recording: chunking, evidence merging, fallbacks."""

import numpy as np
import pytest

from repro.core.evidence import Evidence
from repro.core.parallel import (
    ChunkStats,
    TraceRecordingPool,
    chunk_slices,
    resolve_workers,
)
from repro.gpusim import kernel
from repro.tracing import TraceRecorder


@kernel()
def touch_kernel(k, data):
    k.block("entry")
    k.load(data, k.global_tid())


@kernel()
def extra_kernel(k, data):
    k.block("entry")
    k.load(data, k.global_tid())


def varying_program(rt, secret):
    """Launches touch always, extra only for large secrets — so different
    inputs yield different kernel sequences (exercises merge alignment)."""
    data = rt.cudaMalloc(32, label="data")
    rt.cudaMemcpyHtoD(data, np.full(32, secret))
    rt.cuLaunchKernel(touch_kernel, 1, 32, data)
    if secret >= 10:
        rt.cuLaunchKernel(extra_kernel, 1, 32, data)


class TestResolveWorkers:
    def test_int_passthrough(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(7) == 7

    def test_none_is_serial(self):
        assert resolve_workers(None) == 1

    def test_auto_uses_cores(self):
        assert resolve_workers("auto") >= 1

    def test_numeric_string(self):
        assert resolve_workers("3") == 3

    @pytest.mark.parametrize("bad", [0, -2, "several", 1.5, True])
    def test_invalid_specs_raise(self, bad):
        with pytest.raises(ValueError):
            resolve_workers(bad)


class TestChunkSlices:
    def test_covers_range_contiguously(self):
        slices = chunk_slices(10, 4)
        indices = [i for s in slices for i in range(s.start, s.stop)]
        assert indices == list(range(10))

    def test_balanced(self):
        sizes = [s.stop - s.start for s in chunk_slices(10, 4)]
        assert sizes == [3, 3, 2, 2]

    def test_more_chunks_than_items(self):
        assert chunk_slices(2, 8) == [slice(0, 1), slice(1, 2)]

    def test_empty(self):
        assert chunk_slices(0, 4) == []

    def test_single_chunk(self):
        assert chunk_slices(5, 1) == [slice(0, 5)]

    def test_deterministic(self):
        assert chunk_slices(17, 5) == chunk_slices(17, 5)

    @pytest.mark.parametrize("n,chunks", [(-1, 2), (4, 0)])
    def test_invalid_args_raise(self, n, chunks):
        with pytest.raises(ValueError):
            chunk_slices(n, chunks)


def _record_all(values):
    recorder = TraceRecorder()
    return [recorder.record(varying_program, v) for v in values]


class TestEvidenceMerge:
    """Chunked partial-evidence merging must equal the serial fold."""

    @pytest.mark.parametrize("keep_per_run", [False, True])
    @pytest.mark.parametrize("values", [
        [1, 1, 1, 1, 1, 1],          # identical sequences
        [1, 2, 3, 4, 5, 6],          # same sequence, different contents
        [1, 12, 2, 13, 3, 14],       # alternating kernel sequences
        [12, 12, 1, 1, 12, 12],      # slot inserted then absent then back
    ])
    def test_chunked_merge_matches_serial_fold(self, values, keep_per_run):
        traces = _record_all(values)
        serial = Evidence.from_traces(traces, keep_per_run=keep_per_run)

        for split in (1, 2, 4):
            chunks = np.array_split(np.arange(len(values)), split)
            partials = [
                Evidence.from_traces([_record_all(values)[i] for i in idx],
                                     keep_per_run=keep_per_run)
                for idx in chunks if len(idx)
            ]
            merged = partials[0]
            for partial in partials[1:]:
                merged.merge(partial)

            assert merged.num_runs == serial.num_runs
            assert merged.identity_sequence == serial.identity_sequence
            for got, want in zip(merged.slots, serial.slots):
                assert got.per_run_present == want.per_run_present
                assert got.adcfg == want.adcfg
                if keep_per_run:
                    assert len(got.per_run_graphs) == len(want.per_run_graphs)
                    for g, w in zip(got.per_run_graphs, want.per_run_graphs):
                        assert (g is None) == (w is None)
                        if g is not None:
                            assert g == w

    def test_mismatched_per_run_modes_raise(self):
        traces = _record_all([1, 1])
        with pytest.raises(ValueError):
            Evidence.from_traces(traces[:1]).merge(
                Evidence.from_traces(traces[1:], keep_per_run=True))

    def test_merge_returns_self_and_accumulates_runs(self):
        traces = _record_all([1, 2, 3])
        left = Evidence.from_traces(traces[:2])
        result = left.merge(Evidence.from_traces(traces[2:]))
        assert result is left
        assert left.num_runs == 3


def per_run_traces(values):
    """The reference: one ``TraceRecorder.record`` per run."""
    recorder = TraceRecorder()
    return [recorder.record(varying_program, value) for value in values]


class TestTraceRecordingPool:
    def test_pooled_traces_match_serial(self):
        values = [1, 2, 12, 13, 1, 12]
        reference = per_run_traces(values)
        serial_pool = TraceRecordingPool(varying_program, workers=1)
        parallel_pool = TraceRecordingPool(varying_program, workers=3)
        serial_traces, serial_stats = serial_pool.record_traces(values)
        parallel_traces, parallel_stats = parallel_pool.record_traces(values)
        assert serial_stats.replica_fused_launches > 0
        assert ([t.signature() for t in serial_traces]
                == [t.signature() for t in parallel_traces]
                == [t.signature() for t in reference])
        assert serial_stats.trace_count == parallel_stats.trace_count == 6
        assert (serial_stats.trace_bytes_total
                == parallel_stats.trace_bytes_total
                == sum(t.trace_size_bytes() for t in reference))

    @pytest.mark.parametrize("keep_per_run", [False, True])
    def test_pooled_evidence_matches_serial(self, keep_per_run):
        values = [1, 12, 2, 13, 3, 14]
        reference = Evidence.from_traces(per_run_traces(values),
                                         keep_per_run=keep_per_run)
        serial, stats = TraceRecordingPool(varying_program, workers=1) \
            .record_evidence(values, keep_per_run=keep_per_run)
        pooled, _ = TraceRecordingPool(varying_program, workers=3) \
            .record_evidence(values, keep_per_run=keep_per_run)
        assert stats.replica_fused_launches > 0
        for evidence in (serial, pooled):
            assert evidence.num_runs == reference.num_runs
            assert evidence.identity_sequence == reference.identity_sequence
            for got, want in zip(evidence.slots, reference.slots):
                assert got.per_run_present == want.per_run_present
                assert got.adcfg == want.adcfg
                assert got.per_run_graphs == want.per_run_graphs

    def test_unpicklable_program_falls_back_to_serial(self):
        state = {"calls": 0}

        def closure_program(rt, secret):  # closures cannot be pickled
            state["calls"] += 1
            varying_program(rt, secret)

        pool = TraceRecordingPool(closure_program, workers=4)
        traces, stats = pool.record_traces([1, 2, 3])
        assert state["calls"] == 3  # ran in-process
        assert stats.trace_count == 3
        assert len(traces) == 3

    def test_empty_batch(self):
        pool = TraceRecordingPool(varying_program, workers=2)
        evidence, stats = pool.record_evidence([])
        assert evidence.num_runs == 0
        assert stats.trace_count == 0

    def test_evidence_stats_cover_all_runs(self):
        pool = TraceRecordingPool(varying_program, workers=2)
        _evidence, stats = pool.record_evidence([1, 2, 3, 4])
        assert stats.trace_count == 4
        assert stats.trace_bytes_total > 0
        assert stats.trace_seconds_total > 0


class TestChunkStats:
    def test_absorb_sums_fields(self):
        a = ChunkStats(trace_count=2, trace_bytes_total=10,
                       trace_seconds_total=0.5, evidence_seconds=0.1)
        b = ChunkStats(trace_count=3, trace_bytes_total=20,
                       trace_seconds_total=0.25, evidence_seconds=0.2)
        a.absorb(b)
        assert a.trace_count == 5
        assert a.trace_bytes_total == 30
        assert a.trace_seconds_total == pytest.approx(0.75)
        assert a.evidence_seconds == pytest.approx(0.3)
