"""The warp-trace monitor: event-stream validation and A-DCFG production."""

import pytest

import numpy as np

from repro.gpusim.events import (
    BasicBlockEvent,
    KernelBeginEvent,
    KernelEndEvent,
    MemoryBatchBuilder,
    SyncEvent,
)
from repro.gpusim.memory import MemorySpace
from repro.tracing.monitor import MonitorError, WarpTraceMonitor


def begin(name="k", threads=32, warps=1):
    return KernelBeginEvent(kernel_name=name, grid=(1, 1, 1),
                            block=(threads, 1, 1), total_threads=threads,
                            num_warps=warps)


def bb(label, warp_id=0, block_id=0, visit=0):
    return BasicBlockEvent(block_id=block_id, warp_id=warp_id, label=label,
                           visit=visit, active_lanes=32)


def mem(label, addresses, instr=0, visit=0, warp_id=0):
    """A one-instruction memory batch of warp (0, *warp_id*)."""
    batch = MemoryBatchBuilder()
    batch.add(label, visit, instr, MemorySpace.GLOBAL.value, False,
              np.asarray(addresses, dtype=np.int64))
    return batch.build(0, warp_id)


class TestStreamValidation:
    def test_event_outside_kernel_rejected(self):
        monitor = WarpTraceMonitor()
        with pytest.raises(MonitorError):
            monitor.on_event(bb("a"))

    def test_nested_begin_rejected(self):
        monitor = WarpTraceMonitor()
        monitor.on_event(begin())
        with pytest.raises(MonitorError):
            monitor.on_event(begin())

    def test_mismatched_end_rejected(self):
        monitor = WarpTraceMonitor()
        monitor.on_event(begin("a"))
        with pytest.raises(MonitorError):
            monitor.on_event(KernelEndEvent(kernel_name="b"))

    def test_finish_with_open_kernel_rejected(self):
        monitor = WarpTraceMonitor()
        monitor.on_event(begin())
        with pytest.raises(MonitorError):
            monitor.finish()

    def test_sync_events_counted(self):
        monitor = WarpTraceMonitor()
        monitor.on_event(begin())
        monitor.on_event(SyncEvent(block_id=0, warp_id=0))
        monitor.on_event(KernelEndEvent(kernel_name="k"))
        assert monitor.sync_events == 1


class TestGraphProduction:
    def test_one_graph_per_launch(self):
        monitor = WarpTraceMonitor()
        for _ in range(3):
            monitor.on_event(begin())
            monitor.on_event(bb("a"))
            monitor.on_event(KernelEndEvent(kernel_name="k"))
        assert len(monitor.finish()) == 3

    def test_identity_from_expect_kernel(self):
        monitor = WarpTraceMonitor()
        monitor.expect_kernel("k@site1")
        monitor.on_event(begin())
        monitor.on_event(KernelEndEvent(kernel_name="k"))
        graph = monitor.finish()[0]
        assert graph.kernel_identity == "k@site1"
        assert graph.kernel_name == "k"

    def test_identity_defaults_to_name(self):
        monitor = WarpTraceMonitor()
        monitor.on_event(begin("plain"))
        monitor.on_event(KernelEndEvent(kernel_name="plain"))
        assert monitor.finish()[0].kernel_identity == "plain"

    def test_identity_consumed_once(self):
        monitor = WarpTraceMonitor()
        monitor.expect_kernel("k@site1")
        monitor.on_event(begin())
        monitor.on_event(KernelEndEvent(kernel_name="k"))
        monitor.on_event(begin())
        monitor.on_event(KernelEndEvent(kernel_name="k"))
        identities = [g.kernel_identity for g in monitor.finish()]
        assert identities == ["k@site1", "k"]

    def test_warps_identified_by_block_and_warp_id(self):
        """Warp ids repeat across blocks; the monitor must not conflate
        (block 0, warp 0) with (block 1, warp 0)."""
        monitor = WarpTraceMonitor()
        monitor.on_event(begin(threads=64, warps=2))
        monitor.on_event(bb("a", warp_id=0, block_id=0))
        monitor.on_event(bb("b", warp_id=0, block_id=1))
        monitor.on_event(bb("c", warp_id=0, block_id=0, visit=0))
        monitor.on_event(KernelEndEvent(kernel_name="k"))
        graph = monitor.finish()[0]
        # block 0's warp went a -> c; block 1's warp went just b
        assert ("a", "c") in graph.edges
        assert ("b", "c") not in graph.edges

    def test_normalizer_applied_to_addresses(self):
        monitor = WarpTraceMonitor(
            normalizer=lambda addr: ("buf", addr - 1000))
        monitor.on_event(begin())
        monitor.on_event(bb("a"))
        monitor.on_event(mem("a", [1000, 1008]))
        monitor.on_event(KernelEndEvent(kernel_name="k"))
        graph = monitor.finish()[0]
        record = graph.nodes["a"].visits[0][0]
        assert record.counts == {("buf", 0): 1, ("buf", 8): 1}

    def test_per_instruction_event_rejected(self):
        """Devices emit memory only as batches; a per-instruction event on
        the stream is malformed."""
        monitor = WarpTraceMonitor()
        monitor.on_event(begin())
        event = next(mem("a", [1000]).iter_events())
        with pytest.raises(MonitorError):
            monitor.on_event(event)

    def test_unknown_event_type_rejected(self):
        class Bogus:
            pass

        monitor = WarpTraceMonitor()
        monitor.on_event(begin())
        with pytest.raises(MonitorError):
            monitor.on_event(Bogus())
