"""Folding warp event streams into one A-DCFG."""

import numpy as np
import pytest

from repro.adcfg.builder import ADCFGBuilder, identity_normalizer
from repro.adcfg.graph import END_LABEL, START_LABEL
from repro.gpusim.events import (
    BasicBlockEvent,
    MemoryAccessEvent,
    MemoryBatchBuilder,
)
from repro.gpusim.memory import MemorySpace


def bb(label, warp_id=0, block_id=0, visit=0, lanes=32):
    return BasicBlockEvent(block_id=block_id, warp_id=warp_id, label=label,
                           visit=visit, active_lanes=lanes)


def mem(label, addresses, instr=0, visit=0, warp_id=0, block_id=0,
        is_store=False):
    return MemoryAccessEvent(block_id=block_id, warp_id=warp_id, label=label,
                             visit=visit, instr=instr,
                             space=MemorySpace.GLOBAL, is_store=is_store,
                             addresses=tuple(addresses))


def build(events, **kwargs):
    builder = ADCFGBuilder("k@1", **kwargs)
    for event in events:
        if isinstance(event, BasicBlockEvent):
            builder.on_basic_block(event)
        else:
            builder.on_memory_access(event)
    return builder.finish()


class TestControlFlowFolding:
    def test_single_warp_path(self):
        graph = build([bb("a"), bb("b"), bb("c")])
        assert set(graph.edges) == {
            (START_LABEL, "a"), ("a", "b"), ("b", "c"), ("c", END_LABEL)}
        assert all(edge.count == 1 for edge in graph.edges.values())

    def test_identical_warps_aggregate(self):
        events = []
        for warp in range(4):
            events += [bb("a", warp_id=warp), bb("b", warp_id=warp)]
        graph = build(events)
        assert graph.edges[("a", "b")].count == 4
        assert graph.nodes["a"].entries == 4
        assert graph.num_edges == 3  # start, a->b, end

    def test_interleaved_warps_keep_separate_contexts(self):
        """Events from different warps interleave on the channel; per-warp
        previous-block state must not leak across."""
        graph = build([
            bb("a", warp_id=0), bb("x", warp_id=1),
            bb("b", warp_id=0), bb("y", warp_id=1),
        ])
        assert ("a", "b") in graph.edges
        assert ("x", "y") in graph.edges
        assert ("x", "b") not in graph.edges
        assert ("a", "y") not in graph.edges

    def test_same_warp_id_different_blocks_are_distinct(self):
        graph = build([
            bb("a", warp_id=0, block_id=0),
            bb("b", warp_id=0, block_id=1),
            bb("c", warp_id=0, block_id=0),
        ])
        assert ("a", "c") in graph.edges
        assert ("b", "c") not in graph.edges

    def test_prev_edge_histogram(self):
        graph = build([bb("a"), bb("b"), bb("c")])
        edge = graph.edges[("b", "c")]
        assert edge.prev_counts == {"a": 1}
        first = graph.edges[("a", "b")]
        assert first.prev_counts == {START_LABEL: 1}

    def test_divergent_warps_multiple_ends(self):
        graph = build([
            bb("a", warp_id=0), bb("b", warp_id=0),
            bb("a", warp_id=1), bb("c", warp_id=1),
        ])
        assert graph.end_labels() == ["b", "c"]

    def test_loop_self_edge(self):
        graph = build([bb("loop", visit=v) for v in range(3)])
        assert graph.edges[("loop", "loop")].count == 2
        assert graph.nodes["loop"].entries == 3

    def test_empty_stream(self):
        graph = build([])
        assert graph.num_nodes == 0
        assert graph.num_edges == 0


class TestMemoryFolding:
    def test_memory_records_per_visit_and_instr(self):
        graph = build([
            bb("a", visit=0), mem("a", [100], instr=0, visit=0),
            mem("a", [108], instr=1, visit=0),
            bb("a", visit=1), mem("a", [100], instr=0, visit=1),
        ])
        node = graph.nodes["a"]
        assert len(node.visits) == 2
        assert len(node.visits[0]) == 2
        assert len(node.visits[1]) == 1

    def test_cross_warp_aggregation(self):
        graph = build([
            bb("a", warp_id=0), mem("a", [100, 100], warp_id=0),
            bb("a", warp_id=1), mem("a", [100, 108], warp_id=1),
        ])
        record = graph.nodes["a"].visits[0][0]
        assert record.counts == {("<raw>", 100): 3, ("<raw>", 108): 1}

    def test_custom_normalizer(self):
        graph = build(
            [bb("a"), mem("a", [1000, 1016])],
            normalizer=lambda addr: ("data", addr - 1000))
        record = graph.nodes["a"].visits[0][0]
        assert record.counts == {("data", 0): 1, ("data", 16): 1}

    def test_identity_normalizer(self):
        assert identity_normalizer(42) == ("<raw>", 42)

    def test_store_flag_preserved(self):
        graph = build([bb("a"), mem("a", [100], is_store=True)])
        assert graph.nodes["a"].visits[0][0].is_store


class TestBatchedFold:
    @staticmethod
    def batch(rows, warp_id=0):
        """One warp's batch from ``(label, visit, instr, addresses)``."""
        builder = MemoryBatchBuilder()
        for label, visit, instr, addresses in rows:
            builder.add(label, visit, instr, MemorySpace.GLOBAL.value, False,
                        np.asarray(addresses, dtype=np.int64))
        return builder.build(0, warp_id)

    def test_matches_the_per_event_fold(self):
        batches = [
            self.batch([("a", 0, 0, [100, 100, 108]), ("a", 0, 1, [116]),
                        ("b", 0, 0, [100])], warp_id=0),
            self.batch([("a", 0, 0, [108, 124]), ("a", 1, 0, [100])],
                       warp_id=1),
        ]
        batched = ADCFGBuilder("k@1")
        per_event = ADCFGBuilder("k@1")
        for event in batches:
            batched.on_memory_batch(event)
            for item in event.iter_events():
                per_event.on_memory_access(item)
        assert batched.finish() == per_event.finish()

    def test_packing_overflow_raises_before_touching_the_graph(self):
        """Slot packing past int64 raises with the graph untouched and the
        batches still pending, so the monitor can replay them per event."""
        top = 2 ** 31 - 1  # visits and instrs travel as int32
        event = self.batch([("a", top, top, [100]), ("b", 0, 0, [108])])
        builder = ADCFGBuilder("k@1")
        builder.on_memory_batch(event)
        with pytest.raises(OverflowError):
            builder.fold_pending_batches()
        assert not builder.graph.nodes
        pending = builder.take_pending_batches()
        assert len(pending) == 1 and pending[0] is event


class TestFinish:
    def test_finish_adds_end_edges_once(self):
        builder = ADCFGBuilder("k@1")
        builder.on_basic_block(bb("a"))
        graph = builder.finish()
        assert graph.edges[("a", END_LABEL)].count == 1
        # finish() clears warp state: calling again adds nothing
        assert builder.finish().edges[("a", END_LABEL)].count == 1

    def test_end_edge_prev_points_at_penultimate_block(self):
        graph = build([bb("a"), bb("b")])
        assert graph.edges[("b", END_LABEL)].prev_counts == {"a": 1}

    def test_metadata_carried(self):
        builder = ADCFGBuilder("k@1", kernel_name="k", total_threads=96,
                               num_warps=3)
        graph = builder.finish()
        assert graph.total_threads == 96
        assert graph.num_warps == 3
