"""Unit tests for the warp-cohort execution engine.

These exercise the cohort machinery directly at the device level —
sub-cohort splitting on every collapsing collective, write-journal
rollback, shared memory views, the flat fast path's materialisation, and
the per-buffer view cache — always asserting against the per-warp
reference loop as ground truth.
"""

import numpy as np
import pytest

from repro.gpusim import Device, DeviceConfig, kernel
from repro.gpusim.cohort import CohortContext, CohortSplit
from repro.gpusim.context import SimtDivergenceError
from repro.gpusim.events import BasicBlockEvent, SyncEvent
from repro.gpusim.kernel import LaunchConfig
from repro.gpusim.memory import WriteJournal
from repro.gpusim.warp import WARP_SIZE
from tests.oracle import expand, memory_events


def run_both(kern, grid, block, alloc_specs, shuffle=False, seed=0):
    """Run *kern* under per-warp and cohort engines; return both sides'
    (events, {label: final array}) for comparison."""
    out = {}
    for cohort in (False, True):
        config = DeviceConfig(seed=seed, shuffle_schedule=shuffle)
        device = Device(config, cohort=cohort)
        events = []
        device.subscribe(events.append)
        buffers = [device.alloc(*spec[:-1], label=spec[-1])
                   for spec in alloc_specs]
        device.launch(kern, grid, block, *buffers)
        out[cohort] = (expand(events), {buf.label: buf.data.copy()
                                for buf in buffers})
    return out[False], out[True]


def assert_equivalent(kern, grid, block, alloc_specs, shuffle=False, seed=0):
    (ref_events, ref_mem), (coh_events, coh_mem) = run_both(
        kern, grid, block, alloc_specs, shuffle=shuffle, seed=seed)
    assert coh_events == ref_events
    for label, ref_data in ref_mem.items():
        assert (coh_mem[label] == ref_data).all(), label


class TestCohortSplitting:
    def test_uniform_branch_divergence_splits(self):
        """Warps that disagree on a uniform value re-run as sub-cohorts."""

        @kernel()
        def per_block(k, data):
            k.block("entry")
            bid = k.uniform(k.block_id + k.lane * 0)
            if bid % 2 == 0:
                k.block("even")
                k.store(data, k.global_tid(), 1)
            else:
                k.block("odd")
                k.store(data, k.global_tid(), 2)

        assert_equivalent(per_block, 4, 32, [(128, "data")])

    def test_variable_trip_count_loop(self):
        """Per-warp loop trip counts drive repeated splitting."""

        @kernel()
        def trips(k, data):
            k.block("entry")
            n = k.uniform(k.block_id % 3 + 1 + k.lane * 0)
            for _ in k.range_("body", n):
                k.store(data, k.global_tid(), n)

        assert_equivalent(trips, 6, 32, [(192, "data")])

    def test_any_all_ballot_divergence(self):
        @kernel()
        def votes(k, data):
            k.block("entry")
            if k.any(k.block_id + k.lane > 35):
                k.block("anyside")
            if k.all(k.lane + k.block_id * 0 < WARP_SIZE):
                k.block("allside")
            if k.ballot(k.lane < k.block_id) != 0:
                k.block("voted")
                k.store(data, k.global_tid(), 7)

        assert_equivalent(votes, 4, 32, [(128, "data")])

    def test_three_way_split(self):
        @kernel()
        def threeway(k, data):
            k.block("entry")
            arm = k.uniform(k.block_id % 3 + k.lane * 0)
            k.block(f"arm{arm}")
            k.store(data, k.global_tid(), arm)

        assert_equivalent(threeway, 6, 32, [(192, "data")])

    def test_split_under_shuffled_schedule(self):
        @kernel()
        def per_block(k, data):
            k.block("entry")
            bid = k.uniform(k.block_id + k.lane * 0)
            k.block("even" if bid % 2 == 0 else "odd")
            k.store(data, k.global_tid(), bid)

        assert_equivalent(per_block, 4, 32, [(128, "data")], shuffle=True,
                          seed=13)

    def test_split_groups_are_strictly_smaller(self):
        launch = LaunchConfig.create(4, 32)
        ctx = CohortContext(
            launch=launch, rows=np.arange(4), block_ids=np.arange(4),
            warp_ids=np.zeros(4, dtype=np.int64), shared_alloc=None,
            journal=WriteJournal())
        with pytest.raises(CohortSplit) as exc:
            ctx.uniform(ctx.block_id % 2)
        groups = exc.value.groups
        assert len(groups) == 2
        assert all(g.shape[0] < 4 for g in groups)
        assert sorted(int(r) for g in groups for r in g) == [0, 1, 2, 3]

    def test_intra_warp_divergent_uniform_still_raises(self):
        """A value divergent *within* a warp is a kernel bug, not a split."""
        launch = LaunchConfig.create(2, 32)
        ctx = CohortContext(
            launch=launch, rows=np.arange(2), block_ids=np.arange(2),
            warp_ids=np.zeros(2, dtype=np.int64), shared_alloc=None,
            journal=WriteJournal())
        with pytest.raises(SimtDivergenceError):
            ctx.uniform(ctx.lane)


class TestWriteJournalRollback:
    def test_writes_before_split_are_not_duplicated(self):
        """Stores preceding a split are rolled back, then re-applied once
        per sub-cohort — atomics would double-count otherwise."""

        @kernel()
        def write_then_split(k, counts, data):
            k.block("entry")
            k.atomic_add(counts, k.lane % 4, 1)
            bid = k.uniform(k.block_id + k.lane * 0)
            k.block("even" if bid % 2 == 0 else "odd")
            k.store(data, k.global_tid(), bid)

        assert_equivalent(write_then_split, 4, 32,
                          [(4, "counts"), (128, "data")])

    def test_journal_rollback_restores_exact_bytes(self):
        journal = WriteJournal()
        config = DeviceConfig(seed=0)
        device = Device(config)
        buf = device.alloc(16, label="scratch")
        buf.data[:] = np.arange(16)
        before = buf.data.copy()
        journal.capture(buf)
        buf.data[:] = -1
        journal.rollback()
        assert (buf.data == before).all()


class TestSharedMemory:
    def test_per_block_shared_accumulator(self):
        @kernel()
        def shared_sum(k, out):
            k.block("entry")
            acc = k.shared("acc", 32)
            k.store(acc, k.lane, 0)
            k.syncthreads()
            k.atomic_add(acc, k.lane % 8, k.lane)
            k.syncthreads()
            k.block("drain")
            vals = k.load(acc, k.lane)
            k.store(out, k.global_tid(), vals)

        assert_equivalent(shared_sum, 3, 32, [(96, "out")])

    def test_shared_blocks_do_not_alias(self):
        """Each block's shared array is distinct storage even though the
        cohort touches them all in one pass."""

        @kernel()
        def stamp(k, out):
            k.block("entry")
            tile = k.shared("tile", 32)
            k.store(tile, k.lane, k.block_id * 100 + k.lane)
            k.store(out, k.global_tid(), k.load(tile, k.lane))

        assert_equivalent(stamp, 4, 32, [(128, "out")])


class TestMaskedExecution:
    def test_lane_divergent_branch_materialises(self):
        """A masked op leaves the flat fast path but stays byte-exact."""

        @kernel()
        def masked(k, data):
            k.block("entry")
            for _ in k.branch(k.lane % 2 == 0).then("evens"):
                k.store(data, k.global_tid(), 1)
            for _ in k.branch(k.lane >= 16).then("high"):
                k.load(data, k.global_tid())
            k.block("rejoin")
            k.store(data, k.global_tid(), k.lane)

        assert_equivalent(masked, 4, 32, [(128, "data")])

    def test_divergent_while_loop(self):
        @kernel()
        def drain(k, data):
            k.block("entry")
            live = k.lane.copy()
            for _ in k.while_("spin", lambda: live > 0):
                live = live - 1
                k.store(data, k.global_tid(), live)

        assert_equivalent(drain, 2, 64, [(128, "data")])

    def test_sync_under_partial_mask(self):
        @kernel()
        def gated_sync(k):
            k.block("entry")
            for _ in k.branch(k.lane < 8).then("gate"):
                k.syncthreads()

        assert_equivalent(gated_sync, 3, 32, [])


class TestBufferViewCache:
    def test_interleaved_buffers_keep_distinct_views(self):
        @kernel()
        def pingpong(k, a, b):
            k.block("entry")
            k.store(a, k.lane, k.lane)
            k.store(b, k.lane, k.lane * 2)
            va = k.load(a, k.lane)
            vb = k.load(b, k.lane)
            k.store(a, k.lane, vb)
            k.store(b, k.lane, va)

        assert_equivalent(pingpong, 2, 32, [(32, "a"), (32, "b")])

    def test_bounds_violation_still_reported(self):
        @kernel()
        def oob(k, data):
            k.block("entry")
            k.load(data, k.lane + 1000)

        device = Device(DeviceConfig(seed=0), cohort=True)
        buf = device.alloc(32, label="data")
        with pytest.raises(Exception) as coh_err:
            device.launch(oob, 2, 32, buf)
        reference = Device(DeviceConfig(seed=0), cohort=False)
        ref_buf = reference.alloc(32, label="data")
        with pytest.raises(Exception) as ref_err:
            reference.launch(oob, 2, 32, ref_buf)
        assert type(coh_err.value) is type(ref_err.value)


class TestReplay:
    def test_replay_rowstreams_in_schedule_order(self):
        """Events come out grouped per warp, rows in schedule order."""
        device = Device(DeviceConfig(seed=0), cohort=True)
        events = []
        device.subscribe(events.append)

        @kernel()
        def simple(k):
            k.block("entry")
            k.syncthreads()
            k.block("exit")

        device.launch(simple, 2, 64)
        stream = [e for e in events
                  if isinstance(e, (BasicBlockEvent, SyncEvent))]
        ids = [(e.block_id, e.warp_id) for e in stream]
        assert ids == [(b, w) for b in range(2) for w in range(2)
                       for _ in range(3)]

    def test_each_warp_retires_with_its_batch(self):
        """Both engines emit a warp's one batch after its block and sync
        events, warp after warp."""
        for cohort in (False, True):
            device = Device(DeviceConfig(seed=0), cohort=cohort)
            events = []
            device.subscribe(events.append)
            buf = device.alloc(128, label="data")

            @kernel()
            def touch(k, target):
                k.block("entry")
                k.load(target, k.global_tid())
                k.syncthreads()
                k.block("exit")
                k.store(target, k.global_tid(), k.lane)

            device.launch(touch, 2, 64, buf)
            kinds = [type(e).__name__ for e in events[1:-1]]
            assert kinds == ["BasicBlockEvent", "SyncEvent",
                             "BasicBlockEvent", "MemoryBatchEvent"] * 4
            warps = [(e.block_id, e.warp_id) for e in events[1:-1]]
            assert warps == [(b, w) for b in range(2) for w in range(2)
                             for _ in range(4)]

    def test_memory_event_expansion_matches_reference(self):
        def collect(cohort):
            device = Device(DeviceConfig(seed=0), cohort=cohort)
            events = []
            device.subscribe(events.append)
            buf = device.alloc(128, label="data")

            @kernel()
            def touch(k, target):
                k.block("entry")
                k.load(target, k.global_tid())
                k.store(target, k.global_tid(), k.lane)

            device.launch(touch, 2, 64, buf)
            return memory_events(events)

        assert collect(cohort=True) == collect(cohort=False)
