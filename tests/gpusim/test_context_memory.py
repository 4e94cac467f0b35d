"""Memory-access semantics and trace events from the warp context."""

import numpy as np
import pytest

from repro.gpusim.context import SimtDivergenceError, WarpContext
from repro.gpusim.kernel import LaunchConfig
from repro.gpusim.memory import AllocationError, DeviceMemory, MemorySpace
from repro.gpusim.warp import WARP_SIZE


@pytest.fixture
def memory():
    return DeviceMemory()


def make_context(threads_per_block: int = 32):
    events = []
    launch = LaunchConfig.create(1, threads_per_block)
    ctx = WarpContext(launch=launch, block_id=0, warp_id=0,
                      emit=events.append, shared_alloc=None)
    return ctx, events


def mem_events(ctx):
    """The warp's memory instructions so far, one event each (the
    context buffers them into one batch until the warp retires)."""
    batch = ctx.flush_batch()
    return [] if batch is None else list(batch.iter_events())


class TestLoad:
    def test_gather_values(self, memory):
        ctx, _ = make_context()
        buf = memory.alloc_like(np.arange(64, dtype=np.int64))
        ctx.block("b")
        out = ctx.load(buf, ctx.lane * 2)
        assert (out == ctx.lane * 2).all()

    def test_load_emits_event_with_lane_addresses(self, memory):
        ctx, events = make_context()
        buf = memory.alloc(64)
        ctx.block("b")
        ctx.load(buf, ctx.lane)
        event = mem_events(ctx)[0]
        assert len(event.addresses) == WARP_SIZE
        assert event.addresses[0] == buf.base
        assert event.addresses[1] == buf.base + buf.itemsize
        assert not event.is_store

    def test_only_active_lanes_access(self, memory):
        ctx, events = make_context()
        buf = memory.alloc(64)
        br = ctx.branch(ctx.lane < 5)
        for _ in br.then("b"):
            ctx.load(buf, ctx.lane)
        assert len(mem_events(ctx)[0].addresses) == 5

    def test_inactive_lanes_get_zero_filler(self, memory):
        ctx, _ = make_context()
        buf = memory.alloc_like(np.full(64, 9, dtype=np.int64))
        br = ctx.branch(ctx.lane < 5)
        for _ in br.then("b"):
            out = ctx.load(buf, ctx.lane)
            assert (out[:5] == 9).all()
            assert (out[5:] == 0).all()

    def test_inactive_lane_indices_not_bounds_checked(self, memory):
        ctx, _ = make_context()
        buf = memory.alloc(8)
        br = ctx.branch(ctx.lane < 8)
        for _ in br.then("b"):
            ctx.load(buf, ctx.lane)  # lanes 8..31 are inactive

    def test_out_of_bounds_active_lane_raises(self, memory):
        ctx, _ = make_context()
        buf = memory.alloc(8)
        ctx.block("b")
        with pytest.raises(AllocationError):
            ctx.load(buf, ctx.lane)

    def test_load_outside_block_raises(self, memory):
        ctx, _ = make_context()
        buf = memory.alloc(64)
        with pytest.raises(SimtDivergenceError):
            ctx.load(buf, ctx.lane)

    def test_space_defaults_to_buffer_space(self, memory):
        ctx, events = make_context()
        buf = memory.alloc(64, space=MemorySpace.CONSTANT)
        ctx.block("b")
        ctx.load(buf, 0)
        assert mem_events(ctx)[0].space is MemorySpace.CONSTANT

    def test_space_override(self, memory):
        ctx, events = make_context()
        buf = memory.alloc(64)
        ctx.block("b")
        ctx.load(buf, 0, space=MemorySpace.TEXTURE)
        assert mem_events(ctx)[0].space is MemorySpace.TEXTURE

    def test_uniform_index_counts_per_lane(self, memory):
        """A broadcast load is still one access per active lane, matching
        NVBit's per-thread address reporting."""
        ctx, events = make_context()
        buf = memory.alloc(64)
        ctx.block("b")
        ctx.load(buf, 3)
        event = mem_events(ctx)[0]
        assert len(event.addresses) == WARP_SIZE
        assert len(set(event.addresses)) == 1

    def test_float_buffer_roundtrip(self, memory):
        ctx, _ = make_context()
        buf = memory.alloc_like(np.linspace(0, 1, 64))
        ctx.block("b")
        out = ctx.load(buf, ctx.lane)
        assert out.dtype == np.float64
        assert np.allclose(out, np.linspace(0, 1, 64)[:32])


class TestStore:
    def test_scatter_values(self, memory):
        ctx, _ = make_context()
        buf = memory.alloc(64)
        ctx.block("b")
        ctx.store(buf, ctx.lane, ctx.lane * 10)
        assert (buf.data[:32] == np.arange(32) * 10).all()

    def test_store_event_flagged(self, memory):
        ctx, events = make_context()
        buf = memory.alloc(64)
        ctx.block("b")
        ctx.store(buf, ctx.lane, 1)
        assert mem_events(ctx)[0].is_store

    def test_store_only_active_lanes_write(self, memory):
        ctx, _ = make_context()
        buf = memory.alloc(64)
        br = ctx.branch(ctx.lane < 4)
        for _ in br.then("b"):
            ctx.store(buf, ctx.lane, 7)
        assert (buf.data[:4] == 7).all()
        assert (buf.data[4:] == 0).all()

    def test_conflicting_stores_last_lane_wins(self, memory):
        ctx, _ = make_context()
        buf = memory.alloc(4)
        ctx.block("b")
        ctx.store(buf, 0, ctx.lane)
        assert buf.data[0] == 31

    def test_store_dtype_conversion(self, memory):
        ctx, _ = make_context()
        buf = memory.alloc(64, dtype=np.int64)
        ctx.block("b")
        ctx.store(buf, ctx.lane, 2.9)
        assert buf.data[0] == 2  # truncating cast, like a device cvt

    def test_store_with_no_active_lanes_is_noop(self, memory):
        ctx, events = make_context()
        buf = memory.alloc(64)
        ctx.block("b")
        ctx._set_active(np.zeros(WARP_SIZE, dtype=bool))
        ctx.store(buf, ctx.lane, 1)
        assert len(mem_events(ctx)) == 0


class TestAtomicAdd:
    def test_all_contributions_accumulate(self, memory):
        ctx, _ = make_context()
        buf = memory.alloc(4)
        ctx.block("b")
        ctx.atomic_add(buf, 0, 1)
        assert buf.data[0] == WARP_SIZE

    def test_atomic_respects_mask(self, memory):
        ctx, _ = make_context()
        buf = memory.alloc(4)
        br = ctx.branch(ctx.lane < 10)
        for _ in br.then("b"):
            ctx.atomic_add(buf, 0, 1)
        assert buf.data[0] == 10

    def test_atomic_event_is_store(self, memory):
        ctx, events = make_context()
        buf = memory.alloc(4)
        ctx.block("b")
        ctx.atomic_add(buf, 0, 1)
        assert mem_events(ctx)[0].is_store


class TestInstructionOrdinals:
    def test_ordinals_increment_within_visit(self, memory):
        ctx, events = make_context()
        buf = memory.alloc(64)
        ctx.block("b")
        ctx.load(buf, 0)
        ctx.load(buf, 1)
        ctx.store(buf, 2, 0)
        assert [e.instr for e in mem_events(ctx)] == [0, 1, 2]

    def test_ordinals_reset_per_block_entry(self, memory):
        ctx, events = make_context()
        buf = memory.alloc(64)
        for _ in ctx.range_("loop", 3):
            ctx.load(buf, 0)
        assert [(e.visit, e.instr) for e in mem_events(ctx)] == [
            (0, 0), (1, 0), (2, 0)]

    def test_events_carry_block_identity(self, memory):
        events = []
        launch = LaunchConfig.create(2, 64)
        ctx = WarpContext(launch=launch, block_id=1, warp_id=1,
                          emit=events.append, shared_alloc=None)
        buf = memory.alloc(256)
        ctx.block("b")
        ctx.load(buf, 0)
        event = mem_events(ctx)[0]
        assert event.block_id == 1
        assert event.warp_id == 1
