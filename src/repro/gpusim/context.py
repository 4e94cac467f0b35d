"""Warp-level structured-control DSL with SIMT semantics.

Kernels are Python functions executed once per *warp*.  Every per-lane value
is a NumPy vector of 32 lanes, and control flow is expressed through the
:class:`WarpContext` so the simulator can model CUDA's branching behaviour:

* ``k.block(label)`` marks entry into a basic block (the unit of the paper's
  A-DCFG nodes and of the warp control-flow trace);
* ``k.branch(cond)`` returns a :class:`BranchHandle` whose ``then`` /
  ``otherwise`` bodies execute **only if at least one active lane takes
  them** — a warp-uniform condition therefore skips the untaken side
  (observable control flow), while a divergent condition visits both sides
  with complementary masks (predicated execution, which hides per-thread
  control flow exactly as §II-B and §VIII-B of the paper describe);
* ``k.while_(label, cond_fn)`` is a divergent loop: lanes retire as their
  condition goes false and the warp iterates while any lane is live;
* ``k.range_(label, n)`` is a warp-uniform counted loop;
* ``k.load`` / ``k.store`` issue per-active-lane memory accesses, tagged
  with NVBit memory-space types and reported once per warp, at
  retirement, as one :class:`~repro.gpusim.events.MemoryBatchEvent`.

Bodies of ``then`` / ``otherwise`` / loops are written as ``for _ in ...:``
so that a region whose mask is empty is skipped without executing Python
code, mirroring a taken/untaken branch.

This per-warp loop is the **reference execution engine**: the warp-cohort
engine (:mod:`repro.gpusim.cohort`, on by default) runs every warp of a
launch in one ``(num_warps, 32)`` pass and is asserted byte-identical to
the traces produced here.  Debugging a suspected engine bug, or running a
kernel that cannot keep its NumPy shape-polymorphic, is what
``cohort=False`` / ``@kernel(cohort=False)`` are for.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from repro.errors import TraceError
from repro.gpusim.events import (
    BasicBlockEvent,
    MemoryBatchBuilder,
    MemoryBatchEvent,
    SyncEvent,
)
from repro.gpusim.kernel import LaunchConfig
from repro.gpusim.memory import DeviceBuffer, MemorySpace
from repro.gpusim.warp import (
    WARP_SIZE,
    lane_bool,
    lane_vector,
)

#: Per-lane ballot weights: bit *i* for lane *i* (``__ballot_sync`` layout).
_BALLOT_WEIGHTS = np.left_shift(np.uint64(1),
                                np.arange(WARP_SIZE, dtype=np.uint64))


class SimtDivergenceError(TraceError):
    """Raised when a warp-uniform value is requested but lanes disagree."""


class BranchHandle:
    """The two arms of one conditional branch.

    Captures the warp's active mask at the point of the branch so that
    ``then`` and ``otherwise`` see complementary lane sets regardless of
    what the bodies do to the mask.
    """

    def __init__(self, ctx: "WarpContext", cond: np.ndarray) -> None:
        self._ctx = ctx
        self._outer = ctx.active.copy()
        self._cond = lane_bool(cond)

    def then(self, label: str) -> Iterator[None]:
        """Execute the taken arm if any active lane satisfies the condition."""
        return self._arm(label, self._outer & self._cond)

    def otherwise(self, label: str) -> Iterator[None]:
        """Execute the fall-through arm if any active lane fails the condition."""
        return self._arm(label, self._outer & ~self._cond)

    def _arm(self, label: str, taken: np.ndarray) -> Iterator[None]:
        ctx = self._ctx
        if not taken.any():
            return
        saved = ctx.active
        ctx._set_active(taken)
        try:
            ctx.block(label)
            yield None
        finally:
            ctx._set_active(saved)


class WarpContext:
    """Execution context of one warp inside one kernel launch.

    Instances are created by :class:`repro.gpusim.device.Device`; kernel
    bodies receive one as their first argument.
    """

    def __init__(self, launch: LaunchConfig, block_id: int, warp_id: int,
                 emit: Callable, shared_alloc: Callable) -> None:
        self._launch = launch
        self._block_id = block_id
        self._warp_id = warp_id
        self._emit = emit
        self._shared_alloc = shared_alloc
        #: the warp's memory instructions, flushed as a single
        #: MemoryBatchEvent at warp retirement
        self._batch = MemoryBatchBuilder()

        self.lane = np.arange(WARP_SIZE, dtype=np.int64)
        thread_in_block = warp_id * WARP_SIZE + self.lane
        self._thread_in_block = thread_in_block
        #: lanes that exist at all (the last warp of a block may be partial)
        self._exists = thread_in_block < launch.threads_per_block
        self._active = self._exists.copy()

        self._current_label: Optional[str] = None
        self._visit_counts: dict = {}
        self._current_visit = 0
        self._instr_ordinal = 0

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------

    @property
    def launch(self) -> LaunchConfig:
        return self._launch

    @property
    def block_id(self) -> int:
        """Linearised block (CTA) id."""
        return self._block_id

    @property
    def warp_id(self) -> int:
        """Warp id within the block (unique only per block, as in NVBit)."""
        return self._warp_id

    @property
    def global_warp_id(self) -> int:
        return self._block_id * self._launch.warps_per_block + self._warp_id

    @property
    def block_idx(self) -> Tuple[int, int, int]:
        """3-D block index (``blockIdx``)."""
        return self._launch.block_index(self._block_id)

    @property
    def block_dim(self) -> Tuple[int, int, int]:
        return self._launch.block

    @property
    def grid_dim(self) -> Tuple[int, int, int]:
        return self._launch.grid

    @property
    def active(self) -> np.ndarray:
        """Current active-lane mask (copy-on-write discipline: do not mutate)."""
        return self._active

    def _set_active(self, mask: np.ndarray) -> None:
        self._active = np.asarray(mask, dtype=bool) & self._exists

    def thread_idx(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-lane ``threadIdx`` components."""
        bx, by, _bz = self._launch.block
        t = self._thread_in_block
        return t % bx, (t // bx) % by, t // (bx * by)

    def global_tid(self) -> np.ndarray:
        """Per-lane linearised global thread id."""
        return (self._block_id * self._launch.threads_per_block
                + self._thread_in_block)

    # ------------------------------------------------------------------
    # control flow
    # ------------------------------------------------------------------

    def block(self, label: str) -> None:
        """Mark entry of the warp into basic block *label*.

        Emits a :class:`BasicBlockEvent` and resets the per-visit memory
        instruction ordinal.  A block entry with no active lane is a
        simulator-usage error: control constructs never enter such blocks.
        """
        if not self._active.any():
            raise SimtDivergenceError(
                f"basic block {label!r} entered with no active lane")
        visit = self._visit_counts.get(label, 0)
        self._visit_counts[label] = visit + 1
        self._current_label = label
        self._current_visit = visit
        self._instr_ordinal = 0
        self._emit(BasicBlockEvent(
            block_id=self._block_id, warp_id=self._warp_id, label=label,
            visit=visit, active_lanes=int(self._active.sum())))

    def branch(self, cond) -> BranchHandle:
        """Begin a conditional with per-lane condition *cond*."""
        return BranchHandle(self, lane_bool(cond))

    def range_(self, label: str, start: int, stop: Optional[int] = None,
               step: int = 1) -> Iterator[int]:
        """Warp-uniform counted loop; enters *label* once per iteration."""
        if stop is None:
            start, stop = 0, start
        for i in range(start, stop, step):
            self.block(label)
            yield i

    def while_(self, label: str, cond_fn: Callable[[], np.ndarray],
               max_iter: int = 1_000_000) -> Iterator[int]:
        """Divergent loop: iterate while *any* live lane's condition holds.

        Lanes whose condition turns false retire (are masked off) but the
        warp keeps iterating for the remaining lanes — the SIMT behaviour
        that makes loop trip counts observable only at warp granularity.
        """
        outer = self._active
        live = outer.copy()
        iteration = 0
        try:
            while True:
                self._set_active(live)
                cond = lane_bool(cond_fn()) & live
                if not cond.any():
                    break
                if iteration >= max_iter:
                    raise SimtDivergenceError(
                        f"divergent loop {label!r} exceeded {max_iter} iterations")
                live = cond
                self._set_active(live)
                self.block(label)
                yield iteration
                iteration += 1
        finally:
            self._set_active(outer)

    def uniform(self, values) -> int:
        """Collapse a warp-uniform lane vector to a Python scalar.

        Raises :class:`SimtDivergenceError` when active lanes disagree —
        the same misuse that would be undefined behaviour on hardware
        (e.g. a divergent value used as a shared loop bound).
        """
        vec = lane_vector(values)
        active_values = vec[self._active]
        if active_values.size == 0:
            raise SimtDivergenceError("uniform() with no active lane")
        first = active_values[0]
        if not (active_values == first).all():
            raise SimtDivergenceError(
                "uniform() on a divergent value: "
                f"{np.unique(active_values)!r}")
        return first.item()

    # ------------------------------------------------------------------
    # predication and warp intrinsics
    # ------------------------------------------------------------------

    def select(self, cond, if_true, if_false) -> np.ndarray:
        """Per-lane select (predicated move): no control flow is created.

        This models the compiler turning short branches into predicated
        instructions, which the paper notes never shows up in the trace.
        """
        return np.where(lane_bool(cond), lane_vector(if_true),
                        lane_vector(if_false))

    def any(self, cond) -> bool:
        """``__any_sync`` over the active lanes."""
        return bool((lane_bool(cond) & self._active).any())

    def all(self, cond) -> bool:
        """``__all_sync`` over the active lanes."""
        masked = lane_bool(cond)[self._active]
        return bool(masked.all()) if masked.size else True

    def ballot(self, cond) -> int:
        """``__ballot_sync``: bitmask of active lanes with a true condition.

        Vectorised: one dot product of the lane mask with the per-lane bit
        weights replaces the Python ``sum`` over ``np.nonzero`` (property-
        tested against the scalar formulation).
        """
        bits = lane_bool(cond) & self._active
        return int(bits.astype(np.uint64) @ _BALLOT_WEIGHTS)

    def reduce_sum(self, values) -> float:
        """Warp reduction: sum of the active lanes."""
        vec = lane_vector(values)
        return vec[self._active].sum().item()

    def reduce_max(self, values):
        vec = lane_vector(values)
        chosen = vec[self._active]
        if chosen.size == 0:
            raise SimtDivergenceError("reduce_max() with no active lane")
        return chosen.max().item()

    def reduce_min(self, values):
        vec = lane_vector(values)
        chosen = vec[self._active]
        if chosen.size == 0:
            raise SimtDivergenceError("reduce_min() with no active lane")
        return chosen.min().item()

    def shfl(self, values, src_lane: int) -> np.ndarray:
        """``__shfl_sync``: broadcast lane *src_lane*'s value to all lanes."""
        vec = lane_vector(values)
        return np.full(WARP_SIZE, vec[src_lane], dtype=vec.dtype)

    def shfl_up(self, values, delta: int) -> np.ndarray:
        """``__shfl_up_sync``: lane i receives lane i-delta's value
        (lanes below *delta* keep their own, as on hardware)."""
        vec = lane_vector(values)
        out = vec.copy()
        if delta > 0:
            out[delta:] = vec[:-delta] if delta < WARP_SIZE else out[delta:]
        return out

    def shfl_down(self, values, delta: int) -> np.ndarray:
        """``__shfl_down_sync``: lane i receives lane i+delta's value
        (the top *delta* lanes keep their own)."""
        vec = lane_vector(values)
        out = vec.copy()
        if 0 < delta < WARP_SIZE:
            out[:-delta] = vec[delta:]
        return out

    def shfl_xor(self, values, mask: int) -> np.ndarray:
        """``__shfl_xor_sync``: butterfly exchange with lane ``i ^ mask``."""
        vec = lane_vector(values)
        return vec[np.arange(WARP_SIZE) ^ (mask & (WARP_SIZE - 1))]

    def syncthreads(self) -> None:
        """Block-level barrier.

        Traced (it is an instruction the paper's false-positive analysis
        mentions) but semantically inert: the simulator runs each warp of a
        block to completion, so cross-warp ordering inside a block is not
        modelled.
        """
        self._emit(SyncEvent(block_id=self._block_id, warp_id=self._warp_id))

    # ------------------------------------------------------------------
    # memory
    # ------------------------------------------------------------------

    def shared(self, name: str, shape, dtype=np.int64) -> DeviceBuffer:
        """Get (or create) this block's shared-memory buffer *name*.

        Shared buffers live for the duration of the launch and are common to
        all warps of the same block, like ``__shared__`` arrays.
        """
        return self._shared_alloc(self._block_id, name, shape, dtype)

    def load(self, buf: DeviceBuffer, index,
             space: Optional[MemorySpace] = None) -> np.ndarray:
        """Per-lane gather from *buf* at element *index* (lane vector).

        Only active lanes access memory and only their addresses are traced;
        inactive lanes receive 0 (their result is architecturally undefined,
        and a deterministic filler keeps runs reproducible).
        """
        idx = lane_vector(index, dtype=np.int64)
        out = np.zeros(WARP_SIZE, dtype=buf.data.dtype)
        if self._active.any():
            active_idx = idx[self._active]
            buf.check_bounds(active_idx)
            self._record_mem(buf, active_idx, space, is_store=False)
            out[self._active] = buf.data.reshape(-1)[active_idx]
        return out

    def store(self, buf: DeviceBuffer, index, values,
              space: Optional[MemorySpace] = None) -> None:
        """Per-lane scatter of *values* into *buf* at element *index*.

        When several active lanes target the same element, the highest lane
        wins (matching CUDA's unspecified-but-single-winner semantics with a
        deterministic choice).
        """
        idx = lane_vector(index, dtype=np.int64)
        vals = lane_vector(values)
        if not self._active.any():
            return
        active_idx = idx[self._active]
        buf.check_bounds(active_idx)
        self._record_mem(buf, active_idx, space, is_store=True)
        flat = buf.data.reshape(-1)
        flat[active_idx] = vals[self._active].astype(buf.data.dtype)

    def atomic_add(self, buf: DeviceBuffer, index, values) -> None:
        """Per-lane atomic add (all lane contributions are accumulated)."""
        idx = lane_vector(index, dtype=np.int64)
        vals = lane_vector(values)
        if not self._active.any():
            return
        active_idx = idx[self._active]
        buf.check_bounds(active_idx)
        self._record_mem(buf, active_idx, None, is_store=True)
        flat = buf.data.reshape(-1)
        np.add.at(flat, active_idx, vals[self._active].astype(buf.data.dtype))

    def _record_mem(self, buf: DeviceBuffer, active_idx: np.ndarray,
                  space: Optional[MemorySpace], is_store: bool) -> None:
        if self._current_label is None:
            raise SimtDivergenceError(
                "memory access outside any basic block: call k.block() first")
        resolved_space = space if space is not None else buf.space
        self._batch.add(self._current_label, self._current_visit,
                        self._instr_ordinal, resolved_space.value, is_store,
                        buf.addresses_for(active_idx))
        self._instr_ordinal += 1

    def flush_batch(self) -> Optional[MemoryBatchEvent]:
        """Package the warp's buffered memory instructions into one batch.

        Called by the device at warp retirement; returns None when the
        warp issued no memory instruction.  The buffer is cleared so a
        context could in principle be flushed mid-launch.
        """
        event = self._batch.build(self._block_id, self._warp_id)
        self._batch = MemoryBatchBuilder()
        return event
