"""Warp-cohort execution: every warp of a launch in one NumPy pass.

The reference interpreter (:class:`repro.gpusim.context.WarpContext`) runs
the Python kernel body once per warp over ``(32,)`` lane vectors.  For a
launch with W warps that means W passes through the body, and the Python /
NumPy dispatch overhead — not the arithmetic — dominates trace-recording
time (Table IV of the paper; see DESIGN.md §10).

:class:`CohortContext` runs the body **once per launch** over a
``(num_warps, 32)`` lane grid: row *i* of every lane value belongs to the
warp at schedule position *i* (so row order *is* schedule order, which makes
row-major NumPy semantics coincide with the per-warp memory-commit order).
The same structured-control DSL is interpreted with 2-D masks, and every
observable side effect is captured in an in-order record list that is
re-expanded into the exact per-warp event streams at launch retirement.

Sub-cohort splitting
--------------------
Only four DSL operations collapse lane values to a *Python scalar* —
``uniform``, ``any``, ``all`` and ``ballot`` — and they are therefore the
only points where warps of a cohort can observably disagree (a divergent
uniform branch or loop trip count always flows through one of them).  When
the participating warps disagree, the attempt raises :class:`CohortSplit`
carrying the warps partitioned by outcome; the device rolls back all
speculative memory writes (:class:`repro.gpusim.memory.WriteJournal`) and
re-runs each sub-cohort from the top.  Groups are strictly smaller than the
cohort that raised, so the recursion terminates; memory writes are only
committed for attempts that complete.  This mirrors how a warp scheduler
partitions warps that diverge on a uniform branch.

Equivalence envelope
--------------------
The cohort engine targets kernels whose warps are independent within one
launch (no warp reads memory another warp of the same launch wrote).  All
bundled workloads satisfy this — it is the usual CUDA contract for kernels
that do not synchronise across blocks.  Under that envelope the replayed
event streams are byte-identical to the per-warp loop (asserted by unit,
property and whole-workload equivalence tests).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import CohortEnvelopeError
from repro.gpusim.context import _BALLOT_WEIGHTS, SimtDivergenceError
from repro.gpusim.events import (
    BasicBlockEvent,
    MemoryAccessEvent,
    MemoryBatchEvent,
    SyncEvent,
)
from repro.gpusim.kernel import LaunchConfig
from repro.gpusim.memory import DeviceBuffer, MemorySpace, WriteJournal
from repro.gpusim.warp import WARP_SIZE, cohort_bool, cohort_vector

# Record tags: the first field of every tuple in :attr:`CohortContext.records`.
# The ``*_U`` variants are the *flat* fast path: while every warp of the
# cohort has a full active mask and has entered the same blocks the per-warp
# trace state (current label / visit / instruction ordinal) is a single
# scalar shared by all rows, so records need no per-row arrays.  Layouts
# (``lid`` indexes :attr:`CohortContext.labels`; ``part`` holds local row
# indices; ``addrs`` is a ``(rows, 32)`` array or one 1-D array per row):
#
# * ``(REC_BB, part, lid, visits, active_lane_counts)``
# * ``(REC_SYNC, part)``
# * ``(REC_MEM, part, lids, visits, instrs, space, is_store, addrs)``
# * ``(REC_BB_U, lid, visit)`` — every row, 32 active lanes
# * ``(REC_SYNC_U,)``
# * ``(REC_MEM_U, lid, visit, instr, space, is_store, addrs)`` — every row
REC_BB = 0
REC_SYNC = 1
REC_MEM = 2
REC_BB_U = 3
REC_SYNC_U = 4
REC_MEM_U = 5


class CohortSplit(Exception):
    """A cohort must be partitioned: warps disagreed on a collapsed scalar.

    ``groups`` holds the global schedule positions of each sub-cohort, in
    first-occurrence order of the disagreeing values; every group is sorted
    ascending and strictly smaller than the cohort that raised.
    """

    def __init__(self, groups: List[np.ndarray]) -> None:
        super().__init__(f"cohort diverged into {len(groups)} sub-cohorts")
        self.groups = groups


class CohortSharedView:
    """Per-warp view of a block-scoped ``__shared__`` allocation.

    The per-warp path hands kernels the block's :class:`DeviceBuffer`
    directly; a cohort spans several blocks, so ``k.shared`` returns this
    view mapping each row (warp) to its own block's buffer.
    """

    def __init__(self, name: str,
                 row_buffers: List[Optional[DeviceBuffer]]) -> None:
        self.name = name
        self._row_buffers = row_buffers

    @property
    def dtype(self):
        for buf in self._row_buffers:
            if buf is not None:
                return buf.data.dtype
        return np.int64

    def row_buffer(self, row: int) -> DeviceBuffer:
        buf = self._row_buffers[row]
        if buf is None:
            raise SimtDivergenceError(
                f"shared buffer {self.name!r} used by a warp that did not "
                "allocate it (k.shared was reached with the warp inactive)")
        return buf


class ReplicaBuffer:
    """Fused view of R same-shaped device buffers, one per replica slot.

    Replica-cohort batching executes R repetitions of a launch as extra
    rows of the lane grid; each repetition owns its own device buffers.
    This buffer concatenates the members' flat contents into one backing
    array so a row in replica slot *s* addresses element ``i`` at flat
    offset ``s * logical_elements + i`` — replicas stay fully isolated
    while sharing a single NumPy pass.  ``data`` mirrors
    :class:`DeviceBuffer` closely enough for the
    :class:`~repro.gpusim.memory.WriteJournal` (snapshot / rollback of
    ``.data``); addresses are recorded against each member's own base so
    the replayed event streams are byte-identical to serial runs.
    """

    def __init__(self, buffers: List[DeviceBuffer]) -> None:
        if not buffers:
            raise ValueError("ReplicaBuffer needs at least one member")
        first = buffers[0]
        self.buffers = buffers
        self.num_slots = len(buffers)
        self.logical_elements = int(first.data.size)
        self.itemsize = first.itemsize
        self.space = first.space
        self.label = first.label
        self.bases = np.fromiter((b.base for b in buffers), dtype=np.int64,
                                 count=len(buffers))
        self.data = np.concatenate([b.data.reshape(-1) for b in buffers])

    def check_bounds(self, indices) -> None:
        # bounds are in the *logical* element space, identical across
        # members: delegate so the error message names a real allocation
        self.buffers[0].check_bounds(indices)

    def writeback(self) -> None:
        """Copy each slot's region back into its member buffer."""
        n = self.logical_elements
        for slot, buf in enumerate(self.buffers):
            flat = buf.data.reshape(-1)
            flat[...] = self.data[slot * n:(slot + 1) * n]


class CohortBranchHandle:
    """Cohort counterpart of :class:`repro.gpusim.context.BranchHandle`."""

    def __init__(self, ctx: "CohortContext", cond: np.ndarray) -> None:
        self._ctx = ctx
        self._outer = ctx.active.copy()
        self._cond = cond

    def then(self, label: str) -> Iterator[None]:
        return self._arm(label, self._outer & self._cond)

    def otherwise(self, label: str) -> Iterator[None]:
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


class CohortContext:
    """Execution context of a warp cohort: the whole launch (or one
    sub-cohort of it) interpreted over a ``(G, 32)`` lane grid.

    Row *i* belongs to the warp at global schedule position ``rows[i]``;
    rows are ascending, so row order is schedule order.  The interface is
    the same structured-control DSL as :class:`WarpContext` — kernels that
    keep their NumPy shape-polymorphic (all bundled workloads do) run on
    either context unchanged.
    """

    def __init__(self, launch: LaunchConfig, rows: np.ndarray,
                 block_ids: np.ndarray, warp_ids: np.ndarray,
                 shared_alloc: Callable, columnar: bool,
                 journal: WriteJournal,
                 step_budget: Optional[int] = None,
                 replica_slots: Optional[np.ndarray] = None) -> None:
        self._launch = launch
        self._rows = np.asarray(rows, dtype=np.int64)
        num = int(self._rows.shape[0])
        self._num = num
        self._shape = (num, WARP_SIZE)
        self._block_ids = np.asarray(block_ids, dtype=np.int64)
        self._warp_ids = np.asarray(warp_ids, dtype=np.int64)
        self._block_id_col = self._block_ids.reshape(num, 1)
        self._warp_id_col = self._warp_ids.reshape(num, 1)
        self._shared_alloc = shared_alloc
        self._columnar = columnar
        self._journal = journal
        #: replica slot of each row (replica-cohort batching); ``None``
        #: for an ordinary single-execution cohort
        self._replica_slots = (None if replica_slots is None else
                               np.asarray(replica_slots, dtype=np.int64))
        #: runaway-kernel guard: basic-block entries this attempt may record
        #: before the launch is declared outside the envelope (None = off)
        self._step_budget = step_budget
        self._steps = 0

        self.lane = np.broadcast_to(
            np.arange(WARP_SIZE, dtype=np.int64), self._shape).copy()
        self._thread_in_block = self._warp_id_col * WARP_SIZE + self.lane
        self._exists = self._thread_in_block < launch.threads_per_block
        self._active = self._exists.copy()
        self._active_full = bool(self._active.all())
        self._all_rows = np.arange(num, dtype=np.int64)

        #: per-buffer hot-path state: id(buf) -> (flat view, base, itemsize,
        #: num_elements, space value, buf, replica offsets).  A buffer's
        #: backing array is only ever mutated in place (journal rollback
        #: included), so the flat view stays valid for the whole attempt.
        self._buf_state: Dict[int, tuple] = {}
        #: interned basic-block labels (cohort-wide id space)
        self._label_index: Dict[str, int] = {}
        self._labels: List[str] = []
        #: ordered side-effect records, re-expanded by :meth:`replay_events`
        self._records: List[tuple] = []

        # Flat fast path: while control flow has been full-cohort-uniform,
        # the per-warp trace state is one scalar per field.  The first
        # masked operation materialises per-row arrays.
        self._flat = self._active_full
        self._u_label = -1
        self._u_visit = 0
        self._u_instr = 0
        self._flat_counts: Dict[int, int] = {}
        if not self._flat:
            self._current_label = np.full(num, -1, dtype=np.int64)
            self._current_visit = np.zeros(num, dtype=np.int64)
            self._instr_ordinal = np.zeros(num, dtype=np.int64)
            self._visit_counts: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------

    @property
    def launch(self) -> LaunchConfig:
        return self._launch

    @property
    def rows(self) -> np.ndarray:
        """Global schedule positions of this cohort's warps (ascending)."""
        return self._rows

    @property
    def num_warps(self) -> int:
        return self._num

    @property
    def replica_slots(self) -> Optional[np.ndarray]:
        """Replica slot of each row, or None outside replica batching."""
        return self._replica_slots

    @property
    def records(self) -> List[tuple]:
        """The attempt's side-effect records, in execution order.

        Tuple layouts are listed with the ``REC_*`` tags at the top of
        this module.  A completed attempt's records can be folded straight
        into A-DCFGs (:func:`repro.adcfg.builder.fold_lane_grid`) instead
        of being re-expanded per warp by :meth:`replay_events`.
        """
        return self._records

    @property
    def labels(self) -> List[str]:
        """Basic-block labels interned by this attempt (record ``lid``s)."""
        return self._labels

    @property
    def block_id(self) -> np.ndarray:
        """Linearised block id, as a ``(G, 1)`` column (broadcasts over
        lanes exactly like the per-warp scalar does)."""
        return self._block_id_col

    @property
    def warp_id(self) -> np.ndarray:
        return self._warp_id_col

    @property
    def global_warp_id(self) -> np.ndarray:
        return (self._block_id_col * self._launch.warps_per_block
                + self._warp_id_col)

    @property
    def block_idx(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        gx, gy, _gz = self._launch.grid
        b = self._block_id_col
        return b % gx, (b // gx) % gy, b // (gx * gy)

    @property
    def block_dim(self) -> Tuple[int, int, int]:
        return self._launch.block

    @property
    def grid_dim(self) -> Tuple[int, int, int]:
        return self._launch.grid

    @property
    def active(self) -> np.ndarray:
        return self._active

    def _set_active(self, mask: np.ndarray) -> None:
        act = np.asarray(mask, dtype=bool) & self._exists
        self._active = act
        self._active_full = bool(act.all())

    def thread_idx(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        bx, by, _bz = self._launch.block
        t = self._thread_in_block
        return t % bx, (t // bx) % by, t // (bx * by)

    def global_tid(self) -> np.ndarray:
        return (self._block_id_col * self._launch.threads_per_block
                + self._thread_in_block)

    # ------------------------------------------------------------------
    # lane-value coercion
    # ------------------------------------------------------------------

    def _grid(self, value, dtype=None) -> np.ndarray:
        arr = np.asarray(value)
        if arr.shape != self._shape:
            return cohort_vector(value, self._num, dtype)
        if dtype is not None and arr.dtype != dtype:
            arr = arr.astype(dtype)
        return arr

    def _grid_bool(self, value) -> np.ndarray:
        arr = np.asarray(value)
        if arr.shape != self._shape:
            return cohort_bool(value, self._num)
        if arr.dtype != bool:
            arr = arr.astype(bool)
        return arr

    def _part_rows(self) -> np.ndarray:
        """Rows (warps) with at least one active lane: exactly the warps
        that would execute the current code region in the per-warp loop."""
        if self._active_full:
            return self._all_rows
        return np.flatnonzero(self._active.any(axis=1))

    def _materialize(self) -> None:
        """Expand the flat scalar trace state into per-row arrays."""
        num = self._num
        self._current_label = np.full(num, self._u_label, dtype=np.int64)
        self._current_visit = np.full(num, self._u_visit, dtype=np.int64)
        self._instr_ordinal = np.full(num, self._u_instr, dtype=np.int64)
        self._visit_counts = {
            lid: np.full(num, count, dtype=np.int64)
            for lid, count in self._flat_counts.items()}
        self._flat = False

    def _buf_view(self, buf) -> tuple:
        state = self._buf_state.get(id(buf))
        if state is None:
            if isinstance(buf, ReplicaBuffer):
                # each row indexes its own slot's region of the fused
                # backing array; addresses use the member's real base
                nelem = buf.logical_elements
                slots = self._replica_slots
                offs = (slots * nelem).reshape(self._num, 1)
                base = buf.bases[slots].reshape(self._num, 1)
                state = (buf.data.reshape(-1), base, buf.itemsize, nelem,
                         buf.space.value, buf, offs)
            else:
                data = buf.data
                state = (data.reshape(-1), buf.base, buf.itemsize,
                         data.size, buf.space.value, buf, None)
            self._buf_state[id(buf)] = state
        return state

    def _intern(self, label: str) -> int:
        lid = self._label_index.get(label)
        if lid is None:
            lid = len(self._labels)
            self._label_index[label] = lid
            self._labels.append(label)
        return lid

    # ------------------------------------------------------------------
    # control flow
    # ------------------------------------------------------------------

    def block(self, label: str) -> None:
        if self._step_budget is not None:
            self._steps += 1
            if self._steps > self._step_budget:
                raise CohortEnvelopeError(
                    f"cohort attempt recorded more than "
                    f"{self._step_budget} basic-block steps at {label!r} — "
                    "runaway kernel; re-executing on the per-warp "
                    "reference engine")
        if self._flat and self._active_full:
            lid = self._intern(label)
            visit = self._flat_counts.get(lid, 0)
            self._flat_counts[lid] = visit + 1
            self._u_label = lid
            self._u_visit = visit
            self._u_instr = 0
            self._records.append((REC_BB_U, lid, visit))
            return
        if self._flat:
            self._materialize()
        active = self._active
        if self._active_full:
            part = self._all_rows
            counts_active = np.full(self._num, WARP_SIZE, dtype=np.int64)
        else:
            lane_counts = active.sum(axis=1)
            part = np.flatnonzero(lane_counts)
            if part.size == 0:
                raise SimtDivergenceError(
                    f"basic block {label!r} entered with no active lane")
            counts_active = lane_counts[part]
        lid = self._intern(label)
        counts = self._visit_counts.get(lid)
        if counts is None:
            counts = np.zeros(self._num, dtype=np.int64)
            self._visit_counts[lid] = counts
        visits = counts[part]
        counts[part] += 1
        self._current_label[part] = lid
        self._current_visit[part] = visits
        self._instr_ordinal[part] = 0
        self._records.append((REC_BB, part, lid, visits, counts_active))

    def branch(self, cond) -> CohortBranchHandle:
        return CohortBranchHandle(self, self._grid_bool(cond))

    def range_(self, label: str, start: int, stop: Optional[int] = None,
               step: int = 1) -> Iterator[int]:
        if stop is None:
            start, stop = 0, start
        for i in range(start, stop, step):
            self.block(label)
            yield i

    def while_(self, label: str, cond_fn: Callable[[], np.ndarray],
               max_iter: int = 1_000_000) -> Iterator[int]:
        outer = self._active
        live = outer.copy()
        iteration = 0
        try:
            while True:
                self._set_active(live)
                cond = self._grid_bool(cond_fn()) & live
                if not cond.any():
                    break
                if iteration >= max_iter:
                    raise SimtDivergenceError(
                        f"divergent loop {label!r} exceeded {max_iter} "
                        "iterations")
                live = cond
                self._set_active(live)
                self.block(label)
                yield iteration
                iteration += 1
        finally:
            self._set_active(outer)

    def _split_groups(self, part: np.ndarray,
                      values: np.ndarray) -> List[np.ndarray]:
        """Partition the cohort by the disagreeing per-warp *values*.

        Participating rows are grouped by value in first-occurrence order;
        rows with no active lane (warps that would not have executed this
        collapse in the per-warp loop) ride along with group 0 — they are
        unconstrained, and keeping them in the first group minimises the
        number of re-executions.  Each group is returned as ascending
        *global* schedule positions.
        """
        order: Dict[object, int] = {}
        buckets: List[List[int]] = []
        for i in range(part.shape[0]):
            value = values[i]
            key = value.item() if isinstance(value, np.generic) else value
            slot = order.get(key)
            if slot is None:
                order[key] = len(buckets)
                buckets.append([int(part[i])])
            else:
                buckets[slot].append(int(part[i]))
        part_set = set(int(r) for r in part)
        buckets[0].extend(r for r in range(self._num) if r not in part_set)
        groups = []
        for rows in buckets:
            local = np.asarray(sorted(rows), dtype=np.int64)
            groups.append(self._rows[local])
        return groups

    def uniform(self, values) -> int:
        vec = self._grid(values)
        active = self._active
        part = self._part_rows()
        if part.size == 0:
            raise SimtDivergenceError("uniform() with no active lane")
        firsts = []
        for r in part:
            row = vec[r] if self._active_full else vec[r][active[r]]
            first = row[0]
            if not (row == first).all():
                raise SimtDivergenceError(
                    "uniform() on a divergent value: "
                    f"{np.unique(row)!r}")
            firsts.append(first)
        collected = np.asarray(firsts)
        if (collected == collected[0]).all():
            return collected[0].item()
        raise CohortSplit(self._split_groups(part, collected))

    # ------------------------------------------------------------------
    # predication and warp intrinsics
    # ------------------------------------------------------------------

    def select(self, cond, if_true, if_false) -> np.ndarray:
        return np.where(self._grid_bool(cond), self._grid(if_true),
                        self._grid(if_false))

    def any(self, cond) -> bool:
        part = self._part_rows()
        if part.size == 0:
            return False
        row_any = (self._grid_bool(cond) & self._active).any(axis=1)[part]
        if row_any.all() or not row_any.any():
            return bool(row_any[0])
        raise CohortSplit(self._split_groups(part, row_any))

    def all(self, cond) -> bool:
        part = self._part_rows()
        if part.size == 0:
            return True
        row_all = (self._grid_bool(cond)
                   | ~self._active).all(axis=1)[part]
        if row_all.all() or not row_all.any():
            return bool(row_all[0])
        raise CohortSplit(self._split_groups(part, row_all))

    def ballot(self, cond) -> int:
        part = self._part_rows()
        if part.size == 0:
            return 0
        bits = (self._grid_bool(cond) & self._active).astype(np.uint64)
        votes = (bits @ _BALLOT_WEIGHTS)[part]
        if (votes == votes[0]).all():
            return int(votes[0])
        raise CohortSplit(self._split_groups(part, votes))

    def reduce_sum(self, values) -> np.ndarray:
        """Warp reduction, one value per warp as a ``(G, 1)`` column.

        Each row is reduced over its own compacted active lanes — the same
        1-D summation the per-warp path performs — so results are bit-exact
        against the reference even for floating-point inputs.
        """
        vec = self._grid(values)
        active = self._active
        out = [vec[r][active[r]].sum() for r in range(self._num)]
        return np.asarray(out).reshape(self._num, 1)

    def reduce_max(self, values) -> np.ndarray:
        return self._reduce_extreme(values, "reduce_max", np.ndarray.max)

    def reduce_min(self, values) -> np.ndarray:
        return self._reduce_extreme(values, "reduce_min", np.ndarray.min)

    def _reduce_extreme(self, values, name: str, op) -> np.ndarray:
        vec = self._grid(values)
        active = self._active
        if not active.any():
            raise SimtDivergenceError(f"{name}() with no active lane")
        out = np.empty(self._num, dtype=vec.dtype)
        for r in range(self._num):
            chosen = vec[r][active[r]]
            # A row with no active lane would not have executed this call
            # in the per-warp loop: its result is unobservable, fill with
            # an arbitrary in-dtype value.
            out[r] = op(chosen) if chosen.size else vec[r, 0]
        return out.reshape(self._num, 1)

    def shfl(self, values, src_lane: int) -> np.ndarray:
        vec = self._grid(values)
        return np.repeat(vec[:, src_lane:src_lane + 1], WARP_SIZE, axis=1)

    def shfl_up(self, values, delta: int) -> np.ndarray:
        vec = self._grid(values)
        out = vec.copy()
        if 0 < delta < WARP_SIZE:
            out[:, delta:] = vec[:, :-delta]
        return out

    def shfl_down(self, values, delta: int) -> np.ndarray:
        vec = self._grid(values)
        out = vec.copy()
        if 0 < delta < WARP_SIZE:
            out[:, :-delta] = vec[:, delta:]
        return out

    def shfl_xor(self, values, mask: int) -> np.ndarray:
        vec = self._grid(values)
        return vec[:, np.arange(WARP_SIZE) ^ (mask & (WARP_SIZE - 1))]

    def syncthreads(self) -> None:
        if self._flat and self._active_full:
            self._records.append((REC_SYNC_U,))
            return
        part = self._part_rows()
        if part.size == 0:
            return
        self._records.append((REC_SYNC, part))

    # ------------------------------------------------------------------
    # memory
    # ------------------------------------------------------------------

    def shared(self, name: str, shape, dtype=np.int64) -> CohortSharedView:
        """Per-block shared memory, allocated lazily in schedule order.

        Only warps that reach this call with an active lane allocate (their
        block's) buffer — exactly the warps that would have called
        ``shared`` in the per-warp loop — and ascending row order matches
        the per-warp allocation order.
        """
        part = self._part_rows()
        row_buffers: List[Optional[DeviceBuffer]] = [None] * self._num
        if self._replica_slots is None:
            for r in part:
                row_buffers[r] = self._shared_alloc(
                    int(self._block_ids[r]), name, shape, dtype)
        else:
            # replica batching: each slot allocates from its own device so
            # per-device allocation sequences match the serial runs
            for r in part:
                row_buffers[r] = self._shared_alloc(
                    int(self._replica_slots[r]), int(self._block_ids[r]),
                    name, shape, dtype)
        return CohortSharedView(name=name, row_buffers=row_buffers)

    def load(self, buf, index,
             space: Optional[MemorySpace] = None) -> np.ndarray:
        if isinstance(buf, CohortSharedView):
            return self._shared_load(buf, index, space)
        idx = self._grid(index, np.int64)
        flat, base, itemsize, nelem, buf_space, _, offs = self._buf_view(buf)
        space_value = buf_space if space is None else space.value
        if self._active_full:
            if idx.min() < 0 or idx.max() >= nelem:
                buf.check_bounds(idx)
            addresses = base + idx * itemsize
            self._record_mem_full(space_value, False, addresses)
            return flat[idx] if offs is None else flat[idx + offs]
        active = self._active
        if not active.any():
            return np.zeros(self._shape, dtype=flat.dtype)
        if self._flat:
            self._materialize()
        part = np.flatnonzero(active.any(axis=1))
        if offs is None:
            sel = idx[active]
            buf.check_bounds(sel)
            addresses = [base + idx[r][active[r]] * itemsize for r in part]
        else:
            buf.check_bounds(idx[active])
            sel = (idx + offs)[active]
            addresses = [int(base[r, 0]) + idx[r][active[r]] * itemsize
                         for r in part]
        self._record_mem(part, space_value, False, addresses)
        out = np.zeros(self._shape, dtype=flat.dtype)
        out[active] = flat[sel]
        return out

    def store(self, buf, index, values,
              space: Optional[MemorySpace] = None) -> None:
        if isinstance(buf, CohortSharedView):
            self._shared_store(buf, index, values, space)
            return
        idx = self._grid(index, np.int64)
        vals = self._grid(values)
        flat, base, itemsize, nelem, buf_space, _, offs = self._buf_view(buf)
        space_value = buf_space if space is None else space.value
        if self._active_full:
            if idx.min() < 0 or idx.max() >= nelem:
                buf.check_bounds(idx)
            addresses = base + idx * itemsize
            self._record_mem_full(space_value, True, addresses)
            self._journal.capture(buf)
            # Row-major fancy assignment: rows ascend in schedule order and
            # lanes ascend within a row, so the last (highest) writer wins —
            # the per-warp loop's commit order exactly.  Replica rows write
            # disjoint slot regions, so slot-major row order preserves each
            # replica's own commit order.
            if offs is None:
                flat[idx] = vals.astype(flat.dtype)
            else:
                flat[idx + offs] = vals.astype(flat.dtype)
            return
        active = self._active
        if not active.any():
            return
        if self._flat:
            self._materialize()
        part = np.flatnonzero(active.any(axis=1))
        if offs is None:
            sel = idx[active]
            buf.check_bounds(sel)
            addresses = [base + idx[r][active[r]] * itemsize for r in part]
        else:
            buf.check_bounds(idx[active])
            sel = (idx + offs)[active]
            addresses = [int(base[r, 0]) + idx[r][active[r]] * itemsize
                         for r in part]
        self._record_mem(part, space_value, True, addresses)
        self._journal.capture(buf)
        flat[sel] = vals[active].astype(flat.dtype)

    def atomic_add(self, buf, index, values) -> None:
        if isinstance(buf, CohortSharedView):
            self._shared_atomic_add(buf, index, values)
            return
        idx = self._grid(index, np.int64)
        vals = self._grid(values)
        flat, base, itemsize, nelem, buf_space, _, offs = self._buf_view(buf)
        if self._active_full:
            if idx.min() < 0 or idx.max() >= nelem:
                buf.check_bounds(idx)
            addresses = base + idx * itemsize
            self._record_mem_full(buf_space, True, addresses)
            self._journal.capture(buf)
            # np.add.at applies contributions unbuffered in C (row-major)
            # order: schedule order across warps, lane order within — the
            # same accumulation order as the per-warp loop, which keeps
            # float atomics bit-exact.  Replica slot regions are disjoint,
            # so per-slot accumulation order is preserved as well.
            if offs is None:
                np.add.at(flat, idx, vals.astype(flat.dtype))
            else:
                np.add.at(flat, idx + offs, vals.astype(flat.dtype))
            return
        active = self._active
        if not active.any():
            return
        if self._flat:
            self._materialize()
        part = np.flatnonzero(active.any(axis=1))
        if offs is None:
            sel = idx[active]
            buf.check_bounds(sel)
            addresses = [base + idx[r][active[r]] * itemsize for r in part]
        else:
            buf.check_bounds(idx[active])
            sel = (idx + offs)[active]
            addresses = [int(base[r, 0]) + idx[r][active[r]] * itemsize
                         for r in part]
        self._record_mem(part, buf_space, True, addresses)
        self._journal.capture(buf)
        np.add.at(flat, sel, vals[active].astype(flat.dtype))

    # -- shared-memory variants (per-row buffers) ----------------------

    def _shared_load(self, view: CohortSharedView, index,
                     space: Optional[MemorySpace]) -> np.ndarray:
        if self._flat:
            self._materialize()
        idx = self._grid(index, np.int64)
        active = self._active
        out = np.zeros(self._shape, dtype=view.dtype)
        part_list, addresses, chosen = [], [], None
        for r in range(self._num):
            act = active[r]
            if not act.any():
                continue
            buf = view.row_buffer(r)
            chosen = chosen or buf
            sel = idx[r][act]
            buf.check_bounds(sel)
            addresses.append(buf.base + sel * buf.itemsize)
            part_list.append(r)
            out[r][act] = buf.data.reshape(-1)[sel]
        if part_list:
            space_value = (space if space is not None else chosen.space).value
            self._record_mem(np.asarray(part_list, dtype=np.int64),
                             space_value, False, addresses)
        return out

    def _shared_store(self, view: CohortSharedView, index, values,
                      space: Optional[MemorySpace]) -> None:
        if self._flat:
            self._materialize()
        idx = self._grid(index, np.int64)
        vals = self._grid(values)
        active = self._active
        part_list, addresses, chosen = [], [], None
        for r in range(self._num):
            act = active[r]
            if not act.any():
                continue
            buf = view.row_buffer(r)
            chosen = chosen or buf
            sel = idx[r][act]
            buf.check_bounds(sel)
            addresses.append(buf.base + sel * buf.itemsize)
            part_list.append(r)
            self._journal.capture(buf)
            buf.data.reshape(-1)[sel] = vals[r][act].astype(buf.data.dtype)
        if part_list:
            space_value = (space if space is not None else chosen.space).value
            self._record_mem(np.asarray(part_list, dtype=np.int64),
                             space_value, True, addresses)

    def _shared_atomic_add(self, view: CohortSharedView, index,
                           values) -> None:
        if self._flat:
            self._materialize()
        idx = self._grid(index, np.int64)
        vals = self._grid(values)
        active = self._active
        part_list, addresses, chosen = [], [], None
        for r in range(self._num):
            act = active[r]
            if not act.any():
                continue
            buf = view.row_buffer(r)
            chosen = chosen or buf
            sel = idx[r][act]
            buf.check_bounds(sel)
            addresses.append(buf.base + sel * buf.itemsize)
            part_list.append(r)
            self._journal.capture(buf)
            np.add.at(buf.data.reshape(-1), sel,
                      vals[r][act].astype(buf.data.dtype))
        if part_list:
            self._record_mem(np.asarray(part_list, dtype=np.int64),
                             chosen.space.value, True, addresses)

    # -- record plumbing ----------------------------------------------

    def _record_mem_full(self, space_value: int, is_store: bool,
                         addresses: np.ndarray) -> None:
        if self._flat:
            if self._u_label < 0:
                raise SimtDivergenceError(
                    "memory access outside any basic block: "
                    "call k.block() first")
            self._records.append((REC_MEM_U, self._u_label, self._u_visit,
                                  self._u_instr, space_value, is_store,
                                  addresses))
            self._u_instr += 1
            return
        part = self._all_rows
        labels = self._current_label[part]
        if labels.min() < 0:
            raise SimtDivergenceError(
                "memory access outside any basic block: call k.block() first")
        self._records.append((REC_MEM, part, labels, self._current_visit[part],
                              self._instr_ordinal[part], space_value,
                              is_store, addresses))
        self._instr_ordinal += 1

    def _record_mem(self, part: np.ndarray, space_value: int,
                    is_store: bool,
                    addresses: List[np.ndarray]) -> None:
        labels = self._current_label[part]
        if labels.min() < 0:
            raise SimtDivergenceError(
                "memory access outside any basic block: call k.block() first")
        self._records.append((REC_MEM, part, labels, self._current_visit[part],
                              self._instr_ordinal[part], space_value,
                              is_store, addresses))
        self._instr_ordinal[part] += 1

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------

    def replay_events(self) -> Dict[int, tuple]:
        """Re-expand the record list into per-warp event streams.

        Returns ``{global_schedule_position: (events, batch)}`` for every
        row of the cohort.  ``events`` is the warp's in-order list of
        :class:`BasicBlockEvent` / :class:`SyncEvent` (plus
        :class:`MemoryAccessEvent` when not columnar); ``batch`` is the
        warp's single :class:`MemoryBatchEvent` (columnar mode, None when
        the warp issued no memory instruction).  Emitting row streams in
        schedule order reproduces the per-warp loop's global event stream
        byte for byte.
        """
        num = self._num
        labels = self._labels
        block_ids = self._block_ids
        warp_ids = self._warp_ids
        columnar = self._columnar
        events: List[List] = [[] for _ in range(num)]
        if columnar:
            col_label_index: List[Dict[str, int]] = [{} for _ in range(num)]
            col_labels: List[List[str]] = [[] for _ in range(num)]
            col_rows: List[List[tuple]] = [[] for _ in range(num)]
            col_addresses: List[List[np.ndarray]] = [[] for _ in range(num)]
            # while only uniform memory records have been replayed, every
            # row's label table is identical, so uniform records can share
            # one interning step and one row tuple across all rows
            shared_tables = num > 0

        def add_mem(r: int, label: str, visit: int, instr: int,
                    space_value: int, is_store: bool,
                    addresses: np.ndarray) -> None:
            if columnar:
                lidx = col_label_index[r].get(label)
                if lidx is None:
                    lidx = len(col_labels[r])
                    col_label_index[r][label] = lidx
                    col_labels[r].append(label)
                col_rows[r].append((lidx, visit, instr, space_value,
                                    is_store))
                col_addresses[r].append(addresses)
            else:
                events[r].append(MemoryAccessEvent.from_array(
                    block_id=int(block_ids[r]), warp_id=int(warp_ids[r]),
                    label=label, visit=visit, instr=instr,
                    space=MemorySpace(space_value), is_store=is_store,
                    addresses=addresses))

        for record in self._records:
            tag = record[0]
            if tag == REC_BB_U:
                _, lid, visit = record
                label = labels[lid]
                for r in range(num):
                    events[r].append(BasicBlockEvent(
                        block_id=int(block_ids[r]),
                        warp_id=int(warp_ids[r]), label=label, visit=visit,
                        active_lanes=WARP_SIZE))
            elif tag == REC_MEM_U:
                _, lid, visit, instr, space_value, is_store, addrs = record
                label = labels[lid]
                if columnar and shared_tables:
                    lidx = col_label_index[0].get(label)
                    if lidx is None:
                        lidx = len(col_labels[0])
                        for r in range(num):
                            col_label_index[r][label] = lidx
                            col_labels[r].append(label)
                    row = (lidx, visit, instr, space_value, is_store)
                    for r in range(num):
                        col_rows[r].append(row)
                        col_addresses[r].append(addrs[r])
                else:
                    for r in range(num):
                        add_mem(r, label, visit, instr, space_value,
                                is_store, addrs[r])
            elif tag == REC_BB:
                _, part, lid, visits, counts = record
                label = labels[lid]
                for i in range(part.shape[0]):
                    r = int(part[i])
                    events[r].append(BasicBlockEvent(
                        block_id=int(block_ids[r]),
                        warp_id=int(warp_ids[r]), label=label,
                        visit=int(visits[i]),
                        active_lanes=int(counts[i])))
            elif tag == REC_MEM:
                (_, part, lids, visits, instrs, space_value, is_store,
                 addrs) = record
                if columnar:
                    # member rows intern labels the others do not see; the
                    # per-row tables may diverge from here on
                    shared_tables = False
                for i in range(part.shape[0]):
                    r = int(part[i])
                    add_mem(r, labels[int(lids[i])], int(visits[i]),
                            int(instrs[i]), space_value, is_store, addrs[i])
            elif tag == REC_SYNC_U:
                for r in range(num):
                    events[r].append(SyncEvent(
                        block_id=int(block_ids[r]),
                        warp_id=int(warp_ids[r])))
            else:  # REC_SYNC
                _, part = record
                for i in range(part.shape[0]):
                    r = int(part[i])
                    events[r].append(SyncEvent(
                        block_id=int(block_ids[r]),
                        warp_id=int(warp_ids[r])))

        payloads: Dict[int, tuple] = {}
        for r in range(num):
            batch = None
            if columnar and col_rows[r]:
                label_ids, visits, instrs, spaces, stores = zip(*col_rows[r])
                chunks = col_addresses[r]
                sizes = np.fromiter((chunk.shape[0] for chunk in chunks),
                                    dtype=np.int64, count=len(chunks))
                extents = np.zeros(sizes.size + 1, dtype=np.int64)
                np.cumsum(sizes, out=extents[1:])
                batch = MemoryBatchEvent(
                    block_id=int(block_ids[r]), warp_id=int(warp_ids[r]),
                    labels=tuple(col_labels[r]),
                    label_ids=np.asarray(label_ids, dtype=np.int32),
                    visits=np.asarray(visits, dtype=np.int32),
                    instrs=np.asarray(instrs, dtype=np.int32),
                    spaces=np.asarray(spaces, dtype=np.uint8),
                    is_stores=np.asarray(stores, dtype=bool),
                    addresses=np.concatenate(chunks),
                    extents=extents)
            payloads[int(self._rows[r])] = (events[r], batch)
        return payloads
