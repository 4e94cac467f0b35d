"""Fold per-warp trace events into a single A-DCFG.

The builder consumes the event stream of one kernel invocation — basic-block
entries and memory accesses tagged with ``(block id, warp id)`` — and
aggregates all warps into one graph, eliminating the per-thread redundancy
that makes naive multi-thread tracing (à la DATA) blow up in memory.

Per warp, the builder tracks the previous basic block so it can record
edges with their predecessor-edge histogram.  Warp entry and exit are
bracketed with the virtual :data:`~repro.adcfg.graph.START_LABEL` /
:data:`~repro.adcfg.graph.END_LABEL` blocks (the paper treats the first
``src`` and last ``dst`` as a special basic-block type).

:func:`fold_lane_grid` builds the same graphs without any events: it reads
a fused replica launch's cohort records (one lane grid holding every
member's warps) and folds them once for all members.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.adcfg.graph import ADCFG, END_LABEL, START_LABEL, AddressKey
from repro.adcfg.serialize import size_from_counts, string_entry_bytes
from repro.gpusim.cohort import (
    REC_BB,
    REC_BB_U,
    REC_MEM,
    REC_MEM_U,
)
from repro.gpusim.events import (
    BasicBlockEvent,
    MemoryAccessEvent,
    MemoryBatchEvent,
)

#: Maps a raw device byte address to a normalised (label, offset) key.
Normalizer = Callable[[int], AddressKey]

#: Maps a whole address array to its normalised keys in one call.
BatchNormalizer = Callable[[np.ndarray], List[AddressKey]]

#: Maps a whole address array to interned key ids plus the id → key table
#: (may return None when the packed representation cannot hold the keys).
KeyIdNormalizer = Callable[
    [np.ndarray], Optional[Tuple[np.ndarray, List[AddressKey]]]]


def identity_normalizer(address: int) -> AddressKey:
    """Fallback normaliser: keep raw addresses (single anonymous region)."""
    return ("<raw>", address)


class ADCFGBuilder:
    """Incremental A-DCFG construction for one kernel invocation."""

    def __init__(self, kernel_identity: str, kernel_name: str = "",
                 total_threads: int = 0, num_warps: int = 0,
                 normalizer: Optional[Normalizer] = None,
                 batch_normalizer: Optional[BatchNormalizer] = None,
                 key_id_normalizer: Optional[KeyIdNormalizer] = None) -> None:
        self.graph = ADCFG(kernel_identity=kernel_identity,
                           kernel_name=kernel_name,
                           total_threads=total_threads, num_warps=num_warps)
        self._normalizer = normalizer or identity_normalizer
        self._batch_normalizer = batch_normalizer
        self._key_id_normalizer = key_id_normalizer
        # per-warp control-flow context: (prev_prev_label, prev_label)
        self._warp_state: Dict[Tuple[int, int], Tuple[str, str]] = {}
        # columnar batches buffered for the kernel-wide fold
        self._pending_batches: List[MemoryBatchEvent] = []

    # ------------------------------------------------------------------
    # event intake
    # ------------------------------------------------------------------

    def on_basic_block(self, event: BasicBlockEvent) -> None:
        """Record a warp's entry into a basic block."""
        warp_key = (event.block_id, event.warp_id)
        prev_prev, prev = self._warp_state.get(warp_key,
                                               (START_LABEL, START_LABEL))
        node = self.graph.node(event.label)
        node.record_entry()
        edge = self.graph.edge(prev, event.label)
        edge.record(prev_src=prev_prev)
        self._warp_state[warp_key] = (prev, event.label)

    def on_memory_access(self, event: MemoryAccessEvent) -> None:
        """Record a warp's memory instruction into its (visit, instr) slot."""
        node = self.graph.node(event.label)
        keys = [self._normalizer(address) for address in event.addresses]
        node.record_access(visit=event.visit, instr=event.instr,
                           space=event.space.value, is_store=event.is_store,
                           keys=keys)

    def on_memory_batch(self, event: MemoryBatchEvent) -> None:
        """Buffer one warp's columnar memory batch for the kernel-wide fold.

        Batches are not folded as they arrive: they accumulate until
        :meth:`fold_pending_batches` (called by :meth:`finish`) collapses
        every warp of the invocation in a single vectorised pass.  Folding
        kernel-wide instead of per warp means each ``(visit, instr)`` slot
        is written exactly once — the counts dict is built with one
        ``dict(zip(...))`` instead of one get-and-add per key per warp —
        and addresses shared between warps (lookup tables, broadcast
        buffers) are normalised and counted once.  The result is identical
        to folding each batch on arrival (asserted by the equality tests).
        """
        self._pending_batches.append(event)

    def take_pending_batches(self) -> List[MemoryBatchEvent]:
        """Hand back (and clear) the buffered batches.

        Degradation hook: when the kernel-wide fold fails, the monitor
        takes the untouched batches and replays them per event.
        """
        batches = self._pending_batches
        self._pending_batches = []
        return batches

    def fold_pending_batches(self) -> None:
        """Fold every buffered batch into the graph in one vectorised pass.

        All warps' instruction slots are interned into one table, the
        concatenated ``(slot, address)`` pairs collapse to unique pairs
        with multiplicities through one packed sort, and the unique
        addresses of the whole kernel are normalised with a single
        batch-normaliser call.  Each populated slot then receives exactly
        one :meth:`~repro.adcfg.graph.Node.record_access_bulk` call.  Any
        failure happens before the graph is touched (packing, sorting and
        normalisation all precede the apply loop), so the caller can fall
        back to per-event replay from a clean slate; the buffer is cleared
        only on success.
        """
        batches = [event for event in self._pending_batches
                   if event.addresses.shape[0] > 0]
        if not batches:
            self._pending_batches = []
            return
        label_table: List[str] = []
        label_index: Dict[str, int] = {}
        glabel_parts = []
        for event in batches:
            ids = []
            for label in event.labels:
                idx = label_index.get(label)
                if idx is None:
                    idx = label_index[label] = len(label_table)
                    label_table.append(label)
                ids.append(idx)
            glabel_parts.append(
                np.asarray(ids, dtype=np.int64)[event.label_ids])
        glabels = np.concatenate(glabel_parts)
        visits = np.concatenate(
            [e.visits for e in batches]).astype(np.int64, copy=False)
        instrs = np.concatenate(
            [e.instrs for e in batches]).astype(np.int64, copy=False)
        spaces = np.concatenate(
            [e.spaces for e in batches]).astype(np.int64, copy=False)
        stores = np.concatenate(
            [e.is_stores for e in batches]).astype(np.int64, copy=False)
        visit_span = int(visits.max()) + 1
        instr_span = int(instrs.max()) + 1
        if len(label_table) * visit_span * instr_span >= 2 ** 63:
            # slot packing would overflow int64 (absurd visit/instr counts);
            # fall back to folding each batch separately
            for event in batches:
                self._fold_single_batch(event)
            self._pending_batches = []
            return
        packed_slot = (glabels * visit_span + visits) * instr_span + instrs
        slot_keys, slot_ids = np.unique(packed_slot, return_inverse=True)
        n_slots = int(slot_keys.shape[0])
        slot_space = np.zeros(n_slots, dtype=np.int64)
        slot_space[slot_ids] = spaces
        slot_store = np.zeros(n_slots, dtype=np.int64)
        slot_store[slot_ids] = stores
        slot_glabel = (slot_keys // (visit_span * instr_span)).tolist()
        slot_visit = (slot_keys // instr_span % visit_span).tolist()
        slot_instr = (slot_keys % instr_span).tolist()

        addresses = np.concatenate([e.addresses for e in batches])
        lane_counts = np.concatenate([np.diff(e.extents) for e in batches])
        slot_of_addr = np.repeat(slot_ids, lane_counts)
        total = addresses.shape[0]
        low = int(addresses.min())
        span = int(addresses.max()) - low + 1
        if n_slots * span < 2 ** 63:
            packed = slot_of_addr * span + (addresses - low)
            packed.sort()
            run_start = np.empty(total, dtype=bool)
            run_start[0] = True
            run_start[1:] = packed[1:] != packed[:-1]
            starts = np.flatnonzero(run_start)
            unique_packed = packed[starts]
            unique_slot = unique_packed // span
            unique_addr = unique_packed % span + low
        else:
            order = np.lexsort((addresses, slot_of_addr))
            sorted_addr = addresses[order]
            sorted_slot = slot_of_addr[order]
            run_start = np.empty(total, dtype=bool)
            run_start[0] = True
            run_start[1:] = ((sorted_addr[1:] != sorted_addr[:-1])
                             | (sorted_slot[1:] != sorted_slot[:-1]))
            starts = np.flatnonzero(run_start)
            unique_addr = sorted_addr[starts]
            unique_slot = sorted_slot[starts]
        counts = np.diff(starts, append=total)
        # normalise each pair's address to an interned key id.  Address →
        # key is only injective within a block — shared memory maps offset
        # 0 of every block to the same key — so kernel-wide pairs must
        # re-aggregate by key id before the per-slot dict fold
        ids_result = (self._key_id_normalizer(unique_addr)
                      if self._key_id_normalizer is not None else None)
        if ids_result is not None:
            pair_key_ids, key_objects = ids_result
        else:
            addr_vals, val_inv = np.unique(unique_addr, return_inverse=True)
            if self._batch_normalizer is not None:
                val_keys = self._batch_normalizer(addr_vals)
            else:
                val_keys = [self._normalizer(address)
                            for address in addr_vals.tolist()]
            key_index: Dict[AddressKey, int] = {}
            key_objects = []
            val_key_ids = np.empty(len(val_keys), dtype=np.int64)
            for i, key in enumerate(val_keys):
                kid = key_index.get(key)
                if kid is None:
                    kid = key_index[key] = len(key_objects)
                    key_objects.append(key)
                val_key_ids[i] = kid
            pair_key_ids = val_key_ids[val_inv]
        n_keys = len(key_objects)
        if n_slots * n_keys >= 2 ** 63:
            for event in batches:
                self._fold_single_batch(event)
            self._pending_batches = []
            return
        pair_packed = unique_slot * n_keys + pair_key_ids
        order = np.argsort(pair_packed)
        sorted_pairs = pair_packed[order]
        pair_start = np.empty(sorted_pairs.shape[0], dtype=bool)
        pair_start[0] = True
        pair_start[1:] = sorted_pairs[1:] != sorted_pairs[:-1]
        pair_starts = np.flatnonzero(pair_start)
        agg_counts = np.add.reduceat(counts[order], pair_starts).tolist()
        agg_pairs = sorted_pairs[pair_starts]
        agg_slot = agg_pairs // n_keys
        agg_key_ids = (agg_pairs % n_keys).tolist()
        bounds = np.searchsorted(agg_slot,
                                 np.arange(n_slots + 1)).tolist()
        node = self.graph.node
        for sid in range(n_slots):
            lo, hi = bounds[sid], bounds[sid + 1]
            node(label_table[slot_glabel[sid]]).record_access_bulk(
                visit=slot_visit[sid], instr=slot_instr[sid],
                space=int(slot_space[sid]), is_store=bool(slot_store[sid]),
                keys=[key_objects[k] for k in agg_key_ids[lo:hi]],
                counts=agg_counts[lo:hi])
        self._pending_batches = []

    def _fold_single_batch(self, event: MemoryBatchEvent) -> None:
        """Fold one warp's batch immediately (kernel-wide fold fallback).

        The original per-batch fold: one ``lexsort`` over
        ``(instruction, address)`` groups every instruction's repeated
        addresses into runs, the run starts yield unique pairs with
        multiplicities, and the unique addresses are normalised with a
        single batch-normaliser call.
        """
        addresses = event.addresses
        extents = event.extents
        n_instr = event.num_instructions
        total = addresses.shape[0]
        if total == 0:
            return
        instr_of_addr = np.repeat(np.arange(n_instr), np.diff(extents))
        low = int(addresses.min())
        span = int(addresses.max()) - low + 1
        if n_instr * span < 2 ** 63:
            # Pack (instruction, address) into one int64 and sort the packed
            # values directly — one non-stable value sort instead of
            # lexsort's two stable argsorts (equal keys are identical pairs,
            # so stability is irrelevant), and the unique pairs unpack
            # straight from the sorted keys.
            packed = instr_of_addr * span + (addresses - low)
            packed.sort()
            run_start = np.empty(total, dtype=bool)
            run_start[0] = True
            run_start[1:] = packed[1:] != packed[:-1]
            starts = np.flatnonzero(run_start)
            unique_packed = packed[starts]
            unique_instr = unique_packed // span
            unique_addr = unique_packed % span + low
        else:
            order = np.lexsort((addresses, instr_of_addr))
            sorted_addr = addresses[order]
            sorted_instr = instr_of_addr[order]
            run_start = np.empty(total, dtype=bool)
            run_start[0] = True
            run_start[1:] = ((sorted_addr[1:] != sorted_addr[:-1])
                             | (sorted_instr[1:] != sorted_instr[:-1]))
            starts = np.flatnonzero(run_start)
            unique_addr = sorted_addr[starts]
            unique_instr = sorted_instr[starts]
        counts = np.diff(starts, append=total).tolist()
        if self._batch_normalizer is not None:
            keys = self._batch_normalizer(unique_addr)
        else:
            keys = [self._normalizer(address)
                    for address in unique_addr.tolist()]
        # slice boundaries of each instruction's unique keys
        bounds = np.searchsorted(unique_instr,
                                 np.arange(n_instr + 1)).tolist()

        labels = event.labels
        label_ids = event.label_ids.tolist()
        visits = event.visits.tolist()
        instrs = event.instrs.tolist()
        spaces = event.spaces.tolist()
        stores = event.is_stores.tolist()
        node = self.graph.node
        # one node lookup per distinct label, not per instruction
        nodes = [node(label) for label in labels]
        for i, label_id in enumerate(label_ids):
            lo, hi = bounds[i], bounds[i + 1]
            nodes[label_id].record_access_bulk(
                visit=visits[i], instr=instrs[i], space=spaces[i],
                is_store=stores[i], keys=keys[lo:hi], counts=counts[lo:hi])

    # ------------------------------------------------------------------
    # finalisation
    # ------------------------------------------------------------------

    def finish(self) -> ADCFG:
        """Close every warp's trace with the virtual END block and return
        the completed graph."""
        self.fold_pending_batches()
        for (prev_prev, prev) in self._warp_state.values():
            self.graph.edge(prev, END_LABEL).record(prev_src=prev_prev)
        self._warp_state = {}
        return self.graph


# ----------------------------------------------------------------------
# fused replica launches: one fold from the lane grid
# ----------------------------------------------------------------------

#: a normalised key packs as ``label id << _OFFSET_BITS | offset``, the
#: packing :meth:`repro.host.tracer.HostTracer.normalize_key_ids` uses
_OFFSET_BITS = 40
_OFFSET_MASK = (1 << _OFFSET_BITS) - 1

#: memory records are counted in chunks of about this many addresses: big
#: enough to amortise the per-pass overhead over small records, small
#: enough to keep the temporaries to a few MiB
_CHUNK_ADDRESSES = 1 << 16


class ReplicaLayout(NamedTuple):
    """One replica's allocation table, as :func:`fold_lane_grid` reads it."""

    #: the replica's own ``DeviceMemory.resolve_batch``
    resolve: Callable[[np.ndarray], Tuple[list, np.ndarray, np.ndarray]]
    #: base-sorted allocation bases and ends (``DeviceMemory.lookup_table``)
    bases: np.ndarray
    ends: np.ndarray
    #: session label id of each allocation (``HostTracer.label_ids``)
    label_ids: np.ndarray
    #: label of each session label id (``HostTracer.labels``)
    labels: Sequence[str]


class _NotFoldable(Exception):
    """The launch is outside what :func:`fold_lane_grid` reproduces."""


def fold_lane_grid(kernel_name: str, total_threads: int, num_warps: int,
                   attempts: Sequence, layouts: Sequence[ReplicaLayout]
                   ) -> Optional["LaneGridFold"]:
    """Fold one fused replica launch for every member at once.

    *attempts* are the launch's completed cohort attempts
    (:class:`~repro.gpusim.cohort.CohortContext`: records, labels and the
    replica slot of each row); together their rows cover every warp of
    every member once.  *layouts* holds each member's allocation table, in
    replica-slot order.  The returned :class:`LaneGridFold` holds the
    members' graphs as unique, counted NumPy rows; its graphs equal, graph
    for graph and down to the order of each memory record's keys, what
    each member's monitor folds from the per-warp event streams that
    :meth:`~repro.gpusim.cohort.CohortContext.replay_events` re-expands —
    without expanding anything per warp:

    * basic-block records give each member's node entries and its
      ``(previous edge, edge)`` counts, from per-row control-flow state;
    * memory records are counted in bounded chunks of whole records into
      unique ``(slot, member, address)`` triples (a bincount over a small
      packed range, else a sort), whose addresses resolve against the
      member's own allocation table; aliased addresses (shared memory of
      different blocks) re-aggregate by normalised key;
    * every distinct ``(label, offset)`` key tuple is built once for the
      whole group, not once per member.

    Wild addresses raise :class:`~repro.gpusim.memory.AllocationError`.
    Returns None for a launch this fold does not reproduce exactly — the
    members' session label ids disagree, one ``(block, visit, instr)``
    slot mixes memory spaces or loads with stores, or keys or a chunk's
    address range would not pack into 64 bits; the caller then replays
    the per-warp streams instead.
    """
    try:
        fold = LaneGridFold(layouts)
        for ctx in attempts:
            fold.add_attempt(ctx)
        fold.finish(kernel_name, total_threads, num_warps)
        return fold
    except _NotFoldable:
        return None


class LaneGridFold:
    """One fused launch folded for all its members (:func:`fold_lane_grid`).

    Once finished it holds two tables of unique, counted rows:
    control-flow transitions ``(member, label, prev, prev_prev)`` and
    memory entries ``(slot, member, key)``.  :meth:`graphs` builds graphs
    from them, each of one member or summed over several, and
    :meth:`sizes` each member's serialised size without building any
    graph.
    """

    def __init__(self, layouts: Sequence[ReplicaLayout]) -> None:
        self._layouts = layouts
        members = self.members = len(layouts)
        self._low = np.fromiter(
            (int(lay.bases[0]) if lay.bases.size else 0 for lay in layouts),
            dtype=np.int64, count=members)
        # members whose tables match up to a slide (ASLR) share one
        # resolver: their addresses relative to the lowest base agree
        classes: Dict[Tuple[bytes, ...], int] = {}
        member_class = []
        self._reps: List[int] = []
        names: List[str] = []
        for member, lay in enumerate(layouts):
            if lay.bases.size and (int((lay.ends - lay.bases).max())
                                   > _OFFSET_MASK):
                raise _NotFoldable("allocation too large to pack")
            low = self._low[member]
            signature = ((lay.bases - low).tobytes(),
                         (lay.ends - low).tobytes(), lay.label_ids.tobytes())
            cls = classes.get(signature)
            if cls is None:
                cls = classes[signature] = len(self._reps)
                self._reps.append(member)
            member_class.append(cls)
            labels = list(lay.labels)
            shared = min(len(names), len(labels))
            if labels[:shared] != names[:shared]:
                raise _NotFoldable("members disagree on label ids")
            if len(labels) > len(names):
                names = labels
        self._member_class = np.asarray(member_class, dtype=np.int64)
        self._names = names
        if len(names) >= 1 << (63 - _OFFSET_BITS):
            raise _NotFoldable("too many labels to pack")
        # label ids ascending along the base-sorted table: no label repeats
        # (so no aliasing) and key order equals address order
        self._monotone = all(
            bool(np.all(np.diff(layouts[rep].label_ids) > 0))
            for rep in self._reps)
        self._label_index: Dict[str, int] = {}
        self._label_names: List[str] = []
        self._slot_index: Dict[Tuple[int, int, int], int] = {}
        #: slot id -> (label id, visit, instr, space, is_store)
        self._slots: List[Tuple[int, int, int, int, bool]] = []
        self._slot_sources: List[int] = []
        #: memory records awaiting their chunk: (row members, addresses,
        #: addresses per row, slot) — see :meth:`_stage`
        self._pending: List[tuple] = []
        self._pending_addresses = 0
        #: memory entries per chunk: (slot ids, members, keys, counts),
        #: each sorted by (slot, member, key) and unique
        self._entries: List[Tuple[np.ndarray, ...]] = []
        #: control-flow transitions: (member, label, prev, prev_prev, count)
        self._flow: List[Tuple[np.ndarray, ...]] = []
        #: the finished tables (see :meth:`finish`)
        self._flow_rows: Tuple[np.ndarray, ...] = ()
        self._memory: Tuple[np.ndarray, ...] = ()
        #: sorted distinct packed keys of ``_memory`` and their key tuples,
        #: built once for the whole group when first needed
        self._key_values = np.empty(0, dtype=np.int64)
        self._key_objects: Optional[np.ndarray] = None

    # -- interning ------------------------------------------------------

    def _label(self, label: str) -> int:
        lid = self._label_index.get(label)
        if lid is None:
            lid = self._label_index[label] = len(self._label_names)
            self._label_names.append(label)
        return lid

    def _slot(self, label: int, visit: int, instr: int, space: int,
              is_store: bool) -> int:
        key = (label, visit, instr)
        sid = self._slot_index.get(key)
        if sid is None:
            sid = self._slot_index[key] = len(self._slots)
            self._slots.append((label, visit, instr, space, is_store))
            self._slot_sources.append(0)
        elif self._slots[sid][3:] != (space, is_store):
            raise _NotFoldable("one slot mixes spaces or loads and stores")
        self._slot_sources[sid] += 1
        return sid

    # -- one attempt ----------------------------------------------------

    def add_attempt(self, ctx) -> None:
        labels = np.asarray([self._label(label) for label in ctx.labels],
                            dtype=np.int64)
        row_members = ctx.replica_slots
        # control flow shifts label ids by one: 0 is the virtual START
        self._add_flow(ctx.records, labels + 1, row_members)
        for record in ctx.records:
            tag = record[0]
            if tag == REC_MEM_U:
                _, lid, visit, instr, space, is_store, addrs = record
                self._stage(row_members, addrs, None, self._slot(
                    int(labels[lid]), visit, instr, space, bool(is_store)))
            elif tag == REC_MEM:
                _, part, lids, visits, instrs, space, is_store, addrs = record
                lane_counts = None
                if not isinstance(addrs, np.ndarray):
                    lane_counts = np.fromiter(
                        (row.shape[0] for row in addrs), dtype=np.int64,
                        count=len(addrs))
                    addrs = np.concatenate(addrs)
                self._stage(row_members[part], addrs, lane_counts,
                            (labels[lids], visits, instrs, space,
                             bool(is_store)))

    def _add_flow(self, records, lmap: np.ndarray,
                  row_members: np.ndarray) -> None:
        """Warp transitions of one attempt, as ``_flow`` arrays.

        While the attempt is flat every row shares one control-flow state,
        so a transition counts once per member row; after the first
        per-row record the state is one array per row.
        """
        rows = row_members.shape[0]
        per_member = np.bincount(row_members, minlength=self.members)
        present = np.flatnonzero(per_member)
        weights = per_member[present]
        ones = np.ones(rows, dtype=np.int64)
        prev_prev = prev = 0
        rows_prev_prev = rows_prev = None
        flow = self._flow

        def uniform(label: int) -> None:
            flow.append((present, np.full(present.shape[0], label),
                         np.full(present.shape[0], prev),
                         np.full(present.shape[0], prev_prev), weights))

        for record in records:
            tag = record[0]
            if tag == REC_BB_U:
                label = int(lmap[record[1]])
                uniform(label)
                prev_prev, prev = prev, label
            elif tag == REC_BB:
                if rows_prev is None:
                    rows_prev_prev = np.full(rows, prev_prev, dtype=np.int64)
                    rows_prev = np.full(rows, prev, dtype=np.int64)
                part = record[1]
                label = int(lmap[record[2]])
                moved = rows_prev[part]
                flow.append((row_members[part],
                             np.full(part.shape[0], label), moved,
                             rows_prev_prev[part], ones[:part.shape[0]]))
                rows_prev_prev[part] = moved
                rows_prev[part] = label
        # warp exit: -1 stands for the virtual END until labels are final
        if rows_prev is None:
            if prev != 0:
                uniform(-1)
        else:
            done = np.flatnonzero(rows_prev)
            flow.append((row_members[done], np.full(done.shape[0], -1),
                         rows_prev[done], rows_prev_prev[done],
                         ones[:done.shape[0]]))

    def _stage(self, members: np.ndarray, addresses: np.ndarray,
               lane_counts: Optional[np.ndarray], slot) -> None:
        """Queue one memory record for the current chunk.

        Row *i* of the record is a warp of member ``members[i]``;
        *addresses* is a ``(rows, lanes)`` grid, or flat with *lane_counts*
        per row.  *slot* is the record's slot id, or — when its rows may sit
        in different slots — per-row ``(labels, visits, instrs)`` plus the
        record's space and store flag, interned at :meth:`flush`.
        """
        if lane_counts is None:
            lane_counts = np.full(members.shape[0], addresses.shape[1])
            addresses = addresses.ravel()
        self._pending.append((members, addresses, lane_counts, slot))
        self._pending_addresses += addresses.shape[0]
        if self._pending_addresses >= _CHUNK_ADDRESSES:
            self.flush()

    def _row_slots(self, slots: Sequence, rows: List[int]) -> np.ndarray:
        """Slot id of every queued row, in queue order.

        Records with per-row slots are interned together: one unique pass
        over ``(record, label, visit, instr)`` finds the distinct slots of
        every record, so each record still counts once per slot it fills.
        """
        rows = np.asarray(rows, dtype=np.int64)
        record_slots = np.fromiter(
            (slot if isinstance(slot, int) else -1 for slot in slots),
            dtype=np.int64, count=len(slots))
        row_slots = np.repeat(record_slots, rows)
        per_row = np.flatnonzero(record_slots < 0).tolist()
        if not per_row:
            return row_slots
        labels, visits, instrs = (np.concatenate([slots[i][k]
                                                  for i in per_row])
                                  for k in range(3))
        record = np.repeat(np.arange(len(per_row)), rows[per_row])
        label_span = int(labels.max()) + 1
        visit_span = int(visits.max()) + 1
        instr_span = int(instrs.max()) + 1
        combos, inverse = np.unique(
            ((record * label_span + labels) * visit_span + visits)
            * instr_span + instrs, return_inverse=True)
        ids = []
        for combo in combos.tolist():
            combo, instr = divmod(combo, instr_span)
            combo, visit = divmod(combo, visit_span)
            index, label = divmod(combo, label_span)
            _, _, _, space, is_store = slots[per_row[index]]
            ids.append(self._slot(label, visit, instr, space, is_store))
        row_slots[row_slots < 0] = np.asarray(ids, dtype=np.int64)[inverse]
        return row_slots

    def flush(self) -> None:
        """Count the queued records into unique, keyed entries."""
        if not self._pending:
            return
        member_parts, address_parts, lane_parts, slots = zip(*self._pending)
        self._pending, self._pending_addresses = [], 0
        members = self.members
        row_slots = self._row_slots(slots,
                                    [part.shape[0] for part in member_parts])
        row_members = np.concatenate(member_parts)
        lane_counts = np.concatenate(lane_parts)
        owner = np.repeat(row_slots * members + row_members, lane_counts)
        rel = (np.concatenate(address_parts)
               - np.repeat(self._low[row_members], lane_counts))
        first = int(owner.min())
        low = int(rel.min())
        span = int(rel.max()) - low + 1
        codes = (int(owner.max()) - first + 1) * span
        if codes >= 2 ** 62:
            raise _NotFoldable("addresses too far apart to pack")
        code = (owner - first) * span + (rel - low)
        if codes <= 2 * code.shape[0]:
            hist = np.bincount(code)
            unique = np.flatnonzero(hist)
            counts = hist[unique]
        else:
            code.sort()
            starts = np.flatnonzero(np.concatenate(
                ([True], code[1:] != code[:-1])))
            unique = code[starts]
            counts = np.diff(starts, append=code.shape[0])
        addr = unique % span + low
        owner = unique // span + first
        member = owner % members
        slot = owner // members
        keys = self._keys(member, addr)
        if not self._monotone:
            # aliased or reordered keys: re-aggregate by (slot, member, key)
            key_values, dense = np.unique(keys, return_inverse=True)
            regroup = (owner - first) * key_values.shape[0] + dense
            order = np.argsort(regroup, kind="stable")
            regroup = regroup[order]
            starts = np.flatnonzero(np.concatenate(
                ([True], regroup[1:] != regroup[:-1])))
            counts = np.add.reduceat(counts[order], starts)
            member = member[order][starts]
            slot = slot[order][starts]
            keys = keys[order][starts]
        self._entries.append((slot, member, keys, counts))

    def _keys(self, member: np.ndarray, addr: np.ndarray) -> np.ndarray:
        """Packed normalised keys of member-relative addresses."""
        layouts, low = self._layouts, self._low
        if len(self._reps) == 1:
            rep = self._reps[0]
            _allocs, index, offsets = layouts[rep].resolve(addr + low[rep])
            return (layouts[rep].label_ids[index] << _OFFSET_BITS) | offsets
        keys = np.empty(addr.shape[0], dtype=np.int64)
        classes = self._member_class[member]
        for cls, rep in enumerate(self._reps):
            chosen = np.flatnonzero(classes == cls)
            if chosen.size:
                _allocs, index, offsets = layouts[rep].resolve(
                    addr[chosen] + low[rep])
                keys[chosen] = ((layouts[rep].label_ids[index]
                                 << _OFFSET_BITS) | offsets)
        return keys

    # -- the finished tables -------------------------------------------

    def finish(self, kernel_name: str, total_threads: int,
               num_warps: int) -> None:
        """Count the last chunk and reduce both tables to unique rows."""
        self.flush()
        self._kernel_name = kernel_name
        self._total_threads = total_threads
        self._num_warps = num_warps
        self._finish_flow()
        self._finish_memory()

    def _finish_flow(self) -> None:
        names = self._flow_names = [START_LABEL, *self._label_names,
                                    END_LABEL]
        if not self._flow:
            self._flow_rows = (np.empty(0, dtype=np.int64),) * 5
            return
        span = len(names)
        if self.members * span ** 3 >= 2 ** 63:
            raise _NotFoldable("too many labels to pack transitions")
        member, label, prev, prev_prev, counts = (
            np.concatenate(column) for column in zip(*self._flow))
        self._flow = []
        label = np.where(label < 0, span - 1, label)
        code = ((member * span + label) * span + prev) * span + prev_prev
        order = np.argsort(code, kind="stable")
        code = code[order]
        starts = _run_starts(code)
        counts = np.add.reduceat(counts[order], starts)
        code, prev_prev = np.divmod(code[starts], span)
        code, prev = np.divmod(code, span)
        member, label = np.divmod(code, span)
        self._flow_rows = (member, label, prev, prev_prev, counts)

    def _finish_memory(self) -> None:
        if not self._entries:
            self._memory = (np.empty(0, dtype=np.int64),) * 4
            return
        # a slot several records (sub-cohorts) filled has entries in
        # several chunks: sum them; every other slot's rows are unique and
        # lie in one chunk, sorted by (member, key)
        multi = np.asarray(self._slot_sources, dtype=np.int64) > 1
        parts, merged = [], []
        for entries in self._entries:
            several = multi[entries[0]]
            if not several.any():
                parts.append(entries)
            elif several.all():
                merged.append(entries)
            else:
                parts.append(tuple(column[~several] for column in entries))
                merged.append(tuple(column[several] for column in entries))
        self._entries = []
        if merged:
            slot, member, keys, counts = (np.concatenate(column)
                                          for column in zip(*merged))
            order = np.lexsort((keys, member, slot))
            slot, member, keys = slot[order], member[order], keys[order]
            starts = np.flatnonzero(np.concatenate(
                ([True], (slot[1:] != slot[:-1])
                 | (member[1:] != member[:-1]) | (keys[1:] != keys[:-1]))))
            parts.append((slot[starts], member[starts], keys[starts],
                          np.add.reduceat(counts[order], starts)))
        slot, member, keys, counts = (np.concatenate(column)
                                      for column in zip(*parts))
        self._key_values, key_ids = np.unique(keys, return_inverse=True)
        if (self.members * len(self._slots)
                * self._key_values.shape[0] >= 2 ** 63):
            raise _NotFoldable("too many keys to pack")
        self._memory = (slot, member, key_ids, counts)

    # -- graphs and sizes -----------------------------------------------

    def graphs(self, groups: np.ndarray, weights: np.ndarray,
               identities: Sequence[str]) -> List[ADCFG]:
        """One graph per entry of *identities*, all in one pass.

        Graph ``g`` sums the members with ``groups[m] == g``, member ``m``
        taken ``weights[m]`` times; members in group -1 are left out.  Its
        nodes, edges, predecessors and keys come in the order that merging
        its members' graphs one by one, in slot order, with
        :func:`~repro.adcfg.merge.merge_adcfg_into` gives them: by the
        first member holding them, then as within that member's graph.
        """
        groups = np.asarray(groups, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.int64)
        graphs = [ADCFG(kernel_identity=identity,
                        kernel_name=self._kernel_name,
                        total_threads=self._total_threads,
                        num_warps=self._num_warps) for identity in identities]
        flow, group = _grouped(self._flow_rows, self._flow_rows[0], groups)
        self._build_flow(graphs, flow, group, weights)
        memory, group = _grouped(self._memory, self._memory[1], groups)
        if memory[0].shape[0]:
            self._build_memory(graphs,
                               *self._records(memory, group, weights))
        return graphs

    def _build_flow(self, graphs: List[ADCFG], flow: Tuple[np.ndarray, ...],
                    group: np.ndarray, weights: np.ndarray) -> None:
        """Nodes and edges from transition rows; row ``i`` goes to graph
        ``group[i]``."""
        member, label, prev, prev_prev, counts = flow
        if not member.shape[0]:
            return
        counts = counts * weights[member]
        names = self._flow_names
        span = len(names)
        code = ((group * span + label) * span + prev) * span + prev_prev
        order = np.lexsort((member, code))
        code = code[order]
        starts = _run_starts(code)
        # per transition: its total and the first member holding it
        first = member[order][starts]
        totals = np.add.reduceat(counts[order], starts)
        code = code[starts]
        edges, prev_prev = np.divmod(code, span)
        edge_starts = _run_starts(edges)
        edge_first = np.minimum.reduceat(first, edge_starts)
        edge_totals = np.add.reduceat(totals, edge_starts)
        nodes, edge_prev = np.divmod(edges[edge_starts], span)
        node_starts = _run_starts(nodes)
        node_first = np.minimum.reduceat(edge_first, node_starts)
        node_totals = np.add.reduceat(edge_totals, node_starts)
        node_group, node_label = np.divmod(nodes[node_starts], span)
        end = span - 1
        order = np.lexsort((node_label, node_first, node_group))
        for g, lab, total in zip(node_group[order].tolist(),
                                 node_label[order].tolist(),
                                 node_totals[order].tolist()):
            if lab != end:
                graphs[g].node(names[lab]).record_entry(total)
        # each edge's predecessor histogram, by first holder then label
        edge_of = np.cumsum(np.concatenate(
            ([False], edges[1:] != edges[:-1])))
        histograms: List[Dict[str, int]] = [{} for _ in edge_starts]
        order = np.lexsort((prev_prev, first, edge_of))
        for e, pp, total in zip(edge_of[order].tolist(),
                                prev_prev[order].tolist(),
                                totals[order].tolist()):
            histograms[e][names[pp]] = total
        edge_group, edge_label = np.divmod(nodes, span)
        order = np.lexsort((edge_prev, edge_label, edge_first, edge_group))
        for e in order.tolist():
            edge = graphs[int(edge_group[e])].edge(
                names[int(edge_prev[e])], names[int(edge_label[e])])
            edge.count += int(edge_totals[e])
            edge.prev_counts = histograms[e]

    def _records(self, memory: Tuple[np.ndarray, ...], group: np.ndarray,
                 weights: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Memory rows summed per graph: ``(graph * slots + slot, key,
        count)``, one run per record, its keys by first holding member,
        then key."""
        slot, member, key_ids, counts = memory
        n_keys = self._key_values.shape[0]
        code = (group * len(self._slots) + slot) * n_keys + key_ids
        order = np.argsort(code)
        code = code[order]
        starts = _run_starts(code)
        first = np.minimum.reduceat(member[order], starts)
        counts = np.add.reduceat((counts * weights[member])[order], starts)
        owner, key_ids = np.divmod(code[starts], n_keys)
        order = np.lexsort((key_ids, first, owner))
        return owner[order], key_ids[order], counts[order]

    def _build_memory(self, graphs: List[ADCFG], owner: np.ndarray,
                      key_ids: np.ndarray, counts: np.ndarray) -> None:
        """Fill each ``(graph, slot)`` run of rows into its record."""
        n_slots = len(self._slots)
        starts = _run_starts(owner)
        objects = self._key_tuples()[key_ids].tolist()
        counts = counts.tolist()
        bounds = starts.tolist() + [len(objects)]
        slots, label_names = self._slots, self._label_names
        for lo, hi, packed in zip(bounds, bounds[1:],
                                  owner[starts].tolist()):
            g, sid = divmod(packed, n_slots)
            label, visit, instr, space, is_store = slots[sid]
            graphs[g].node(label_names[label]).record_access_bulk(
                visit=visit, instr=instr, space=space, is_store=is_store,
                keys=objects[lo:hi], counts=counts[lo:hi])

    def _key_tuples(self) -> np.ndarray:
        """``(label, offset)`` tuple of every distinct key, built once."""
        if self._key_objects is None:
            objects = np.empty(self._key_values.shape[0], dtype=object)
            for i, packed in enumerate(self._key_values.tolist()):
                objects[i] = (self._names[packed >> _OFFSET_BITS],
                              packed & _OFFSET_MASK)
            self._key_objects = objects
        return self._key_objects

    def sizes(self, identities: Sequence[str]) -> np.ndarray:
        """Each member's :func:`~repro.adcfg.serialize.adcfg_size_bytes`.

        Counted from the tables, without building any graph: each member's
        string table and element counts, summed by
        :func:`~repro.adcfg.serialize.size_from_counts`.  *identities*
        holds each member's kernel identity, which its graph's string
        table carries.
        """
        members = self.members
        strings: Dict[str, int] = {}

        def intern(values: Sequence[str]) -> np.ndarray:
            return np.asarray([strings.setdefault(value, len(strings))
                               for value in values], dtype=np.int64)

        flow_ids = intern(self._flow_names)
        key_ids = intern(self._names)[self._key_values >> _OFFSET_BITS]
        own_ids = np.concatenate((intern([self._kernel_name] * members),
                                  intern(identities)))
        n = len(strings)
        lengths = np.fromiter((string_entry_bytes(s) for s in strings),
                              dtype=np.int64, count=n)
        member, label, prev, prev_prev, _counts = self._flow_rows
        slot, mem_member, mem_keys, _counts = self._memory
        everyone = np.tile(np.arange(members, dtype=np.int64), 2)
        held = np.concatenate((
            member * n + flow_ids[label], member * n + flow_ids[prev],
            member * n + flow_ids[prev_prev],
            mem_member * n + key_ids[mem_keys], everyone * n + own_ids))
        held = np.bincount(held, minlength=members * n).reshape(members, n)
        # control flow: nodes (END is none), edges and predecessors
        span = len(self._flow_names)
        node_codes = member * span + label
        nodes = np.bincount(
            np.unique(node_codes[label != span - 1]) // span,
            minlength=members)
        edges = np.bincount(np.unique(node_codes * span + prev)
                            // (span * span), minlength=members)
        visits, records = self._visits_and_records(slot, mem_member)
        return size_from_counts(
            (held > 0) @ lengths, nodes, visits, records,
            np.bincount(mem_member, minlength=members), edges,
            np.bincount(member, minlength=members))

    def _visits_and_records(self, slot: np.ndarray, member: np.ndarray
                            ) -> Tuple[np.ndarray, np.ndarray]:
        """Each member's serialised visits and records: a visit lists its
        node's instructions up to its last one with entries (padding
        records included), a node its visits up to its last one with a
        record."""
        members = self.members
        if not slot.shape[0]:
            return (np.zeros(members, dtype=np.int64),) * 2
        held = _run_starts(slot * members + member)
        table = np.asarray(self._slots, dtype=np.int64)[slot[held]]
        n_labels, n_visits = len(self._label_names), int(table[:, 1].max()) + 1
        visits = (member[held] * n_labels + table[:, 0]) * n_visits \
            + table[:, 1]
        order = np.argsort(visits)
        visits = visits[order]
        starts = _run_starts(visits)
        instrs = np.maximum.reduceat(table[order, 2], starts) + 1
        nodes, visit = np.divmod(visits[starts], n_visits)
        records = np.bincount(nodes // n_labels, weights=instrs,
                              minlength=members).astype(np.int64)
        starts = _run_starts(nodes)
        visits = np.bincount(
            nodes[starts] // n_labels,
            weights=np.maximum.reduceat(visit, starts) + 1,
            minlength=members).astype(np.int64)
        return visits, records


def _grouped(table: Tuple[np.ndarray, ...], member: np.ndarray,
             groups: np.ndarray
             ) -> Tuple[Tuple[np.ndarray, ...], np.ndarray]:
    """The rows of *table* whose *member* has a group, and that group."""
    group = groups[member]
    keep = group >= 0
    if keep.all():
        return table, group
    return tuple(column[keep] for column in table), group[keep]


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Start of every run of equal values (sorted or run-grouped input)."""
    return np.flatnonzero(np.concatenate(
        ([True], values[1:] != values[:-1])))
