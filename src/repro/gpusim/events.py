"""Trace events emitted by the simulator.

These events are the simulator's externally observable behaviour and the
vocabulary of the NVBit-like tracing layer (:mod:`repro.tracing`):

* :class:`KernelBeginEvent` / :class:`KernelEndEvent` bracket one kernel
  launch;
* :class:`BasicBlockEvent` is sent when a *warp* enters a basic block — the
  paper records warp-level control flow because predicated execution makes
  per-thread control flow within a warp unobservable;
* :class:`MemoryBatchEvent` carries every memory instruction of one warp —
  the byte addresses touched by the active lanes of each, together with
  the NVBit memory-space type — and is the only memory event a device
  emits.  :meth:`MemoryBatchEvent.iter_events` expands it into one
  :class:`MemoryAccessEvent` per instruction for consumers that want the
  per-instruction view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.gpusim.memory import MemorySpace


@dataclass(frozen=True)
class TraceEvent:
    """Base class for all simulator trace events."""


@dataclass(frozen=True)
class KernelBeginEvent(TraceEvent):
    """A kernel launch is starting."""

    kernel_name: str
    grid: Tuple[int, int, int]
    block: Tuple[int, int, int]
    total_threads: int
    num_warps: int


@dataclass(frozen=True)
class KernelEndEvent(TraceEvent):
    """The matching end of a :class:`KernelBeginEvent`."""

    kernel_name: str


@dataclass(frozen=True)
class BasicBlockEvent(TraceEvent):
    """A warp entered basic block *label*.

    ``visit`` is the number of previous entries of this warp into the same
    block (so loop iterations are distinguishable), matching the per-visit
    memory record indexing of the paper's A-DCFG nodes.
    ``active_lanes`` is the number of lanes active on entry.
    """

    block_id: int
    warp_id: int
    label: str
    visit: int
    active_lanes: int


@dataclass(frozen=True)
class MemoryAccessEvent(TraceEvent):
    """One memory instruction executed by the active lanes of a warp.

    ``instr`` is the ordinal of the memory instruction within the current
    basic-block visit; together with ``label`` and ``visit`` it identifies
    the A-DCFG memory record slot ``m_j`` of the paper.
    ``addresses`` holds the byte addresses of the active lanes only.

    Devices never emit this event: it is the per-instruction view of a
    :class:`MemoryBatchEvent`, built by :meth:`MemoryBatchEvent.iter_events`.
    """

    block_id: int
    warp_id: int
    label: str
    visit: int
    instr: int
    space: MemorySpace
    is_store: bool
    addresses: Tuple[int, ...]


@dataclass(frozen=True)
class MemoryBatchEvent(TraceEvent):
    """All memory instructions of one warp, in columnar form.

    A warp's memory instructions reach listeners as one batch, emitted at
    warp retirement after the warp's basic-block and sync events — the
    same move MicroWalk makes from per-event callbacks to bulk trace
    preprocessing.  One batch carries every memory instruction the warp
    executed, as parallel arrays indexed by instruction:

    * ``labels`` is the warp's interned basic-block label table and
      ``label_ids[i]`` indexes into it;
    * ``visits[i]`` / ``instrs[i]`` locate the A-DCFG record slot exactly as
      the corresponding :class:`MemoryAccessEvent` fields would;
    * ``spaces[i]`` / ``is_stores[i]`` carry the NVBit memory-space tag value
      and load/store flag;
    * ``addresses`` is the concatenation of all instructions' active-lane
      byte addresses (``int64``), with instruction *i* owning the slice
      ``addresses[extents[i]:extents[i + 1]]``.

    Instruction order within the batch is the warp's emission order, so
    folding a batch is equivalent to folding its expansion into individual
    events (the equality tests assert byte-identical A-DCFGs).  Both
    execution engines build batches with :class:`MemoryBatchBuilder`.
    """

    block_id: int
    warp_id: int
    labels: Tuple[str, ...]
    label_ids: np.ndarray
    visits: np.ndarray
    instrs: np.ndarray
    spaces: np.ndarray
    is_stores: np.ndarray
    addresses: np.ndarray
    extents: np.ndarray

    @property
    def num_instructions(self) -> int:
        return int(self.label_ids.shape[0])

    def iter_events(self):
        """Expand into per-instruction :class:`MemoryAccessEvent`s.

        The per-instruction view, in emission order: the monitor's
        per-event fold (the degradation rung and the batched fold's test
        oracle) and listeners that walk one instruction at a time read it.
        """
        for i in range(self.num_instructions):
            lo, hi = int(self.extents[i]), int(self.extents[i + 1])
            yield MemoryAccessEvent(
                block_id=self.block_id, warp_id=self.warp_id,
                label=self.labels[int(self.label_ids[i])],
                visit=int(self.visits[i]), instr=int(self.instrs[i]),
                space=MemorySpace(int(self.spaces[i])),
                is_store=bool(self.is_stores[i]),
                addresses=tuple(self.addresses[lo:hi].tolist()))


class MemoryBatchBuilder:
    """Accumulates one warp's memory instructions into a
    :class:`MemoryBatchEvent`.

    The per-warp engine appends as the warp executes and the cohort
    engine as it replays each row's records; both build the warp's batch
    here.  Callers on a hot path may append to :attr:`rows` and
    :attr:`chunks` directly with a label id from :meth:`label_id`.
    """

    __slots__ = ("label_index", "labels", "rows", "chunks")

    def __init__(self) -> None:
        #: interned basic-block labels: label -> id, and id -> label
        self.label_index: Dict[str, int] = {}
        self.labels: List[str] = []
        #: one ``(label id, visit, instr, space value, is_store)`` row and
        #: one active-lane address array per instruction
        self.rows: List[Tuple[int, int, int, int, bool]] = []
        self.chunks: List[np.ndarray] = []

    def label_id(self, label: str) -> int:
        """The warp-local id of *label*, interning it on first use."""
        lidx = self.label_index.get(label)
        if lidx is None:
            lidx = self.label_index[label] = len(self.labels)
            self.labels.append(label)
        return lidx

    def add(self, label: str, visit: int, instr: int, space_value: int,
            is_store: bool, addresses: np.ndarray) -> None:
        """Append one memory instruction."""
        self.rows.append((self.label_id(label), visit, instr, space_value,
                          is_store))
        self.chunks.append(addresses)

    def build(self, block_id: int, warp_id: int
              ) -> Optional[MemoryBatchEvent]:
        """The warp's batch, or None when it issued no memory instruction."""
        if not self.rows:
            return None
        label_ids, visits, instrs, spaces, stores = zip(*self.rows)
        chunks = self.chunks
        sizes = np.fromiter((chunk.shape[0] for chunk in chunks),
                            dtype=np.int64, count=len(chunks))
        extents = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=extents[1:])
        return MemoryBatchEvent(
            block_id=block_id, warp_id=warp_id, labels=tuple(self.labels),
            label_ids=np.asarray(label_ids, dtype=np.int32),
            visits=np.asarray(visits, dtype=np.int32),
            instrs=np.asarray(instrs, dtype=np.int32),
            spaces=np.asarray(spaces, dtype=np.uint8),
            is_stores=np.asarray(stores, dtype=bool),
            addresses=np.concatenate(chunks), extents=extents)


@dataclass(frozen=True)
class SyncEvent(TraceEvent):
    """A ``__syncthreads()`` executed by a warp (traced, semantically inert
    because warps of a block run to completion in sequence)."""

    block_id: int
    warp_id: int
