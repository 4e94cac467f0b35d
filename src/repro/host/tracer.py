"""The Pin analogue: host-side observation and address normalisation.

:class:`HostTracer` collects the host events Owl needs — allocation records
and kernel-launch records — and provides the address→offset normalisation
that removes memory-layout (and, when enabled, ASLR) noise from device
traces before any differential analysis runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.gpusim.memory import Allocation, AllocationError, DeviceMemory
from repro.host.runtime import LaunchRecord, MallocRecord


@dataclass(frozen=True)
class NormalizedAddress:
    """A raw device address rewritten as ``(allocation label, offset)``.

    Offsets are what the leakage analysis histograms; two runs with
    different layouts (or ASLR slides) produce identical normalised
    addresses unless the *access pattern itself* differs.
    """

    alloc_label: str
    offset: int

    def as_key(self) -> Tuple[str, int]:
        return (self.alloc_label, self.offset)


class HostTracer:
    """Observes one program execution's host-side CUDA activity."""

    def __init__(self, memory: DeviceMemory) -> None:
        self._memory = memory
        self.malloc_records: List[MallocRecord] = []
        self.launch_records: List[LaunchRecord] = []
        # address -> (label, offset) memo for normalize_keys.  Stable for
        # the tracer's whole session: the bump allocator never frees or
        # moves an allocation, so a resolved address cannot change meaning.
        self._key_cache: Dict[int, Tuple[str, int]] = {}
        # interned allocation labels and packed-key memo for
        # normalize_key_ids (same session-stability argument)
        self._label_ids: Dict[str, int] = {}
        self._labels_by_id: List[str] = []
        self._label_id_arr = np.empty(0, dtype=np.int64)
        self._label_table_len = 0
        self._packed_keys: Dict[int, Tuple[str, int]] = {}

    # ------------------------------------------------------------------
    # runtime callbacks
    # ------------------------------------------------------------------

    def on_malloc(self, record: MallocRecord) -> None:
        self.malloc_records.append(record)

    def on_launch(self, record: LaunchRecord) -> None:
        self.launch_records.append(record)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def launch_sequence(self) -> Tuple[str, ...]:
        """Ordered kernel identities (name + call-stack digest)."""
        return tuple(r.identity for r in self.launch_records)

    def normalize(self, address: int) -> NormalizedAddress:
        """Rewrite a raw device *address* into ``(label, offset)``.

        Raises :class:`~repro.gpusim.memory.AllocationError` for addresses
        outside every recorded allocation (a wild access the analysis
        should not silently fold in).
        """
        allocation, offset = self._memory.resolve(address)
        return NormalizedAddress(alloc_label=allocation.label, offset=offset)

    def try_normalize(self, address: int) -> Optional[NormalizedAddress]:
        """Like :meth:`normalize` but returns None for unknown addresses."""
        try:
            return self.normalize(address)
        except AllocationError:
            return None

    def normalize_keys(self, addresses: np.ndarray) -> List[Tuple[str, int]]:
        """Vectorised :meth:`normalize` over a whole address array.

        One ``np.searchsorted`` over the base-sorted allocation table maps
        every address to its ``(allocation label, offset)`` key in a single
        shot — the batched replacement for calling :meth:`normalize` once
        per address.  Keys are memoised across calls: one kernel's warps
        hit the same tables and buffers, so after the first warp's batch
        most addresses resolve from the dictionary instead of re-deriving
        the tuple.  Produces exactly the keys the scalar path would
        (asserted by the edge-case property tests) and raises
        :class:`~repro.gpusim.memory.AllocationError` for any address
        outside every recorded allocation.
        """
        cache = self._key_cache
        addr_list = addresses.tolist()
        keys = [cache.get(address) for address in addr_list]
        if None in keys:
            missing_idx = [i for i, key in enumerate(keys) if key is None]
            allocs, indices, offsets = self._memory.resolve_batch(
                addresses[missing_idx])
            labels = [alloc.label for alloc in allocs]
            for pos, i, o in zip(missing_idx, indices.tolist(),
                                 offsets.tolist()):
                keys[pos] = cache[addr_list[pos]] = (labels[i], o)
        return keys

    #: offsets are packed into the low bits of a normalised-key id; any
    #: allocation bigger than 2**40 bytes falls back to the tuple path
    _OFFSET_BITS = 40

    def normalize_key_ids(self, addresses: np.ndarray
                          ) -> Optional[Tuple[np.ndarray, List[Tuple[str, int]]]]:
        """Map an address array to interned normalised-key ids.

        Returns ``(key_ids, keys)`` where ``keys[key_ids[i]]`` is
        ``addresses[i]``'s normalised key, or None when the packed-id
        representation cannot hold the offsets (absurdly large
        allocations).  Unlike :meth:`normalize_keys` this never walks the
        addresses in Python: resolution is one ``searchsorted``, aliases
        collapse through one ``np.unique`` over packed
        ``(label id, offset)`` integers, and only the distinct keys of the
        call are materialised as tuples (memoised across calls).  Ids are
        call-local; aliased raw addresses — the same shared-memory offset
        in two blocks — share an id exactly as they share a key.
        """
        allocs, indices, offsets = self._memory.resolve_batch(addresses)
        if offsets.size and int(offsets.max()) >= (1 << self._OFFSET_BITS):
            return None
        packed = ((self.label_ids(allocs)[indices] << self._OFFSET_BITS)
                  | offsets)
        uniq, inv = np.unique(packed, return_inverse=True)
        cache = self._packed_keys
        labels = self._labels_by_id
        mask = (1 << self._OFFSET_BITS) - 1
        keys = []
        for value in uniq.tolist():
            key = cache.get(value)
            if key is None:
                key = cache[value] = (labels[value >> self._OFFSET_BITS],
                                      value & mask)
            keys.append(key)
        return inv, keys

    def label_ids(self, allocs: Sequence[Allocation]) -> np.ndarray:
        """Session label id of each allocation of the base-sorted table.

        Labels are interned in the order the table first shows them and
        keep their id for the session, so ids order normalised keys the
        same way in every call; :attr:`labels` maps an id back to its
        label.  The replica lane-grid fold packs keys with these ids too.
        """
        if len(allocs) != self._label_table_len:
            ids = []
            for alloc in allocs:
                lid = self._label_ids.get(alloc.label)
                if lid is None:
                    lid = self._label_ids[alloc.label] = len(self._labels_by_id)
                    self._labels_by_id.append(alloc.label)
                ids.append(lid)
            self._label_id_arr = np.asarray(ids, dtype=np.int64)
            self._label_table_len = len(allocs)
        return self._label_id_arr

    @property
    def labels(self) -> List[str]:
        """Interned allocation labels, indexed by session label id."""
        return self._labels_by_id

    def malloc_trace_bytes(self) -> int:
        """Serialised size of all allocation records (Fig. 5 series)."""
        return sum(r.size_bytes() for r in self.malloc_records)

    def launch_trace_bytes(self) -> int:
        """Serialised size of all launch records (Fig. 5 series)."""
        return sum(r.size_bytes() for r in self.launch_records)
