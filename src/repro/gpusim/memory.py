"""Device memory model: spaces, buffers, and a base-address allocator.

The Owl paper's host tracer records ``cudaMalloc`` call sites (base address and
size) precisely because the absolute addresses returned by the allocator
depend on memory layout and, with ASLR enabled, on a per-process random slide.
This module reproduces both effects:

* :class:`MemoryAllocator` hands out monotonically increasing base addresses
  with CUDA-like 256-byte alignment, optionally offset by a random ASLR slide;
* :class:`DeviceBuffer` couples an :class:`Allocation` with backing storage
  (a NumPy array) so kernels can load/store element-wise;
* :class:`MemorySpace` mirrors the nine NVBit memory-space categories listed
  in footnote 4 of the paper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

#: CUDA's documented allocation alignment for ``cudaMalloc``.
ALLOCATION_ALIGNMENT = 256

#: Default base of the simulated global-memory arena (arbitrary but stable,
#: mimicking a typical UVA address).
DEFAULT_HEAP_BASE = 0x7F00_0000_0000

#: Maximum random ASLR slide, in bytes.  Real GPU ASLR randomises the
#: allocation base; 2**24 gives plenty of entropy for the tests.
ASLR_SLIDE_RANGE = 1 << 24


class MemorySpace(enum.Enum):
    """Memory-space categories, matching NVBit's classification.

    The paper (footnote 4) categorises accesses into exactly these groups.
    """

    NONE = 0
    LOCAL = 1
    GENERIC = 2
    GLOBAL = 3
    SHARED = 4
    CONSTANT = 5
    GLOBAL_TO_SHARED = 6
    SURFACE = 7
    TEXTURE = 8


@dataclass(frozen=True)
class Allocation:
    """A single device allocation: the unit of address normalisation.

    Owl's host tracer converts raw addresses into ``(allocation, offset)``
    pairs so that layout and ASLR noise do not masquerade as leakage.
    """

    alloc_id: int
    base: int
    size: int
    space: MemorySpace
    label: str

    def contains(self, address: int) -> bool:
        """Return True when *address* falls inside this allocation."""
        return self.base <= address < self.base + self.size

    @property
    def end(self) -> int:
        return self.base + self.size


class AllocationError(Exception):
    """Raised for invalid allocation or address-resolution requests."""


class MemoryAllocator:
    """Bump allocator for the simulated device address space.

    Addresses are deterministic for a given allocation sequence unless ASLR
    is enabled, in which case the whole arena is slid by a random amount at
    construction (or :meth:`reset`) time — the behaviour Owl must neutralise
    by disabling ASLR and normalising to offsets.
    """

    def __init__(self, aslr: bool = False, seed: Optional[int] = None,
                 heap_base: int = DEFAULT_HEAP_BASE) -> None:
        self._aslr = aslr
        self._heap_base = heap_base
        self._rng = np.random.default_rng(seed)
        self._next: int = 0
        self._allocations: List[Allocation] = []
        self._next_id = 0
        self._lookup_cache: Optional[Tuple] = None
        self.reset()

    @property
    def aslr(self) -> bool:
        return self._aslr

    @property
    def allocations(self) -> Tuple[Allocation, ...]:
        return tuple(self._allocations)

    def reset(self) -> None:
        """Start a fresh address space (new ASLR slide if enabled)."""
        slide = 0
        if self._aslr:
            # Keep the slide aligned so allocation bases remain aligned.
            slide = int(self._rng.integers(0, ASLR_SLIDE_RANGE))
            slide -= slide % ALLOCATION_ALIGNMENT
        self._next = self._heap_base + slide
        self._allocations = []
        self._next_id = 0
        self._lookup_cache = None

    def allocate(self, size: int, space: MemorySpace = MemorySpace.GLOBAL,
                 label: str = "") -> Allocation:
        """Reserve *size* bytes and return the :class:`Allocation`."""
        if size <= 0:
            raise AllocationError(f"allocation size must be positive, got {size}")
        base = self._next
        aligned = size + (-size % ALLOCATION_ALIGNMENT)
        self._next = base + aligned
        alloc = Allocation(alloc_id=self._next_id, base=base, size=size,
                           space=space, label=label or f"alloc{self._next_id}")
        self._next_id += 1
        self._allocations.append(alloc)
        self._lookup_cache = None
        return alloc

    def resolve(self, address: int) -> Tuple[Allocation, int]:
        """Map a raw *address* back to ``(allocation, offset)``.

        This is the primitive Owl's host tracer uses to normalise traces.
        """
        for alloc in self._allocations:
            if alloc.contains(address):
                return alloc, address - alloc.base
        raise AllocationError(f"address {address:#x} is not inside any allocation")

    def _lookup_table(self) -> Tuple[np.ndarray, np.ndarray, List[Allocation]]:
        """Base-sorted ``(bases, ends, allocations)`` arrays for binary search.

        Rebuilt lazily after :meth:`allocate`/:meth:`reset` invalidate it;
        the bump allocator hands out non-overlapping ranges, so sorting by
        base yields a proper interval table.
        """
        if self._lookup_cache is None:
            allocs = sorted(self._allocations, key=lambda a: a.base)
            bases = np.array([a.base for a in allocs], dtype=np.int64)
            ends = np.array([a.end for a in allocs], dtype=np.int64)
            self._lookup_cache = (bases, ends, allocs)
        return self._lookup_cache

    def resolve_batch(self, addresses: np.ndarray
                      ) -> Tuple[List[Allocation], np.ndarray, np.ndarray]:
        """Vectorised :meth:`resolve` over a whole address array.

        Returns ``(allocations, alloc_indices, offsets)`` where
        ``allocations[alloc_indices[i]]`` contains ``addresses[i]`` at byte
        offset ``offsets[i]``.  Raises :class:`AllocationError` for the first
        address outside every allocation, exactly like the scalar path.
        """
        addrs = np.ascontiguousarray(addresses, dtype=np.int64)
        bases, ends, allocs = self._lookup_table()
        if bases.size == 0:
            if addrs.size == 0:
                return allocs, np.empty(0, dtype=np.int64), addrs
            raise AllocationError(
                f"address {int(addrs[0]):#x} is not inside any allocation")
        indices = np.searchsorted(bases, addrs, side="right") - 1
        clipped = np.maximum(indices, 0)
        invalid = (indices < 0) | (addrs >= ends[clipped])
        if invalid.any():
            bad = int(addrs[invalid][0])
            raise AllocationError(
                f"address {bad:#x} is not inside any allocation")
        return allocs, clipped, addrs - bases[clipped]


@dataclass
class DeviceBuffer:
    """An allocation plus its backing storage.

    Kernels index buffers element-wise; the recorded trace addresses are
    ``base + index * itemsize`` so that the data-flow histograms in the
    analysis see byte addresses, exactly as NVBit reports them.
    """

    allocation: Allocation
    data: np.ndarray

    @property
    def base(self) -> int:
        return self.allocation.base

    @property
    def itemsize(self) -> int:
        return int(self.data.itemsize)

    @property
    def num_elements(self) -> int:
        return int(self.data.size)

    @property
    def space(self) -> MemorySpace:
        return self.allocation.space

    @property
    def label(self) -> str:
        return self.allocation.label

    def addresses_for(self, indices: np.ndarray) -> np.ndarray:
        """Byte addresses touched by element *indices*."""
        return self.base + np.asarray(indices, dtype=np.int64) * self.itemsize

    def check_bounds(self, indices: np.ndarray) -> None:
        indices = np.asarray(indices)
        if indices.size == 0:
            return
        low = int(indices.min())
        high = int(indices.max())
        if low < 0 or high >= self.num_elements:
            raise AllocationError(
                f"out-of-bounds access to {self.label!r}: "
                f"indices in [{low}, {high}] but buffer has "
                f"{self.num_elements} elements")


class WriteJournal:
    """Copy-on-first-write snapshots of device buffers.

    The warp-cohort engine executes a whole launch speculatively: when the
    cohort has to split (warps disagree on a value that must collapse to one
    Python scalar) the attempt is abandoned and each sub-cohort re-executes
    from the top.  Every buffer mutated during the attempt is snapshotted
    here before its first write, so :meth:`rollback` can restore the
    pre-launch contents exactly.  Allocations are *not* journalled —
    shared-memory allocation is idempotent across retries by construction.
    """

    def __init__(self) -> None:
        self._saved: Dict[int, Tuple[DeviceBuffer, np.ndarray]] = {}

    def capture(self, buf: DeviceBuffer) -> None:
        """Snapshot *buf* unless this journal already holds it."""
        key = id(buf)
        if key not in self._saved:
            self._saved[key] = (buf, buf.data.copy())

    def rollback(self) -> None:
        """Restore every captured buffer to its snapshot."""
        for buf, snapshot in self._saved.values():
            buf.data[...] = snapshot
        self._saved.clear()

    def commit(self) -> None:
        """Drop the snapshots (the speculative writes become permanent)."""
        self._saved.clear()


class DeviceMemory:
    """The device's memory subsystem: an allocator plus live buffers."""

    def __init__(self, aslr: bool = False, seed: Optional[int] = None) -> None:
        self._allocator = MemoryAllocator(aslr=aslr, seed=seed)
        self._buffers: Dict[int, DeviceBuffer] = {}

    @property
    def allocator(self) -> MemoryAllocator:
        return self._allocator

    @property
    def buffers(self) -> Tuple[DeviceBuffer, ...]:
        return tuple(self._buffers.values())

    def reset(self) -> None:
        """Free everything and restart the address space."""
        self._allocator.reset()
        self._buffers = {}

    def alloc(self, shape, dtype=np.int64,
              space: MemorySpace = MemorySpace.GLOBAL,
              label: str = "") -> DeviceBuffer:
        """Allocate a zero-initialised buffer of *shape* × *dtype*."""
        data = np.zeros(shape, dtype=dtype)
        allocation = self._allocator.allocate(max(1, data.nbytes), space=space,
                                              label=label)
        buf = DeviceBuffer(allocation=allocation, data=data)
        self._buffers[allocation.alloc_id] = buf
        return buf

    def alloc_like(self, array: np.ndarray,
                   space: MemorySpace = MemorySpace.GLOBAL,
                   label: str = "") -> DeviceBuffer:
        """Allocate a buffer initialised with a copy of *array*."""
        buf = self.alloc(array.shape, dtype=array.dtype, space=space, label=label)
        buf.data[...] = array
        return buf

    def buffer_for(self, alloc_id: int) -> DeviceBuffer:
        try:
            return self._buffers[alloc_id]
        except KeyError:
            raise AllocationError(f"unknown allocation id {alloc_id}") from None

    def resolve(self, address: int) -> Tuple[Allocation, int]:
        return self._allocator.resolve(address)

    def resolve_batch(self, addresses: np.ndarray
                      ) -> Tuple[List[Allocation], np.ndarray, np.ndarray]:
        return self._allocator.resolve_batch(addresses)

    def lookup_table(self) -> Tuple[np.ndarray, np.ndarray,
                                    List[Allocation]]:
        """Base-sorted ``(bases, ends, allocations)`` that
        :meth:`resolve_batch` searches (shared; do not mutate)."""
        return self._allocator._lookup_table()

    @property
    def next_base(self) -> int:
        """Base address the next allocation gets."""
        return self._allocator._next
