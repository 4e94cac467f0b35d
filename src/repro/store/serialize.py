"""Binary (de)serialisation of whole traces and evidence sets.

The A-DCFG layer already round-trips single graphs losslessly
(:mod:`repro.adcfg.serialize`); the store additionally needs the two
composite artifacts the pipeline produces:

* :class:`~repro.tracing.recorder.ProgramTrace` — kernel invocations (each
  embedding its A-DCFG), malloc records and launch records (with the full
  identifying call stack, so the paper's ``name@stack-digest`` identities
  survive the round trip);
* :class:`~repro.core.evidence.Evidence` — aligned slots with per-run
  presence bit-vectors, merged A-DCFGs and (in strict per-run sampling
  mode) the retained per-run graphs.

Both formats are **canonical**: serialising a deserialised payload
reproduces the input bytes exactly.  The campaign engine leans on that —
analysis always consumes the store's round-tripped form of an evidence
set, which is how a warm re-run is guaranteed bit-identical to the cold
run that populated the store (dict insertion orders inside fresh graphs
differ from deserialised ones; the canonical form erases the difference).

All malformed inputs raise
:class:`~repro.adcfg.serialize.SerializationError`, never a bare parsing
exception: the store loads these bytes from disk, where they are
untrusted.

A loaded trace carries its :meth:`ProgramTrace.signature` already: by
the canonical-form contract, each invocation's identity and the A-DCFG
bytes just read are what the signature would re-encode and hash.
"""

from __future__ import annotations

import hashlib
import struct
from typing import List, Optional

from repro import profiling
from repro.adcfg.serialize import (
    Reader,
    SerializationError,
    Writer,
    deserialize_adcfg,
    serialize_adcfg,
)
from repro.core.evidence import Evidence, EvidenceSlot
from repro.host.callstack import CallSite, CallStack
from repro.host.runtime import LaunchRecord, MallocRecord
from repro.tracing.recorder import KernelInvocation, ProgramTrace

_TRACE_MAGIC = b"OWTR"
_EVIDENCE_MAGIC = b"OWEV"
_VERSION = 1


# ----------------------------------------------------------------------
# ProgramTrace
# ----------------------------------------------------------------------

@profiling.timed("store_encode")
def serialize_trace(trace: ProgramTrace) -> bytes:
    """Serialise a full :class:`ProgramTrace` to bytes."""
    w = Writer()
    w.raw(_TRACE_MAGIC)
    w.pack("H", _VERSION)

    w.pack("I", len(trace.invocations))
    for inv in trace.invocations:
        w.string(inv.identity)
        w.string(inv.kernel_name)
        w.pack("I", inv.seq)
        w.pack("III", *inv.grid)
        w.pack("III", *inv.block)
        payload = serialize_adcfg(inv.adcfg)
        w.pack("I", len(payload))
        w.raw(payload)

    w.pack("I", len(trace.malloc_records))
    for record in trace.malloc_records:
        w.string(record.api)
        w.pack("QQQ", record.alloc_id, record.base, record.size)
        w.string(record.label)

    w.pack("I", len(trace.launch_records))
    for record in trace.launch_records:
        w.string(record.api)
        w.string(record.kernel_name)
        w.pack("I", record.seq)
        w.pack("III", *record.grid)
        w.pack("III", *record.block)
        w.pack("I", len(record.call_stack.frames))
        for frame in record.call_stack.frames:
            w.string(frame.filename)
            w.pack("I", frame.lineno)
            w.string(frame.function)

    return w.getvalue()


@profiling.timed("store_decode")
def deserialize_trace(data: bytes) -> ProgramTrace:
    """Inverse of :func:`serialize_trace` (raises ``SerializationError``)."""
    try:
        return _deserialize_trace_unchecked(data)
    except SerializationError:
        raise
    except (struct.error, IndexError, OverflowError, MemoryError) as error:
        raise SerializationError(
            f"malformed trace payload: {error}") from error


def _deserialize_trace_unchecked(data: bytes) -> ProgramTrace:
    r = Reader(data)
    if r.raw(4) != _TRACE_MAGIC:
        raise SerializationError("bad magic: not a trace payload")
    (version,) = r.unpack("H")
    if version != _VERSION:
        raise SerializationError(f"unsupported trace version {version}")

    (num_invocations,) = r.unpack("I")
    r.ensure_capacity(num_invocations, 40, "kernel invocations")
    invocations: List[KernelInvocation] = []
    signature = hashlib.sha256()
    for _ in range(num_invocations):
        identity = r.string()
        kernel_name = r.string()
        (seq,) = r.unpack("I")
        grid = r.unpack("III")
        block = r.unpack("III")
        (adcfg_len,) = r.unpack("I")
        payload = r.raw(adcfg_len)
        adcfg = deserialize_adcfg(payload)
        signature.update(identity.encode())
        signature.update(payload)
        invocations.append(KernelInvocation(
            identity=identity, kernel_name=kernel_name, seq=seq,
            grid=grid, block=block, adcfg=adcfg))

    (num_mallocs,) = r.unpack("I")
    r.ensure_capacity(num_mallocs, 32, "malloc records")
    mallocs: List[MallocRecord] = []
    for _ in range(num_mallocs):
        api = r.string()
        alloc_id, base, size = r.unpack("QQQ")
        label = r.string()
        mallocs.append(MallocRecord(api=api, alloc_id=alloc_id, base=base,
                                    size=size, label=label))

    (num_launches,) = r.unpack("I")
    r.ensure_capacity(num_launches, 40, "launch records")
    launches: List[LaunchRecord] = []
    for _ in range(num_launches):
        api = r.string()
        kernel_name = r.string()
        (seq,) = r.unpack("I")
        grid = r.unpack("III")
        block = r.unpack("III")
        (num_frames,) = r.unpack("I")
        r.ensure_capacity(num_frames, 12, "call-stack frames")
        frames = []
        for _f in range(num_frames):
            filename = r.string()
            (lineno,) = r.unpack("I")
            function = r.string()
            frames.append(CallSite(filename=filename, lineno=lineno,
                                   function=function))
        launches.append(LaunchRecord(
            api=api, kernel_name=kernel_name,
            call_stack=CallStack(frames=tuple(frames)),
            grid=grid, block=block, seq=seq))

    if not r.exhausted:
        raise SerializationError("trailing bytes after trace payload")
    return ProgramTrace(invocations=invocations, malloc_records=mallocs,
                        launch_records=launches,
                        signature=signature.hexdigest())


# ----------------------------------------------------------------------
# Evidence
# ----------------------------------------------------------------------

def _pack_presence(present: List[bool]) -> bytes:
    """Bit-pack a per-run presence vector (LSB-first within each byte)."""
    packed = bytearray((len(present) + 7) // 8)
    for index, flag in enumerate(present):
        if flag:
            packed[index // 8] |= 1 << (index % 8)
    return bytes(packed)


def _unpack_presence(packed: bytes, num_runs: int) -> List[bool]:
    if len(packed) != (num_runs + 7) // 8:
        raise SerializationError(
            f"presence vector holds {len(packed)} bytes for {num_runs} runs")
    present = [bool(packed[index // 8] & (1 << (index % 8)))
               for index in range(num_runs)]
    # tail bits beyond num_runs must be zero, or the payload was tampered
    for index in range(num_runs, len(packed) * 8):
        if packed[index // 8] & (1 << (index % 8)):
            raise SerializationError("nonzero padding in presence vector")
    return present


@profiling.timed("store_encode")
def serialize_evidence(evidence: Evidence) -> bytes:
    """Serialise an :class:`Evidence` (slot order is content: preserved)."""
    w = Writer()
    w.raw(_EVIDENCE_MAGIC)
    w.pack("H", _VERSION)
    w.pack("B", int(evidence.keep_per_run))
    w.pack("I", evidence.num_runs)

    w.pack("I", len(evidence.slots))
    for slot in evidence.slots:
        if len(slot.per_run_present) != evidence.num_runs:
            raise SerializationError(
                f"slot {slot.identity!r} tracks {len(slot.per_run_present)} "
                f"runs but the evidence holds {evidence.num_runs}")
        w.string(slot.identity)
        w.string(slot.kernel_name)
        w.raw(_pack_presence(slot.per_run_present))
        payload = serialize_adcfg(slot.adcfg)
        w.pack("I", len(payload))
        w.raw(payload)
        if evidence.keep_per_run:
            graphs = slot.per_run_graphs or []
            if len(graphs) != evidence.num_runs:
                raise SerializationError(
                    f"slot {slot.identity!r} retains {len(graphs)} per-run "
                    f"graphs for {evidence.num_runs} runs")
            for graph in graphs:
                if graph is None:
                    w.pack("I", 0)
                else:
                    graph_payload = serialize_adcfg(graph)
                    w.pack("I", len(graph_payload))
                    w.raw(graph_payload)
    return w.getvalue()


@profiling.timed("store_decode")
def deserialize_evidence(data: bytes) -> Evidence:
    """Inverse of :func:`serialize_evidence`."""
    try:
        return _deserialize_evidence_unchecked(data)
    except SerializationError:
        raise
    except (struct.error, IndexError, OverflowError, MemoryError) as error:
        raise SerializationError(
            f"malformed evidence payload: {error}") from error


def _deserialize_evidence_unchecked(data: bytes) -> Evidence:
    r = Reader(data)
    if r.raw(4) != _EVIDENCE_MAGIC:
        raise SerializationError("bad magic: not an evidence payload")
    (version,) = r.unpack("H")
    if version != _VERSION:
        raise SerializationError(f"unsupported evidence version {version}")
    (keep_flag,) = r.unpack("B")
    if keep_flag not in (0, 1):
        raise SerializationError(f"bad keep_per_run flag {keep_flag}")
    keep_per_run = bool(keep_flag)
    (num_runs,) = r.unpack("I")

    evidence = Evidence(keep_per_run=keep_per_run)
    evidence.num_runs = num_runs

    (num_slots,) = r.unpack("I")
    presence_bytes = (num_runs + 7) // 8
    r.ensure_capacity(num_slots, 12 + presence_bytes, "evidence slots")
    for _ in range(num_slots):
        identity = r.string()
        kernel_name = r.string()
        present = _unpack_presence(r.raw(presence_bytes), num_runs)
        (adcfg_len,) = r.unpack("I")
        adcfg = deserialize_adcfg(r.raw(adcfg_len))
        per_run_graphs: Optional[List] = None
        if keep_per_run:
            r.ensure_capacity(num_runs, 4, "per-run graphs")
            per_run_graphs = []
            for _g in range(num_runs):
                (graph_len,) = r.unpack("I")
                if graph_len == 0:
                    per_run_graphs.append(None)
                else:
                    per_run_graphs.append(deserialize_adcfg(r.raw(graph_len)))
        evidence.slots.append(EvidenceSlot(
            identity=identity, kernel_name=kernel_name,
            per_run_present=present, adcfg=adcfg,
            per_run_graphs=per_run_graphs))

    if not r.exhausted:
        raise SerializationError("trailing bytes after evidence payload")
    return evidence
