"""The persistent artifact store: manifest + content-addressed blobs.

A :class:`TraceStore` is one directory::

    <root>/
      manifest.json     # logical index: key -> {kind, blob, meta, ...}
      manifest.journal  # JSONL deltas not yet compacted into the manifest
      manifest.lock     # advisory flock serializing writers (see locks.py)
      objects/aa/<62x>  # zlib blobs addressed by SHA-256 (see blobs.py)
      tmp/              # staging for atomic writes

The **manifest** maps logical keys (``trace/aes/<cfg>/<input>``,
``evidence/...``, ``report/...``, ``checkpoint/...``, ``campaign/...``) to
entries carrying the blob address plus indexing metadata: workload name,
config fingerprint, seed, and the run's :class:`PhaseStats` snapshot where
relevant.  Entries are small JSON; bodies live in the blob layer.

Manifest mutations take a **journaled write path**: each ``put``/``delete``
appends one JSON line to ``manifest.journal`` under an advisory file lock
instead of rewriting the whole ``manifest.json`` (which grows with the
store and made a 30-run campaign pay O(runs) full-manifest writes).
Loading replays the journal over the manifest; :meth:`compact` folds the
journal back into one atomic ``manifest.json`` rewrite (done automatically
when the journal grows past a threshold, and cheap to call explicitly).
Because concurrent writers *append* deltas rather than clobbering each
other's snapshots, two processes can run campaigns against one store
without losing entries — the fleet-safety contract the detection service
builds on.  :meth:`batch` groups many mutations into one locked append
(one fsync), and :meth:`refresh` re-reads other writers' deltas.

Both layers write atomically (temp file + ``os.replace``), verify content
hashes on load, and fail closed with :class:`StoreCorruptionError` rather
than hand back damaged artifacts.  ``gc()`` drops blobs no manifest entry
references — deleting entries is what makes blobs collectable.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.evidence import Evidence
from repro.core.report import LeakageReport
from repro.store.blobs import BlobStore, StoreCorruptionError, StoreError
from repro.store.locks import FileLock
from repro.store.serialize import (
    deserialize_evidence,
    deserialize_trace,
    serialize_evidence,
    serialize_trace,
)
from repro.tracing.recorder import ProgramTrace

MANIFEST_VERSION = 1

#: Compact the journal back into manifest.json once it grows past this.
JOURNAL_COMPACT_BYTES = 512 * 1024

#: Recognised entry kinds (informational; the store accepts any string).
KINDS = ("trace", "evidence", "checkpoint", "report", "campaign")


@dataclass
class Entry:
    """One manifest row: a logical key bound to a blob + metadata."""

    key: str
    kind: str
    blob: str
    size: int
    created_at: float
    meta: Dict = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return {"kind": self.kind, "blob": self.blob, "size": self.size,
                "created_at": self.created_at, "meta": self.meta}

    @classmethod
    def from_dict(cls, key: str, data: Dict) -> "Entry":
        try:
            return cls(key=key, kind=data["kind"], blob=data["blob"],
                       size=data["size"], created_at=data["created_at"],
                       meta=data.get("meta", {}))
        except (KeyError, TypeError) as error:
            raise StoreCorruptionError(
                f"manifest entry {key!r} is malformed: {error}") from error


class TraceStore:
    """Content-addressed, versioned on-disk store for Owl artifacts."""

    def __init__(self, root: Union[str, Path], *, create: bool = True,
                 journal: bool = True) -> None:
        self.root = Path(root)
        manifest_exists = (self.root / "manifest.json").exists()
        if not create and not manifest_exists:
            raise StoreError(f"no store at {self.root} (missing manifest)")
        self.root.mkdir(parents=True, exist_ok=True)
        self.blobs = BlobStore(self.root)
        self.manifest_path = self.root / "manifest.json"
        self.journal_path = self.root / "manifest.journal"
        self.quarantine_dir = self.root / "quarantine"
        #: journaled deltas (default) vs legacy rewrite-manifest-per-put
        self.journal_enabled = journal
        #: write-amplification accounting: full manifest.json rewrites and
        #: journal delta lines appended (the service benchmark reads these)
        self.manifest_saves = 0
        self.journal_appends = 0
        self._lock = FileLock(self.root / "manifest.lock")
        self._batch_depth = 0
        self._pending_records: List[Dict] = []
        self._dirty = False
        self._entries: Dict[str, Entry] = {}
        if manifest_exists:
            self._load_manifest()
        else:
            with self._lock:
                self._save_manifest()

    # ------------------------------------------------------------------
    # manifest persistence
    # ------------------------------------------------------------------

    def _read_disk_state(self) -> Dict[str, Entry]:
        """Manifest entries as currently on disk: snapshot + journal."""
        try:
            data = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            raise StoreCorruptionError(
                f"cannot read store manifest {self.manifest_path}: "
                f"{error}") from error
        if not isinstance(data, dict) or "entries" not in data:
            raise StoreCorruptionError(
                f"store manifest {self.manifest_path} has no entries table")
        version = data.get("version")
        if version != MANIFEST_VERSION:
            raise StoreError(
                f"unsupported store manifest version {version!r}")
        entries = {key: Entry.from_dict(key, value)
                   for key, value in data["entries"].items()}
        for record in self._read_journal():
            op = record.get("op")
            key = record.get("key")
            if op == "put" and isinstance(key, str):
                entries[key] = Entry.from_dict(key, record.get("entry", {}))
            elif op == "del" and isinstance(key, str):
                entries.pop(key, None)
            else:
                raise StoreCorruptionError(
                    f"manifest journal {self.journal_path} holds an "
                    f"unrecognised record: {record!r}")
        return entries

    def _read_journal(self) -> List[Dict]:
        """Replay the delta journal, tolerating one torn trailing line.

        A crash mid-append can leave a partial final line; everything
        before it is intact (appends are whole-line and serialized by the
        lock), so the partial tail is dropped rather than failing the
        load.  Garbage *between* valid lines is real corruption.
        """
        try:
            raw = self.journal_path.read_bytes()
        except FileNotFoundError:
            return []
        records: List[Dict] = []
        lines = raw.split(b"\n")
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line.decode("utf-8")))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                if index == len(lines) - 1:
                    break  # torn tail from an interrupted append
                raise StoreCorruptionError(
                    f"manifest journal {self.journal_path} is corrupt at "
                    f"line {index + 1}: {error}") from error
        return records

    def _load_manifest(self) -> None:
        with FileLock(self._lock.path, shared=True):
            self._entries = self._read_disk_state()

    def refresh(self) -> None:
        """Re-read the manifest so another writer's entries become visible.

        Pending batched records of *this* store are flushed first, so a
        refresh never drops local writes.
        """
        self._flush_journal()
        self._load_manifest()

    def _save_manifest(self) -> None:
        """Rewrite manifest.json from ``self._entries`` (caller holds lock)."""
        payload = json.dumps(
            {"version": MANIFEST_VERSION,
             "entries": {key: entry.to_dict()
                         for key, entry in sorted(self._entries.items())}},
            indent=2, sort_keys=True)
        tmp_path = self.blobs.tmp_dir / (
            f"manifest.{os.getpid()}.{threading.get_ident()}.tmp")
        tmp_path.write_text(payload + "\n", encoding="utf-8")
        os.replace(tmp_path, self.manifest_path)
        self.manifest_saves += 1

    # ------------------------------------------------------------------
    # journaled write path
    # ------------------------------------------------------------------

    def _record(self, record: Dict) -> None:
        """Queue one manifest delta; flush immediately outside a batch."""
        if not self.journal_enabled:
            # legacy write path: every mutation rewrites the whole
            # manifest (kept as the benchmark baseline and a fallback)
            if self._batch_depth == 0:
                with self._lock:
                    self._save_manifest()
            else:
                self._dirty = True
            return
        self._pending_records.append(record)
        if self._batch_depth == 0:
            self._flush_journal()

    def _flush_journal(self) -> None:
        """Durably append every pending delta in one locked write."""
        if not self.journal_enabled:
            if self._dirty:
                with self._lock:
                    self._save_manifest()
                self._dirty = False
            return
        if not self._pending_records:
            return
        lines = b"".join(
            json.dumps(record, sort_keys=True).encode("utf-8") + b"\n"
            for record in self._pending_records)
        with self._lock:
            with open(self.journal_path, "ab") as handle:
                handle.write(lines)
                handle.flush()
                os.fsync(handle.fileno())
            self.journal_appends += len(self._pending_records)
            self._pending_records = []
            if self.journal_path.stat().st_size > JOURNAL_COMPACT_BYTES:
                self._compact_locked()

    def _compact_locked(self) -> None:
        """Fold the journal into manifest.json (caller holds the lock)."""
        self._entries = self._read_disk_state()
        self._save_manifest()
        with open(self.journal_path, "wb"):
            pass  # truncate: every delta is now in the snapshot

    def flush(self) -> None:
        """Durably persist pending batched mutations now."""
        self._flush_journal()

    def compact(self) -> None:
        """Flush pending deltas and fold the journal into the manifest."""
        self._flush_journal()
        with self._lock:
            self._compact_locked()

    @contextmanager
    def batch(self):
        """Group mutations into one journal append (one lock, one fsync).

        Nestable; the outermost exit flushes.  Durability point: records
        are on disk when the batch exits (or at the next explicit
        :meth:`flush`), not per mutation — crash inside a batch loses only
        that batch's manifest entries, never previously flushed state, and
        any blobs already written are collectable garbage.
        """
        self._batch_depth += 1
        try:
            yield self
        finally:
            self._batch_depth -= 1
            if self._batch_depth == 0:
                self._flush_journal()

    # ------------------------------------------------------------------
    # generic entry API
    # ------------------------------------------------------------------

    def get(self, key: str) -> Optional[Entry]:
        return self._entries.get(key)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self, kind: Optional[str] = None) -> List[Entry]:
        """All entries (of one *kind* if given), sorted by key."""
        return [entry for key, entry in sorted(self._entries.items())
                if kind is None or entry.kind == kind]

    def put_bytes(self, key: str, kind: str, payload: bytes,
                  meta: Optional[Dict] = None) -> Entry:
        """Store *payload* under *key* (blob write + manifest update)."""
        blob = self.blobs.put(payload)
        entry = Entry(key=key, kind=kind, blob=blob, size=len(payload),
                      created_at=time.time(), meta=dict(meta or {}))
        self._entries[key] = entry
        self._record({"op": "put", "key": key, "entry": entry.to_dict()})
        return entry

    def get_bytes(self, key: str) -> Optional[bytes]:
        """Load the verified payload under *key* (None when absent)."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        payload = self.blobs.get(entry.blob)
        if len(payload) != entry.size:
            raise StoreCorruptionError(
                f"entry {key!r} declares {entry.size} bytes but its blob "
                f"holds {len(payload)}")
        return payload

    def delete(self, key: str) -> bool:
        """Drop the manifest entry (its blob becomes gc-collectable)."""
        if key not in self._entries:
            return False
        del self._entries[key]
        self._record({"op": "del", "key": key})
        return True

    # ------------------------------------------------------------------
    # typed artifact helpers
    # ------------------------------------------------------------------

    def put_trace(self, key: str, trace: ProgramTrace,
                  meta: Optional[Dict] = None) -> Entry:
        return self.put_bytes(key, "trace", serialize_trace(trace), meta)

    def get_trace(self, key: str) -> Optional[ProgramTrace]:
        payload = self.get_bytes(key)
        return None if payload is None else deserialize_trace(payload)

    def put_evidence(self, key: str, evidence: Evidence,
                     meta: Optional[Dict] = None,
                     kind: str = "evidence") -> Entry:
        return self.put_bytes(key, kind, serialize_evidence(evidence), meta)

    def get_evidence(self, key: str) -> Optional[Evidence]:
        payload = self.get_bytes(key)
        return None if payload is None else deserialize_evidence(payload)

    def put_report(self, key: str, report: LeakageReport,
                   meta: Optional[Dict] = None) -> Entry:
        payload = (report.to_json() + "\n").encode("utf-8")
        return self.put_bytes(key, "report", payload, meta)

    def get_report(self, key: str) -> Optional[LeakageReport]:
        payload = self.get_bytes(key)
        if payload is None:
            return None
        try:
            return LeakageReport.from_json(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, KeyError,
                ValueError) as error:
            raise StoreCorruptionError(
                f"report entry {key!r} is malformed: {error}") from error

    def put_json(self, key: str, kind: str, obj,
                 meta: Optional[Dict] = None) -> Entry:
        payload = json.dumps(obj, indent=2, sort_keys=True).encode("utf-8")
        return self.put_bytes(key, kind, payload, meta)

    def get_json(self, key: str):
        payload = self.get_bytes(key)
        if payload is None:
            return None
        try:
            return json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise StoreCorruptionError(
                f"JSON entry {key!r} is malformed: {error}") from error

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def gc(self, dry_run: bool = False) -> Dict:
        """Drop unreferenced blobs and stale temp files.

        With ``dry_run=True`` nothing is deleted: the return value lists
        what *would* go, so operators of a shared fleet store can audit a
        collection before running it.  Returns ``{"removed": n,
        "reclaimed_bytes": b, "kept": k, "candidates": [(digest, bytes),
        ...], "layout": {...}}`` where sizes are compressed on-disk bytes
        and ``layout`` reports the blob-directory layout version (legacy
        flat stores are walked too — see :meth:`BlobStore.layout`).
        """
        referenced = {entry.blob for entry in self._entries.values()}
        candidates: List = []
        kept = 0
        for digest in list(self.blobs.iter_digests()):
            if digest in referenced:
                kept += 1
                continue
            candidates.append((digest, self.blobs.disk_bytes(digest)))
        layout = self.blobs.layout()
        removed = 0
        if dry_run:
            reclaimed = sum(size for _digest, size in candidates)
        else:
            reclaimed = 0
            for digest, _size in candidates:
                reclaimed += self.blobs.delete(digest)
                removed += 1
            self.blobs.sweep_tmp()
        return {"removed": removed, "reclaimed_bytes": reclaimed,
                "kept": kept, "candidates": candidates, "layout": layout}

    def quarantine(self, key: str) -> List[str]:
        """Isolate the damaged blob behind *key* and drop every entry it
        backs.

        Blobs are content-addressed and deduplicated, so one corrupt file
        can back many logical keys — all of them are removed from the
        manifest (a later campaign run re-records them as cache misses).
        The blob file itself is moved to ``quarantine/<digest>`` rather
        than deleted, preserving the evidence for post-mortems.  Returns
        the keys that were dropped.
        """
        entry = self._entries.get(key)
        if entry is None:
            return []
        digest = entry.blob
        dropped = sorted(k for k, e in self._entries.items()
                         if e.blob == digest)
        with self.batch():
            for k in dropped:
                del self._entries[k]
                self._record({"op": "del", "key": k})
        for blob_path in (self.blobs.path_for(digest),
                          self.blobs.flat_path_for(digest)):
            if blob_path.exists():
                self.quarantine_dir.mkdir(parents=True, exist_ok=True)
                os.replace(blob_path, self.quarantine_dir / digest)
        return dropped

    def verify(self, repair: bool = False) -> List[str]:
        """Integrity-check every entry; returns the keys that failed.

        With ``repair=True`` each failing entry is quarantined (see
        :meth:`quarantine`): the store heals to a smaller-but-sound state
        and the next campaign run transparently re-records what was lost.
        """
        bad: List[str] = []
        for key in sorted(self._entries):
            try:
                self.get_bytes(key)
            except StoreError:
                bad.append(key)
        if repair:
            for key in bad:
                self.quarantine(key)
        return bad

    def __repr__(self) -> str:
        return f"TraceStore({str(self.root)!r}, entries={len(self._entries)})"
