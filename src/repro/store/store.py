"""The persistent artifact store: manifest + content-addressed blobs.

A :class:`TraceStore` is one directory::

    <root>/
      manifest.json     # logical index: key -> {kind, blob, meta, ...}
      manifest.journal  # JSONL deltas not yet compacted into the manifest
      manifest.lock     # advisory flock serializing writers (see locks.py)
      gc.lock           # advisory flock: unjournaled puts vs gc
      objects/aa/<62x>  # zlib blobs addressed by SHA-256 (see blobs.py)
      tmp/              # staging for atomic writes

The **manifest** maps logical keys (``trace/aes/<cfg>/<input>``,
``evidence/...``, ``report/...``, ``segment/...``, ``campaign/...``) to
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
(one fsync), and :meth:`refresh` reads other writers' deltas: only the
journal bytes appended since this handle last read it, unless
``manifest.json`` was rewritten (a compaction) or the journal no longer
continues where the handle stopped reading, which reload everything.

Both layers write atomically (temp file + ``os.replace``), verify content
hashes on load, and fail closed with :class:`StoreCorruptionError` rather
than hand back damaged artifacts.  ``gc()`` drops blobs no manifest entry
references — deleting entries is what makes blobs collectable.  A put
writes its blob (or dedups onto an existing one) before its journal
record lands, so every handle holds ``gc.lock`` shared from its first
unjournaled put until the flush that journals it, and ``gc`` takes it
exclusive: a collection never sees a blob whose record is still pending
in another handle's batch, nor sweeps a put's staging file.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

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

#: How far a handle has read the manifest: manifest.json's identity
#: ``(st_ino, st_size, st_mtime_ns)``, the journal offset just past the
#: last complete line read, and that line (checked on the next read, so
#: a journal rewritten under the handle is noticed).
Mark = Tuple[Tuple[int, int, int], int, bytes]


def _identity(stat: os.stat_result) -> Tuple[int, int, int]:
    return (stat.st_ino, stat.st_size, stat.st_mtime_ns)


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

    def __init__(self, root: Union[str, Path], *, create: bool = True) -> None:
        self.root = Path(root)
        manifest_exists = (self.root / "manifest.json").exists()
        if not create and not manifest_exists:
            raise StoreError(f"no store at {self.root} (missing manifest)")
        self.root.mkdir(parents=True, exist_ok=True)
        self.blobs = BlobStore(self.root)
        self.manifest_path = self.root / "manifest.json"
        self.journal_path = self.root / "manifest.journal"
        self.quarantine_dir = self.root / "quarantine"
        #: write-amplification accounting: full manifest.json rewrites and
        #: journal delta lines appended (the service benchmark reads these)
        self.manifest_saves = 0
        self.journal_appends = 0
        self._lock = FileLock(self.root / "manifest.lock")
        #: held (shared) while this handle has blob writes whose journal
        #: records are not yet flushed; gc() takes the lock exclusive
        self._put_hold = FileLock(self.root / "gc.lock", shared=True)
        self._batch_depth = 0
        self._pending_records: List[Dict] = []
        self._entries: Dict[str, Entry] = {}
        #: what this handle has read (None: reload everything on refresh)
        self._mark: Optional[Mark] = None
        if manifest_exists:
            self._load_manifest()
        else:
            with self._lock:
                self._save_manifest()

    # ------------------------------------------------------------------
    # manifest persistence
    # ------------------------------------------------------------------

    def _manifest_identity(self) -> Optional[Tuple[int, int, int]]:
        try:
            return _identity(os.stat(self.manifest_path))
        except OSError:
            return None

    def _read_disk_state(self) -> Tuple[Dict[str, Entry], Mark]:
        """Manifest entries as currently on disk (snapshot + journal),
        and the mark of what was read (caller holds a lock)."""
        try:
            with open(self.manifest_path, "rb") as handle:
                stat = os.fstat(handle.fileno())
                data = json.loads(handle.read().decode("utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as error:
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
        records, offset, last_line = self._read_journal(0, b"")
        self._replay(entries, records)
        return entries, (_identity(stat), offset, last_line)

    def _read_journal(self, offset: int, last_line: bytes
                      ) -> Optional[Tuple[List[Dict], int, bytes]]:
        """Journal records past *offset*, tolerating one torn tail line.

        Returns the records, the offset just past the last complete line
        and that line — or None when the bytes before *offset* are no
        longer *last_line* (the journal was compacted or truncated).
        A crash mid-append can leave a partial final line; everything
        before it is intact (appends are whole-line and serialized by the
        lock), so the partial tail is dropped rather than failing the
        load, and it is not consumed.  Garbage *between* valid lines is
        real corruption.
        """
        try:
            with open(self.journal_path, "rb") as handle:
                handle.seek(offset - len(last_line))
                raw = handle.read()
        except FileNotFoundError:
            raw = b""
        if not raw.startswith(last_line):
            return None
        raw = raw[len(last_line):]
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
                    f"line {index + 1} past byte {offset}: {error}"
                ) from error
        end = raw.rfind(b"\n") + 1
        if end:
            last_line = raw[raw.rfind(b"\n", 0, end - 1) + 1:end]
        return records, offset + end, last_line

    def _replay(self, entries: Dict[str, Entry], records: List[Dict]
                ) -> None:
        for record in records:
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

    def _load_manifest(self) -> None:
        with FileLock(self._lock.path, shared=True):
            self._entries, self._mark = self._read_disk_state()

    def refresh(self) -> None:
        """Make other writers' entries visible, reading only what is new.

        Pending batched records of *this* store are flushed first, so a
        refresh never drops local writes.  Reads only the journal bytes
        appended since this handle's mark, up to the last complete
        line; a rewritten manifest.json (any process's compaction) or a
        journal that no longer continues at the mark reloads everything.
        Replaying this handle's own appends again is harmless: records
        are whole-entry puts and deletes, applied in journal order.
        """
        self._flush_journal()
        with FileLock(self._lock.path, shared=True):
            self._refresh_locked()

    def _refresh_locked(self) -> None:
        """:meth:`refresh`'s read (caller holds a lock, nothing pending)."""
        if self._mark is not None \
                and self._mark[0] == self._manifest_identity():
            appended = self._read_journal(*self._mark[1:])
            if appended is not None:
                records, offset, last_line = appended
                self._replay(self._entries, records)
                self._mark = (self._mark[0], offset, last_line)
                return
        self._entries, self._mark = self._read_disk_state()

    def _save_manifest(self) -> None:
        """Rewrite manifest.json from ``self._entries`` (caller holds lock)."""
        payload = json.dumps(
            {"version": MANIFEST_VERSION,
             "entries": {key: entry.to_dict()
                         for key, entry in sorted(self._entries.items())}},
            indent=2, sort_keys=True)
        tmp_path = self.blobs.tmp_dir / (
            f"manifest.{os.getpid()}.{threading.get_ident()}.tmp")
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.manifest_path)
        if hasattr(os, "O_DIRECTORY"):
            # the rename must be durable before a compaction empties the
            # journal, or a power loss could keep neither copy of the
            # deltas (POSIX only: other platforms cannot open a directory)
            directory = os.open(self.root, os.O_RDONLY | os.O_DIRECTORY)
            try:
                os.fsync(directory)
            finally:
                os.close(directory)
        self.manifest_saves += 1

    # ------------------------------------------------------------------
    # journaled write path
    # ------------------------------------------------------------------

    def _record(self, record: Dict) -> None:
        """Queue one manifest delta; flush immediately outside a batch."""
        self._pending_records.append(record)
        if self._batch_depth == 0:
            self._flush_journal()

    def _flush_journal(self) -> None:
        """Durably append every pending delta in one locked write; then no
        put of this handle is unjournaled, so its gc hold is dropped."""
        if self._pending_records:
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
        if self._put_hold.held:
            self._put_hold.release()

    def _compact_locked(self) -> None:
        """Fold the journal into manifest.json (caller holds the lock)."""
        self._entries = self._read_disk_state()[0]
        self._save_manifest()
        with open(self.journal_path, "wb"):
            pass  # truncate: every delta is now in the snapshot
        self._mark = (self._manifest_identity(), 0, b"")

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

    def keys_under(self, prefix: str) -> List[str]:
        """Keys starting with *prefix*, unsorted (one manifest pass)."""
        return [key for key in self._entries if key.startswith(prefix)]

    def put_bytes(self, key: str, kind: str, payload: bytes,
                  meta: Optional[Dict] = None) -> Entry:
        """Store *payload* under *key* (blob write + manifest update).

        From the blob write until the record is journaled (at once, or
        when the enclosing batch flushes) the handle holds ``gc.lock``
        shared, so no gc() collects the blob in between.
        """
        if not self._put_hold.held:
            self._put_hold.acquire()
        try:
            blob = self.blobs.put(payload)
        except BaseException:
            if not self._pending_records:
                self._put_hold.release()
            raise
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
        ...]}`` where sizes are compressed on-disk bytes.

        The referenced set is every writer's, not this handle's: pending
        records are flushed, and the manifest is re-read and the blobs
        deleted under the writer lock, so a put that another handle has
        journaled — even one that dedups onto a blob this handle saw
        dropped — keeps its blob.  A put another handle has not journaled
        yet (one inside its open batch) holds ``gc.lock`` shared, which
        gc() takes exclusive first: the collection waits until that
        handle flushes, and never sweeps a put's staging file.
        """
        self._flush_journal()  # also releases this handle's own hold
        with FileLock(self._put_hold.path), self._lock:
            self._refresh_locked()
            referenced = {entry.blob for entry in self._entries.values()}
            candidates: List = []
            kept = 0
            for digest in list(self.blobs.iter_digests()):
                if digest in referenced:
                    kept += 1
                    continue
                candidates.append((digest, self.blobs.disk_bytes(digest)))
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
                "kept": kept, "candidates": candidates}

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
        blob_path = self.blobs.path_for(digest)
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
