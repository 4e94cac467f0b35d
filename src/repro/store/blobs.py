"""Content-addressed blob storage: the store's bottom layer.

Every artifact body (serialised trace, evidence set, report JSON) lives as
one *blob*: zlib-compressed bytes in ``objects/<aa>/<...62 hex>``, where
the full path spells the SHA-256 of the **uncompressed** payload.  The
address being a content digest gives three properties for free:

* **dedup** — identical traces (phase 2's equivalence classes, re-recorded
  runs) collapse to one object on disk;
* **corruption detection** — a load decompresses and re-hashes; any bit
  rot or partial write fails closed with :class:`StoreCorruptionError`;
* **idempotent writes** — re-putting an existing payload is a no-op.

Puts compress at zlib level 1, the fastest; reads take any level, and
neither the address nor the dedup depends on the compressed bytes.

Writes are atomic: payloads land in ``tmp/`` and are published with
``os.replace``, so a crash mid-write can leave garbage in ``tmp/`` (swept
opportunistically) but never a half-written object at a valid address.

Objects are sharded by digest prefix (``objects/ab/cdef…``) so a
fleet-scale store never piles a million files into one directory.
Stores written before sharding kept every blob flat, directly under
``objects/<64 hex>``.  :class:`BlobStore` refuses to open such a store
rather than see each flat blob as missing (the campaign's self-healing
loads would then drop every entry those blobs back); the error names
``owl verify --store DIR``, which moves them once with
:func:`migrate_flat`.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import threading
import zlib
from pathlib import Path
from typing import Iterator, List, Union

from repro import profiling
# historical home of these classes; canonical definitions live in
# repro.errors so every layer shares one hierarchy
from repro.errors import StoreCorruptionError, StoreError

__all__ = ["BlobStore", "StoreCorruptionError", "StoreError",
           "migrate_flat", "sha256_hex"]

#: Disambiguates concurrent same-digest writes from one process: pid
#: alone is not unique when two *threads* (e.g. in-process workers) put
#: the identical payload at once — they would share a tmp path and one
#: ``os.replace`` would steal the other's file out from under it.
_TMP_SERIAL = itertools.count()

#: Level 1 compresses store payloads (A-DCFG histograms) about 5x faster
#: than zlib's default 6, for about 10% more bytes on disk.
_ZLIB_LEVEL = 1


def sha256_hex(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _is_digest(name: str) -> bool:
    return len(name) == 64 and all(c in "0123456789abcdef" for c in name)


def _flat_digests(objects_dir: Path) -> List[str]:
    """Addresses of blobs stored flat, directly under ``objects/``."""
    try:
        with os.scandir(objects_dir) as entries:
            return [entry.name for entry in entries
                    if _is_digest(entry.name) and entry.is_file()]
    except FileNotFoundError:
        return []


def migrate_flat(root: Union[str, Path]) -> int:
    """Move every flat blob of the store at *root* to its sharded address.

    The one-shot upgrade ``owl verify`` runs before it opens a store;
    returns the number of blobs moved.  Each move is one atomic
    ``os.replace`` of an already durable file, so an interrupted
    migration leaves a store that still refuses to open, and rerunning
    it finishes the job.
    """
    objects_dir = Path(root) / "objects"
    moved = 0
    for digest in _flat_digests(objects_dir):
        target = objects_dir / digest[:2] / digest[2:]
        target.parent.mkdir(exist_ok=True)
        try:
            os.replace(objects_dir / digest, target)
        except FileNotFoundError:
            continue  # a concurrent migration moved it first
        moved += 1
    return moved


class BlobStore:
    """Digest-prefix sharded content-addressed objects, published
    atomically."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.tmp_dir = self.root / "tmp"
        if _flat_digests(self.objects_dir):
            raise StoreError(
                f"{self.root} holds blobs in the pre-sharding flat layout; "
                f"run `owl verify --store {self.root}` once to migrate it")
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        self.tmp_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # addressing
    # ------------------------------------------------------------------

    def path_for(self, digest: str) -> Path:
        """Sharded path for *digest*: ``objects/<aa>/<62 hex>``."""
        if not _is_digest(digest):
            raise StoreError(f"not a SHA-256 blob address: {digest!r}")
        return self.objects_dir / digest[:2] / digest[2:]

    # ------------------------------------------------------------------
    # read / write
    # ------------------------------------------------------------------

    @profiling.timed("blob_write")
    def put(self, payload: bytes) -> str:
        """Store *payload*, returning its content address (idempotent)."""
        digest = sha256_hex(payload)
        path = self.path_for(digest)
        if path.exists():
            return digest
        path.parent.mkdir(parents=True, exist_ok=True)
        compressed = zlib.compress(payload, level=_ZLIB_LEVEL)
        tmp_path = self.tmp_dir / (
            f"{digest}.{os.getpid()}.{threading.get_ident()}."
            f"{next(_TMP_SERIAL)}.tmp")
        try:
            with open(tmp_path, "wb") as handle:
                handle.write(compressed)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
        finally:
            if tmp_path.exists():
                tmp_path.unlink()
        return digest

    @profiling.timed("blob_read")
    def get(self, digest: str) -> bytes:
        """Load and verify the payload stored at *digest*."""
        try:
            compressed = self.path_for(digest).read_bytes()
        except FileNotFoundError:
            raise StoreError(f"missing blob {digest}") from None
        try:
            payload = zlib.decompress(compressed)
        except zlib.error as error:
            raise StoreCorruptionError(
                f"blob {digest} is not valid zlib data "
                f"(corrupt or truncated): {error}") from error
        actual = sha256_hex(payload)
        if actual != digest:
            raise StoreCorruptionError(
                f"blob content hash {actual} does not match its address "
                f"{digest}: on-disk corruption")
        return payload

    def has(self, digest: str) -> bool:
        return self.path_for(digest).exists()

    def delete(self, digest: str) -> int:
        """Remove a blob; returns the on-disk bytes reclaimed."""
        path = self.path_for(digest)
        try:
            size = path.stat().st_size
            path.unlink()
        except FileNotFoundError:
            return 0
        return size

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def iter_digests(self) -> Iterator[str]:
        """All blob addresses currently on disk."""
        for shard in sorted(self.objects_dir.iterdir()):
            if shard.is_dir() and len(shard.name) == 2:
                for entry in sorted(shard.iterdir()):
                    digest = shard.name + entry.name
                    if len(digest) == 64:
                        yield digest

    def sweep_tmp(self) -> int:
        """Drop leftovers from interrupted writes; returns files removed."""
        removed = 0
        for stale in self.tmp_dir.glob("*.tmp"):
            try:
                stale.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def disk_bytes(self, digest: str) -> int:
        """Compressed on-disk size of one blob (0 if absent)."""
        try:
            return self.path_for(digest).stat().st_size
        except FileNotFoundError:
            return 0
