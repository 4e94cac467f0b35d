"""Persistent trace store + campaign engine.

Turns one-shot ``Owl.detect`` calls into cached, resumable, diffable
campaigns:

* :class:`TraceStore` — a content-addressed, versioned on-disk artifact
  store (compressed trace/evidence blobs, JSON manifest, atomic writes,
  corruption detection, ``gc``);
* :class:`Campaign` — binds a store to one named program + configuration
  and gives the pipeline trace caching, run-range evidence segments and
  report reuse (``Owl.detect(store=...)``);
* :func:`diff_reports` — cross-version leakage regression diffs
  (introduced / fixed / persisting), the detect → patch → re-audit loop.
"""

from repro.store.blobs import BlobStore, StoreCorruptionError, StoreError
from repro.store.campaign import (
    Campaign,
    RegressionDiff,
    diff_reports,
    incomplete_campaigns,
)
from repro.store.fingerprint import FingerprintError, fingerprint_value
from repro.store.serialize import (
    deserialize_evidence,
    deserialize_trace,
    serialize_evidence,
    serialize_trace,
)
from repro.store.store import Entry, TraceStore

__all__ = [
    "BlobStore",
    "Campaign",
    "Entry",
    "FingerprintError",
    "RegressionDiff",
    "StoreCorruptionError",
    "StoreError",
    "TraceStore",
    "deserialize_evidence",
    "deserialize_trace",
    "diff_reports",
    "fingerprint_value",
    "incomplete_campaigns",
    "serialize_evidence",
    "serialize_trace",
]
