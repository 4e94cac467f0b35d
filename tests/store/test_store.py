"""The TraceStore manifest layer: persistence, typed artifacts, gc."""

import json
import os
import threading

import pytest

from repro.apps import dummy
from repro.core.evidence import Evidence
from repro.core.report import Leak, LeakageReport, LeakType
from repro.store import StoreCorruptionError, StoreError, TraceStore, blobs
from repro.store.serialize import serialize_trace
from repro.tracing import TraceRecorder


@pytest.fixture
def store(tmp_path):
    return TraceStore(tmp_path / "store")


@pytest.fixture
def trace():
    return TraceRecorder().record(dummy.dummy_program, dummy.fixed_input())


def sample_report() -> LeakageReport:
    report = LeakageReport(program_name="sample", confidence=0.95)
    report.add(Leak(leak_type=LeakType.DEVICE_DATA_FLOW,
                    kernel_identity="kern@1", kernel_name="kern",
                    block="body", instr=1, p_value=1e-6, statistic=0.5,
                    detail="test leak"))
    return report


class TestManifest:
    def test_fresh_store_creates_manifest(self, tmp_path):
        store = TraceStore(tmp_path / "new")
        assert (tmp_path / "new" / "manifest.json").exists()
        assert len(store) == 0

    def test_open_missing_store_without_create_fails(self, tmp_path):
        with pytest.raises(StoreError):
            TraceStore(tmp_path / "absent", create=False)

    def test_entries_survive_reopen(self, tmp_path):
        store = TraceStore(tmp_path / "s")
        store.put_bytes("trace/x", "trace", b"payload", meta={"seed": 7})
        reopened = TraceStore(tmp_path / "s", create=False)
        assert "trace/x" in reopened
        entry = reopened.get("trace/x")
        assert entry.kind == "trace"
        assert entry.meta == {"seed": 7}
        assert reopened.get_bytes("trace/x") == b"payload"

    def test_corrupt_manifest_fails_closed(self, tmp_path):
        store = TraceStore(tmp_path / "s")
        store.put_bytes("k", "trace", b"x")
        (tmp_path / "s" / "manifest.json").write_text("{not json",
                                                      encoding="utf-8")
        with pytest.raises(StoreCorruptionError):
            TraceStore(tmp_path / "s")

    def test_unsupported_manifest_version_rejected(self, tmp_path):
        store = TraceStore(tmp_path / "s")
        path = tmp_path / "s" / "manifest.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        data["version"] = 999
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(StoreError):
            TraceStore(tmp_path / "s")

    def test_malformed_entry_rejected(self, tmp_path):
        store = TraceStore(tmp_path / "s")
        path = tmp_path / "s" / "manifest.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        data["entries"]["broken"] = {"kind": "trace"}  # missing blob/size
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(StoreCorruptionError):
            TraceStore(tmp_path / "s")


class TestEntries:
    def test_put_get_bytes(self, store):
        store.put_bytes("a", "trace", b"one")
        store.put_bytes("b", "report", b"two")
        assert store.get_bytes("a") == b"one"
        assert store.get_bytes("missing") is None
        assert len(store) == 2

    def test_overwrite_replaces_entry(self, store):
        store.put_bytes("k", "trace", b"old")
        store.put_bytes("k", "trace", b"new")
        assert store.get_bytes("k") == b"new"
        assert len(store) == 1

    def test_entries_filter_by_kind(self, store):
        store.put_bytes("t1", "trace", b"x")
        store.put_bytes("r1", "report", b"y")
        assert [e.key for e in store.entries(kind="trace")] == ["t1"]
        assert [e.key for e in store.entries()] == ["r1", "t1"]

    def test_size_mismatch_is_corruption(self, store):
        entry = store.put_bytes("k", "trace", b"payload")
        entry.size = 999  # simulate a tampered manifest row
        with pytest.raises(StoreCorruptionError):
            store.get_bytes("k")

    def test_delete(self, store):
        store.put_bytes("k", "trace", b"x")
        assert store.delete("k")
        assert store.get_bytes("k") is None
        assert not store.delete("k")


class TestTypedArtifacts:
    def test_trace_round_trip_byte_identical(self, store, trace):
        store.put_trace("trace/dummy", trace)
        restored = store.get_trace("trace/dummy")
        assert serialize_trace(restored) == serialize_trace(trace)
        assert restored.signature() == trace.signature()

    def test_evidence_round_trip(self, store, trace):
        evidence = Evidence.from_traces([trace])
        store.put_evidence("ev/k", evidence)
        restored = store.get_evidence("ev/k")
        assert restored.num_runs == 1
        assert restored.identity_sequence == evidence.identity_sequence

    def test_report_round_trip_byte_identical(self, store):
        report = sample_report()
        store.put_report("report/k", report)
        restored = store.get_report("report/k")
        assert restored.to_json() == report.to_json()

    def test_corrupt_report_fails_closed(self, store):
        store.put_bytes("report/bad", "report", b"\xff\xfenot json")
        with pytest.raises(StoreCorruptionError):
            store.get_report("report/bad")

    def test_json_round_trip(self, store):
        store.put_json("campaign/k", "campaign", {"a": [1, 2]})
        assert store.get_json("campaign/k") == {"a": [1, 2]}


class TestGc:
    def test_gc_drops_only_unreferenced_blobs(self, store):
        store.put_bytes("keep", "trace", b"keep me")
        store.put_bytes("drop", "trace", b"drop me")
        store.delete("drop")
        result = store.gc()
        assert result["removed"] == 1
        assert result["kept"] == 1
        assert result["reclaimed_bytes"] > 0
        assert store.get_bytes("keep") == b"keep me"

    def test_gc_keeps_shared_blob_while_any_key_references_it(self, store):
        store.put_bytes("a", "trace", b"shared")
        store.put_bytes("b", "trace", b"shared")
        store.delete("a")
        assert store.gc()["removed"] == 0
        assert store.get_bytes("b") == b"shared"

    def test_gc_sees_another_handles_dedup_put(self, tmp_path):
        """A handle's gc must not collect a blob that another handle
        re-referenced after this one last read the manifest."""
        h1 = TraceStore(tmp_path / "shared")
        h1.put_bytes("k1", "trace", b"payload")
        h1.delete("k1")
        h2 = TraceStore(tmp_path / "shared")
        h1.put_bytes("k2", "trace", b"payload")  # dedups onto k1's blob
        assert h2.gc()["removed"] == 0
        assert h1.get_bytes("k2") == b"payload"

    def test_gc_waits_for_another_handles_open_batch(self, tmp_path):
        """A put inside another handle's open batch has written (here:
        dedupped onto) its blob but not journaled it: gc must wait for
        the batch's flush instead of collecting the blob."""
        h1 = TraceStore(tmp_path / "shared")
        h1.put_bytes("k1", "trace", b"payload")
        h1.delete("k1")
        h2 = TraceStore(tmp_path / "shared")
        results = []
        collector = threading.Thread(target=lambda: results.append(h2.gc()),
                                     daemon=True)
        with h1.batch():
            h1.put_bytes("k2", "trace", b"payload")
            collector.start()
            collector.join(0.5)
            assert collector.is_alive(), "gc ran past an unjournaled put"
        collector.join(30)
        assert not collector.is_alive()
        assert results[0]["removed"] == 0
        assert h1.get_bytes("k2") == b"payload"

    def test_gc_never_sweeps_a_put_in_flight(self, tmp_path, monkeypatch):
        """gc on another handle, started between a blob's fsync and its
        publishing ``os.replace``, must leave the staging file alone."""
        h1 = TraceStore(tmp_path / "shared")
        h2 = TraceStore(tmp_path / "shared")
        results = []
        collector = threading.Thread(target=lambda: results.append(h2.gc()),
                                     daemon=True)
        fsync = os.fsync

        def fsync_then_collect(fd):
            fsync(fd)
            if not collector.is_alive() and not results:
                collector.start()
                collector.join(0.5)

        monkeypatch.setattr(blobs.os, "fsync", fsync_then_collect)
        h1.put_bytes("k", "trace", b"in flight")
        monkeypatch.setattr(blobs.os, "fsync", fsync)
        collector.join(30)
        assert not collector.is_alive()
        assert results[0]["removed"] == 0
        assert h1.get_bytes("k") == b"in flight"

    def test_gc_flushes_its_own_pending_batch(self, store):
        """A put still pending in the gc caller's batch keeps its blob."""
        store.put_bytes("old", "trace", b"payload")
        store.delete("old")
        with store.batch():
            store.put_bytes("new", "trace", b"payload")
            assert store.gc()["removed"] == 0
        assert TraceStore(store.root).get_bytes("new") == b"payload"

    def test_verify_flags_corrupt_entries(self, store):
        entry = store.put_bytes("good", "trace", b"fine")
        bad = store.put_bytes("bad", "trace", b"will corrupt" * 30)
        path = store.blobs.path_for(bad.blob)
        payload = bytearray(path.read_bytes())
        payload[5] ^= 0xFF
        path.write_bytes(bytes(payload))
        assert store.verify() == ["bad"]
