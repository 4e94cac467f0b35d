"""Journaled manifest writes: O(1) appends, batching, crash tolerance,
incremental refresh."""

import json
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.store.store as store_module
from repro.errors import StoreCorruptionError
from repro.store.store import TraceStore


def _fill(store, count, prefix="trace/t"):
    for index in range(count):
        store.put_bytes(f"{prefix}/{index}", "trace",
                        f"payload-{index}".encode())


class TestJournalWriteAmplification:
    def test_puts_append_to_journal_not_manifest(self, tmp_path):
        store = TraceStore(tmp_path)
        baseline = store.manifest_saves
        _fill(store, 30)
        # one journal append per put, zero full-manifest rewrites
        assert store.manifest_saves == baseline
        assert store.journal_appends == 30

    def test_batch_flushes_once_with_all_records(self, tmp_path):
        store = TraceStore(tmp_path)
        baseline = store.manifest_saves
        with store.batch():
            _fill(store, 30)
            assert store.journal_appends == 0  # nothing flushed inside
        assert store.journal_appends == 30  # one locked append, 30 lines
        assert store.manifest_saves == baseline
        assert len(TraceStore(tmp_path, create=False)) == 30

    def test_nested_batches_flush_once_at_outermost_exit(self, tmp_path):
        store = TraceStore(tmp_path)
        with store.batch():
            _fill(store, 5, prefix="trace/a")
            with store.batch():
                _fill(store, 5, prefix="trace/b")
            assert store.journal_appends == 0
        assert store.journal_appends == 10


class TestJournalReplay:
    def test_entries_visible_to_fresh_open(self, tmp_path):
        store = TraceStore(tmp_path)
        _fill(store, 8)
        store.delete("trace/t/3")
        reopened = TraceStore(tmp_path, create=False)
        assert reopened.get_bytes("trace/t/5") == b"payload-5"
        assert reopened.get("trace/t/3") is None
        assert len(reopened) == 7

    def test_refresh_sees_other_writers(self, tmp_path):
        writer = TraceStore(tmp_path)
        reader = TraceStore(tmp_path)
        writer.put_bytes("trace/x", "trace", b"x")
        assert reader.get("trace/x") is None  # snapshot view
        reader.refresh()
        assert reader.get_bytes("trace/x") == b"x"

    def test_compaction_folds_journal_into_manifest(self, tmp_path):
        store = TraceStore(tmp_path)
        _fill(store, 12)
        store.compact()
        assert store.journal_path.stat().st_size == 0
        manifest = json.loads(store.manifest_path.read_text())
        assert len(manifest["entries"]) == 12
        reopened = TraceStore(tmp_path, create=False)
        assert len(reopened) == 12


class TestJournalCrashTolerance:
    def test_torn_trailing_line_is_dropped(self, tmp_path):
        store = TraceStore(tmp_path)
        _fill(store, 4)
        with open(store.journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"op": "put", "key": "trace/torn"')  # no newline
        reopened = TraceStore(tmp_path, create=False)
        assert len(reopened) == 4
        assert reopened.get("trace/torn") is None

    def test_mid_file_garbage_is_corruption(self, tmp_path):
        store = TraceStore(tmp_path)
        _fill(store, 2)
        lines = store.journal_path.read_text().splitlines()
        lines.insert(1, "NOT JSON")
        store.journal_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(StoreCorruptionError):
            TraceStore(tmp_path, create=False)

    def test_unknown_journal_op_is_corruption(self, tmp_path):
        store = TraceStore(tmp_path)
        _fill(store, 1)
        with open(store.journal_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"op": "shrug", "key": "k"}) + "\n")
        with pytest.raises(StoreCorruptionError):
            TraceStore(tmp_path, create=False)


class TestSnapshotDurability:
    def test_compaction_publishes_a_durable_snapshot_before_truncating(
            self, tmp_path, monkeypatch):
        """A power loss after the journal is emptied must find the whole
        snapshot: its bytes are fsynced before the rename publishes it,
        and the rename is made durable before the truncation."""
        store = TraceStore(tmp_path)
        _fill(store, 5)
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def journal_bytes():
            return store.journal_path.stat().st_size

        def fsync(fd):
            calls.append(("fsync", os.fstat(fd).st_ino, journal_bytes()))
            real_fsync(fd)

        def replace(src, dst):
            calls.append(("replace", os.stat(src).st_ino, journal_bytes()))
            real_replace(src, dst)

        monkeypatch.setattr(store_module.os, "fsync", fsync)
        monkeypatch.setattr(store_module.os, "replace", replace)
        store.compact()
        snapshot = store.manifest_path.stat().st_ino
        directory = tmp_path.stat().st_ino
        assert [call[:2] for call in calls] == [
            ("fsync", snapshot), ("replace", snapshot),
            ("fsync", directory)]
        assert all(call[2] > 0 for call in calls)  # journal still intact
        assert journal_bytes() == 0
        assert len(TraceStore(tmp_path, create=False)) == 5


class TestAutoCompaction:
    def test_journal_is_bounded(self, tmp_path, monkeypatch):
        import repro.store.store as store_module
        monkeypatch.setattr(store_module, "JOURNAL_COMPACT_BYTES", 2048)
        store = TraceStore(tmp_path)
        for index in range(120):
            store.put_bytes(f"trace/auto/{index}", "trace", b"x")
        assert store.journal_path.stat().st_size <= 4096
        reopened = TraceStore(tmp_path, create=False)
        assert len(reopened) == 120


def _view(store):
    return {entry.key: entry.to_dict() for entry in store.entries()}


def _fresh_view(root):
    return _view(TraceStore(root, create=False))


_KEYS = st.sampled_from([f"trace/k{index}" for index in range(5)])
_PAYLOADS = st.binary(min_size=1, max_size=6)
_OPS = st.one_of(
    st.tuples(st.just("put"), _KEYS, _PAYLOADS),
    st.tuples(st.just("delete"), _KEYS),
    st.tuples(st.just("batch"),
              st.lists(st.tuples(_KEYS, st.none() | _PAYLOADS),
                       max_size=4)),
    st.tuples(st.just("compact")),
    st.tuples(st.just("refresh")))


def _apply(store, op):
    kind = op[0]
    if kind == "put":
        store.put_bytes(op[1], "trace", op[2])
    elif kind == "delete":
        store.delete(op[1])
    elif kind == "batch":
        with store.batch():
            for key, payload in op[1]:
                if payload is None:
                    store.delete(key)
                else:
                    store.put_bytes(key, "trace", payload)
    elif kind == "compact":
        store.compact()


class TestIncrementalRefresh:
    @settings(max_examples=40, deadline=None)
    @given(ops=st.lists(_OPS, max_size=24))
    def test_refresh_matches_a_fresh_open(self, ops):
        """Whatever a writer did — appends, batches, compactions or auto
        compactions — a reader's refresh sees what a fresh open sees."""
        with tempfile.TemporaryDirectory() as root, mock.patch.object(
                store_module, "JOURNAL_COMPACT_BYTES", 700):
            writer = TraceStore(root)
            reader = TraceStore(root)
            for op in ops + [("refresh",)]:
                if op[0] == "refresh":
                    reader.refresh()
                    assert _view(reader) == _fresh_view(root)
                else:
                    _apply(writer, op)

    def test_compaction_then_regrowth_past_the_old_offset(self, tmp_path):
        writer = TraceStore(tmp_path)
        reader = TraceStore(tmp_path)
        _fill(writer, 3, prefix="trace/a")
        reader.refresh()
        read_to = writer.journal_path.stat().st_size
        writer.compact()
        writer.delete("trace/a/1")
        _fill(writer, 6, prefix="trace/b")
        assert writer.journal_path.stat().st_size > read_to
        reader.refresh()
        assert _view(reader) == _fresh_view(tmp_path)
        assert "trace/a/1" not in reader and "trace/b/5" in reader

    def test_a_rewritten_journal_under_an_unchanged_identity_reloads(
            self, tmp_path, monkeypatch):
        """Inode reuse within one coarse timestamp tick can give a
        rewritten manifest.json its old identity; the last line read
        then no longer matches the journal, which forces a reload."""
        monkeypatch.setattr(store_module, "_identity", lambda stat: (0, 0, 0))
        writer = TraceStore(tmp_path)
        reader = TraceStore(tmp_path)
        _fill(writer, 3, prefix="trace/a")
        reader.refresh()
        writer.compact()
        writer.delete("trace/a/0")
        _fill(writer, 6, prefix="trace/b")
        reader.refresh()
        assert _view(reader) == _fresh_view(tmp_path)

    def test_own_compaction_keeps_the_next_refresh_incremental(
            self, tmp_path):
        writer = TraceStore(tmp_path)
        reader = TraceStore(tmp_path)
        _fill(writer, 3)
        reader.compact()
        _fill(writer, 2, prefix="trace/late")
        with mock.patch.object(TraceStore, "_read_disk_state",
                               autospec=True,
                               side_effect=TraceStore._read_disk_state
                               ) as full_reload:
            reader.refresh()
        assert full_reload.call_count == 0
        assert _view(reader) == _fresh_view(tmp_path)

    def test_refresh_reads_only_appended_bytes(self, tmp_path):
        """Damage before the reader's mark goes unread by its refresh,
        while a fresh open, which replays everything, fails on it."""
        writer = TraceStore(tmp_path)
        reader = TraceStore(tmp_path)
        _fill(writer, 3)
        reader.refresh()
        raw = writer.journal_path.read_bytes()
        writer.journal_path.write_bytes(b"#" + raw[1:])  # in place
        _fill(writer, 2, prefix="trace/new")
        reader.refresh()
        assert "trace/new/1" in reader and len(reader) == 5
        with pytest.raises(StoreCorruptionError):
            TraceStore(tmp_path, create=False)

    def test_a_partial_line_is_left_for_the_next_read(self, tmp_path):
        """A line seen half-appended (a reader without working locks)
        is not consumed, so its completion is read in full later."""
        writer = TraceStore(tmp_path)
        reader = TraceStore(tmp_path)
        _fill(writer, 2)
        line = writer.journal_path.read_bytes().splitlines()[-1]
        line = line.replace(b"trace/t/1", b"trace/t/9")
        with open(writer.journal_path, "ab") as handle:
            handle.write(line[:20])
        reader.refresh()
        assert _view(reader) == _fresh_view(tmp_path)
        assert len(reader) == 2
        with open(writer.journal_path, "ab") as handle:
            handle.write(line[20:] + b"\n")
        reader.refresh()
        assert _view(reader) == _fresh_view(tmp_path)
        assert "trace/t/9" in reader
