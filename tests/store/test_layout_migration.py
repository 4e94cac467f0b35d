"""Stores written before blob sharding (``objects/<64 hex>``): every
opener refuses with a one-line ``owl verify`` hint and touches nothing;
``owl verify`` migrates them once, after which warm runs hit the cache."""

import contextlib
import io
import shutil
import zlib

import pytest

from repro.apps.registry import resolve
from repro.cli import main
from repro.core import Owl, OwlConfig
from repro.store.blobs import BlobStore, migrate_flat, sha256_hex
from repro.store.store import StoreError, TraceStore

WORKLOADS = ("aes", "dummy")
RUN_ARGS = ["--fixed-runs", "4", "--random-runs", "4", "--seed", "11"]


def _flatten(root, every=1) -> int:
    """Move every *every*-th sharded blob back to the flat layout."""
    objects = root / "objects"
    blobs = sorted(path for shard in objects.iterdir() if shard.is_dir()
                   for path in shard.iterdir())
    for path in blobs[::every]:
        path.replace(objects / (path.parent.name + path.name))
        if not any(path.parent.iterdir()):
            path.parent.rmdir()
    return len(blobs[::every])


def _snapshot(root):
    """Bytes of the manifest, the journal and every blob file, by path."""
    files = [root / "manifest.json", root / "manifest.journal"]
    files += [path for path in (root / "objects").rglob("*")
              if path.is_file()]
    return {str(path.relative_to(root)): path.read_bytes() for path in files}


def _flat_names(root):
    return [path.name for path in (root / "objects").iterdir()
            if path.is_file()]


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """A sharded store holding cold aes and dummy campaigns, and their
    ``--json`` reports."""
    root = tmp_path_factory.mktemp("cold") / "store"
    return root, {name: _run(root, name, "--json") for name in WORKLOADS}


def _run(root, name, *extra):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["run", name, "--store", str(root), *RUN_ARGS, *extra])
    assert code == 1  # both workloads leak
    return out.getvalue()


@pytest.fixture(params=["flat", "mixed"])
def old_store(request, cold, tmp_path):
    """A copy of the cold store with all (flat) or every other (mixed)
    blob moved back to the pre-sharding layout."""
    root = tmp_path / "store"
    shutil.copytree(cold[0], root)
    assert _flatten(root, every=1 if request.param == "flat" else 2)
    return root


def _hint(root):
    return f"owl verify --store {root}"


class TestFlatLayoutReads:
    def test_trace_store_refuses_and_touches_nothing(self, old_store):
        before = _snapshot(old_store)
        for create in (True, False):
            with pytest.raises(StoreError) as info:
                TraceStore(old_store, create=create)
            message = str(info.value)
            assert _hint(old_store) in message and "\n" not in message
        assert _snapshot(old_store) == before

    def test_detect_refuses_and_touches_nothing(self, old_store):
        before = _snapshot(old_store)
        program, fixed_inputs, random_input = resolve("dummy")
        owl = Owl(program, name="dummy",
                  config=OwlConfig(fixed_runs=4, random_runs=4, seed=11))
        with pytest.raises(StoreError, match="owl verify --store"):
            owl.detect(fixed_inputs(), random_input=random_input,
                       store=str(old_store))
        assert _snapshot(old_store) == before

    def test_migrate_flat_bulk(self, tmp_path):
        store = TraceStore(tmp_path)
        for index in range(5):
            store.put_bytes(f"trace/t/{index}", "trace",
                            f"body-{index}".encode())
        _flatten(tmp_path, every=2)  # a mixed store: 3 flat, 2 sharded
        before = sorted(_snapshot(tmp_path).values())
        assert migrate_flat(tmp_path) == 3
        assert _flat_names(tmp_path) == []
        assert migrate_flat(tmp_path) == 0  # idempotent
        # every blob kept its bytes; only its path moved
        assert sorted(_snapshot(tmp_path).values()) == before
        store = TraceStore(tmp_path, create=False)
        for index in range(5):
            assert store.get_bytes(f"trace/t/{index}") == \
                f"body-{index}".encode()


class TestToolingWalksBothLayouts:
    @pytest.mark.parametrize("verb", [
        ["run", "dummy", *RUN_ARGS], ["ls"], ["gc"], ["gc", "--dry-run"],
        ["serve", "--workers", "0"], ["worker", "--queue", "QUEUE"]])
    def test_verbs_refuse_with_one_line(self, verb, old_store, tmp_path,
                                        capsys):
        before = _snapshot(old_store)
        argv = [str(tmp_path / "queue") if arg == "QUEUE" else arg
                for arg in verb]
        assert main([*argv, "--store", str(old_store)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and _hint(old_store) in err
        assert _snapshot(old_store) == before
        assert not (tmp_path / "queue").exists()

    def test_verify_migrates_then_warm_runs_hit_the_cache(
            self, old_store, cold, tmp_path, capsys):
        flat = len(_flat_names(old_store))
        assert main(["verify", "--store", str(old_store)]) == 0
        out = capsys.readouterr().out
        assert f"migrated {flat} flat blob(s)" in out
        assert "entries verified" in out
        assert _flat_names(old_store) == []
        for name in WORKLOADS:
            log = tmp_path / f"{name}.jsonl"
            warm = _run(old_store, name, "--json",
                        "--degradation-log", str(log))
            assert warm == cold[1][name]
            assert log.read_text() == ""  # no quarantine, no degradation
            assert f"report cache hit for {name}" in _run(old_store, name)

    def test_verify_checks_flat_blobs(self, tmp_path, capsys):
        store = TraceStore(tmp_path)
        for index in range(2):
            store.put_bytes(f"trace/t/{index}", "trace",
                            f"body-{index}".encode())
        _flatten(tmp_path)
        assert main(["verify", "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "migrated 2 flat blob(s)" in out
        assert "all 2 entries verified" in out

    def test_verify_detects_flat_corruption(self, tmp_path, capsys):
        store = TraceStore(tmp_path)
        digest = store.put_bytes("trace/t/0", "trace", b"body-0").blob
        _flatten(tmp_path)
        (tmp_path / "objects" / digest).write_bytes(
            zlib.compress(b"tampered"))
        assert main(["verify", "--store", str(tmp_path)]) == 1
        assert "corrupt: trace/t/0" in capsys.readouterr().out

    def test_gc_dry_run_lists_candidates_without_deleting(self, tmp_path,
                                                          capsys):
        store = TraceStore(tmp_path)
        for index in range(3):
            store.put_bytes(f"trace/t/{index}", "trace",
                            f"body-{index}".encode())
        doomed = store.get("trace/t/1").blob
        store.delete("trace/t/1")
        _flatten(tmp_path)
        assert main(["verify", "--store", str(tmp_path)]) == 0
        assert main(["gc", "--store", str(tmp_path), "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "dry run: would remove 1" in out
        assert doomed in out  # the candidate digest is printed with size
        assert TraceStore(tmp_path).blobs.has(doomed)  # nothing deleted


class TestShardedWriteLayout:
    def test_new_blobs_land_sharded(self, tmp_path):
        blobs = BlobStore(tmp_path)
        digest = blobs.put(b"fresh payload")
        assert digest == sha256_hex(b"fresh payload")
        assert blobs.path_for(digest).exists()
        assert (tmp_path / "objects" / digest[:2] / digest[2:]).exists()
