"""Multi-host fleets: foreign workers joining over the shared queue.

The queue and store are pure atomic-rename / ``O_EXCL`` directories, so
a worker "on another host" is just a :func:`worker_loop` pointed at the
same paths with its own ``<hostname>-<pid>`` identity.  These tests run
two such workers (threads standing in for hosts, plus one real
subprocess for the death scenario) against a scheduler configured with
``external_workers=True`` — it never executes units itself — and hold
the bit-identity contract across worker death and lease re-queues.
"""

import os
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.apps.registry import resolve
from repro.core.pipeline import Owl, OwlConfig
from repro.service import CampaignScheduler, ServiceConfig
from repro.service.fleet import worker_env
from repro.service.scheduler import STAGE_COMPLETE
from repro.service.worker import worker_loop

TINY = dict(fixed_runs=4, random_runs=4, seed=21, store_checkpoint_every=2)


def _drive(scheduler, cids, timeout=240.0):
    deadline = time.time() + timeout
    while not all(scheduler.campaigns[cid].done for cid in cids):
        assert time.time() < deadline, "campaigns did not finish"
        scheduler.tick()
        time.sleep(0.01)


def _direct_report(tmp_path, config=TINY):
    program, fixed_inputs, random_input = resolve("dummy")
    owl = Owl(program, name="dummy", config=OwlConfig(**config))
    return owl.detect(fixed_inputs(), random_input=random_input,
                      store=tmp_path / "direct").report.to_json()


class TestWorkerEnv:
    def test_workers_import_through_the_same_path(self, tmp_path,
                                                  monkeypatch):
        """A checkout reached through a symlink: workers must import
        ``repro`` through the link too, or every kernel identity (it
        hashes file paths) differs from the spawning process's."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        link = tmp_path / "src-link"
        link.symlink_to(src, target_is_directory=True)
        monkeypatch.setattr(repro, "__file__",
                            str(link / "repro" / "__init__.py"))
        assert worker_env()["PYTHONPATH"].split(os.pathsep)[0] == str(link)


class TestTwoHostFleet:
    def test_two_foreign_workers_share_one_queue(self, tmp_path):
        """Two workers with distinct host identities drain one queue;
        the report is byte-identical to a direct in-process detect."""
        queue_root = tmp_path / "shared" / "queue"
        store_root = tmp_path / "shared" / "store"
        scheduler = CampaignScheduler(
            store_root, queue_root,
            ServiceConfig(workers=0, unit_runs=2, external_workers=True,
                          lease_seconds=10.0))
        workers = [
            threading.Thread(
                target=worker_loop,
                args=(queue_root, store_root, worker_id),
                kwargs=dict(poll_seconds=0.01, lease_seconds=10.0),
                daemon=True)
            for worker_id in ("hosta-100", "hostb-100")]
        for thread in workers:
            thread.start()
        try:
            cid = scheduler.submit("dummy", TINY)
            _drive(scheduler, [cid])
            assert scheduler.campaigns[cid].stage == STAGE_COMPLETE
            results = scheduler.results(cid)
            assert results["report_json"] == _direct_report(tmp_path)
        finally:
            scheduler.queue.request_stop()
            for thread in workers:
                thread.join(timeout=30)
                assert not thread.is_alive()

    def test_scheduler_executes_nothing_with_external_workers(
            self, tmp_path):
        """Without any worker attached, an external_workers scheduler
        leaves every unit pending — it must not run them itself."""
        scheduler = CampaignScheduler(
            tmp_path / "store", tmp_path / "queue",
            ServiceConfig(workers=0, unit_runs=2, external_workers=True))
        cid = scheduler.submit("dummy", TINY)
        for _ in range(10):
            scheduler.tick()
            time.sleep(0.01)
        state = scheduler.campaigns[cid]
        assert not state.done
        assert state.pending, "units vanished without a worker"


class TestWorkerDeath:
    def test_report_survives_injected_worker_death(self, tmp_path):
        """A real subprocess worker dies right after claiming its first
        unit (the worst crash point: lease held, no result).  The lease
        expires, the unit re-queues, a healthy worker finishes the
        campaign, and the report bytes still match a direct detect."""
        queue_root = tmp_path / "shared" / "queue"
        store_root = tmp_path / "shared" / "store"
        scheduler = CampaignScheduler(
            store_root, queue_root,
            ServiceConfig(workers=0, unit_runs=2, external_workers=True,
                          lease_seconds=1.0))
        cid = scheduler.submit("dummy", TINY)
        doomed = subprocess.Popen(
            [sys.executable, "-m", "repro.service.worker",
             "--queue", str(queue_root), "--store", str(store_root),
             "--worker-id", "doomedhost-1", "--poll", "0.01",
             "--lease-seconds", "1.0", "--die-after", "1"],
            env=worker_env())
        try:
            doomed.wait(timeout=120)
            assert doomed.returncode == 3  # injected hard exit
            healthy = threading.Thread(
                target=worker_loop,
                args=(queue_root, store_root, "healthyhost-1"),
                kwargs=dict(poll_seconds=0.01, lease_seconds=1.0),
                daemon=True)
            healthy.start()
            try:
                _drive(scheduler, [cid])
                assert scheduler.campaigns[cid].stage == STAGE_COMPLETE
                results = scheduler.results(cid)
                assert results["report_json"] == _direct_report(tmp_path)
            finally:
                scheduler.queue.request_stop()
                healthy.join(timeout=30)
                assert not healthy.is_alive()
        finally:
            if doomed.poll() is None:
                doomed.kill()
                doomed.wait()

    def test_long_unit_survives_short_lease_via_heartbeat(self, tmp_path):
        """The worker heartbeats held claims at a quarter lease, so a
        lease far shorter than a unit's runtime never gets revoked while
        the worker is alive — no duplicate execution, same bytes."""
        queue_root = tmp_path / "shared" / "queue"
        store_root = tmp_path / "shared" / "store"
        scheduler = CampaignScheduler(
            store_root, queue_root,
            ServiceConfig(workers=0, unit_runs=2, external_workers=True,
                          lease_seconds=0.2))
        worker = threading.Thread(
            target=worker_loop,
            args=(queue_root, store_root, "slowhost-1"),
            kwargs=dict(poll_seconds=0.01, lease_seconds=0.2),
            daemon=True)
        worker.start()
        try:
            cid = scheduler.submit("dummy", TINY)
            _drive(scheduler, [cid])
            assert scheduler.campaigns[cid].stage == STAGE_COMPLETE
            results = scheduler.results(cid)
            assert results["report_json"] == _direct_report(tmp_path)
            # the ladder never had to degrade a unit to the scheduler
            kinds = [event.kind for event in scheduler.events]
            assert "fleet_to_local" not in kinds
        finally:
            scheduler.queue.request_stop()
            worker.join(timeout=30)
            assert not worker.is_alive()
