"""JobQueue: atomic claims, leases, results, re-queues, crash recovery,
retired specs and doorbells."""

import errno
import json
import os
import threading
import time

import pytest

from repro.service.queue import SCHEDULER_BELL, WORKER_BELL, JobQueue
from repro.service.units import WorkUnit


def _unit(uid="c1.evidence.0000", attempts=0):
    return WorkUnit(uid=uid, kind="evidence", campaign="c1",
                    spec={"workload": "dummy"}, params={"chunk": 0},
                    attempts=attempts)


class TestEnqueueAndClaim:
    def test_enqueue_then_pending(self, tmp_path):
        queue = JobQueue(tmp_path)
        assert queue.enqueue(_unit())
        assert queue.pending_units() == ["c1.evidence.0000"]
        loaded = queue.load_unit("c1.evidence.0000")
        assert loaded == _unit()

    def test_claim_is_exclusive(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.enqueue(_unit())
        assert queue.claim("c1.evidence.0000", "w0")
        assert not queue.claim("c1.evidence.0000", "w1")
        info = queue.claim_info("c1.evidence.0000")
        assert info["worker"] == "w0"
        assert info["pid"] == os.getpid()

    def test_release_reopens_claim(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.enqueue(_unit())
        queue.claim("c1.evidence.0000", "w0")
        queue.release("c1.evidence.0000")
        assert queue.claim("c1.evidence.0000", "w1")

    def test_claims_by_worker(self, tmp_path):
        queue = JobQueue(tmp_path)
        for index in range(3):
            queue.enqueue(_unit(uid=f"c1.evidence.{index:04d}"))
        queue.claim("c1.evidence.0000", "w0")
        queue.claim("c1.evidence.0001", "w1")
        queue.claim("c1.evidence.0002", "w0")
        assert queue.claims_by_worker("w0") == ["c1.evidence.0000",
                                                "c1.evidence.0002"]


class TestResults:
    def test_complete_releases_and_resolves(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.enqueue(_unit())
        queue.claim("c1.evidence.0000", "w0")
        queue.complete("c1.evidence.0000", {"recorded": 1}, "w0")
        assert queue.pending_units() == []
        assert queue.claimed_units() == []
        result = queue.result("c1.evidence.0000")
        assert result == {"status": "done", "worker": "w0",
                          "payload": {"recorded": 1}}

    def test_fail_records_error(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.enqueue(_unit())
        queue.fail("c1.evidence.0000", "KeyError: boom", "w0")
        assert queue.result("c1.evidence.0000")["status"] == "error"

    def test_enqueue_skips_finished_units(self, tmp_path):
        """Recovery idempotence: done work is never re-offered."""
        queue = JobQueue(tmp_path)
        queue.enqueue(_unit())
        queue.complete("c1.evidence.0000", {}, "w0")
        assert not queue.enqueue(_unit())
        assert queue.pending_units() == []


class FakeClock:
    """A monotonic clock the test advances by hand."""

    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


def _claimed_queue(tmp_path):
    clock = FakeClock()
    queue = JobQueue(tmp_path, clock=clock)
    queue.enqueue(_unit())
    queue.claim("c1.evidence.0000", "w0")
    return queue, clock


def _touch(queue, mtime):
    os.utime(queue.claim_path("c1.evidence.0000"), (mtime, mtime))


class TestLeases:
    def test_expired_claims_by_mtime(self, tmp_path):
        queue, clock = _claimed_queue(tmp_path)
        assert queue.expired_claims(lease_seconds=60.0) == []
        clock.now += 120
        assert queue.expired_claims(lease_seconds=60.0) == ["c1.evidence.0000"]

    def test_heartbeat_renews_lease(self, tmp_path):
        queue, clock = _claimed_queue(tmp_path)
        _touch(queue, time.time() - 120)
        assert queue.expired_claims(lease_seconds=60.0) == []
        clock.now += 50
        queue.heartbeat("c1.evidence.0000")
        assert queue.expired_claims(lease_seconds=60.0) == []
        clock.now += 50
        assert queue.expired_claims(lease_seconds=60.0) == []

    def test_advancing_claim_behind_the_wall_clock_stays_live(self,
                                                              tmp_path):
        """A worker whose clock runs an hour behind the scheduler's keeps
        writing old mtimes; they still advance, so the lease holds."""
        queue, clock = _claimed_queue(tmp_path)
        skewed = time.time() - 3600
        for _ in range(5):
            _touch(queue, skewed)
            assert queue.expired_claims(lease_seconds=60.0) == []
            clock.now += 30
            skewed += 30

    def test_silent_claim_expires_after_one_lease_and_not_before(
            self, tmp_path):
        queue, clock = _claimed_queue(tmp_path)
        _touch(queue, time.time() + 3600)  # a worker clock an hour ahead
        assert queue.expired_claims(lease_seconds=60.0) == []
        clock.now += 60
        assert queue.expired_claims(lease_seconds=60.0) == []
        clock.now += 1
        assert queue.expired_claims(lease_seconds=60.0) == ["c1.evidence.0000"]

    def test_requeue_bumps_attempts_and_clears_lease(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.enqueue(_unit())
        queue.claim("c1.evidence.0000", "w0")
        unit = queue.requeue("c1.evidence.0000")
        assert unit.attempts == 1
        assert queue.claimed_units() == []
        assert queue.pending_units() == ["c1.evidence.0000"]
        assert queue.load_unit("c1.evidence.0000").attempts == 1


class TestDurability:
    def test_torn_claim_file_reads_as_absent_info(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.enqueue(_unit())
        queue.claim("c1.evidence.0000", "w0")
        queue.claim_path("c1.evidence.0000").write_text('{"worker": "w0"')
        assert queue.claim_info("c1.evidence.0000") is None
        # the lease file itself still blocks rival claims
        assert not queue.claim("c1.evidence.0000", "w1")

    def test_journal_survives_torn_tail(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.journal("submitted", campaign="c1")
        queue.journal("enqueued", unit="c1.plan")
        with open(queue.journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "torn"')
        events = queue.journal_events()
        assert [event["event"] for event in events] == ["submitted",
                                                        "enqueued"]

    def test_campaign_specs_round_trip(self, tmp_path):
        queue = JobQueue(tmp_path)
        spec = {"workload": "dummy", "config": {"fixed_runs": 4}}
        queue.save_campaign("c0001", spec)
        assert queue.load_campaigns() == {"c0001": spec}

    def test_stop_sentinel(self, tmp_path):
        queue = JobQueue(tmp_path)
        assert not queue.stop_requested()
        queue.request_stop()
        assert queue.stop_requested()
        queue.clear_stop()
        assert not queue.stop_requested()

    def test_result_write_is_atomic_json(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.enqueue(_unit())
        queue.complete("c1.evidence.0000", {"runs": 3}, "w0")
        raw = queue.result_path("c1.evidence.0000").read_text()
        assert json.loads(raw)["payload"] == {"runs": 3}
        assert not list(queue.tmp_dir.iterdir())  # staging left clean


class TestRetiredSpecs:
    @pytest.mark.parametrize("finish", ["complete", "fail"])
    def test_finishing_retires_the_spec(self, tmp_path, finish):
        queue = JobQueue(tmp_path)
        queue.enqueue(_unit())
        queue.claim("c1.evidence.0000", "w0")
        if finish == "complete":
            queue.complete("c1.evidence.0000", {}, "w0")
        else:
            queue.fail("c1.evidence.0000", "KeyError: boom", "w0")
        assert not queue.unit_path("c1.evidence.0000").exists()
        assert queue.claimed_units() == []
        assert queue.pending_units() == []
        assert queue.requeue("c1.evidence.0000") is None
        assert queue.result("c1.evidence.0000") is not None

    def test_result_without_unlink_still_hides_the_unit(self, tmp_path):
        """A crash between the result write and the spec's unlink."""
        queue = JobQueue(tmp_path)
        queue.enqueue(_unit())
        queue.enqueue(_unit(uid="c1.evidence.0001"))
        queue._write_json(queue.result_path("c1.evidence.0000"),
                          {"status": "done", "worker": "w0",
                           "payload": {}})
        assert queue.unit_path("c1.evidence.0000").exists()
        assert queue.pending_units() == ["c1.evidence.0001"]


def _fifo(queue, name):
    path = queue.bells_dir / f"{name}.fifo"
    os.mkfifo(path)
    return path


class TestDoorbells:
    def test_ring_wakes_a_waiting_bell(self, tmp_path):
        queue = JobQueue(tmp_path)
        bell = queue.doorbell("worker-h-1")
        try:
            woke = []
            waiter = threading.Thread(
                target=lambda: (bell.wait(30.0), woke.append(1)))
            started = time.monotonic()
            waiter.start()
            time.sleep(0.05)
            queue.ring(WORKER_BELL)
            waiter.join(timeout=5.0)
            assert woke and time.monotonic() - started < 5.0
        finally:
            bell.close()

    def test_a_ring_before_the_wait_is_not_lost(self, tmp_path):
        queue = JobQueue(tmp_path)
        bell = queue.doorbell(SCHEDULER_BELL)
        try:
            queue.ring(SCHEDULER_BELL)
            queue.ring(SCHEDULER_BELL)
            started = time.monotonic()
            bell.wait(30.0)
            assert time.monotonic() - started < 1.0
            started = time.monotonic()
            bell.wait(0.05)  # both rings were drained
            assert time.monotonic() - started >= 0.04
        finally:
            bell.close()

    def test_ring_matches_the_prefix_only(self, tmp_path):
        queue = JobQueue(tmp_path)
        bell = queue.doorbell(SCHEDULER_BELL)
        try:
            queue.ring(WORKER_BELL)
            started = time.monotonic()
            bell.wait(0.05)
            assert time.monotonic() - started >= 0.04
        finally:
            bell.close()

    def test_ring_skips_a_fifo_without_reader(self, tmp_path):
        queue = JobQueue(tmp_path)
        path = _fifo(queue, "worker-otherhost-7")
        started = time.monotonic()
        queue.ring(WORKER_BELL)
        assert time.monotonic() - started < 1.0
        assert path.exists()  # never unlinks another process's bell

    def test_ring_skips_a_full_pipe(self, tmp_path):
        queue = JobQueue(tmp_path)
        bell = queue.doorbell("worker-h-1")
        try:
            ringer = os.open(bell.path, os.O_WRONLY | os.O_NONBLOCK)
            try:
                with pytest.raises(OSError) as full:
                    while True:
                        os.write(ringer, b"\0" * 4096)
                assert full.value.errno == errno.EAGAIN
            finally:
                os.close(ringer)
            started = time.monotonic()
            queue.ring(WORKER_BELL)
            assert time.monotonic() - started < 1.0
            assert bell.path.exists()
        finally:
            bell.close()

    def test_close_unlinks_only_its_own_fifo(self, tmp_path):
        queue = JobQueue(tmp_path)
        first = queue.doorbell("worker-h-1")
        second = queue.doorbell("worker-h-1")  # takes the name over
        first.close()
        assert second.path.exists()
        queue.ring(WORKER_BELL)
        started = time.monotonic()
        second.wait(30.0)
        assert time.monotonic() - started < 1.0
        second.close()
        assert list(queue.bells_dir.iterdir()) == []

    def test_a_dead_owners_bell_is_replaced(self, tmp_path):
        queue = JobQueue(tmp_path)
        stale = _fifo(queue, "worker-h-1")
        bell = queue.doorbell("worker-h-1")
        try:
            assert os.stat(stale).st_ino == os.fstat(bell.fileno()).st_ino
        finally:
            bell.close()

    def test_no_mkfifo_means_no_bell(self, tmp_path, monkeypatch):
        monkeypatch.delattr(os, "mkfifo")
        queue = JobQueue(tmp_path)
        assert queue.doorbell(SCHEDULER_BELL) is None
        queue.ring(SCHEDULER_BELL)  # nothing to ring, nothing raised
