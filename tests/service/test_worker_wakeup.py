"""Workers wake on their doorbell, fall back to polling, and the fleet
removes the bells of workers it stops or reaps."""

import os
import signal
import threading
import time

import pytest

import repro.service.worker as worker_module
from repro.service.fleet import WorkerFleet
from repro.service.queue import WORKER_BELL, JobQueue, worker_bell_name
from repro.service.units import WorkUnit
from repro.service.worker import worker_loop


def _unit(index):
    return WorkUnit(uid=f"c1.evidence.{index:04d}", kind="evidence",
                    campaign="c1", spec={"workload": "dummy"},
                    params={"chunk": index})


@pytest.fixture
def stores_seen(monkeypatch):
    """Replace unit execution with a stub recording the store it got."""
    seen = []

    def execute(unit, store):
        seen.append(store)
        return {"uid": unit.uid}

    monkeypatch.setattr(worker_module, "execute_unit", execute)
    return seen


def _until(condition, timeout):
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


class _Worker:
    """worker_loop on a thread, stopped through the queue's sentinel."""

    def __init__(self, tmp_path, poll_seconds):
        self.queue = JobQueue(tmp_path / "queue")
        self.bell = self.queue.bells_dir / (
            worker_bell_name(os.getpid()) + ".fifo")
        self.thread = threading.Thread(
            target=worker_loop,
            args=(tmp_path / "queue", tmp_path / "store", "w0"),
            kwargs=dict(poll_seconds=poll_seconds), daemon=True)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc_info):
        self.queue.request_stop()
        self.thread.join(timeout=10.0)
        assert not self.thread.is_alive()

    def offer(self, index):
        """Enqueue a unit and ring, as the scheduler's admission does."""
        self.queue.enqueue(_unit(index))
        self.queue.ring(WORKER_BELL)
        return time.monotonic()

    def done(self, index):
        return self.queue.has_result(f"c1.evidence.{index:04d}")


def test_a_rung_worker_claims_within_a_second(tmp_path, stores_seen):
    with _Worker(tmp_path, poll_seconds=30.0) as worker:
        assert _until(worker.bell.exists, 10.0)
        time.sleep(0.1)  # let it settle into its 30 s wait
        for index in range(3):
            offered = worker.offer(index)
            assert _until(lambda: worker.done(index), 1.0)
            assert time.monotonic() - offered < 1.0
        stopped = time.monotonic()
    # request_stop rings too: no 30 s wait before the worker exits
    assert time.monotonic() - stopped < 5.0
    assert not worker.bell.exists()
    assert len(stores_seen) == 3
    assert len({id(store) for store in stores_seen}) == 1  # one held store


def test_a_worker_without_its_fifo_still_polls(tmp_path, stores_seen):
    with _Worker(tmp_path, poll_seconds=0.2) as worker:
        assert _until(worker.bell.exists, 10.0)
        worker.bell.unlink()
        worker.offer(0)  # the ring finds no bell
        assert _until(lambda: worker.done(0), 5.0)


def test_a_worker_without_mkfifo_still_polls(tmp_path, stores_seen,
                                             monkeypatch):
    monkeypatch.delattr(os, "mkfifo")
    with _Worker(tmp_path, poll_seconds=0.2) as worker:
        time.sleep(0.1)
        worker.offer(0)
        assert _until(lambda: worker.done(0), 5.0)
        assert list(worker.queue.bells_dir.iterdir()) == []


def test_the_fleet_unlinks_the_bells_it_reaps_and_stops(tmp_path):
    queue = JobQueue(tmp_path / "queue")
    fleet = WorkerFleet(tmp_path / "queue", tmp_path / "store", workers=2,
                        restart_budget=0)
    fleet.start()
    try:
        procs = list(fleet.procs.values())
        bells = [queue.bells_dir / (worker_bell_name(proc.pid) + ".fifo")
                 for proc in procs]
        assert _until(lambda: all(bell.exists() for bell in bells), 60.0)
        os.kill(procs[0].pid, signal.SIGKILL)
        procs[0].wait(timeout=10.0)
        assert len(fleet.poll()) == 1
        assert not bells[0].exists()
        assert bells[1].exists()
    finally:
        fleet.stop()  # SIGTERM: the worker cannot clean up itself
    assert list(queue.bells_dir.iterdir()) == []
