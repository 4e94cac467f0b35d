"""The fleet worker: claim → execute → report, forever — on any host.

Runnable as ``python -m repro.service.worker --queue DIR --store DIR``
(or ``owl worker``); the :class:`~repro.service.fleet.WorkerFleet`
spawns these as local subprocesses, but the loop is an ordinary function
so tests can drive it in-process — and because the queue and store are
pure atomic-rename / ``O_EXCL`` directories, a worker on *another host*
joins the same fleet by pointing at the shared (e.g. NFS-mounted)
queue/store paths.  Nothing else to configure: worker ids default to
``<hostname>-<pid>`` so hosts never collide, and results land through
the same tmp+rename discipline the local fleet uses.

Protocol per unit: win the ``O_EXCL`` claim (and let it go at once if
another worker already finished the unit: the scan's listing may be
stale), heartbeat it *continuously* from a background thread (every
quarter lease) while executing against the shared store, write the
result tmp+rename, release the claim, retire the spec.
Long-running units on slow hosts therefore never lose their lease
mid-execution; a worker *death* stops the heartbeat, which the
scheduler notices — dead process or silent lease — and re-queues.
Worker-code exceptions become ``error`` results (the scheduler treats
those as real bugs and fails the campaign, mirroring
:class:`~repro.resilience.supervisor.ChunkSupervisor`).  An interrupt
(Ctrl-C, ``SystemExit``) is no unit's fault: it propagates with the
claim held and no result written, so the unit is re-queued like a dead
worker's once its lease expires.

``--die-after N`` is the fleet-level fault injection: exit hard right
after winning the Nth claim, before executing it.  That is the worst
crash point (the lease is held, no result exists), exactly what the
re-queue path must survive.

Idle workers wait on their doorbell, ``bells/worker-<host>-<pid>.fifo``
in the queue, which the scheduler rings as it admits units; the wait
times out after ``poll_seconds``, the only wakeup a worker on another
host gets.  Each worker holds one :class:`~repro.store.store.TraceStore`
for its lifetime and refreshes it before each unit.
"""

from __future__ import annotations

import argparse
import os
import threading
import time
from typing import Optional

from repro.service.execute import execute_unit
from repro.service.queue import JobQueue, host_name, worker_bell_name
from repro.store.store import TraceStore

#: Fraction of the lease window between heartbeats while executing.
HEARTBEAT_FRACTION = 0.25


def default_worker_id() -> str:
    """``<hostname>-<pid>``: unique across a shared-filesystem fleet."""
    return f"{host_name()}-{os.getpid()}"


class _Heartbeat:
    """Touch a held claim every quarter lease until stopped.

    A daemon thread, so a crashing worker stops heartbeating the instant
    it dies — the lease expiry is the scheduler's death signal and must
    not outlive the process.
    """

    def __init__(self, queue: JobQueue, uid: str,
                 lease_seconds: float) -> None:
        self.queue = queue
        self.uid = uid
        self.interval = max(lease_seconds * HEARTBEAT_FRACTION, 0.02)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "_Heartbeat":
        self.queue.heartbeat(self.uid)
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=self.interval + 1.0)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.queue.heartbeat(self.uid)


def worker_loop(queue_root, store_root, worker_id: Optional[str] = None,
                poll_seconds: float = 0.05,
                lease_seconds: float = 30.0,
                die_after: Optional[int] = None,
                max_loops: Optional[int] = None) -> int:
    """Run the claim/execute loop until the queue's STOP sentinel appears.

    Returns the number of units executed.  ``max_loops`` bounds idle
    polling for in-process tests.  ``lease_seconds`` must match the
    scheduler's setting: the worker heartbeats held claims at a quarter
    of it while executing.
    """
    store = TraceStore(store_root)
    queue = JobQueue(queue_root)
    worker_id = worker_id or default_worker_id()
    bell = queue.doorbell(worker_bell_name(os.getpid()))
    executed = 0
    claimed = 0
    loops = 0
    try:
        while not queue.stop_requested():
            progressed = False
            for uid in queue.pending_units():
                if queue.stop_requested():
                    break
                if not queue.claim(uid, worker_id):
                    continue
                if queue.has_result(uid):
                    # a stale listing: another worker finished the unit
                    # and released its claim since the scan
                    queue.release(uid)
                    continue
                claimed += 1
                if die_after is not None and claimed >= die_after:
                    # injected death: hard exit with the lease still held
                    os._exit(3)
                unit = queue.load_unit(uid)
                if unit is None:  # re-queue race: spec rewritten under us
                    queue.release(uid)
                    continue
                with _Heartbeat(queue, uid, lease_seconds):
                    try:
                        payload = execute_unit(unit, store)
                    except Exception as error:  # noqa: BLE001
                        queue.fail(uid, f"{type(error).__name__}: {error}",
                                   worker_id)
                    else:
                        queue.complete(uid, payload, worker_id)
                executed += 1
                progressed = True
            if not progressed:
                loops += 1
                if max_loops is not None and loops >= max_loops:
                    break
                if bell is None:
                    time.sleep(poll_seconds)
                else:
                    bell.wait(poll_seconds)
    finally:
        if bell is not None:
            bell.close()
    return executed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.service.worker",
        description="detection-service fleet worker process; point "
                    "--queue/--store at a shared directory to join a "
                    "fleet from any host")
    parser.add_argument("--queue", required=True, help="job queue directory")
    parser.add_argument("--store", required=True,
                        help="shared trace store directory")
    parser.add_argument("--worker-id", default=None,
                        help="unique worker name "
                             "(default: <hostname>-<pid>)")
    parser.add_argument("--poll", type=float, default=0.05)
    parser.add_argument("--lease-seconds", type=float, default=30.0,
                        help="the scheduler's lease window; held claims "
                             "are heartbeated at a quarter of this")
    parser.add_argument("--die-after", type=int, default=None,
                        help="fault injection: exit after the Nth claim")
    args = parser.parse_args(argv)
    worker_loop(args.queue, args.store, args.worker_id,
                poll_seconds=args.poll, lease_seconds=args.lease_seconds,
                die_after=args.die_after)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
