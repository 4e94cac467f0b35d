"""Crash-safe, file-backed job queue shared by scheduler and workers.

The queue is a directory; every operation is an atomic filesystem
primitive, so any process can crash at any point without corrupting it:

* ``units/<uid>.json`` — the durable unit spec, written tmp+rename by the
  scheduler (re-queues rewrite it with a bumped attempt count);
* ``claims/<uid>.claim`` — a lease, created with ``O_CREAT | O_EXCL`` so
  exactly one worker wins a unit; its mtime is the heartbeat, and a claim
  whose mtime stops changing for a lease window — measured on the
  scheduler's own monotonic clock, never against the mtime's value —
  marks its worker dead;
* ``results/<uid>.json`` — the unit's outcome (``done`` payload or
  ``error``), written tmp+rename *before* the claim is released, so a
  unit is never both unclaimed and unfinished unless it really is; the
  spec is unlinked last, so ``units/`` holds only pending work;
* ``bells/<name>.fifo`` — one doorbell FIFO per waiting process on this
  host (``scheduler.fifo``, ``worker-<host>-<pid>.fifo``).  New units
  ring the workers' bells and new results the scheduler's, so waiters
  wake at once instead of on their next poll.  A ring is only a hint:
  waiters still poll every ``poll_seconds``, which is how workers on
  other hosts (a FIFO never carries bytes across hosts) and platforms
  without ``os.mkfifo`` see new work;
* ``journal.jsonl`` — the scheduler's append-only event log (submit,
  enqueue, requeue, worker-lost, complete), the audit trail ``owl
  status`` summarises;
* ``campaigns/<cid>.json`` — submitted campaign specs, which is all
  :meth:`CampaignScheduler.recover` needs to resume after a scheduler
  crash (unit results on disk fast-forward the stage machine).

The same tmp+rename discipline as :mod:`repro.store.store`; ``tmp/`` is
inside the queue root so renames never cross filesystems.
"""

from __future__ import annotations

import errno
import json
import os
import select
import socket
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.service.units import WorkUnit

#: Name of the cooperative shutdown sentinel file.
STOP_SENTINEL = "STOP"

#: Bell name prefixes: the scheduler's bell, and every worker's.
SCHEDULER_BELL = "scheduler"
WORKER_BELL = "worker"

#: Ring errors that only mean there is no one to wake: no reader on this
#: host (a dead waiter, or one on another host sharing the directory),
#: a pipe already full of rings, a bell unlinked since the listing, and
#: a reader that closed between the open and the write.
_MISSED_RING = (errno.ENXIO, errno.EAGAIN, errno.ENOENT, errno.EPIPE)


def host_name() -> str:
    """This host's short name: the prefix of worker ids and bells."""
    return socket.gethostname().split(".")[0] or "host"


def worker_bell_name(pid: int) -> str:
    """The bell of worker process *pid* on this host."""
    return f"{WORKER_BELL}-{host_name()}-{pid}"


def bell_path(queue_root, name: str) -> Path:
    return Path(queue_root) / "bells" / f"{name}.fifo"


class Doorbell:
    """A FIFO one process waits on and any process on its host rings.

    The owner opens both ends: the read end to wait on, and a write end
    it never writes, so the read end never reports EOF when a ringer
    closes.  A ring that lands while the owner is busy stays buffered
    in the pipe, so the next :meth:`wait` returns at once: no wakeup
    between a scan and the wait is lost.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        try:
            os.unlink(path)  # a dead process's, or a previous owner's
        except FileNotFoundError:
            pass
        os.mkfifo(path)
        self._read_fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        self._write_fd = os.open(path, os.O_WRONLY | os.O_NONBLOCK)
        self._inode = os.fstat(self._read_fd).st_ino
        self._poller = select.poll()
        self._poller.register(self._read_fd, select.POLLIN)

    def fileno(self) -> int:
        return self._read_fd

    def drain(self) -> None:
        """Swallow every buffered ring."""
        try:
            while os.read(self._read_fd, 4096):
                pass
        except BlockingIOError:
            pass

    def wait(self, timeout: float) -> None:
        """Sleep until rung or for *timeout* seconds, then drain."""
        self._poller.poll(timeout * 1000.0)
        self.drain()

    def close(self) -> None:
        """Close both ends; unlink the FIFO unless a new owner replaced
        it (a later waiter of the same name takes the bell over)."""
        try:
            if os.stat(self.path).st_ino == self._inode:
                os.unlink(self.path)
        except FileNotFoundError:
            pass
        os.close(self._read_fd)
        os.close(self._write_fd)


class JobQueue:
    """One directory of durable units, leases, results and events."""

    def __init__(self, root, *,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.root = Path(root)
        self.units_dir = self.root / "units"
        self.claims_dir = self.root / "claims"
        self.results_dir = self.root / "results"
        self.campaigns_dir = self.root / "campaigns"
        self.bells_dir = self.root / "bells"
        self.tmp_dir = self.root / "tmp"
        self.journal_path = self.root / "journal.jsonl"
        for path in (self.units_dir, self.claims_dir, self.results_dir,
                     self.campaigns_dir, self.bells_dir, self.tmp_dir):
            path.mkdir(parents=True, exist_ok=True)
        self._tmp_seq = 0
        #: lease judging: the clock, and per claim the last mtime seen
        #: with the clock reading at which it last changed
        self._clock = clock
        self._heartbeats: Dict[str, Tuple[float, float]] = {}

    # ------------------------------------------------------------------
    # atomic write primitive
    # ------------------------------------------------------------------

    def _write_json(self, path: Path, payload: Dict) -> None:
        self._tmp_seq += 1
        tmp = self.tmp_dir / f"{os.getpid()}.{self._tmp_seq}.{path.name}"
        tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        os.replace(tmp, path)

    @staticmethod
    def _read_json(path: Path) -> Optional[Dict]:
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, OSError):
            # a reader racing the writer's rename, or a torn claim file:
            # treat as not-there-yet; the poll loop will come back
            return None

    # ------------------------------------------------------------------
    # journal (scheduler-only writer)
    # ------------------------------------------------------------------

    def journal(self, event: str, **fields) -> None:
        record = {"event": event, "ts": time.time()}
        record.update(fields)
        with open(self.journal_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    def journal_events(self) -> List[Dict]:
        events = []
        try:
            with open(self.journal_path, encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        events.append(json.loads(line))
                    except json.JSONDecodeError:
                        continue  # torn trailing line from a crash
        except FileNotFoundError:
            pass
        return events

    # ------------------------------------------------------------------
    # units
    # ------------------------------------------------------------------

    def unit_path(self, uid: str) -> Path:
        return self.units_dir / f"{uid}.json"

    def save_unit(self, unit: WorkUnit) -> None:
        self._write_json(self.unit_path(unit.uid), unit.to_dict())

    def enqueue(self, unit: WorkUnit) -> bool:
        """Make a unit available; no-op if it already ran (recovery)."""
        if self.result(unit.uid) is not None:
            return False
        self.save_unit(unit)
        return True

    def load_unit(self, uid: str) -> Optional[WorkUnit]:
        data = self._read_json(self.unit_path(uid))
        return None if data is None else WorkUnit.from_dict(data)

    def pending_units(self) -> List[str]:
        """Unit ids with a spec on disk and no result yet, sorted.

        Finishing a unit retires its spec, so this costs O(pending); the
        result check covers a crash between a result write and the
        spec's unlink.
        """
        uids = sorted(name[:-len(".json")]
                      for name in os.listdir(self.units_dir)
                      if name.endswith(".json"))
        return [uid for uid in uids if not self.has_result(uid)]

    # ------------------------------------------------------------------
    # claims (leases)
    # ------------------------------------------------------------------

    def claim_path(self, uid: str) -> Path:
        return self.claims_dir / f"{uid}.claim"

    def claim(self, uid: str, worker: str) -> bool:
        """Atomically lease a unit; exactly one caller wins."""
        try:
            fd = os.open(self.claim_path(uid),
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        try:
            payload = json.dumps({"worker": worker, "pid": os.getpid(),
                                  "claimed_at": time.time()})
            os.write(fd, payload.encode("utf-8"))
        finally:
            os.close(fd)
        return True

    def heartbeat(self, uid: str) -> None:
        try:
            os.utime(self.claim_path(uid))
        except FileNotFoundError:
            pass  # lease was revoked under us; the result write still wins

    def claim_info(self, uid: str) -> Optional[Dict]:
        path = self.claim_path(uid)
        info = self._read_json(path)
        if info is None:
            return None
        try:
            info["mtime"] = path.stat().st_mtime
        except FileNotFoundError:
            return None
        return info

    def claimed_units(self) -> List[str]:
        return sorted(path.stem for path in self.claims_dir.glob("*.claim"))

    def release(self, uid: str) -> None:
        try:
            os.unlink(self.claim_path(uid))
        except FileNotFoundError:
            pass

    def expired_claims(self, lease_seconds: float) -> List[str]:
        """Leases whose heartbeat stopped for ``lease_seconds``.

        A claim's mtime is written by the worker's host (or the NFS
        server), so its value is never compared with this host's clock:
        each call only notes whether the mtime *changed* since the last
        one, and a claim expires once it has not for ``lease_seconds`` of
        this process's monotonic clock.  Clock skew between hosts and
        wall-clock steps therefore cannot expire a live lease or keep a
        dead one.  The first sighting starts the window, so a freshly
        started scheduler waits one full lease before requeuing a claim
        a dead worker left behind.
        """
        now = self._clock()
        seen: Dict[str, Tuple[float, float]] = {}
        expired = []
        for uid in self.claimed_units():
            try:
                mtime = self.claim_path(uid).stat().st_mtime
            except FileNotFoundError:
                continue
            last = self._heartbeats.get(uid)
            if last is None or last[0] != mtime:
                last = (mtime, now)
            seen[uid] = last
            if now - last[1] > lease_seconds:
                expired.append(uid)
        self._heartbeats = seen
        return expired

    def claims_by_worker(self, worker: str) -> List[str]:
        held = []
        for uid in self.claimed_units():
            info = self.claim_info(uid)
            if info is not None and info.get("worker") == worker:
                held.append(uid)
        return held

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def result_path(self, uid: str) -> Path:
        return self.results_dir / f"{uid}.json"

    def complete(self, uid: str, payload: Dict, worker: str) -> None:
        self._finish(uid, {"status": "done", "worker": worker,
                           "payload": payload})

    def fail(self, uid: str, error: str, worker: str) -> None:
        self._finish(uid, {"status": "error", "worker": worker,
                           "error": error})

    def _finish(self, uid: str, outcome: Dict) -> None:
        """Write the result, release the claim, retire the spec — in
        that order, so a crash never leaves a unit unclaimed, unfinished
        and unlisted — then ring the scheduler."""
        self._write_json(self.result_path(uid), outcome)
        self.release(uid)
        try:
            os.unlink(self.unit_path(uid))
        except FileNotFoundError:
            pass
        self.ring(SCHEDULER_BELL)

    def result(self, uid: str) -> Optional[Dict]:
        return self._read_json(self.result_path(uid))

    def has_result(self, uid: str) -> bool:
        return self.result_path(uid).exists()

    def clear_result(self, uid: str) -> None:
        try:
            os.unlink(self.result_path(uid))
        except FileNotFoundError:
            pass

    def requeue(self, uid: str) -> Optional[WorkUnit]:
        """Revoke a lease and re-offer the unit with a bumped attempt
        (None when its spec is gone: the unit already finished)."""
        unit = self.load_unit(uid)
        if unit is None:
            return None
        unit.attempts += 1
        self.release(uid)
        self.clear_result(uid)
        self.save_unit(unit)
        return unit

    # ------------------------------------------------------------------
    # doorbells
    # ------------------------------------------------------------------

    def doorbell(self, name: str) -> Optional[Doorbell]:
        """Open this process's bell ``bells/<name>.fifo`` to wait on
        (None where ``os.mkfifo`` is missing or fails: just poll)."""
        if not hasattr(os, "mkfifo"):
            return None
        try:
            return Doorbell(bell_path(self.root, name))
        except OSError:
            return None

    def ring(self, prefix: str) -> None:
        """Wake every waiter on this host whose bell name has *prefix*.

        Writes one byte, non-blocking, to each such FIFO.  Never unlinks
        one: a bell belongs to its owner, or to the fleet that reaps it.
        """
        try:
            names = os.listdir(self.bells_dir)
        except FileNotFoundError:
            return
        for name in names:
            if not name.startswith(prefix):
                continue
            try:
                fd = os.open(self.bells_dir / name,
                             os.O_WRONLY | os.O_NONBLOCK)
                try:
                    os.write(fd, b"\0")
                finally:
                    os.close(fd)
            except OSError as error:
                if error.errno not in _MISSED_RING:
                    raise

    # ------------------------------------------------------------------
    # campaigns + shutdown
    # ------------------------------------------------------------------

    def save_campaign(self, cid: str, spec: Dict) -> None:
        self._write_json(self.campaigns_dir / f"{cid}.json", spec)

    def load_campaigns(self) -> Dict[str, Dict]:
        specs = {}
        for path in sorted(self.campaigns_dir.glob("*.json")):
            data = self._read_json(path)
            if data is not None:
                specs[path.stem] = data
        return specs

    def request_stop(self) -> None:
        (self.root / STOP_SENTINEL).touch()
        self.ring(WORKER_BELL)

    def stop_requested(self) -> bool:
        return (self.root / STOP_SENTINEL).exists()

    def clear_stop(self) -> None:
        try:
            os.unlink(self.root / STOP_SENTINEL)
        except FileNotFoundError:
            pass
