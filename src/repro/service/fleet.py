"""Worker-process supervision: spawn, watch, restart, requeue.

:class:`WorkerFleet` is :class:`~repro.resilience.supervisor.ChunkSupervisor`
lifted to process granularity.  It spawns ``repro.service.worker``
subprocesses against one queue + store, and on every poll:

* a worker that exited (injected ``die_after``, OOM-kill, crash) is
  reported so the scheduler can revoke its leases and re-queue the units
  (:data:`~repro.resilience.events.WORKER_LOST` →
  :data:`~repro.resilience.events.UNIT_REQUEUED`);
* a replacement is spawned while the restart budget lasts — replacements
  never inherit the fault injection, mirroring how ``ChunkSupervisor``
  retries run fault-free;
* past the budget the fleet stops replacing, and once its last worker
  is gone (:meth:`WorkerFleet.spent`) the scheduler runs every unit
  itself (:data:`~repro.resilience.events.FLEET_TO_LOCAL`).

Worker stdout/stderr land in ``<queue>/logs/<worker>.log`` for CI
artefacts.  A worker killed by :meth:`WorkerFleet.stop`'s SIGTERM, or
one that crashed, cannot remove its doorbell FIFO; the fleet unlinks
the bell of every worker it stops or reaps.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.service.queue import bell_path, host_name, worker_bell_name


def _repro_src_dir() -> str:
    """The directory ``repro`` was imported from, through the same path:
    kernel identities hash the call stack's file paths, so a worker
    importing through a resolved symlink would name every kernel
    differently."""
    import repro
    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def worker_env() -> Dict[str, str]:
    """Subprocess environment with this repro checkout importable."""
    env = dict(os.environ)
    src = _repro_src_dir()
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else os.pathsep.join(
        [src, existing])
    return env


class WorkerFleet:
    """A set of supervised worker subprocesses sharing one queue."""

    def __init__(self, queue_root, store_root, workers: int,
                 poll_seconds: float = 0.05,
                 lease_seconds: float = 30.0,
                 die_after: Optional[int] = None,
                 restart_budget: int = 8) -> None:
        self.queue_root = Path(queue_root)
        self.store_root = Path(store_root)
        self.workers = workers
        self.poll_seconds = poll_seconds
        self.lease_seconds = lease_seconds
        self.die_after = die_after
        self.restart_budget = restart_budget
        self.logs_dir = self.queue_root / "logs"
        self.procs: Dict[str, subprocess.Popen] = {}
        self._log_handles: Dict[str, object] = {}
        self.spawned = 0
        self.restarts = 0

    # ------------------------------------------------------------------

    def _spawn_one(self, inject_fault: bool) -> str:
        # hostname prefix keeps ids unique when remote workers share the
        # queue directory with this fleet (multi-host deployments)
        worker_id = f"{host_name()}-w{self.spawned}"
        self.spawned += 1
        command = [sys.executable, "-m", "repro.service.worker",
                   "--queue", str(self.queue_root),
                   "--store", str(self.store_root),
                   "--worker-id", worker_id,
                   "--poll", str(self.poll_seconds),
                   "--lease-seconds", str(self.lease_seconds)]
        if inject_fault and self.die_after is not None:
            command += ["--die-after", str(self.die_after)]
        self.logs_dir.mkdir(parents=True, exist_ok=True)
        log = open(self.logs_dir / f"{worker_id}.log", "w")
        self._log_handles[worker_id] = log
        self.procs[worker_id] = subprocess.Popen(
            command, env=worker_env(), stdout=log, stderr=subprocess.STDOUT)
        return worker_id

    def start(self) -> List[str]:
        return [self._spawn_one(inject_fault=True)
                for _ in range(self.workers)]

    def live_workers(self) -> List[str]:
        return [wid for wid, proc in self.procs.items()
                if proc.poll() is None]

    def spent(self) -> bool:
        """True once :meth:`poll` reaped the last worker and the restart
        budget forbids another."""
        return (self.spawned > 0 and not self.procs
                and self.restarts >= self.restart_budget)

    def poll(self) -> List[str]:
        """Reap dead workers, spawn replacements; returns the dead ids."""
        dead = []
        for worker_id, proc in list(self.procs.items()):
            if proc.poll() is None:
                continue
            dead.append(worker_id)
            del self.procs[worker_id]
            self._unlink_bell(proc)
            handle = self._log_handles.pop(worker_id, None)
            if handle is not None:
                handle.close()
        for _ in dead:
            if self.restarts >= self.restart_budget:
                continue  # budget spent: let units degrade to the scheduler
            self.restarts += 1
            self._spawn_one(inject_fault=False)
        return dead

    def stop(self, timeout: float = 5.0) -> None:
        for proc in self.procs.values():
            proc.terminate()
        for proc in self.procs.values():
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            self._unlink_bell(proc)
        for handle in self._log_handles.values():
            handle.close()
        self._log_handles.clear()
        self.procs.clear()

    def _unlink_bell(self, proc: subprocess.Popen) -> None:
        """Remove an exited worker's doorbell (its pid names it)."""
        bell_path(self.queue_root, worker_bell_name(proc.pid)).unlink(
            missing_ok=True)
