"""Per-chunk worker supervision: retry, deadline, degrade, keep the rest.

The original pool dispatch was all-or-nothing: any infrastructure failure
(a worker death, a sandbox without ``fork``) threw away every completed
chunk and re-ran the whole batch serially — and a ``PicklingError`` raised
*inside* a worker (a real bug) was indistinguishable from a submission
failure, so it was silently swallowed by that fallback.

:class:`ChunkSupervisor` replaces it with three separations:

* **submit-time vs result-time errors** — chunk payloads are pickled by the
  supervisor itself before dispatch; a payload that cannot be pickled
  degrades that one chunk to in-process execution, while any exception a
  worker *returns* (including ``PicklingError`` from worker code) is a real
  bug and propagates unchanged;
* **per-chunk retry under a** :class:`~repro.resilience.retry.RetryPolicy`
  — infrastructure failures (broken pool, chunk deadline exceeded) bump
  only the affected chunks' attempt counters; completed chunks keep their
  results; retries re-dispatch to a fresh pool after a deterministic
  backoff seeded by the campaign seed;
* **bounded degradation** — a chunk that exhausts its attempts runs
  in-process (pool → serial, per chunk), or raises
  :class:`~repro.errors.WorkerError` when the policy forbids degradation.

Results are returned in chunk-index order whatever the completion order,
so downstream evidence folds see runs exactly as the serial loop would —
the bit-identity contract survives every fault.
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import WorkerError
from repro.resilience import events as ev
from repro.resilience.faults import FaultPlan, activated, maybe_fail_chunk
from repro.resilience.retry import RetryPolicy


@dataclass
class ChunkFailure:
    """One failed pooled attempt of one chunk (for messages and logs)."""

    chunk_index: int
    attempt: int
    reason: str


def run_supervised_chunk(worker_fn: Callable, payload: bytes,
                         chunk_index: int, attempt: int,
                         fault_plan: Optional[FaultPlan]) -> Tuple:
    """Worker-side chunk body: unpickle, run under faults, ship events back.

    The payload arrives pre-pickled (the supervisor serialised it to
    separate submit-time from result-time errors); degradations recorded by
    deeper layers during the chunk (cohort → warp, columnar → object) are
    returned alongside the result so the parent can fold them into its
    accounting.
    """
    args = pickle.loads(payload)
    with activated(fault_plan, chunk_index=chunk_index, attempt=attempt,
                   in_worker=True):
        maybe_fail_chunk()
        with ev.collecting_degradations() as log:
            result = worker_fn(*args)
    return result, list(log.events)


class ChunkSupervisor:
    """Dispatches chunks to a process pool and survives its failures."""

    def __init__(self, policy: Optional[RetryPolicy] = None, seed: int = 0,
                 fault_plan: Optional[FaultPlan] = None,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.policy = policy or RetryPolicy()
        self.seed = seed
        self.fault_plan = fault_plan
        self._sleep = sleep

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run(self, worker_fn: Callable,
            chunk_args: Sequence[Tuple]) -> List[object]:
        """Execute ``worker_fn(*args)`` for every chunk; results in order."""
        n = len(chunk_args)
        results: Dict[int, object] = {}
        attempts = [0] * n
        pending = set(range(n))

        payloads: Dict[int, bytes] = {}
        for index in sorted(pending):
            try:
                payloads[index] = pickle.dumps(chunk_args[index])
            except Exception as error:  # submit-time: payload unpicklable
                ev.record_degradation(
                    ev.POOL_TO_SERIAL, "pool",
                    f"chunk payload is not picklable: {error}",
                    chunk=index)
                results[index] = self._run_inproc(worker_fn,
                                                  chunk_args[index], index)
                pending.discard(index)

        first_generation = True
        while pending:
            for index in sorted(pending):
                if attempts[index] < self.policy.max_attempts:
                    continue
                if not self.policy.degrade_to_serial:
                    raise WorkerError(
                        f"chunk {index} failed {attempts[index]} pooled "
                        f"attempts and the retry policy forbids in-process "
                        f"degradation")
                ev.record_degradation(
                    ev.POOL_TO_SERIAL, "pool",
                    f"chunk exhausted {attempts[index]} pooled attempts",
                    chunk=index, attempts=attempts[index])
                results[index] = self._run_inproc(worker_fn,
                                                  chunk_args[index], index)
                pending.discard(index)
            if not pending:
                break
            if not first_generation:
                delay = max(self.policy.backoff_seconds(attempts[index],
                                                        self.seed, index)
                            for index in pending)
                if delay:
                    self._sleep(delay)
            first_generation = False
            self._pool_generation(worker_fn, payloads, attempts, results,
                                  pending)

        return [results[index] for index in range(n)]

    # ------------------------------------------------------------------
    # one pool generation
    # ------------------------------------------------------------------

    def _pool_generation(self, worker_fn: Callable,
                         payloads: Dict[int, bytes], attempts: List[int],
                         results: Dict[int, object], pending: set) -> None:
        """Dispatch every pending chunk to a fresh pool; harvest what we can.

        On a broken pool or an expired chunk deadline the generation is
        abandoned: completed results are kept, every chunk still in flight
        gets an attempt bump, and the caller decides (budget, backoff)
        what happens next.
        """
        order = sorted(pending)
        try:
            pool = ProcessPoolExecutor(max_workers=len(order))
        except OSError as error:
            # the platform cannot give us worker processes at all (e.g. a
            # sandbox without fork): exhaust every pending chunk at once so
            # the caller degrades them in-process without pointless retries
            for index in order:
                attempts[index] = self.policy.max_attempts
                ev.record_degradation(
                    ev.POOL_RETRY, "pool",
                    f"worker pool unavailable: "
                    f"{type(error).__name__}: {error}",
                    chunk=index, attempt=attempts[index])
            return
        future_chunk = {}
        try:
            try:
                for index in order:
                    future = pool.submit(run_supervised_chunk, worker_fn,
                                         payloads[index], index,
                                         attempts[index], self.fault_plan)
                    future_chunk[future] = index
            except (BrokenProcessPool, OSError) as error:
                # a worker died while the generation was still being
                # submitted: the same infrastructure failure as a broken
                # result, so every pending chunk takes the retry rung
                self._note_retry(pending - set(results), attempts,
                                 f"worker pool broke: "
                                 f"{type(error).__name__}: {error}")
                return
            deadline: Optional[float] = None
            if self.policy.chunk_timeout is not None:
                deadline = time.monotonic() + self.policy.chunk_timeout
            not_done = set(future_chunk)
            while not_done:
                timeout = None
                if deadline is not None:
                    timeout = max(0.0, deadline - time.monotonic())
                done, not_done = wait(not_done, timeout=timeout,
                                      return_when=FIRST_COMPLETED)
                for future in done:
                    index = future_chunk[future]
                    try:
                        result, worker_events = future.result()
                    except (BrokenProcessPool, OSError) as error:
                        # infrastructure failure: every chunk still in
                        # flight is suspect — bump and abandon the pool
                        self._note_retry(pending - set(results), attempts,
                                         f"worker pool broke: "
                                         f"{type(error).__name__}: {error}")
                        return
                    except Exception:
                        # result-time error raised by worker code itself —
                        # a real bug (even pickle.PicklingError): propagate
                        # instead of silently degrading
                        raise
                    log = ev.active_log()
                    if log is not None:
                        log.extend(worker_events)
                    results[index] = result
                    pending.discard(index)
                if (deadline is not None and not_done
                        and time.monotonic() >= deadline):
                    late = sorted(future_chunk[f] for f in not_done)
                    for index in late:
                        ev.record_degradation(
                            ev.CHUNK_TIMEOUT, "pool",
                            f"chunk exceeded its "
                            f"{self.policy.chunk_timeout}s deadline",
                            chunk=index, attempt=attempts[index])
                    self._note_retry(set(late), attempts,
                                     "chunk deadline exceeded")
                    return
        finally:
            # wait=False: abandoned generations must not block on a hung or
            # sleeping worker; the processes die with their queued work
            pool.shutdown(wait=False, cancel_futures=True)

    def _note_retry(self, chunks: set, attempts: List[int],
                    reason: str) -> None:
        for index in sorted(chunks):
            attempts[index] += 1
            ev.record_degradation(ev.POOL_RETRY, "pool", reason,
                                  chunk=index, attempt=attempts[index])

    def _run_inproc(self, worker_fn: Callable, args: Tuple,
                    chunk_index: int) -> object:
        """Reference in-process execution of one chunk (fault-exempt)."""
        with activated(self.fault_plan, chunk_index=chunk_index, attempt=0,
                       in_worker=False):
            return worker_fn(*args)
