"""ChunkSupervisor: retries, deadlines, degradation, error classification.

The worker bodies here are tiny module-level functions (picklable by
qualified name) so the tests exercise the real ``ProcessPoolExecutor``
path with sub-second workloads.
"""

import pickle
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import WorkerError
from repro.resilience import ChunkSupervisor, FaultPlan, RetryPolicy
from repro.resilience import supervisor as supervisor_module
from repro.resilience.events import (
    CHUNK_TIMEOUT,
    POOL_RETRY,
    POOL_TO_SERIAL,
    collecting_degradations,
)


def square_chunk(values):
    return [v * v for v in values]


def failing_chunk(values):
    raise pickle.PicklingError("worker-side bug, not an infra failure")


class TestHappyPath:
    def test_results_in_chunk_order(self):
        supervisor = ChunkSupervisor(policy=RetryPolicy(max_attempts=2))
        results = supervisor.run(square_chunk,
                                 [([1, 2],), ([3],), ([4, 5],)])
        assert results == [[1, 4], [9], [16, 25]]

    def test_no_degradations_recorded_when_healthy(self):
        supervisor = ChunkSupervisor()
        with collecting_degradations() as log:
            supervisor.run(square_chunk, [([1],), ([2],)])
        assert log.events == []


class TestFaultSurvival:
    def test_worker_crash_is_retried_to_success(self):
        plan = FaultPlan.parse("worker_crash:chunk=1")
        supervisor = ChunkSupervisor(
            policy=RetryPolicy(max_attempts=3, backoff_base=0.01,
                               backoff_cap=0.02),
            fault_plan=plan)
        with collecting_degradations() as log:
            results = supervisor.run(square_chunk, [([2],), ([3],)])
        assert results == [[4], [9]]
        assert POOL_RETRY in log.counts_by_kind()

    def test_chunk_timeout_is_retried_to_success(self):
        plan = FaultPlan.parse("chunk_timeout:chunk=0:sleep=1.5")
        supervisor = ChunkSupervisor(
            policy=RetryPolicy(max_attempts=3, chunk_timeout=0.3,
                               backoff_base=0.01, backoff_cap=0.02),
            fault_plan=plan)
        with collecting_degradations() as log:
            results = supervisor.run(square_chunk, [([2],), ([3],)])
        assert results == [[4], [9]]
        counts = log.counts_by_kind()
        assert counts.get(CHUNK_TIMEOUT, 0) >= 1

    def test_persistent_crash_degrades_to_in_process(self):
        # attempts=99: the crash outlives every pooled retry, so the
        # chunk must complete on the fault-exempt in-process rung
        plan = FaultPlan.parse("worker_crash:chunk=0:attempts=99")
        supervisor = ChunkSupervisor(
            policy=RetryPolicy(max_attempts=2, backoff_base=0.01,
                               backoff_cap=0.02),
            fault_plan=plan)
        with collecting_degradations() as log:
            results = supervisor.run(square_chunk, [([7],), ([8],)])
        assert results == [[49], [64]]
        assert POOL_TO_SERIAL in log.counts_by_kind()

    def test_pool_breaking_during_submission_is_retried(self, monkeypatch):
        """A worker that dies while the generation is still being
        submitted breaks ``submit`` itself: that chunk set takes the retry
        rung exactly as a broken result would."""
        submits = []

        class BreaksOnSecondSubmit:
            def __init__(self, max_workers):
                pass

            def submit(self, fn, *args):
                submits.append(args[2])
                if len(submits) == 2:
                    raise BrokenProcessPool("a child process terminated")
                future = Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(supervisor_module, "ProcessPoolExecutor",
                            BreaksOnSecondSubmit)
        supervisor = ChunkSupervisor(policy=RetryPolicy(max_attempts=3),
                                     sleep=lambda seconds: None)
        with collecting_degradations() as log:
            results = supervisor.run(square_chunk, [([2],), ([3],)])
        assert results == [[4], [9]]
        assert log.counts_by_kind().get(POOL_RETRY) == 2
        assert submits == [0, 1, 0, 1]

    def test_degradation_forbidden_raises_worker_error(self):
        plan = FaultPlan.parse("worker_crash:chunk=0:attempts=99")
        supervisor = ChunkSupervisor(
            policy=RetryPolicy(max_attempts=2, backoff_base=0.01,
                               backoff_cap=0.02, degrade_to_serial=False),
            fault_plan=plan)
        with pytest.raises(WorkerError, match="forbids"):
            supervisor.run(square_chunk, [([7],)])


class TestErrorClassification:
    def test_worker_side_exception_propagates(self):
        """A PicklingError raised *by worker code* is a real bug: it must
        surface, never be silently absorbed by a serial fallback."""
        supervisor = ChunkSupervisor(policy=RetryPolicy(max_attempts=3))
        with pytest.raises(pickle.PicklingError, match="worker-side bug"):
            supervisor.run(failing_chunk, [([1],), ([2],)])

    def test_unpicklable_payload_degrades_that_chunk_only(self):
        probe = []

        def closure_chunk(values):  # unpicklable payload member
            probe.extend(values)
            return list(values)

        supervisor = ChunkSupervisor()
        with collecting_degradations() as log:
            results = supervisor.run(
                lambda fn, values: fn(values),
                [(closure_chunk, [1, 2]), (closure_chunk, [3])])
        assert results == [[1, 2], [3]]
        assert probe == [1, 2, 3]
        counts = log.counts_by_kind()
        assert counts.get(POOL_TO_SERIAL) == 2


class TestBackoffWiring:
    def test_sleep_called_with_deterministic_delays(self):
        slept = []
        plan = FaultPlan.parse("worker_crash:chunk=0")
        policy = RetryPolicy(max_attempts=3, backoff_base=0.05,
                             backoff_cap=0.1)
        supervisor = ChunkSupervisor(policy=policy, seed=2024,
                                     fault_plan=plan, sleep=slept.append)
        supervisor.run(square_chunk, [([1],)])
        expected = policy.backoff_seconds(1, 2024, 0)
        assert slept and slept[0] == pytest.approx(expected)
