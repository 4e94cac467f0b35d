"""Detection-time scaling of the worker-pool recording backend.

The §VIII-A protocol re-executes the program ~2N times; trace recording
dominates end-to-end cost (Table IV), so `detect` should scale with the
worker count until the recording cores run out.  This bench measures full
`Owl.detect` wall time on the AES workload at workers ∈ {1, 2, 4, 8} and
reports speedup over serial plus parallel efficiency (speedup / workers).

Two properties are asserted unconditionally: every worker count produces a
bit-identical leakage report (the pool must not change what is observed),
and the parallel runs keep per-trace cost accounting intact.  The ≥2×
speedup bar at 4 workers is asserted only when the host actually has ≥4
cores — on smaller machines the table still records the (honest) numbers,
with the core count stated in the artefact.
"""

from __future__ import annotations

import os
import time

from _bench_utils import RESULTS_DIR, bench_runs, emit_table
from repro.apps.libgpucrypto import aes_program, random_key
from repro.core import Owl, OwlConfig

WORKER_COUNTS = (1, 2, 4, 8)

AES_INPUTS = [bytes(range(16)), bytes(range(1, 17))]


def detect_once(workers: int, runs: int):
    config = OwlConfig(fixed_runs=runs, random_runs=runs, workers=workers,
                       always_analyze=True)
    owl = Owl(aes_program, name="libgpucrypto/AES", config=config)
    started = time.perf_counter()
    result = owl.detect(inputs=AES_INPUTS, random_input=random_key)
    return time.perf_counter() - started, result


def profile_all(runs: int):
    return {workers: detect_once(workers, runs)
            for workers in WORKER_COUNTS}


def test_parallel_scaling(benchmark):
    runs = bench_runs()
    measurements = benchmark.pedantic(profile_all, args=(runs,), rounds=1,
                                      iterations=1)
    cores = os.cpu_count() or 1

    serial_seconds, serial_result = measurements[1]
    rows = []
    speedups = {}
    for workers in WORKER_COUNTS:
        seconds, result = measurements[workers]
        speedup = serial_seconds / seconds
        speedups[workers] = speedup
        rows.append((
            workers,
            f"{seconds:.2f}",
            f"{speedup:.2f}x",
            f"{100.0 * speedup / workers:.0f}%",
            f"{result.stats.recording_parallelism:.2f}",
        ))
    emit_table(
        "parallel_scaling",
        f"Parallel scaling: AES detect ({runs}+{runs} runs, "
        f"{cores} CPU core{'s' if cores != 1 else ''})",
        ["Workers", "Detect s", "Speedup", "Efficiency", "Rec. overlap"],
        rows)
    # worker speedups are core-count-gated: on a host with fewer cores than
    # workers the extra processes only add dispatch overhead, so read the
    # speedup column against the core count in the title.  Per-trace CPU
    # cost reductions live in trace_hotpath.txt (cohort and replica
    # engines), which help regardless of core count.
    note = ("\nNote: speedup is bounded by the host core count above; "
            "worker counts beyond it measure overhead, not scaling. "
            "Core-count-independent per-trace gains are tracked in "
            "trace_hotpath.txt.\n")
    with open(RESULTS_DIR / "parallel_scaling.txt", "a") as handle:
        handle.write(note)

    # the pool may move work, never change it: every worker count must
    # produce the same report bit for bit
    baseline = serial_result.report.to_json()
    for workers in WORKER_COUNTS[1:]:
        assert measurements[workers][1].report.to_json() == baseline, workers

    # per-trace accounting survives parallelism (the Table IV column keeps
    # meaning per-trace cost, not phase wall clock)
    for workers in WORKER_COUNTS:
        stats = measurements[workers][1].stats
        assert stats.trace_count == 2 + 2 * runs
        assert stats.trace_wall_seconds <= stats.total_seconds

    # the scaling bar only binds where the hardware can deliver it
    if cores >= 4:
        assert speedups[4] >= 2.0, speedups
    if cores >= 2:
        assert speedups[2] >= 1.3, speedups
