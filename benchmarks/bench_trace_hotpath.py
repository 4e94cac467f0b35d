"""Trace-recording hot path: per-warp loop, cohorts, replica batches.

Table IV attributes most of Owl's end-to-end cost to trace recording.
Every warp ships its memory accesses as one batch of arrays, normalised
with one ``np.searchsorted`` per launch and bulk-folded into the A-DCFG.
The warp-cohort engine removes the per-warp cost on top: the kernel body
runs once per *launch* over a ``(num_warps, 32)`` lane grid instead of
once per warp (DESIGN.md §10).

This bench times the ladder rungs on single-trace recording (AES and
RSA) and on a small end-to-end ``Owl.detect`` (AES):

* the per-warp loop vs the cohort engine (asserted ≥2× on AES record);
* end to end, the reference recorder (``cohort=False``: per-warp, one
  run at a time) vs the cohort engine with fused replica batches;
* the reference recorder vs replica-cohort batching with equal-input
  dedup — every fixed/random repetition fused into one cohort grid,
  equal inputs recorded once (asserted ≥5× on AES detect e2e at 64+64
  runs);
* separate ks + mi campaigns vs one ``analyzer="both"`` run over a
  shared evidence fold (the PR 8 comparison, asserted ≥1.3×);
* the full-budget pipeline vs adaptive group-sequential early stopping
  at the same replica cap (the PR 9 comparison, asserted ≥2× on AES at
  the paper's 100-replica protocol);

and re-checks bit-identity of the traces while it is at it.

Run modes:

* ``pytest benchmarks/bench_trace_hotpath.py --benchmark-only -s`` — full
  measurement, asserts the speedup bars;
* ``python benchmarks/bench_trace_hotpath.py --smoke`` — one quick pass for
  CI: records the timing artefact and checks equality, no speedup bars
  (shared runners are too noisy to gate merges on a ratio).

``OWL_BENCH_RECORDS`` overrides the per-measurement record count.
"""

from __future__ import annotations

import os
import sys
import time

from _bench_utils import emit_table
from repro.apps.libgpucrypto import aes_program, random_key, rsa_program
from repro.core import Owl, OwlConfig
from repro.tracing.recorder import TraceRecorder

AES_INPUT = bytes(range(16))
RSA_INPUT = 0x6ACF8231

AES_INPUTS = [bytes(range(16)), bytes(range(1, 17))]

#: fixed/random run count of the replica-batching e2e row; pinned (not
#: scaled down in smoke mode) because replica batching amortises per-run
#: work, so the speedup is only meaningful at a realistic repetition count
#: (the paper records 100 repetitions per side)
REPLICA_DETECT_RUNS = 64

#: run count of the adaptive e2e row; pinned at the paper's replica
#: protocol because the saving is the *unrecorded* budget tail — at the
#: default look schedule AES stops at 32 replicas per side, so a 100-run
#: budget saves 68% of the recording where a 64-run budget saves 50%
ADAPTIVE_DETECT_RUNS = 100


def bench_records(default: int = 6) -> int:
    return int(os.environ.get("OWL_BENCH_RECORDS", default))


def seconds_per_record(program, value, cohort: bool, records: int,
                       reps: int) -> float:
    """Best-of-*reps* mean recording time over *records* traces."""
    best = float("inf")
    for _ in range(reps):
        recorder = TraceRecorder(cohort=cohort)
        started = time.perf_counter()
        for _ in range(records):
            recorder.record(program, value)
        best = min(best, (time.perf_counter() - started) / records)
    return best


def detect_seconds(cohort: bool, runs: int, replica_dedup: bool = False,
                   analyzer: str = "ks", adaptive: bool = False,
                   reps: int = 1) -> float:
    """Best-of-*reps* end-to-end ``Owl.detect`` wall clock; ``cohort=False``
    is the reference recorder (per-warp engine, one run at a time)."""
    best = float("inf")
    for _ in range(reps):
        config = OwlConfig(fixed_runs=runs, random_runs=runs, cohort=cohort,
                           always_analyze=True, replica_dedup=replica_dedup,
                           analyzer=analyzer, adaptive=adaptive)
        owl = Owl(aes_program, name="libgpucrypto/AES", config=config)
        started = time.perf_counter()
        owl.detect(inputs=AES_INPUTS, random_input=random_key)
        best = min(best, time.perf_counter() - started)
    return best


def profile(records: int, reps: int, detect_runs: int):
    """{row name: (baseline seconds, fast-path seconds)}.

    The record rows flip only the execution engine; the ``cohort e2e``
    row flips the whole recorder, so its fast side also fuses each
    side's runs into replica batches.
    """
    measurements = {}
    for name, program, value in (("AES record", aes_program, AES_INPUT),
                                 ("RSA record", rsa_program, RSA_INPUT)):
        measurements[f"{name} (cohort)"] = tuple(
            seconds_per_record(program, value, cohort, records, reps)
            for cohort in (False, True))
    # the serial per-warp reference recorder vs the cohort engine plus
    # fused replica batches (the default recorder)
    measurements["AES detect (cohort e2e)"] = tuple(
        detect_seconds(cohort, detect_runs) for cohort in (False, True))
    # replica-cohort batching: the reference recorder vs fused
    # fixed/random replica cohorts with equal-input dedup (AES is a pure
    # function of its input, the documented dedup soundness envelope).
    # Repetition counts matter here — replica batching amortises per-run
    # costs — so this row pins its own run count (identical in smoke and
    # full mode, so the perf-regression check compares like with like)
    # and uses best-of-*reps* on both columns to damp machine noise.
    measurements["AES detect (replica e2e)"] = (
        detect_seconds(False, REPLICA_DETECT_RUNS, reps=reps),
        detect_seconds(True, REPLICA_DETECT_RUNS, replica_dedup=True,
                       reps=reps))
    # the dual-detector budget: analyzer="both" replays ONE recorded fold
    # under both batched tests, so running KS and MI together costs far
    # less than running the two detectors as separate campaigns.  The
    # baseline is the honest alternative — a ks-only detect plus an
    # mi-only detect, summed — against one both-run (PR 8's acceptance
    # bar, both ≤ 1.3x ks-only, is equivalent to this ratio ≥ ~1.5 when
    # the detectors cost alike; asserted ≥ 1.3 to leave noise headroom)
    measurements["AES detect (both e2e)"] = (
        detect_seconds(True, detect_runs, analyzer="ks", reps=reps)
        + detect_seconds(True, detect_runs, analyzer="mi", reps=reps),
        detect_seconds(True, detect_runs, analyzer="both", reps=reps))
    # adaptive early stopping: the full-budget pipeline vs the
    # group-sequential scheduler at the same run cap.  AES's leak is
    # decisive by the second look (32 replicas per side), so most of the
    # recording budget is never spent; run counts matter, so the row
    # pins ADAPTIVE_DETECT_RUNS (identical in smoke and full mode)
    measurements["AES detect (adaptive e2e)"] = (
        detect_seconds(True, ADAPTIVE_DETECT_RUNS, reps=reps),
        detect_seconds(True, ADAPTIVE_DETECT_RUNS, adaptive=True,
                       reps=reps))
    return measurements


def check_equality() -> None:
    """All the rungs must produce byte-identical traces (belt and braces
    — the real coverage lives in tests/tracing/test_columnar.py,
    tests/tracing/test_cohort.py and tests/tracing/test_replica.py)."""
    for program, value in ((aes_program, AES_INPUT),
                           (rsa_program, RSA_INPUT)):
        reference = TraceRecorder(cohort=False).record(program, value)
        fast = TraceRecorder(cohort=True).record(program, value)
        assert fast.signature() == reference.signature(), program
    # replica-batched recording of repeated runs matches run-at-a-time
    from repro.tracing.replica import record_grouped
    values = [AES_INPUT, AES_INPUT, bytes(range(1, 17))]
    groups, _stats = record_grouped(aes_program, values, dedup=True)
    replica_sigs = [trace.signature()
                    for trace, count in groups for _ in range(count)]
    serial_sigs = [TraceRecorder().record(aes_program, value).signature()
                   for value in values]
    assert replica_sigs == serial_sigs


def report(measurements, records: int, smoke: bool):
    rows = []
    speedups = {}
    for name, (baseline_s, fast_s) in measurements.items():
        speedups[name] = baseline_s / fast_s
        rows.append((name, f"{baseline_s:.4f}", f"{fast_s:.4f}",
                     f"{speedups[name]:.2f}x"))
    mode = "smoke" if smoke else f"best-of-reps, {records} records"
    emit_table(
        "trace_hotpath",
        "Trace hot path: per-warp vs cohort, serial vs replica batches "
        f"({mode})",
        ["Workload", "Baseline s", "Fast s", "Speedup"],
        rows)
    return speedups


def run(smoke: bool) -> None:
    check_equality()
    records = bench_records(2 if smoke else 6)
    reps = 1 if smoke else 3
    detect_runs = 2 if smoke else 8
    measurements = profile(records, reps, detect_runs)
    speedups = report(measurements, records, smoke)
    if smoke:
        return
    # the bar that justifies cohort-by-default, over the per-warp loop
    assert speedups["AES record (cohort)"] >= 2.0, speedups
    # the bar that justifies replica-batching-by-default: fused replica
    # cohorts + equal-input dedup vs the reference recorder
    assert speedups["AES detect (replica e2e)"] >= 5.0, speedups
    # the dual-detector budget: one both-run must clearly beat running
    # the ks and mi campaigns separately
    assert speedups["AES detect (both e2e)"] >= 1.3, speedups
    # the bar that justifies adaptive early stopping on a decisive leak
    assert speedups["AES detect (adaptive e2e)"] >= 2.0, speedups


def test_trace_hotpath(benchmark):
    benchmark.pedantic(run, args=(False,), rounds=1, iterations=1)


if __name__ == "__main__":
    sys.exit(run(smoke="--smoke" in sys.argv[1:]))
