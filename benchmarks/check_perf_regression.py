"""Perf-regression gate for the trace hot path and the detection service.

Re-measures the end-to-end ``Owl.detect`` rows of
``bench_trace_hotpath.py`` and the multi-tenant amortisation row of
``bench_service_throughput.py`` at their full-mode parameters and
compares each speedup against the committed artefacts
(``benchmarks/results/trace_hotpath.txt`` and
``benchmarks/results/service_throughput.txt``).  A row that loses more
than ``TOLERANCE`` of its committed speedup fails the check — catching
changes that quietly re-serialise the replica path, fatten the per-run
cost, or bloat the service scheduler's per-unit overhead — while staying
robust to the noise of shared CI runners (record-row timings in the
microsecond range are *not* gated; only the e2e ratios are).

Usage::

    python benchmarks/check_perf_regression.py            # measure + compare
    python benchmarks/check_perf_regression.py --reps 3   # damp noise more

Exit status 0 when every gated row holds, 1 on regression, 2 when the
committed artefact is missing or unparsable (run the full bench first).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Dict, Tuple

from bench_service_throughput import service_speedup
from bench_trace_hotpath import (
    ADAPTIVE_DETECT_RUNS, REPLICA_DETECT_RUNS, detect_seconds)

RESULTS = Path(__file__).parent / "results"
HOTPATH_ARTIFACT = RESULTS / "trace_hotpath.txt"
SERVICE_ARTIFACT = RESULTS / "service_throughput.txt"

#: fraction of the committed speedup a row may lose before the gate fails
TOLERANCE = 0.25

#: fewest repetitions of the dual-detector row, whatever ``--reps`` says
BOTH_MIN_REPS = 3


def both_vs_separate_seconds(runs: int, reps: int) -> Tuple[float, float]:
    """``(ks + mi, both)`` best detect seconds over interleaved repetitions.

    Each repetition times the three detects back to back, ``both``
    between ``ks`` and ``mi``, so host drift lands on both sides of the
    ratio alike; each detect keeps its best time over
    ``max(reps, BOTH_MIN_REPS)`` repetitions.
    """
    best = {"ks": float("inf"), "both": float("inf"), "mi": float("inf")}
    for _ in range(max(reps, BOTH_MIN_REPS)):
        for analyzer in best:
            best[analyzer] = min(best[analyzer],
                                 detect_seconds(True, runs, analyzer=analyzer))
    return best["ks"] + best["mi"], best["both"]


#: gated row → (committed artefact, re-measurement at full-mode params)
GATED_ROWS = {
    # the serial per-warp reference recorder vs the cohort engine plus
    # fused replica batches
    "AES detect (cohort e2e)": (HOTPATH_ARTIFACT, lambda reps: (
        detect_seconds(False, 8, reps=reps),
        detect_seconds(True, 8, reps=reps))),
    # the same reference vs fused replica batches with equal-input dedup
    "AES detect (replica e2e)": (HOTPATH_ARTIFACT, lambda reps: (
        detect_seconds(False, REPLICA_DETECT_RUNS, reps=reps),
        detect_seconds(True, REPLICA_DETECT_RUNS, replica_dedup=True,
                       reps=reps))),
    # catches the dual-detector path losing its shared-fold amortisation
    # and drifting toward the cost of two separate campaigns
    "AES detect (both e2e)": (HOTPATH_ARTIFACT, lambda reps: (
        both_vs_separate_seconds(8, reps))),
    # catches the adaptive scheduler losing its early stop (or its
    # interim looks growing expensive enough to eat the saved replicas)
    "AES detect (adaptive e2e)": (HOTPATH_ARTIFACT, lambda reps: (
        detect_seconds(True, ADAPTIVE_DETECT_RUNS, reps=reps),
        detect_seconds(True, ADAPTIVE_DETECT_RUNS, adaptive=True,
                       reps=reps))),
    "service multi-tenant (e2e)": (SERVICE_ARTIFACT, lambda reps: (
        service_speedup(workers=0, reps=reps))),
}

_ROW = re.compile(r"^(?P<name>.+?)\s{2,}[\d.]+\s+[\d.]+\s+"
                  r"(?P<speedup>[\d.]+)x\s*$")


def committed_speedups(text: str) -> Dict[str, float]:
    """Parse {row name: speedup} out of the committed artefact table."""
    speedups = {}
    for line in text.splitlines():
        match = _ROW.match(line)
        if match:
            speedups[match.group("name").strip()] = float(
                match.group("speedup"))
    return speedups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=2,
                        help="best-of-N repetitions per measurement "
                             "(default: 2; the dual-detector row takes "
                             f"at least {BOTH_MIN_REPS}, interleaved)")
    args = parser.parse_args(argv)

    committed = {}
    for artifact in {artifact for artifact, _measure in GATED_ROWS.values()}:
        if not artifact.exists():
            print(f"perf-regression: no committed artefact at {artifact}; "
                  "run the full bench first", file=sys.stderr)
            return 2
        committed.update(committed_speedups(artifact.read_text()))
    missing = sorted(set(GATED_ROWS) - set(committed))
    if missing:
        print(f"perf-regression: artefacts lack gated rows {missing}; "
              "regenerate them with the full benches", file=sys.stderr)
        return 2
    # every committed fast-path row must actually be a speedup: a ratio
    # below 1.0 means a default-on fast path ships slower than its
    # baseline, which is a bug in the artefact, not runner noise
    slow = sorted(name for name, speedup in committed.items()
                  if speedup < 1.0)
    if slow:
        print(f"perf-regression: committed artefact rows below 1.0x "
              f"{slow}; a fast path must not ship slower than its "
              "baseline", file=sys.stderr)
        return 1

    failures = []
    for name, (_artifact, measure) in GATED_ROWS.items():
        baseline_s, fast_s = measure(args.reps)
        speedup = baseline_s / fast_s
        floor = committed[name] * (1 - TOLERANCE)
        verdict = "ok" if speedup >= floor else "REGRESSED"
        print(f"{name}: committed {committed[name]:.2f}x, "
              f"measured {speedup:.2f}x (floor {floor:.2f}x) [{verdict}]")
        if speedup < floor:
            failures.append(name)
    if failures:
        print(f"perf-regression: {len(failures)} row(s) regressed more "
              f"than {TOLERANCE:.0%}: {failures}", file=sys.stderr)
        return 1
    print("perf-regression: all gated rows within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
