"""Run one owlbench workload; the last line of stdout is its JSON result.

    python3 benchmarks/owlbench/run.py --workload detect-cold --seed 0 \\
        --seconds 40 --trace 0

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` the same workload runs with span wrappers installed and
the result carries the per-layer metrics instead.  Set-up runs
``Scale.setup_repeats`` times and ``setup_s`` is the median.  Exit
status: 0 when every checked report matched, 1 when the correctness
gate failed (the result then reads ``"correct": false``), 2 when the
checkout has no sources to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: scratch space for stores, queues and logs; removed after each run
RUNS_DIR = ROOT / "benchmarks" / "owlbench" / "_runs"


def calibrate() -> float:
    """Seconds for a fixed pure-Python plus NumPy loop (runner speed)."""
    import numpy as np

    started = time.perf_counter()
    total = 0
    for value in range(300_000):
        total += value % 7
    values = np.arange(200_000, dtype=np.float64)
    for _ in range(40):
        values = np.sqrt(values * values + 1.0)
    return time.perf_counter() - started


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="run.py", description="run one owlbench workload")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="length of the timed part")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny protocol sizes and one set-up")
    parser.add_argument("--tamper", action="store_true",
                        help="corrupt every reference report, to prove "
                             "the correctness gate fails")
    parser.add_argument("--out", default=None,
                        help="also write the full record (host block, "
                             "verify_s, sample counts) to this JSON file")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"owlbench: no src/repro under {ROOT}; run from a full "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    import numpy

    from owlbench import layers, spans, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"owlbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    host = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "loadavg_before": os.getloadavg(),
            "calib_s": calibrate()}
    scale = workloads.SMOKE if args.smoke else workloads.FULL
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.active = False
        spans.install(tracer)
    RUNS_DIR.mkdir(parents=True, exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS_DIR))
    workload = workloads.WORKLOADS[args.workload](
        args.seed, scale, root, tracer=tracer, tamper=args.tamper)
    try:
        setups = []
        for _ in range(scale.setup_repeats):
            started = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - started)
        if tracer is not None:
            tracer.active = True
        outcome = workload.timed(args.seconds)
        if tracer is not None:
            tracer.active = False
        workload.stop()
        rss = peak_rss_mb()
        started = time.perf_counter()
        mismatches = workload.verify()
        verify_s = time.perf_counter() - started
    finally:
        workload.stop()
        shutil.rmtree(root, ignore_errors=True)
    host["loadavg_after"] = os.getloadavg()

    e2e = {
        "campaigns_per_s": (workload.campaigns_per_s(), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    samples = {"campaigns_per_s": outcome.attempted - outcome.failed,
               "setup_s": len(setups),
               "e2e.campaign_s.p50": len(outcome.latencies)}
    if tracer is not None:
        found = spans.SpanSet(outcome.dumps + [tracer.export("bench")],
                              outcome.lanes)
        metrics = layers.layer_metrics(found, outcome, layers.span_cost())
    else:
        metrics = e2e

    print(f"owlbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}"
          f"{' smoke' if args.smoke else ''}")
    print("host " + json.dumps(host))
    print(f"timed {outcome.seconds:.3f}s attempted={outcome.attempted} "
          f"failed={outcome.failed}")
    for name, (value, unit) in metrics.items():
        count = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:<32} {value:>14.6g} {unit}{count}")
    what, count = workload.checked
    print(f"verify_s {verify_s:.3f} ({count} {what}"
          f"{', MISMATCH: ' + '; '.join(mismatches) if mismatches else ''})")
    result = {"correct": not mismatches, "attempted": outcome.attempted,
              "failed": outcome.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    if args.out:
        Path(args.out).write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "seconds": outcome.seconds, "host": host,
            "verify_s": verify_s, "samples": samples, "result": result},
            indent=2), encoding="utf-8")
    print(json.dumps(result))
    return 0 if not mismatches else 1


if __name__ == "__main__":
    raise SystemExit(main())
