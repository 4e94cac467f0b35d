"""Run owlbench workloads, each in a fresh process, and tabulate them.

    cd benchmarks && PYTHONPATH=../src python -m owlbench \\
        [--workload NAME ...] [--seed N] [--trace] [--smoke] [--out PATH]

Workload names and the timed length (``run_seconds``) come from the
repository's ``BENCHMARK.json``.  Each workload runs ``run.py`` in its
own process, so ``setup_s`` and ``peak_rss_mb`` belong to that workload
alone; ``--trace`` adds a second, traced process per workload for the
per-layer metrics.
Exits 1 when any workload fails its correctness gate.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: timed length of each workload under --smoke
SMOKE_SECONDS = 0.5


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m owlbench")
    parser.add_argument("--workload", action="append", choices=names,
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true",
                        help="also run each workload traced, for the "
                             "per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny protocol sizes: every workload in seconds")
    parser.add_argument("--out", default=None,
                        help="write every run's full record to this file")
    args = parser.parse_args(argv)
    seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]

    records, status = [], 0
    (HERE / "_runs").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "_runs") as scratch:
        for name in args.workload or names:
            for trace in ((0, 1) if args.trace else (0,)):
                record_path = Path(scratch) / f"{name}-{trace}.json"
                command = [sys.executable, str(HERE / "run.py"),
                           "--workload", name, "--seed", str(args.seed),
                           "--seconds", str(seconds), "--trace", str(trace),
                           "--out", str(record_path)]
                command += ["--smoke"] * args.smoke
                code = subprocess.run(command, cwd=ROOT).returncode
                if code != 0:
                    status = 1
                if record_path.exists():
                    records.append(json.loads(record_path.read_text(
                        encoding="utf-8")))
                else:
                    records.append({"workload": name, "trace": trace,
                                    "exit": code})

    e2e = [metric["name"] for metric in spec["end_to_end"]]
    print("\n" + "  ".join(["workload".ljust(16), *e2e, "verify_s",
                            "correct"]))
    for record in records:
        if record.get("trace") or "result" not in record:
            continue
        metrics = record["result"]["metrics"]
        print("  ".join([record["workload"].ljust(16),
                         *(f"{metrics[n]['value']:.4g}".ljust(len(n))
                           for n in e2e),
                         f"{record['verify_s']:.2f}".ljust(8),
                         str(record["result"]["correct"])]))
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=2) + "\n",
                                  encoding="utf-8")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
